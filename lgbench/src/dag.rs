//! The two DAG workloads: `dag_grain` (Task Bench METG over a grain
//! ladder) and `dag_sweep` (a coarse triangular solve under critical-path
//! steering).
//!
//! The driver thread wires each DAG through `DagScope::spawn_after_hinted`,
//! steps the policy engine itself while wiring and while the DAG drains,
//! and detects the drain with `released() == node_count()` and
//! `DagStats::ready_width() == 0`. Node bodies run the same seeded grind
//! as `lg_workloads::dag::expected_checksum`, so every run is checked
//! against the program's own sequential oracle.

use crate::stats::{self, Reservoir, Rung};
use crate::trace::{Layer, SpanRef, Tracer};
use crate::{now_ns, splitmix, thread_tid, us, workers, Outcome, RunCfg, SetupTimes};
use lg_core::{CriticalPathPolicy, DagStats, LookingGlass, PolicyEngine};
use lg_runtime::{DagHint, DagNodeId, PoolConfig, ThreadPool};
use lg_workloads::dag::DagTrace;
use lg_workloads::dag::{expected_checksum, generate, CostModel, DagConfig, DagPattern, DagSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Grind iterations of the finest METG rung; each rung is √2 coarser.
const GRAIN_BASE_ITERS: f64 = 3072.0;
/// Rungs in the METG ladder (3072 .. 139 000 iterations).
const GRAIN_RUNGS: usize = 12;
/// Stencil depth of the METG DAG (width is 4 × workers).
const GRAIN_DEPTH: usize = 256;
/// Runs of the finest rung per ladder pass.
const FINEST_REPS: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Period of the critical-path policy.
const POLICY_PERIOD_NS: u64 = 500_000;
/// The driver steps the engine after every this many wired nodes.
const STEP_EVERY: usize = 256;
/// Pause between drain checks (and engine steps) while a DAG drains.
const DRAIN_POLL: Duration = Duration::from_micros(50);

/// The busywork `lg_workloads::dag` uses for a node (its checksum oracle
/// computes the same recurrence).
fn grind(seed: u64, iters: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

/// One DAG's per-node state, reused across runs of the same spec. Node
/// closures borrow it, so each captures two words and stays on the
/// runtime's inline task tier.
struct Nodes {
    spec: DagSpec,
    iters: Vec<u64>,
    expected: u64,
    vals: Vec<AtomicU64>,
    end: Vec<AtomicU64>,
    /// Traced runs only: body start, worker track, run order.
    begin: Vec<AtomicU64>,
    tid: Vec<AtomicU32>,
    order: Option<DagTrace>,
    seq: AtomicU64,
}

impl Nodes {
    fn new(spec: DagSpec) -> Self {
        let n = spec.nodes();
        let iters = spec.ops.iter().map(|&o| o.max(1.0) as u64).collect();
        let atomics = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Self {
            iters,
            expected: 0,
            vals: atomics(n),
            end: atomics(n),
            begin: atomics(n),
            tid: (0..n).map(|_| AtomicU32::new(0)).collect(),
            order: None,
            seq: AtomicU64::new(1),
            spec,
        }
    }

    fn n(&self) -> usize {
        self.spec.nodes()
    }

    /// The useful work of a node: the grind plus its completion stamp.
    #[inline]
    fn work(&self, node: usize) {
        let v = grind(splitmix(node as u64), self.iters[node]);
        self.vals[node].store(v, Ordering::Relaxed);
        self.end[node].store(now_ns(), Ordering::Relaxed);
    }

    /// A node body as the pool runs it.
    #[inline]
    fn body(&self, node: usize) {
        match &self.order {
            None => self.work(node),
            Some(t) => {
                self.begin[node].store(now_ns(), Ordering::Relaxed);
                self.tid[node].store(thread_tid(), Ordering::Relaxed);
                t.runs[node].fetch_add(1, Ordering::Relaxed);
                t.begin_seq[node]
                    .store(self.seq.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                self.work(node);
                t.end_seq[node].store(self.seq.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }

    /// Clears every node's value and completion stamp, so a node that
    /// does not run shows in the checksum and in the drain checks.
    fn reset(&mut self, traced: bool) {
        for (v, e) in self.vals.iter().zip(&self.end) {
            v.store(0, Ordering::Relaxed);
            e.store(0, Ordering::Relaxed);
        }
        self.order = traced.then(|| DagTrace::new(self.n()));
        self.seq.store(1, Ordering::Relaxed);
    }

    fn checksum(&self) -> u64 {
        (0..self.n()).fold(0, |acc, i| {
            acc ^ self.vals[i].load(Ordering::Relaxed) ^ splitmix(i as u64)
        })
    }

    /// Sequential baseline: the same work, in node order, on the driver.
    fn run_sequential(&mut self) -> (u64, bool) {
        self.reset(false);
        let t = Instant::now();
        for node in 0..self.n() {
            self.work(node);
        }
        let ns = t.elapsed().as_nanos() as u64;
        (ns, self.checksum() == self.expected)
    }

    /// Per-node time from the moment the node could run (its last
    /// dependency finished, or the DAG started) to its body's end.
    fn sojourn_us(&self, start_ns: u64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n());
        for node in 0..self.n() {
            let ready = self
                .spec
                .preds_of(node)
                .iter()
                .map(|&p| self.end[p as usize].load(Ordering::Relaxed))
                .max()
                .unwrap_or(start_ns);
            let end = self.end[node].load(Ordering::Relaxed);
            out.push(us(end.saturating_sub(ready) as f64));
        }
        out
    }
}

/// Pool, instance and control plane of one DAG workload.
struct Stack {
    pool: ThreadPool,
    lg: Arc<LookingGlass>,
    stats: Arc<DagStats>,
    engine: Arc<PolicyEngine>,
}

fn build_stack(workers: usize) -> Stack {
    let lg = LookingGlass::builder().build();
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(workers));
    let stats = DagStats::new();
    stats.register_on(lg.introspection());
    let engine = lg.policy_engine().clone();
    engine.register_periodic(
        Box::new(CriticalPathPolicy::new("dag.critical_bias", workers)),
        POLICY_PERIOD_NS,
        lg.now_ns(),
    );
    Stack {
        pool,
        lg,
        stats,
        engine,
    }
}

/// Pool counters read around a DAG run.
#[derive(Clone, Copy, Default)]
struct PoolCounts {
    executed: u64,
    steals: u64,
    parks: u64,
    lifo: u64,
    priority: u64,
    boxed: u64,
}

impl PoolCounts {
    fn read(pool: &ThreadPool) -> Self {
        let c = |name: &str| pool.counters().counter(name).get();
        Self {
            executed: c("rt.executed"),
            steals: c("rt.steals"),
            parks: c("rt.parks"),
            lifo: c("rt.lifo_hits"),
            priority: c("rt.priority_pushes"),
            boxed: c("rt.boxed_tasks"),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            executed: self.executed - before.executed,
            steals: self.steals - before.steals,
            parks: self.parks - before.parks,
            lifo: self.lifo - before.lifo,
            priority: self.priority - before.priority,
            boxed: self.boxed - before.boxed,
        }
    }

    fn add(&mut self, o: Self) {
        self.executed += o.executed;
        self.steals += o.steals;
        self.parks += o.parks;
        self.lifo += o.lifo;
        self.priority += o.priority;
        self.boxed += o.boxed;
    }
}

/// Everything the driver learns from one DAG run.
struct DagRun {
    start_ns: u64,
    makespan_ns: u64,
    drain_ns: u64,
    counts: PoolCounts,
    knob_writes: u64,
    failed: bool,
}

/// Engine-side tallies over a phase.
#[derive(Default)]
struct Control {
    steps: u64,
    fired_rounds: u64,
    step_us: Vec<f64>,
}

fn step(stack: &Stack, control: &mut Control, tracer: &mut Tracer, parent: Option<SpanRef>) {
    let t0 = now_ns();
    let fired = stack.engine.step(stack.lg.now_ns());
    control.steps += 1;
    control.fired_rounds += u64::from(fired > 0);
    if tracer.enabled() {
        let t1 = now_ns();
        tracer.record(
            Layer::Policy,
            "PolicyEngine::step",
            t0,
            t1,
            control.steps,
            parent,
            0,
        );
        control.step_us.push(us((t1 - t0) as f64));
    }
}

/// Wires `nodes` on the pool, steps the engine until the DAG drains, and
/// checks the result against the oracle. `observe` false runs with the
/// dispatcher off (no profiler, no concurrency listener).
fn run_dag(
    stack: &Stack,
    nodes: &mut Nodes,
    run_id: u64,
    observe: bool,
    control: &mut Control,
    tracer: &mut Tracer,
    wire_ns: &mut Vec<f64>,
) -> DagRun {
    nodes.reset(tracer.enabled());
    let n = nodes.n();
    let journal = stack.lg.knobs().journal().clone();
    let before = PoolCounts::read(&stack.pool);
    let profiled0 = stack.lg.profiles().total_completed();
    let j0 = journal.total_recorded();
    stack.lg.dispatcher().set_enabled(observe);
    let root = tracer.open(Layer::Driver, 0);
    let start_ns = now_ns();
    let nodes_ref: &Nodes = nodes;
    let name = nodes_ref.spec.config.pattern.name();
    let scoped = catch_unwind(AssertUnwindSafe(|| {
        stack.pool.dag_scope_observed(stack.stats.clone(), |g| {
            let mut ids: Vec<DagNodeId> = Vec::with_capacity(n);
            let mut deps: Vec<DagNodeId> = Vec::new();
            for node in 0..n {
                deps.clear();
                deps.extend(
                    nodes_ref
                        .spec
                        .preds_of(node)
                        .iter()
                        .map(|&p| ids[p as usize]),
                );
                let hint = DagHint {
                    critical: nodes_ref.spec.critical[node],
                    height_ns: nodes_ref.spec.height_ns[node],
                };
                let t0 = if tracer.enabled() { now_ns() } else { 0 };
                ids.push(g.spawn_after_hinted(name, &deps, hint, move || nodes_ref.body(node)));
                if tracer.enabled() {
                    let t1 = now_ns();
                    tracer.record(
                        Layer::Runtime,
                        "DagScope::spawn_after_hinted",
                        t0,
                        t1,
                        node as u64,
                        Some(root),
                        0,
                    );
                    wire_ns.push((t1 - t0) as f64);
                }
                if node % STEP_EVERY == STEP_EVERY - 1 {
                    step(stack, control, tracer, Some(root));
                }
            }
            let wired = now_ns();
            let drain = tracer.open(Layer::Runtime, 0);
            while !(g.released() == g.node_count() && stack.stats.ready_width() == 0.0) {
                step(stack, control, tracer, Some(drain));
                std::thread::sleep(DRAIN_POLL);
            }
            (wired, drain)
        })
    }));
    let drained = now_ns();
    stack.lg.dispatcher().set_enabled(true);
    let counts = PoolCounts::read(&stack.pool).since(before);
    let knob_writes = journal.total_recorded() - j0;
    let Ok((wired, drain)) = scoped else {
        // A node panicked: the scope drained and re-threw.
        return DagRun {
            start_ns,
            makespan_ns: drained - start_ns,
            drain_ns: 0,
            counts,
            knob_writes,
            failed: true,
        };
    };
    tracer.close(drain, "dag.drain", wired, drained, run_id, Some(root));
    tracer.close(root, "dag.run", start_ns, drained, run_id, None);

    let last_end = nodes
        .end
        .iter()
        .map(|e| e.load(Ordering::Relaxed))
        .max()
        .unwrap_or(0);
    let mut failed = nodes.end.iter().any(|e| e.load(Ordering::Relaxed) == 0)
        || nodes.checksum() != nodes.expected
        || counts.boxed != 0
        || counts.executed != n as u64;
    if observe {
        failed |= stack.lg.profiles().total_completed() - profiled0 != n as u64;
    }
    if let Some(order) = &nodes.order {
        failed |= catch_unwind(AssertUnwindSafe(|| {
            order.assert_valid_execution(&nodes.spec)
        }))
        .is_err();
        for node in 0..n {
            let b = nodes.begin[node].load(Ordering::Relaxed);
            let e = nodes.end[node].load(Ordering::Relaxed);
            let tid = nodes.tid[node].load(Ordering::Relaxed);
            let s = tracer.open(Layer::App, tid);
            tracer.close(s, "dag.node.body", b, e, node as u64, Some(root));
        }
    }
    DagRun {
        start_ns,
        makespan_ns: last_end.saturating_sub(start_ns).max(1),
        drain_ns: drained - wired,
        counts,
        knob_writes,
        failed,
    }
}

/// Tallies shared by both DAG workloads.
#[derive(Default)]
struct Tally {
    counts: PoolCounts,
    tasks: u64,
    knob_writes: u64,
    drain_ms: Vec<f64>,
    body_us: Vec<f64>,
    sojourn_us: Reservoir,
    /// Makespans of the observed DAGs.
    observed_ns: Vec<f64>,
    bare_ns: Vec<f64>,
    failed: u64,
    attempted: u64,
}

impl Tally {
    /// Tasks per second over the observed DAGs, from the 10 %-trimmed
    /// mean makespan: a DAG that a host stall hit does not count, a host
    /// that runs slower for part of the run counts in proportion.
    fn tasks_per_s(&self) -> f64 {
        let per_dag = self.tasks as f64 / self.observed_ns.len().max(1) as f64;
        per_dag / (stats::trimmed_mean(&self.observed_ns, 0.1) / 1e9)
    }

    fn take(&mut self, run: &DagRun, nodes: &Nodes) {
        self.counts.add(run.counts);
        self.tasks += nodes.n() as u64;
        self.knob_writes += run.knob_writes;
        self.drain_ms.push(run.drain_ns as f64 / 1e6);
        for s in nodes.sojourn_us(run.start_ns) {
            self.sojourn_us.push(s);
        }
        self.observed_ns.push(run.makespan_ns as f64);
        if nodes.order.is_some() {
            for node in 0..nodes.n() {
                let b = nodes.begin[node].load(Ordering::Relaxed);
                let e = nodes.end[node].load(Ordering::Relaxed);
                self.body_us.push(us(e.saturating_sub(b) as f64));
            }
        }
    }
}

/// Per-layer figures both DAG workloads report.
fn dag_layers(
    out: &mut Outcome,
    stack: &Stack,
    tally: &Tally,
    control: &Control,
    wire_ns: &[f64],
    engine0: (u64, u64, u64, u64, u64),
) {
    let tasks = tally.tasks.max(1) as f64;
    let c = tally.counts;
    let (evals0, fast0, acts0, merges0, skipped0) = engine0;
    let e = &stack.engine;
    let intro = stack.lg.introspection();
    let rounds = control.fired_rounds.max(1) as f64;
    let l = &mut out.layers;
    l.insert("runtime.dag.wire_ns.p50", stats::percentile(wire_ns, 50.0));
    l.insert(
        "runtime.dag.wire_ns.p99",
        stats::supported_percentile(wire_ns, 99.0).0,
    );
    l.insert("runtime.dag.drain_ms", stats::median(&tally.drain_ms));
    l.insert(
        "runtime.dag.body_us.p50",
        stats::percentile(&tally.body_us, 50.0),
    );
    l.insert("runtime.pool.steals_per_task", c.steals as f64 / tasks);
    l.insert("runtime.pool.parks_per_task", c.parks as f64 / tasks);
    l.insert("runtime.pool.lifo_hit_frac", c.lifo as f64 / tasks);
    l.insert("runtime.pool.priority_push_frac", c.priority as f64 / tasks);
    l.insert("runtime.pool.boxed_tasks", c.boxed as f64);
    if !tally.bare_ns.is_empty() {
        let share = 1.0 - stats::median(&tally.bare_ns) / stats::median(&tally.observed_ns);
        l.insert("core.observe.share", share);
    }
    l.insert(
        "core.profile.count",
        stack.lg.profiles().total_completed() as f64,
    );
    l.insert(
        "core.snapshot.merges_per_round",
        (intro.merges() - merges0) as f64 / rounds,
    );
    l.insert(
        "core.snapshot.skipped_per_round",
        (intro.skipped() - skipped0) as f64 / rounds,
    );
    l.insert(
        "core.policy.step_us.p50",
        stats::percentile(&control.step_us, 50.0),
    );
    l.insert(
        "core.policy.step_us.p99",
        stats::supported_percentile(&control.step_us, 99.0).0,
    );
    l.insert(
        "core.policy.fast_path_frac",
        (e.fast_path_steps() - fast0) as f64 / control.steps.max(1) as f64,
    );
    l.insert("core.policy.evaluations", (e.evaluations() - evals0) as f64);
    l.insert(
        "core.policy.adaptation_latency_us",
        e.adaptation_latency_mean_ns().map_or(0.0, us),
    );
    l.insert("core.knob.writes", (e.actuations() - acts0) as f64);
    l.insert("core.knob.writes_during_drain", tally.knob_writes as f64);
}

fn engine_marks(stack: &Stack) -> (u64, u64, u64, u64, u64) {
    let e = &stack.engine;
    let intro = stack.lg.introspection();
    (
        e.evaluations(),
        e.fast_path_steps(),
        e.actuations(),
        intro.merges(),
        intro.skipped(),
    )
}

/// Every journaled write came from the engine: actuations equal the
/// journal's growth over the phase.
fn journal_matches(stack: &Stack, acts0: u64, journal0: u64) -> bool {
    stack.engine.actuations() - acts0 == stack.lg.knobs().journal().total_recorded() - journal0
}

fn grain_spec(workers: usize, rung: usize, seed: u64) -> DagSpec {
    let cfg = DagConfig {
        pattern: DagPattern::Stencil1d,
        width: 4 * workers,
        depth: GRAIN_DEPTH,
        grain_ops: (GRAIN_BASE_ITERS * 2f64.powf(rung as f64 / 2.0)).round(),
        grain_spread: 0.0,
        comm_bytes: 0.0,
        seed,
    };
    generate(&cfg, &CostModel::default())
}

/// `dag_grain`: Task Bench METG on the real pool with the full
/// looking-glass attached.
pub fn grain(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let w = workers();
    // Inputs are generated before the pool exists: a new pool's workers
    // start, spin and wake from short parks while they find no work, and
    // on a small machine that slows the generation by a varying amount.
    let build = || {
        let ladder: Vec<Nodes> = (0..GRAIN_RUNGS)
            .map(|r| Nodes::new(grain_spec(w, r, cfg.seed)))
            .collect();
        (build_stack(w), ladder)
    };
    let ((stack, mut ladder), mut setup) = SetupTimes::first(SETUP_REPS, cfg.seconds, build);
    for nodes in &mut ladder {
        nodes.expected = expected_checksum(&nodes.spec, 1.0);
    }
    let marks = engine_marks(&stack);
    let journal0 = stack.lg.knobs().journal().total_recorded();
    let mut control = Control::default();
    let mut tally = Tally::default();
    let mut wire_ns = Vec::new();
    let mut eff: Vec<Vec<f64>> = vec![Vec::new(); GRAIN_RUNGS];
    let mut grain_us: Vec<Vec<f64>> = vec![Vec::new(); GRAIN_RUNGS];
    let mut run_id = 0u64;
    let deadline = cfg.deadline();
    let t_measure = Instant::now();
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        passes += 1;
        for (r, nodes) in ladder.iter_mut().enumerate() {
            setup.tick(build);
            step(&stack, &mut control, tracer, None);
            let (seq_ns, seq_ok) = nodes.run_sequential();
            // The finest rung carries the end-to-end figures: run it more.
            for _ in 0..if r == 0 { FINEST_REPS } else { 1 } {
                run_id += 1;
                let run = run_dag(
                    &stack,
                    nodes,
                    run_id,
                    true,
                    &mut control,
                    tracer,
                    &mut wire_ns,
                );
                tally.attempted += nodes.n() as u64;
                if run.failed || !seq_ok {
                    tally.failed += nodes.n() as u64;
                }
                eff[r].push(seq_ns as f64 / (w as f64 * run.makespan_ns as f64));
                grain_us[r].push(us(seq_ns as f64) / nodes.n() as f64);
                if r > 0 {
                    continue;
                }
                tally.take(&run, nodes);
                if tracer.enabled() {
                    // The traced run pairs every finest-rung DAG with one
                    // that has the dispatcher switched off.
                    run_id += 1;
                    let bare = run_dag(
                        &stack,
                        nodes,
                        run_id,
                        false,
                        &mut control,
                        tracer,
                        &mut wire_ns,
                    );
                    tally.attempted += nodes.n() as u64;
                    tally.failed += if bare.failed { nodes.n() as u64 } else { 0 };
                    tally.bare_ns.push(bare.makespan_ns as f64);
                }
            }
        }
    }
    let measured_s = t_measure.elapsed().as_secs_f64();
    let rungs: Vec<Rung> = (0..GRAIN_RUNGS)
        .map(|r| Rung {
            grain_us: stats::median(&grain_us[r]),
            efficiency: stats::median(&eff[r]),
        })
        .collect();
    let metg = stats::metg(&rungs, 0.5);
    let mut out = Outcome {
        setup_s: setup.median_s(),
        ops_per_s: tally.tasks_per_s(),
        goodput_frac: 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        attempted: tally.attempted + 1,
        failed: tally.failed,
        ..Outcome::default()
    };
    let sojourn = tally.sojourn_us.samples();
    let (p99, p) = stats::supported_percentile(sojourn, 99.0);
    out.op_us_p50 = stats::percentile(sojourn, 50.0);
    out.op_us_p99 = p99;
    match metg {
        Ok(m) => {
            out.layers.insert("wl.dag_grain.metg_us", m);
        }
        Err(e) => {
            out.failed += 1;
            out.notes
                .push(format!("METG: ladder never crossed 0.5 ({e:?})"));
        }
    }
    if !journal_matches(&stack, marks.2, journal0) {
        out.failed += 1;
        out.notes
            .push("knob journal does not match engine actuations".into());
    }
    out.layers.insert("wl.dag_grain.tasks_per_s", out.ops_per_s);
    dag_layers(&mut out, &stack, &tally, &control, &wire_ns, marks);
    out.notes.push(format!(
        "dag_grain: {w} workers, stencil {}x{}, {passes} ladder passes in {measured_s:.1} s",
        4 * w,
        GRAIN_DEPTH
    ));
    for (r, rung) in rungs.iter().enumerate() {
        let (lo, hi) = stats::quartiles(&eff[r]).unwrap_or((rung.efficiency, rung.efficiency));
        out.notes.push(format!(
            "  rung {r:>2}: grain {:>7.2} us  efficiency {:.3} (IQR {:.3}..{:.3})",
            rung.grain_us, rung.efficiency, lo, hi
        ));
    }
    out.notes.push(format!(
        "  METG {}  finest rung {:.0} tasks/s  task sojourn p50 {:.2} us p{p} {:.2} us  \
         steals/task {:.4}  knob writes during drains {}",
        metg.map_or("n/a".to_string(), |m| format!("{m:.2} us")),
        out.ops_per_s,
        out.op_us_p50,
        out.op_us_p99,
        tally.counts.steals as f64 / tally.tasks.max(1) as f64,
        tally.knob_writes
    ));
    out
}

/// `dag_sweep`: a coarse heavy-tailed triangular solve whose makespan is
/// decided by ready order and the priority lane.
pub fn sweep(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let w = workers();
    // Generated before the pool exists, as in `grain`.
    let build = || {
        let spec = generate(
            &DagConfig {
                pattern: DagPattern::Sweep,
                width: 16 * w,
                depth: 48,
                grain_ops: 45_000.0,
                grain_spread: 8.0,
                comm_bytes: 0.0,
                seed: cfg.seed,
            },
            &CostModel::default(),
        );
        let nodes = Nodes::new(spec);
        (build_stack(w), nodes)
    };
    let ((stack, mut nodes), mut setup) = SetupTimes::first(SETUP_REPS, cfg.seconds, build);
    nodes.expected = expected_checksum(&nodes.spec, 1.0);
    let marks = engine_marks(&stack);
    let journal0 = stack.lg.knobs().journal().total_recorded();
    let mut control = Control::default();
    let mut tally = Tally::default();
    let mut wire_ns = Vec::new();
    let mut run_id = 0u64;
    let deadline = cfg.deadline();
    while run_id == 0 || Instant::now() < deadline {
        setup.tick(build);
        step(&stack, &mut control, tracer, None);
        run_id += 1;
        // Traced runs alternate observed and dispatcher-off DAGs.
        let observe = !tracer.enabled() || run_id % 2 == 1;
        let run = run_dag(
            &stack,
            &mut nodes,
            run_id,
            observe,
            &mut control,
            tracer,
            &mut wire_ns,
        );
        tally.attempted += nodes.n() as u64;
        if run.failed {
            tally.failed += nodes.n() as u64;
        }
        if observe {
            tally.take(&run, &nodes);
        } else {
            tally.bare_ns.push(run.makespan_ns as f64);
        }
    }
    let makespan = stats::median(&tally.observed_ns);
    // The sweep's operation as its user sees it is the whole solve.
    let makespan_us: Vec<f64> = tally.observed_ns.iter().map(|&v| us(v)).collect();
    let (p99, p) = stats::supported_percentile(&makespan_us, 99.0);
    let sojourn = tally.sojourn_us.samples();
    let mut out = Outcome {
        setup_s: setup.median_s(),
        ops_per_s: tally.tasks_per_s(),
        op_us_p50: stats::percentile(&makespan_us, 50.0),
        op_us_p99: p99,
        goodput_frac: 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        attempted: tally.attempted,
        failed: tally.failed,
        ..Outcome::default()
    };
    if !journal_matches(&stack, marks.2, journal0) {
        out.failed += 1;
        out.notes
            .push("knob journal does not match engine actuations".into());
    }
    out.layers
        .insert("wl.dag_sweep.makespan_ms", makespan / 1e6);
    dag_layers(&mut out, &stack, &tally, &control, &wire_ns, marks);
    out.notes.push(format!(
        "dag_sweep: {w} workers, {} nodes, {run_id} DAGs, makespan p50 {:.3} ms p{p} {:.3} ms, \
         task sojourn p50 {:.1} us p99 {:.1} us, priority pushes/task {:.3}, knob writes {}",
        nodes.n(),
        out.op_us_p50 / 1e3,
        out.op_us_p99 / 1e3,
        stats::percentile(sojourn, 50.0),
        stats::supported_percentile(sojourn, 99.0).0,
        tally.counts.priority as f64 / tally.tasks.max(1) as f64,
        tally.knob_writes
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_fails_when_a_node_never_runs() {
        let mut nodes = Nodes::new(grain_spec(1, 0, 7));
        nodes.expected = expected_checksum(&nodes.spec, 1.0);
        // A complete earlier run must not hide a node missing from the next.
        assert!(nodes.run_sequential().1);
        nodes.reset(false);
        let skipped = nodes.n() / 2;
        for node in (0..nodes.n()).filter(|&n| n != skipped) {
            nodes.work(node);
        }
        assert_ne!(nodes.checksum(), nodes.expected);
    }
}
