//! `serve`: open-loop Poisson arrivals at two fixed absolute rates
//! through `Brownout` → `AdmissionGate` → `Bulkhead` →
//! `ThreadPool::spawn_named`, with `AimdPolicy` on the bulkhead and
//! `BrownoutPolicy` (level cap 4) reading a window-mean latency that the
//! request bodies publish through `LookingGlass::sample`.
//!
//! The run alternates nominal and overload segments; each segment builds
//! a fresh instance, pool and admission plane, so `setup_s` is the median
//! over segments. Latency is timed from each request's due time.

use crate::stats::{self, DueLatency};
use crate::trace::{Layer, Tracer};
use crate::{allowed_cpus, now_ns, serve_workers, set_cpus, thread_tid, us, Outcome, RunCfg};
use lg_core::{
    AdmissionGate, AimdPolicy, Brownout, BrownoutPolicy, Bulkhead, BulkheadPermit, LookingGlass,
    RequestClass,
};
use lg_runtime::{PoolConfig, ThreadPool};
use lg_workloads::serve::{ArrivalGen, ArrivalPattern, Request};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal rate: about half the pool's capacity (README.md, "serve").
pub const NOMINAL_PER_S: f64 = 5_000.0;
/// Overload rate: above the pool's capacity.
pub const OVERLOAD_PER_S: f64 = 12_000.0;
/// Mean service demand (exponential), ns.
const SERVICE_MEAN_NS: u64 = 100_000;
const MANDATORY_BUDGET_NS: u64 = 20_000_000;
const OPTIONAL_BUDGET_NS: u64 = 10_000_000;
/// Target segment length; the run is cut into an even number of them.
const SEGMENT_S: f64 = 0.5;
/// Period of the AIMD and brownout policies.
const POLICY_PERIOD_NS: u64 = 2_000_000;
/// Trailing window of the latency mean both policies read.
const LATENCY_WINDOW_NS: u64 = 20_000_000;
const LATENCY_METRIC: &str = "serve.latency_ns";

/// Per-request state shared with the request bodies. A body captures an
/// `Arc` of this, its bulkhead permit and its index: three words, so it
/// stays on the runtime's inline task tier.
struct Segment {
    lg: Arc<LookingGlass>,
    /// Absolute due time (process time base), ns.
    due: Vec<u64>,
    service: Vec<u64>,
    begin: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
    tid: Vec<AtomicU32>,
}

impl Segment {
    fn body(&self, i: usize) {
        let start = now_ns();
        self.begin[i].store(start, Ordering::Relaxed);
        let until = start + self.service[i];
        while now_ns() < until {
            std::hint::spin_loop();
        }
        let done = now_ns();
        self.done[i].store(done, Ordering::Relaxed);
        self.tid[i].store(thread_tid(), Ordering::Relaxed);
        self.lg
            .sample(LATENCY_METRIC, done.saturating_sub(self.due[i]) as f64);
    }
}

struct Plane {
    pool: ThreadPool,
    lg: Arc<LookingGlass>,
    brownout: Brownout,
    gate: AdmissionGate,
    bulkhead: Bulkhead,
}

/// Builds one segment's instance, pool and admission plane. `cpus` is the
/// process's CPU set, read once before the first segment pins the driver.
fn build_plane(w: usize, cpus: &[usize]) -> Plane {
    let lg = LookingGlass::builder().sample_history(4_096).build();
    // The workers inherit the CPUs the driver holds when it builds the
    // pool: give them all but the driver's own CPU, then pin the driver.
    let split = cpus.len() > w;
    if split {
        set_cpus(&cpus[1..]);
    }
    let pool = ThreadPool::new(lg.clone(), PoolConfig::with_workers(w));
    if split {
        set_cpus(&cpus[..1]);
    }
    let brownout = Brownout::new("serve.shed_level");
    // The gate's rate sits above the overload rate: it bounds the bursts
    // a late generator sends without taking over the bulkhead's job.
    let gate = AdmissionGate::new(
        "serve.admit_rate",
        100,
        1_000_000,
        (OVERLOAD_PER_S * 1.25) as i64,
        256.0,
        16.0,
    );
    let bulkhead = Bulkhead::new("serve.bulkhead_limit", 2, 64, 32);
    for knob in [
        brownout.level_knob(),
        gate.rate_knob(),
        bulkhead.limit_knob(),
    ] {
        lg.knobs().register(knob.clone());
    }
    let samples = lg.samples().expect("sample history enabled").clone();
    let latency = lg.introspection().register_window_mean(
        "serve.latency_window_ns",
        samples,
        LATENCY_METRIC,
        LATENCY_WINDOW_NS,
    );
    let engine = lg.policy_engine();
    let now = lg.now_ns();
    engine.register_periodic(
        AimdPolicy::new("serve.bulkhead_limit", 2, 64, 32, 2, 0.7).on_latency_above(latency, 5e6),
        POLICY_PERIOD_NS,
        now,
    );
    engine.register_periodic(
        BrownoutPolicy::new("serve.shed_level", latency, 8e6, 4e6).with_max_level(4),
        POLICY_PERIOD_NS,
        now,
    );
    Plane {
        pool,
        lg,
        brownout,
        gate,
        bulkhead,
    }
}

/// Tallies of one rate over all its segments.
#[derive(Default)]
struct RateTally {
    offered: u64,
    shed: u64,
    mandatory_shed: u64,
    busy: u64,
    completed: u64,
    on_time: u64,
    lat: DueLatency,
    /// Each segment's median due-time latency, µs.
    segment_p50_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    spawn_ns: Vec<f64>,
    admit_ns: Vec<f64>,
    step_us: Vec<f64>,
    knob_writes: u64,
    evaluations: u64,
    fast_steps: u64,
    steps: u64,
    fired_rounds: u64,
    merges: u64,
    skipped: u64,
    steals: u64,
    parks: u64,
    lifo: u64,
    boxed: u64,
    profiled: u64,
    adapt_ns: Vec<f64>,
    final_level: i64,
    setup_s: Vec<f64>,
    failed: u64,
}

fn budget(class: RequestClass) -> u64 {
    match class {
        RequestClass::Mandatory => MANDATORY_BUDGET_NS,
        RequestClass::Optional => OPTIONAL_BUDGET_NS,
    }
}

fn run_segment(
    rate: f64,
    seed: u64,
    seconds: f64,
    w: usize,
    cpus: &[usize],
    t: &mut RateTally,
    tracer: &mut Tracer,
) {
    let t_setup = Instant::now();
    let plane = build_plane(w, cpus);
    let reqs: Vec<Request> = ArrivalGen {
        pattern: ArrivalPattern::Poisson { rate_per_sec: rate },
        seed,
        optional_frac: 0.3,
        service_mean_ns: SERVICE_MEAN_NS,
        mandatory_budget_ns: MANDATORY_BUDGET_NS,
        optional_budget_ns: OPTIONAL_BUDGET_NS,
        dests: 1,
    }
    .generate((seconds * 1e9) as u64);
    let n = reqs.len();
    let atomics = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    // Arrivals start a little after set-up so the first ones are not
    // already late.
    let base = now_ns() + 1_000_000;
    let seg = Arc::new(Segment {
        lg: plane.lg.clone(),
        due: reqs.iter().map(|r| base + r.arrival_ns).collect(),
        service: reqs.iter().map(|r| r.service_ns).collect(),
        begin: atomics(n),
        done: atomics(n),
        tid: (0..n).map(|_| AtomicU32::new(0)).collect(),
    });
    t.setup_s.push(t_setup.elapsed().as_secs_f64());

    let engine = plane.lg.policy_engine().clone();
    let intro = plane.lg.introspection().clone();
    let journal = plane.lg.knobs().journal().clone();
    let (evals0, fast0, acts0, j0) = (
        engine.evaluations(),
        engine.fast_path_steps(),
        engine.actuations(),
        journal.total_recorded(),
    );
    let (merges0, skipped0) = (intro.merges(), intro.skipped());
    let traced = tracer.enabled();
    let mut spawned_at = vec![0u64; if traced { n } else { 0 }];
    let mut roots = Vec::with_capacity(if traced { n } else { 0 });
    let (mut shed, mut mandatory_shed, mut busy) = (0u64, 0u64, 0u64);
    let mut next = 0usize;
    while next < n {
        let now = now_ns();
        while next < n && seg.due[next] <= now {
            let r = &reqs[next];
            let sent = now_ns();
            t.lat.sent(seg.due[next], sent);
            let a0 = sent;
            let admitted: Option<BulkheadPermit> = if plane.brownout.should_shed(r.class, r.id)
                || !plane.gate.try_admit(plane.lg.now_ns(), r.class)
            {
                shed += 1;
                mandatory_shed += u64::from(r.class == RequestClass::Mandatory);
                None
            } else {
                let p = plane.bulkhead.try_acquire();
                busy += u64::from(p.is_none());
                p
            };
            let root = traced.then(|| tracer.open(Layer::Driver, 0));
            if traced {
                let a1 = now_ns();
                tracer.record(Layer::Admission, "admit", a0, a1, r.id, root, 0);
                t.admit_ns.push((a1 - a0) as f64);
            }
            if let Some(permit) = admitted {
                let s = seg.clone();
                let i = next;
                let s0 = if traced { now_ns() } else { 0 };
                plane.pool.spawn_named("serve.request", move || {
                    s.body(i);
                    drop(permit);
                });
                if traced {
                    let s1 = now_ns();
                    tracer.record(
                        Layer::Runtime,
                        "ThreadPool::spawn_named",
                        s0,
                        s1,
                        r.id,
                        root,
                        0,
                    );
                    t.spawn_ns.push((s1 - s0) as f64);
                    spawned_at[next] = s1;
                }
            }
            if let Some(root) = root {
                tracer.close(root, "serve.request", seg.due[next], now_ns(), r.id, None);
                roots.push(root);
            }
            next += 1;
        }
        let s0 = now_ns();
        let fired = engine.step(plane.lg.now_ns());
        t.steps += 1;
        t.fired_rounds += u64::from(fired > 0);
        if traced {
            let s1 = now_ns();
            tracer.record(
                Layer::Policy,
                "PolicyEngine::step",
                s0,
                s1,
                t.steps,
                None,
                0,
            );
            t.step_us.push(us((s1 - s0) as f64));
        }
        if next < n {
            // Sleep, not spin, until the next due time: a spinning driver
            // keeps both of a 2-vCPU guest's CPUs busy, and the host then
            // steals more time from the guest.
            let wait = seg.due[next].saturating_sub(now_ns());
            if wait > 0 {
                std::thread::sleep(Duration::from_nanos(wait));
            }
        }
    }
    // Drain: admitted requests still in the pool finish before the
    // accounting, and the control loop keeps running meanwhile.
    while plane.bulkhead.in_flight() > 0 {
        engine.step(plane.lg.now_ns());
        std::thread::sleep(Duration::from_micros(200));
    }
    plane.pool.wait_idle();

    let mut completed = 0u64;
    let mut latency_us = Vec::with_capacity(n);
    for (i, r) in reqs.iter().enumerate() {
        let done = seg.done[i].load(Ordering::Relaxed);
        if done == 0 {
            continue;
        }
        completed += 1;
        t.lat.completed(seg.due[i], done);
        latency_us.push(us(done.saturating_sub(seg.due[i]) as f64));
        if done - seg.due[i] <= budget(r.class) {
            t.on_time += 1;
        }
        let begin = seg.begin[i].load(Ordering::Relaxed);
        if traced {
            let tid = seg.tid[i].load(Ordering::Relaxed);
            let root = roots[i];
            let q = tracer.open(Layer::Runtime, tid);
            tracer.close(q, "pool.queue_wait", spawned_at[i], begin, r.id, Some(root));
            let b = tracer.open(Layer::App, tid);
            tracer.close(b, "serve.request.body", begin, done, r.id, Some(root));
            t.queue_wait_us
                .push(us(begin.saturating_sub(spawned_at[i]) as f64));
        }
    }
    t.segment_p50_us.push(stats::percentile(&latency_us, 50.0));
    // Conservation: every offered request was shed, bounced, or served.
    if shed + busy + completed != n as u64 {
        t.failed += n as u64;
    }
    let c = |name: &str| plane.pool.counters().counter(name).get();
    t.offered += n as u64;
    t.shed += shed;
    t.mandatory_shed += mandatory_shed;
    t.busy += busy;
    t.completed += completed;
    t.evaluations += engine.evaluations() - evals0;
    t.fast_steps += engine.fast_path_steps() - fast0;
    let acts = engine.actuations() - acts0;
    let writes = journal.total_recorded() - j0;
    t.knob_writes += writes;
    if acts != writes {
        t.failed += 1;
    }
    t.merges += intro.merges() - merges0;
    t.skipped += intro.skipped() - skipped0;
    t.steals += c("rt.steals");
    t.parks += c("rt.parks");
    t.lifo += c("rt.lifo_hits");
    t.boxed += c("rt.boxed_tasks");
    if c("rt.boxed_tasks") != 0 {
        t.failed += 1;
    }
    t.profiled += plane.lg.profiles().total_completed();
    if plane.lg.profiles().total_completed() != completed {
        t.failed += 1;
    }
    if let Some(ns) = engine.adaptation_latency_mean_ns() {
        t.adapt_ns.push(ns);
    }
    t.final_level = t.final_level.max(plane.brownout.level());
}

impl RateTally {
    /// Latency median and tail over every completed request, µs.
    fn latency_us(&self) -> (f64, f64) {
        let us: Vec<f64> = self
            .lat
            .latency_ns
            .samples()
            .iter()
            .map(|v| v / 1e3)
            .collect();
        (
            stats::percentile(&us, 50.0),
            stats::supported_percentile(&us, 99.0).0,
        )
    }
}

fn rate_summary(name: &str, rate: f64, t: &RateTally) -> String {
    let (p50, p99) = t.latency_us();
    format!(
        "serve {name} {rate:.0} req/s: offered {} shed {} (mandatory {}) busy {} completed {} \
         on time {} goodput {:.3} p50 {:.3} ms p99 {:.3} ms late p99 {:.1} us, max shed level {}",
        t.offered,
        t.shed,
        t.mandatory_shed,
        t.busy,
        t.completed,
        t.on_time,
        t.on_time as f64 / t.offered.max(1) as f64,
        p50 / 1e3,
        p99 / 1e3,
        us(stats::supported_percentile(t.lat.lateness_ns.samples(), 99.0).0),
        t.final_level
    )
}

/// Runs the workload: alternating nominal and overload segments.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let w = serve_workers();
    let cpus = allowed_cpus();
    let segments = ((cfg.seconds / SEGMENT_S).round() as usize).max(2) & !1;
    let seg_s = cfg.seconds / segments as f64;
    let mut nominal = RateTally::default();
    let mut overload = RateTally::default();
    let t0 = Instant::now();
    for k in 0..segments {
        let seed = cfg.seed.wrapping_mul(1_000).wrapping_add(k as u64);
        let (rate, tally) = if k % 2 == 0 {
            (NOMINAL_PER_S, &mut nominal)
        } else {
            (OVERLOAD_PER_S, &mut overload)
        };
        run_segment(rate, seed, seg_s, w, &cpus, tally, tracer);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    if !cpus.is_empty() {
        set_cpus(&cpus);
    }
    let both = [&nominal, &overload];
    let sum = |f: fn(&RateTally) -> u64| both.iter().map(|t| f(t)).sum::<u64>();
    // Operation latency is read at the nominal rate, where a latency
    // limit is meaningful; the overload rate shows in goodput. Host CPU
    // steal comes in episodes of seconds that lift whole segments, so the
    // figure is the lower quartile of the segments' medians: the stack's
    // latency in the calmer segments. The pooled median over every
    // nominal request is `wl.serve.nominal.p50_ms`.
    let setup: Vec<f64> = both
        .iter()
        .flat_map(|t| t.setup_s.iter().copied())
        .collect();
    let offered = sum(|t| t.offered);
    let on_time = sum(|t| t.on_time);
    let failed = sum(|t| t.failed);
    let mut out = Outcome {
        setup_s: stats::median(&setup),
        ops_per_s: on_time as f64 / elapsed_s,
        op_us_p50: stats::quartiles(&nominal.segment_p50_us)
            .map_or_else(|| stats::median(&nominal.segment_p50_us), |q| q.0),
        op_us_p99: nominal.latency_us().1,
        goodput_frac: on_time as f64 / offered.max(1) as f64,
        attempted: offered,
        failed,
        ..Outcome::default()
    };
    let l = &mut out.layers;
    for (t, [k50, k99, kgood]) in [
        (
            &nominal,
            [
                "wl.serve.nominal.p50_ms",
                "wl.serve.nominal.p99_ms",
                "wl.serve.nominal.goodput_frac",
            ],
        ),
        (
            &overload,
            [
                "wl.serve.overload.p50_ms",
                "wl.serve.overload.p99_ms",
                "wl.serve.overload.goodput_frac",
            ],
        ),
    ] {
        let (p50, p99) = t.latency_us();
        l.insert(k50, p50 / 1e3);
        l.insert(k99, p99 / 1e3);
        l.insert(kgood, t.on_time as f64 / t.offered.max(1) as f64);
    }
    let lateness: Vec<f64> = both
        .iter()
        .flat_map(|t| t.lat.lateness_ns.samples().iter().copied())
        .collect();
    l.insert(
        "wl.serve.lateness_us.p99",
        us(stats::supported_percentile(&lateness, 99.0).0),
    );
    let cat = |f: fn(&RateTally) -> &Vec<f64>| -> Vec<f64> {
        both.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let spawn_ns = cat(|t| &t.spawn_ns);
    let queue_us = cat(|t| &t.queue_wait_us);
    let step_us = cat(|t| &t.step_us);
    let admit_ns = cat(|t| &t.admit_ns);
    let adapt_ns = cat(|t| &t.adapt_ns);
    let completed = sum(|t| t.completed).max(1) as f64;
    let rounds = sum(|t| t.fired_rounds).max(1) as f64;
    l.insert(
        "runtime.pool.spawn_ns.p50",
        stats::percentile(&spawn_ns, 50.0),
    );
    l.insert(
        "runtime.pool.spawn_ns.p99",
        stats::supported_percentile(&spawn_ns, 99.0).0,
    );
    l.insert(
        "runtime.pool.queue_wait_us.p50",
        stats::percentile(&queue_us, 50.0),
    );
    l.insert(
        "runtime.pool.queue_wait_us.p99",
        stats::supported_percentile(&queue_us, 99.0).0,
    );
    l.insert(
        "runtime.pool.steals_per_task",
        sum(|t| t.steals) as f64 / completed,
    );
    l.insert(
        "runtime.pool.parks_per_task",
        sum(|t| t.parks) as f64 / completed,
    );
    l.insert(
        "runtime.pool.lifo_hit_frac",
        sum(|t| t.lifo) as f64 / completed,
    );
    l.insert("runtime.pool.boxed_tasks", sum(|t| t.boxed) as f64);
    l.insert("core.profile.count", sum(|t| t.profiled) as f64);
    l.insert(
        "core.snapshot.merges_per_round",
        sum(|t| t.merges) as f64 / rounds,
    );
    l.insert(
        "core.snapshot.skipped_per_round",
        sum(|t| t.skipped) as f64 / rounds,
    );
    l.insert("core.policy.step_us.p50", stats::percentile(&step_us, 50.0));
    l.insert(
        "core.policy.step_us.p99",
        stats::supported_percentile(&step_us, 99.0).0,
    );
    l.insert(
        "core.policy.fast_path_frac",
        sum(|t| t.fast_steps) as f64 / sum(|t| t.steps).max(1) as f64,
    );
    l.insert("core.policy.evaluations", sum(|t| t.evaluations) as f64);
    l.insert(
        "core.policy.adaptation_latency_us",
        us(stats::median(&adapt_ns)),
    );
    l.insert(
        "core.admission.admit_ns.p50",
        stats::percentile(&admit_ns, 50.0),
    );
    l.insert(
        "core.admission.shed_frac",
        sum(|t| t.shed) as f64 / offered.max(1) as f64,
    );
    l.insert(
        "core.admission.busy_frac",
        sum(|t| t.busy) as f64 / offered.max(1) as f64,
    );
    l.insert(
        "core.admission.mandatory_shed",
        sum(|t| t.mandatory_shed) as f64,
    );
    l.insert(
        "core.admission.final_shed_level",
        nominal.final_level.max(overload.final_level) as f64,
    );
    l.insert("core.knob.writes", sum(|t| t.knob_writes) as f64);
    out.notes.push(format!(
        "serve: {w} workers, {segments} segments of {seg_s:.2} s, service mean {} us, \
         driver and workers on {}",
        SERVICE_MEAN_NS / 1_000,
        if cpus.len() > w {
            "separate CPUs"
        } else {
            "shared CPUs"
        }
    ));
    out.notes
        .push(rate_summary("nominal", NOMINAL_PER_S, &nominal));
    out.notes
        .push(rate_summary("overload", OVERLOAD_PER_S, &overload));
    out
}
