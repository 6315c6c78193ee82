//! End-to-end benchmark of the `ThreadPool` + `LookingGlass` stack.
//!
//! ```sh
//! cargo run --release --manifest-path lgbench/Cargo.toml -- \
//!     --workload dag_grain --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Four workloads (`dag_grain`, `dag_sweep`, `serve`, `governor`) run
//! against the public API of the real stack; see `lgbench/README.md` for
//! why each exists and which layers it loads. With `--trace 0` the run
//! prints the end-to-end metrics; with `--trace 1` it runs the workload
//! untraced for half the time and traced for the other half, prints the
//! per-layer metrics and the tracing overhead, and writes the spans as a
//! Chrome trace under `.bench_out/`. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Any failed output check makes the command exit with code 1.

mod dag;
mod governor;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// What an "operation" is differs per workload (README.md, "Metrics").
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_us.p50", "us"),
    ("goodput_frac", "frac"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// metric of a layer the workload does not call reads 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("wl.op_us.p99", "us"),
    ("wl.dag_grain.tasks_per_s", "1/s"),
    ("wl.dag_grain.metg_us", "us"),
    ("wl.dag_sweep.makespan_ms", "ms"),
    ("wl.serve.nominal.p50_ms", "ms"),
    ("wl.serve.nominal.p99_ms", "ms"),
    ("wl.serve.nominal.goodput_frac", "frac"),
    ("wl.serve.overload.p50_ms", "ms"),
    ("wl.serve.overload.p99_ms", "ms"),
    ("wl.serve.overload.goodput_frac", "frac"),
    ("wl.serve.lateness_us.p99", "us"),
    ("wl.governor.round_us.p50", "us"),
    ("wl.governor.round_us.p99", "us"),
    ("runtime.dag.wire_ns.p50", "ns"),
    ("runtime.dag.wire_ns.p99", "ns"),
    ("runtime.dag.drain_ms", "ms"),
    ("runtime.dag.body_us.p50", "us"),
    ("runtime.pool.spawn_ns.p50", "ns"),
    ("runtime.pool.spawn_ns.p99", "ns"),
    ("runtime.pool.queue_wait_us.p50", "us"),
    ("runtime.pool.queue_wait_us.p99", "us"),
    ("runtime.pool.steals_per_task", "ratio"),
    ("runtime.pool.parks_per_task", "ratio"),
    ("runtime.pool.lifo_hit_frac", "frac"),
    ("runtime.pool.priority_push_frac", "frac"),
    ("runtime.pool.boxed_tasks", "count"),
    ("core.observe.share", "frac"),
    ("core.profile.count", "count"),
    ("core.snapshot.merges_per_round", "count"),
    ("core.snapshot.skipped_per_round", "count"),
    ("core.policy.step_us.p50", "us"),
    ("core.policy.step_us.p99", "us"),
    ("core.policy.fast_path_frac", "frac"),
    ("core.policy.evaluations", "count"),
    ("core.policy.adaptation_latency_us", "us"),
    ("core.admission.admit_ns.p50", "ns"),
    ("core.admission.shed_frac", "frac"),
    ("core.admission.busy_frac", "frac"),
    ("core.admission.mandatory_shed", "count"),
    ("core.admission.final_shed_level", "level"),
    ("core.arbiter.round_writes", "count"),
    ("core.arbiter.admit_us.p50", "us"),
    ("core.arbiter.evict_us.p50", "us"),
    ("core.arbiter.rss_kb_per_churn", "KB"),
    ("core.knob.writes", "count"),
    ("core.knob.writes_during_drain", "count"),
    ("self.driver.us_per_op", "us"),
    ("self.app.us_per_op", "us"),
    ("self.lg-runtime.us_per_op", "us"),
    ("self.lg-core.observe.us_per_op", "us"),
    ("self.lg-core.policy.us_per_op", "us"),
    ("self.lg-core.admission.us_per_op", "us"),
    ("self.lg-core.arbiter.us_per_op", "us"),
    ("trace.ops_per_s.untraced", "1/s"),
    ("trace.ops_per_s.traced", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
];

/// Spans kept for the Chrome trace file; self-time totals count all.
const SPAN_CAP: usize = 200_000;

/// What one workload phase measured.
#[derive(Default)]
pub struct Outcome {
    /// Median set-up time, s.
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_us_p50: f64,
    pub op_us_p99: f64,
    pub goodput_frac: f64,
    /// Operations attempted (tasks, requests, rounds).
    pub attempted: u64,
    /// Failed output checks, counted in operations.
    pub failed: u64,
    /// Per-layer and per-workload figures by `PER_LAYER` name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard output.
    pub notes: Vec<String>,
}

/// Parameters of one workload phase.
pub struct RunCfg {
    pub seed: u64,
    /// Measurement time of the phase (set-up excluded).
    pub seconds: f64,
}

impl RunCfg {
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Nanoseconds since the process's time base; every stamp in the
/// benchmark (driver, task bodies, spans) uses it.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small per-thread index for trace tracks: 0 is the driver (the
/// first thread to ask), pool workers get 1, 2, ... on first use.
pub fn thread_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Pool size of the DAG workloads: the machine's parallelism, at most 2,
/// so the DAG shapes keep their meaning on larger machines.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Pool size of `serve`: one core is left to the open-loop generator, so
/// its lateness measures the stack rather than the generator waiting for
/// a core the workers hold. At most 2, so the absolute rates keep their
/// meaning on larger machines.
pub fn serve_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .clamp(1, 2)
}

/// The CPUs this process may run on (empty if the query fails).
pub fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: pid 0 is the calling thread; the buffer holds 1024 CPUs.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpus`, best effort: if the call
/// fails the thread keeps its CPUs. Threads it spawns afterwards inherit
/// the set, which is how a pool's workers are placed.
pub fn set_cpus(cpus: &[usize]) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: pid 0 is the calling thread; the mask holds 1024 CPUs.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// The splitmix64 finaliser: the seed mixer `lg_workloads::dag` uses for
/// node values, and the benchmark's own hash for seeded draws.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A workload's set-up times: the build the run uses, then throwaway
/// builds spread evenly over the measured phase. A shared host's speed
/// drifts over stretches of a tenth of a second and more, so builds timed
/// back to back sample one stretch; spread out, their median samples the
/// whole run.
pub struct SetupTimes {
    times: Vec<f64>,
    left: usize,
    every: Duration,
    next: Instant,
}

impl SetupTimes {
    /// Runs and times the build the run uses, and plans `reps - 1` more
    /// over `seconds`.
    pub fn first<T>(reps: usize, seconds: f64, build: impl FnOnce() -> T) -> (T, Self) {
        let t = Instant::now();
        let built = build();
        let first = t.elapsed().as_secs_f64();
        let every = Duration::from_secs_f64(seconds / reps as f64);
        let times = Self {
            times: vec![first],
            left: reps.saturating_sub(1),
            every,
            next: Instant::now() + every,
        };
        (built, times)
    }

    /// Runs, times and drops one throwaway build if the next is due.
    pub fn tick<T>(&mut self, build: impl FnOnce() -> T) {
        if self.left == 0 || Instant::now() < self.next {
            return;
        }
        let t = Instant::now();
        let built = build();
        self.times.push(t.elapsed().as_secs_f64());
        drop(built);
        self.left -= 1;
        self.next += self.every;
    }

    /// Median of the builds timed so far, seconds.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times)
    }
}

/// Peak resident set of the process, KB (`getrusage`'s `ru_maxrss`).
pub fn peak_rss_kb() -> f64 {
    // struct rusage on Linux: two timevals, then 14 longs; ru_maxrss is
    // the first long.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage([0; 18]);
    // SAFETY: RUSAGE_SELF (0) with a buffer the size of `struct rusage`.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.0[4] as f64
    } else {
        0.0
    }
}

/// Microseconds of a nanosecond figure.
pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_phase(name: &str, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    match name {
        "dag_grain" => dag::grain(cfg, tracer),
        "dag_sweep" => dag::sweep(cfg, tracer),
        "serve" => serve::run(cfg, tracer),
        "governor" => governor::run(cfg, tracer),
        _ => unreachable!("workload validated before the run"),
    }
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    // A non-finite figure is a bug in the benchmark; print it as 0 so
    // the line stays valid JSON, and the result is flagged incorrect.
    let v = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lgbench: {e}");
            eprintln!(
                "usage: lgbench --workload <dag_grain|dag_sweep|serve|governor> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if !["dag_grain", "dag_sweep", "serve", "governor"].contains(&args.workload.as_str()) {
        eprintln!("lgbench: unknown workload {}", args.workload);
        std::process::exit(2);
    }
    now_ns();
    thread_tid(); // the driver takes track 0

    let (metrics, outcome, non_finite) = if args.trace {
        // Untraced half first: the clean reference for the overhead line
        // and the source of the per-workload figures.
        let half = RunCfg {
            seed: args.seed,
            seconds: args.seconds / 2.0,
        };
        let mut off = Tracer::new(false, 0);
        let plain = run_phase(&args.workload, &half, &mut off);
        let mut tracer = Tracer::new(true, SPAN_CAP);
        let mut traced = run_phase(&args.workload, &half, &mut tracer);
        for n in &plain.notes {
            println!("untraced: {n}");
        }
        for n in &traced.notes {
            println!("traced:   {n}");
        }
        let overhead = 1.0 - traced.ops_per_s / plain.ops_per_s;
        println!(
            "tracing overhead [{}]: ops_per_s untraced {:.1}, traced {:.1} ({:+.1}%), {} spans",
            args.workload,
            plain.ops_per_s,
            traced.ops_per_s,
            overhead * 100.0,
            tracer.span_count()
        );
        let mut layers = traced.layers.clone();
        // Workload figures and the peak-RSS growth per churn come from the
        // untraced half: the span store would inflate the latter.
        for (k, v) in &plain.layers {
            if k.starts_with("wl.") || *k == "core.arbiter.rss_kb_per_churn" {
                layers.insert(k, *v);
            }
        }
        let ops = traced.attempted.max(1) as f64;
        for layer in Layer::ALL {
            layers.insert(layer.self_metric(), us(tracer.self_ns(layer)) / ops);
        }
        layers.insert("wl.op_us.p99", plain.op_us_p99);
        layers.insert("trace.ops_per_s.untraced", plain.ops_per_s);
        layers.insert("trace.ops_per_s.traced", traced.ops_per_s);
        layers.insert("trace.overhead_frac", overhead);
        layers.insert("trace.spans", tracer.span_count() as f64);
        layers.insert("trace.spans_dropped", tracer.dropped() as f64);
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir).and_then(|_| {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            tracer.write_chrome(&mut w, &format!("lgbench {}", args.workload))?;
            std::io::Write::flush(&mut w)
        });
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("lgbench: cannot write {}: {e}", path.display());
                traced.failed += 1;
            }
        }
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, layers.get(n).copied().unwrap_or(0.0), u))
            .collect();
        let non_finite = layers.values().any(|v| !v.is_finite());
        (metrics, traced, non_finite)
    } else {
        let cfg = RunCfg {
            seed: args.seed,
            seconds: args.seconds,
        };
        let mut off = Tracer::new(false, 0);
        let o = run_phase(&args.workload, &cfg, &mut off);
        for n in &o.notes {
            println!("{n}");
        }
        let values = [
            o.setup_s,
            peak_rss_kb() / 1024.0,
            o.ops_per_s,
            o.op_us_p50,
            o.goodput_frac,
        ];
        let metrics: Vec<(&str, f64, &str)> = E2E
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect();
        let non_finite = values.iter().any(|v| !v.is_finite());
        (metrics, o, non_finite)
    };

    for (n, v, u) in &metrics {
        println!("{n:<36} {v:>16.4} {u}");
    }
    let correct = outcome.failed == 0 && !non_finite;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (n, v, u) in &metrics {
        json_metric(&mut line, n, *v, u);
    }
    line.push_str("}}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
