//! `governor`: 64 tenant `LookingGlass` instances under one `Arbiter` on
//! a `VirtualClock`, driven by the single driver thread.
//!
//! Each round a rotating few tenants emit task events, bump a counter and
//! change the width their demand probe publishes, so the arbiter has
//! something to re-share; then the driver calls `control_round`. Every
//! `CHURN_EVERY` rounds one tenant is evicted and a fresh one admitted,
//! up to `CHURN_CAP` churns per run, so the number of churns (and the
//! memory they cost) does not depend on how fast rounds are.

use crate::stats::{self, Reservoir};
use crate::trace::{Layer, Tracer};
use crate::{now_ns, peak_rss_kb, splitmix, us, Outcome, RunCfg, SetupTimes};
use lg_core::knob::{AtomicKnob, KnobSpec};
use lg_core::{
    Arbiter, ArbiterConfig, Clock, DemandClass, DemandProfile, Event, LookingGlass, SloClass,
    TaskId, TenantId, TenantSpec, VirtualClock,
};
use lg_metrics::{CounterHandle, CounterRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 64;
/// Tenants active (emitting, re-declaring width) per round.
const ACTIVE_PER_ROUND: usize = 4;
/// Task begin/end pairs an active tenant emits per round.
const EVENTS_PER_ACTIVE: u64 = 8;
const MAX_THREADS: i64 = 8;
/// Machine budget: two threads per tenant against ceilings of eight, so
/// a width change moves threads between tenants.
const BUDGET: i64 = 2 * TENANTS as i64;
/// Virtual time per round.
const ROUND_NS: u64 = 10_000_000;
const CHURN_EVERY: u64 = 64;
const CHURN_CAP: u64 = 400;
/// Rounds whose knob writes are summed into `core.arbiter.round_writes`
/// (a fixed prefix, so the count repeats exactly for a seed).
const WRITES_PREFIX: u64 = 1_024;
/// Fleet builds per run; `setup_s` is their median. Each dropped fleet
/// keeps its instances' memory (the instance leak), so this stays small.
const SETUP_REPS: usize = 11;

struct Tenant {
    lg: Arc<LookingGlass>,
    id: TenantId,
    width: Arc<AtomicU64>,
    work: CounterHandle,
    task: TaskId,
}

struct Fleet {
    clock: Arc<VirtualClock>,
    arb: Arc<Arbiter>,
    tenants: Vec<Tenant>,
    next_name: usize,
}

/// A seeded width in 1..=MAX_THREADS for draw `k`.
fn width(seed: u64, k: u64) -> f64 {
    (1 + splitmix(seed ^ splitmix(k)) % MAX_THREADS as u64) as f64
}

/// Builds a tenant instance; returns it with the time `Arbiter::admit`
/// took, ns.
fn admit_tenant(fleet: &mut Fleet, w: f64) -> (Tenant, u64) {
    let lg = LookingGlass::builder().clock(fleet.clock.clone()).build();
    lg.knobs().register(AtomicKnob::new(
        KnobSpec::new("thread_cap", 1, MAX_THREADS).with_unit("workers"),
        MAX_THREADS,
    ));
    let counters = Arc::new(CounterRegistry::new());
    lg.introspection().register_counters(counters.clone());
    let width = Arc::new(AtomicU64::new(w.to_bits()));
    let probe = width.clone();
    let spec = TenantSpec::new(
        format!("t{}", fleet.next_name),
        SloClass::Batch,
        MAX_THREADS,
    )
    .with_min_threads(1)
    .with_demand_probe(move |_snap, alloc| {
        let w = f64::from_bits(probe.load(Ordering::Relaxed));
        DemandProfile::saturating(DemandClass::Batch, 0.0, w, alloc)
    });
    fleet.next_name += 1;
    let t0 = now_ns();
    let id = fleet.arb.admit(lg.clone(), spec, "thread_cap");
    let admit_ns = now_ns() - t0;
    let task = lg.intern("tenant.task");
    let tenant = Tenant {
        work: counters.counter("work.items"),
        lg,
        id,
        width,
        task,
    };
    (tenant, admit_ns)
}

fn build_fleet(seed: u64) -> Fleet {
    let clock = Arc::new(VirtualClock::new());
    let gov = LookingGlass::builder().clock(clock.clone()).build();
    let arb = Arbiter::with_instance(ArbiterConfig::new(BUDGET), gov);
    let mut fleet = Fleet {
        clock,
        arb,
        tenants: Vec::with_capacity(TENANTS),
        next_name: 0,
    };
    for i in 0..TENANTS {
        let (t, _) = admit_tenant(&mut fleet, width(seed, i as u64));
        fleet.tenants.push(t);
    }
    fleet.clock.advance_by(ROUND_NS);
    fleet.arb.control_round(fleet.clock.now_ns());
    fleet
}

/// Per-tenant observation totals, kept across evictions.
#[derive(Default)]
struct Observed {
    merges: u64,
    skipped: u64,
    profiled: u64,
}

impl Observed {
    fn add(&mut self, t: &Tenant) {
        let intro = t.lg.introspection();
        self.merges += intro.merges();
        self.skipped += intro.skipped();
        self.profiled += t.lg.profiles().total_completed();
    }
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let (mut fleet, mut setup) =
        SetupTimes::first(SETUP_REPS, cfg.seconds, || build_fleet(cfg.seed));
    let mut base = Observed::default();
    for t in &fleet.tenants {
        // Set-up captures are not part of the measured rounds.
        base.add(t);
    }
    let mut evicted = Observed::default();
    let mut round_us = Reservoir::default();
    let mut admit_us = Vec::new();
    let mut evict_us = Vec::new();
    let (mut rounds, mut churns, mut failed, mut emitted) = (0u64, 0u64, 0u64, 0u64);
    let (mut writes, mut prefix_writes) = (0u64, 0u64);
    // Driver time per round (activity, control round, churn); the rate
    // comes from its 10 %-trimmed mean, so a host stall is one dropped
    // sample while a slower stretch of the run counts in proportion.
    let mut busy_ns = Reservoir::default();
    let rss0 = peak_rss_kb();
    let mut rss_at_cap = rss0;
    let mut draw = TENANTS as u64;
    let deadline = cfg.deadline();
    while rounds == 0 || Instant::now() < deadline {
        let r = rounds;
        let t_start = now_ns();
        let root = tracer.open(Layer::Driver, 0);
        for k in 0..ACTIVE_PER_ROUND {
            let t = &fleet.tenants[(r as usize * ACTIVE_PER_ROUND + k) % TENANTS];
            let a0 = now_ns();
            let vt = fleet.clock.now_ns();
            for e in 0..EVENTS_PER_ACTIVE {
                let worker = (e % 4) as usize;
                t.lg.emit(&Event::TaskBegin {
                    task: t.task,
                    worker,
                    t_ns: vt,
                });
                t.lg.emit(&Event::TaskEnd {
                    task: t.task,
                    worker,
                    t_ns: vt + 1_000,
                    elapsed_ns: 1_000,
                });
            }
            t.work.add(EVENTS_PER_ACTIVE);
            t.width
                .store(width(cfg.seed, draw).to_bits(), Ordering::Relaxed);
            draw += 1;
            emitted += EVENTS_PER_ACTIVE;
            tracer.record(
                Layer::Observe,
                "tenant.emit",
                a0,
                now_ns(),
                r,
                Some(root),
                0,
            );
        }
        fleet.clock.advance_by(ROUND_NS);
        let gov_j0 = fleet.arb.lg().knobs().journal().total_recorded();
        let ten_j0: u64 = fleet
            .tenants
            .iter()
            .map(|t| t.lg.knobs().journal().total_recorded())
            .sum();
        let c0 = now_ns();
        let report = fleet.arb.control_round(fleet.clock.now_ns());
        let c1 = now_ns();
        tracer.record(
            Layer::Arbiter,
            "Arbiter::control_round",
            c0,
            c1,
            r,
            Some(root),
            0,
        );
        round_us.push(us((c1 - c0) as f64));
        let mut round_busy = c1 - t_start;

        // Invariants of every round: the budget holds, and both audit
        // trails recorded exactly the writes the round reports.
        let allocated: i64 = report.allocations.iter().map(|(_, a)| a).sum();
        let gov_writes = fleet.arb.lg().knobs().journal().total_recorded() - gov_j0;
        let ten_writes: u64 = fleet
            .tenants
            .iter()
            .map(|t| t.lg.knobs().journal().total_recorded())
            .sum::<u64>()
            - ten_j0;
        if allocated > BUDGET
            || allocated != report.total_allocated
            || gov_writes + ten_writes != report.knob_writes as u64
            || gov_writes != ten_writes
        {
            failed += 1;
        }
        writes += report.knob_writes as u64;
        if r < WRITES_PREFIX {
            prefix_writes += report.knob_writes as u64;
        }

        if churns < CHURN_CAP && r % CHURN_EVERY == CHURN_EVERY - 1 {
            let slot = (churns as usize * 7) % TENANTS;
            let e0 = now_ns();
            let gone = fleet.arb.evict(fleet.tenants[slot].id);
            let e1 = now_ns();
            tracer.record(Layer::Arbiter, "Arbiter::evict", e0, e1, r, Some(root), 0);
            failed += u64::from(!gone);
            evict_us.push(us((e1 - e0) as f64));
            evicted.add(&fleet.tenants[slot]);
            let a0 = now_ns();
            let (fresh, admit_ns) = admit_tenant(&mut fleet, width(cfg.seed, draw));
            draw += 1;
            tracer.record(
                Layer::Arbiter,
                "Arbiter::admit",
                a0,
                now_ns(),
                r,
                Some(root),
                0,
            );
            admit_us.push(us(admit_ns as f64));
            fleet.tenants[slot] = fresh;
            churns += 1;
            round_busy += now_ns() - e0;
            if churns == CHURN_CAP {
                rss_at_cap = peak_rss_kb();
            }
        }
        busy_ns.push(round_busy as f64);
        tracer.close(root, "governor.round", t_start, now_ns(), r, None);
        rounds += 1;
        // Throwaway fleets leak like churned tenants: build them only
        // once the churns have been counted for `rss_kb_per_churn`.
        if churns == CHURN_CAP {
            setup.tick(|| build_fleet(cfg.seed));
        }
    }
    if churns < CHURN_CAP {
        rss_at_cap = peak_rss_kb();
    }

    let mut live = Observed::default();
    for t in &fleet.tenants {
        live.add(t);
    }
    let merges = live.merges + evicted.merges - base.merges;
    let skipped = live.skipped + evicted.skipped - base.skipped;
    let profiled = live.profiled + evicted.profiled - base.profiled;
    // Every emitted task end was profiled by its tenant.
    if profiled != emitted {
        failed += 1;
    }
    let (p99, p) = stats::supported_percentile(round_us.samples(), 99.0);
    let mut out = Outcome {
        setup_s: setup.median_s(),
        ops_per_s: 1e9 / stats::trimmed_mean(busy_ns.samples(), 0.1),
        op_us_p50: stats::percentile(round_us.samples(), 50.0),
        op_us_p99: p99,
        goodput_frac: 1.0 - failed as f64 / rounds as f64,
        attempted: rounds,
        failed,
        ..Outcome::default()
    };
    let rss_per_churn = (rss_at_cap - rss0) / churns.max(1) as f64;
    let l = &mut out.layers;
    l.insert("wl.governor.round_us.p50", out.op_us_p50);
    l.insert("wl.governor.round_us.p99", out.op_us_p99);
    l.insert("core.profile.count", profiled as f64);
    l.insert(
        "core.snapshot.merges_per_round",
        merges as f64 / rounds as f64,
    );
    l.insert(
        "core.snapshot.skipped_per_round",
        skipped as f64 / rounds as f64,
    );
    l.insert("core.arbiter.round_writes", prefix_writes as f64);
    l.insert(
        "core.arbiter.admit_us.p50",
        stats::percentile(&admit_us, 50.0),
    );
    l.insert(
        "core.arbiter.evict_us.p50",
        stats::percentile(&evict_us, 50.0),
    );
    l.insert("core.arbiter.rss_kb_per_churn", rss_per_churn);
    l.insert("core.knob.writes", writes as f64);
    out.notes.push(format!(
        "governor: {TENANTS} tenants, budget {BUDGET}, {rounds} rounds, {churns} churns; \
         round p50 {:.2} us p{p} {:.2} us; {:.2} merges and {:.2} skipped captures per round; \
         {writes} knob writes; peak RSS grew {:.0} KB per churn",
        out.op_us_p50,
        out.op_us_p99,
        merges as f64 / rounds as f64,
        skipped as f64 / rounds as f64,
        rss_per_churn
    ));
    out
}
