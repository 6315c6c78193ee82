//! The benchmark's own statistics: order statistics over samples, the
//! tail percentile the sample count can support, Task Bench's METG
//! interpolation, and due-time latency accounting for open-loop load.

/// Median of `xs` (mean of the two middle values for an even count).
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `xs` without its lowest and highest `trim` share (0.1 drops
/// the bottom and top tenth). Robust to a few stalled samples like a
/// median, but moves smoothly when the whole distribution shifts.
/// `0.0` for an empty slice.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    let s = sorted(xs);
    let cut = (s.len() as f64 * trim).floor() as usize;
    let kept = &s[cut..s.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones a Python checker computes.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The highest of the usual reporting percentiles (99.9, 99, 95, 90, 75,
/// 50) that leaves at least ten samples above it, so a tail figure is
/// never read off the one or two slowest samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 + 1e-6 >= 10.0)
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Percentile `p` of `xs`, but only when the sample count leaves ten
/// samples above it; otherwise the highest percentile that does.
/// Returns the value and the percentile actually used.
pub fn supported_percentile(xs: &[f64], p: f64) -> (f64, f64) {
    let p = match tail_percentile(xs.len()) {
        Some(max) if max < p => max,
        Some(_) => p,
        None => 50.0,
    };
    (percentile(xs, p), p)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One rung of a METG ladder: the task grain (sequential time per task)
/// and the parallel efficiency measured at it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    pub grain_us: f64,
    pub efficiency: f64,
}

/// Why a ladder yields no METG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetgError {
    /// Every rung is at or above the threshold: the crossing lies below
    /// the finest grain measured.
    NeverBelow,
    /// The coarsest rung is still below the threshold: the crossing lies
    /// beyond the ladder.
    NeverReached,
}

/// Task Bench's minimum effective task granularity: the grain at which
/// efficiency crosses `threshold` (0.5), log-interpolated between the
/// last rung below the threshold and the rung after it. `rungs` must be
/// ordered by increasing grain. Efficiency is not monotone on a noisy
/// pool, so the crossing taken is the *last* one from below: every
/// coarser rung reached the threshold.
pub fn metg(rungs: &[Rung], threshold: f64) -> Result<f64, MetgError> {
    let last_below = rungs
        .iter()
        .rposition(|r| r.efficiency < threshold)
        .ok_or(MetgError::NeverBelow)?;
    let (lo, hi) = match rungs.get(last_below + 1) {
        Some(hi) => (rungs[last_below], *hi),
        None => return Err(MetgError::NeverReached),
    };
    let frac = (threshold - lo.efficiency) / (hi.efficiency - lo.efficiency);
    let (a, b) = (lo.grain_us.ln(), hi.grain_us.ln());
    Ok((a + frac * (b - a)).exp())
}

/// Samples kept per latency or time series: enough for a p99 with 500
/// samples beyond it.
pub const SAMPLE_CAP: usize = 50_000;

/// A uniform sample of at most `cap` values from a stream of any length
/// (Vitter's algorithm R with a fixed-seed generator). Percentiles of a
/// long run are read from it, so the benchmark's own memory does not grow
/// with how fast the program runs, which would move `peak_rss_mb`.
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    samples: Vec<f64>,
}

impl Default for Reservoir {
    fn default() -> Self {
        Self::new(SAMPLE_CAP)
    }
}

impl Reservoir {
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
            return;
        }
        // xorshift64*: a replacement index uniform in [0, seen).
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let j = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = x;
        }
    }

    /// The kept values, in arrival order until the reservoir fills.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Open-loop latency accounting: each request is timed from the instant
/// it was *due*, not from when the generator got round to sending it, so
/// a stalled generator shows up as latency on every request it delayed
/// (the coordinated-omission correction). Lateness of the generator
/// itself is kept beside it.
#[derive(Clone, Debug, Default)]
pub struct DueLatency {
    /// Completion minus due time, ns, per completed request.
    pub latency_ns: Reservoir,
    /// Send minus due time, ns, per sent request.
    pub lateness_ns: Reservoir,
}

impl DueLatency {
    /// Records a request that was sent at `sent_ns`.
    pub fn sent(&mut self, due_ns: u64, sent_ns: u64) {
        self.lateness_ns.push(sent_ns.saturating_sub(due_ns) as f64);
    }

    /// Records a request that completed at `done_ns`.
    pub fn completed(&mut self, due_ns: u64, done_ns: u64) {
        self.latency_ns.push(done_ns.saturating_sub(due_ns) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut xs: Vec<f64> = (1..=18).map(f64::from).collect();
        xs.push(1_000.0);
        xs.push(-1_000.0);
        // 20 values, a tenth off each end: the two outliers go.
        assert_eq!(trimmed_mean(&xs, 0.1), 9.5);
        assert_eq!(trimmed_mean(&[2.0, 4.0], 0.0), 3.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1_000);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.samples().len(), 1_000);
        // A uniform sample of 0..100k has its median near 50k.
        let m = median(r.samples());
        assert!((40_000.0..60_000.0).contains(&m), "{m}");
        // Below capacity it keeps everything, in order.
        let mut small = Reservoir::new(10);
        for i in 0..5 {
            small.push(f64::from(i));
        }
        assert_eq!(small.samples(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn supported_percentile_falls_back_on_few_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples leave ten beyond p90 but not beyond p99.
        assert_eq!(supported_percentile(&xs, 99.0), (90.0, 90.0));
        let many: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(supported_percentile(&many, 99.0), (1_980.0, 99.0));
    }

    fn ladder(points: &[(f64, f64)]) -> Vec<Rung> {
        points
            .iter()
            .map(|&(grain_us, efficiency)| Rung {
                grain_us,
                efficiency,
            })
            .collect()
    }

    #[test]
    fn metg_interpolates_in_log_grain() {
        // Crossing exactly halfway (in efficiency) between 2 and 8 µs
        // lands at their geometric mean, 4 µs.
        let r = ladder(&[(1.0, 0.2), (2.0, 0.4), (8.0, 0.6), (16.0, 0.8)]);
        let m = metg(&r, 0.5).unwrap();
        assert!((m - 4.0).abs() < 1e-9, "{m}");
    }

    #[test]
    fn metg_takes_the_last_crossing_from_below() {
        // A dip back under 0.5 at 8 µs moves the crossing past it.
        let r = ladder(&[(1.0, 0.3), (2.0, 0.6), (8.0, 0.45), (16.0, 0.55)]);
        let m = metg(&r, 0.5).unwrap();
        assert!(m > 8.0 && m < 16.0, "{m}");
    }

    #[test]
    fn metg_exact_hit_on_a_rung() {
        let r = ladder(&[(1.0, 0.25), (4.0, 0.5), (16.0, 0.75)]);
        assert!((metg(&r, 0.5).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_that_never_crosses_is_a_failure_not_a_number() {
        let below = ladder(&[(1.0, 0.1), (2.0, 0.2), (4.0, 0.4)]);
        assert_eq!(metg(&below, 0.5), Err(MetgError::NeverReached));
        let above = ladder(&[(1.0, 0.6), (2.0, 0.7), (4.0, 0.9)]);
        assert_eq!(metg(&above, 0.5), Err(MetgError::NeverBelow));
        assert_eq!(metg(&[], 0.5), Err(MetgError::NeverBelow));
    }

    #[test]
    fn stalled_generator_shows_up_as_latency_from_due_time() {
        // Requests due every 100 µs, served in 10 µs each. The generator
        // stalls for 1 ms before request 3, then sends the backlog at
        // once; the server works the backlog off in order.
        let due: Vec<u64> = (0..20).map(|i| i * 100_000).collect();
        let stall_until = 1_300_000;
        let mut acc = DueLatency::default();
        let mut server_free = 0u64;
        for &d in &due {
            let sent = d.max(if d >= 300_000 { stall_until } else { 0 });
            acc.sent(d, sent);
            let done = sent.max(server_free) + 10_000;
            server_free = done;
            acc.completed(d, done);
        }
        let (lat, late) = (acc.latency_ns.samples(), acc.lateness_ns.samples());
        // Requests before the stall see only their service time.
        assert_eq!(&lat[..3], &[10_000.0; 3]);
        // Request 3 was due at 300 µs and finished at 1.31 ms: its
        // latency carries the whole stall, and so does the generator's
        // lateness.
        assert_eq!(lat[3], 1_010_000.0);
        assert_eq!(late[3], 1_000_000.0);
        // The backlog of ten queues behind it: request 12, due at
        // 1.2 ms, finishes at 1.40 ms. Timing from the send would have
        // reported 10..100 µs for all of them.
        assert_eq!(lat[12], 200_000.0);
        assert!(lat[3..13].iter().all(|&l| l >= 100_000.0));
        // Once the backlog drains, latency is back to service time.
        assert_eq!(lat[15..], [10_000.0; 5]);
        assert_eq!(late[15..], [0.0; 5]);
    }
}
