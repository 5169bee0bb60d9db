//! Order statistics for timing samples, and the pass/window scheme that
//! keeps host noise out of them.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it; anything higher
//! would be set by a handful of outliers.
//!
//! The reference box is a shared 2-vCPU VM whose speed moves between
//! levels — a fixed CPU loop takes 1.35, 1.8, 2.75 or 3.5 ms — and stays on
//! one for 4 to 30 seconds. The slowdowns are one-sided, so a mean or
//! median over a run mostly measures how much of the run the host took.
//! Every workload therefore executes its timed phase in several identical
//! *passes*, each cut into the same *windows* of work ([`Phase`]). A
//! statistic is taken per window from the pass that did best on it; the
//! run reports a rate over the sum of those windows and a latency as their
//! median. Work the program is slow at is slow in every pass and stays in
//! the result; a host stall has to hit the same window in every pass to
//! get in.
//!
//! Evidence that this is worth its code: eight minutes of that fixed loop
//! cut into 12-second "runs", the spread between runs (inter-quartile
//! distance over median) was 35% for the plain median of 30 ms windows,
//! 25% for total work over total time, 21% at best-of-2 passes, 17–20% at
//! best-of-4 and no lower beyond. Every run also prints the plain
//! estimates ([`Phase::plain_rate_per_s`], [`Phase::plain_latency_us`]) in
//! its `info` line, and `summarize.py` shows both spreads side by side for
//! the recorded sets.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a report may name, lowest first.
const LADDER: [(f64, &str); 5] = [
    (0.50, "p50"),
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// 1-based nearest rank of quantile `q` among `n` samples (the epsilon
/// keeps `0.99 * 1000` from rounding up to rank 991).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether `q` has at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// The highest ladder percentile `n` samples support, as `(q, label)`.
pub fn highest_supported(n: usize) -> (f64, &'static str) {
    LADDER
        .iter()
        .rev()
        .find(|(q, _)| supported(n, *q))
        .copied()
        .unwrap_or(LADDER[0])
}

/// Median of unsorted floats (upper median for even counts).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Latency samples in nanoseconds, sorted once on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
            sorted: false,
        }
    }

    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn absorb(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    #[cfg(test)]
    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Quantile of the raw values (the container also serves gauges such
    /// as a backlog in rows).
    pub fn raw(&mut self, q: f64) -> u64 {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        quantile(&self.ns, q)
    }

    /// Quantile in microseconds.
    pub fn us(&mut self, q: f64) -> f64 {
        self.raw(q) as f64 / 1e3
    }

    /// `q` when the sample count supports it, else the highest supported
    /// percentile — so a short smoke run never reports a tail it did not
    /// measure.
    pub fn supported_q(&self, q: f64) -> f64 {
        if supported(self.len(), q) {
            q
        } else {
            highest_supported(self.len()).0
        }
    }

    /// `us` at [`Samples::supported_q`].
    pub fn us_supported(&mut self, q: f64) -> f64 {
        self.us(self.supported_q(q))
    }

    /// Share of samples above `limit_ns`.
    pub fn share_above(&self, limit_ns: u64) -> f64 {
        self.ns.iter().filter(|&&v| v > limit_ns).count() as f64 / self.len().max(1) as f64
    }
}

/// One window of a pass: a fixed piece of work, how long it took, and the
/// latencies of the requests in it (empty for pure-throughput windows).
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub wall_ns: u64,
    /// Operations or queries completed in the window.
    pub work: u64,
    pub latencies: Samples,
}

/// The windows of a timed phase, each with its executions across passes.
/// Passes may differ in length by a window when a phase ends on a signal
/// rather than a count; a window only some passes reached has fewer
/// executions. Windows of concurrent clients are pooled with [`Phase::add`].
#[derive(Default)]
pub struct Phase {
    slots: Vec<Vec<Window>>,
}

impl Phase {
    /// Transposes `passes[pass][window]` into per-window executions.
    pub fn from_passes(passes: Vec<Vec<Window>>) -> Self {
        let mut slots: Vec<Vec<Window>> = Vec::new();
        for pass in passes {
            for (i, window) in pass.into_iter().enumerate() {
                if slots.len() <= i {
                    slots.push(Vec::new());
                }
                slots[i].push(window);
            }
        }
        Phase { slots }
    }

    /// Pools another client's windows with these.
    pub fn add(&mut self, other: Phase) {
        self.slots.extend(other.slots);
    }

    #[cfg(test)]
    pub fn windows(&self) -> usize {
        self.slots.len()
    }

    /// Work per second with each window at its best pass: the windows'
    /// work over the sum of their best times. A sum, not the median
    /// window: a cost that falls on few windows but recurs in every pass —
    /// a re-partition, a candidate partitioning that is then rejected —
    /// is the program's and must stay in (on `engine_stream` the median
    /// window reads 456k updates/s where the stream as a whole does 143k).
    pub fn rate_per_s(&self) -> f64 {
        let rate = |w: &Window| w.work as f64 / w.wall_ns.max(1) as f64;
        let (mut work, mut wall_ns) = (0u64, 0u64);
        for runs in &self.slots {
            if let Some(best) = runs.iter().max_by(|a, b| rate(a).total_cmp(&rate(b))) {
                work += best.work;
                wall_ns += best.wall_ns;
            }
        }
        work as f64 / (wall_ns.max(1) as f64 / 1e9)
    }

    /// Latency quantile `q`, in microseconds, of the median window, each
    /// window at its best pass. `q` is lowered to what the smallest window
    /// supports, so every window reports the same percentile.
    pub fn latency_us(&mut self, q: f64) -> f64 {
        let q = self
            .slots
            .iter()
            .flatten()
            .filter(|w| !w.latencies.is_empty())
            .map(|w| w.latencies.supported_q(q))
            .fold(q, f64::min);
        median(
            self.slots
                .iter_mut()
                .map(|runs| {
                    runs.iter_mut()
                        .filter(|w| !w.latencies.is_empty())
                        .map(|w| w.latencies.us(q))
                        .fold(f64::INFINITY, f64::min)
                })
                .filter(|v| v.is_finite())
                .collect(),
        )
    }

    /// Total work over total time, every window of every pass counted:
    /// the estimate a single long pass would give, printed beside
    /// [`Phase::rate_per_s`] so the two can be compared.
    pub fn plain_rate_per_s(&self) -> f64 {
        let (work, wall_ns) = self
            .slots
            .iter()
            .flatten()
            .fold((0u64, 0u64), |(w, t), x| (w + x.work, t + x.wall_ns));
        work as f64 / (wall_ns.max(1) as f64 / 1e9)
    }

    /// Latency quantile `q`, in microseconds, over every sample of every
    /// pass: the plain counterpart of [`Phase::latency_us`].
    pub fn plain_latency_us(&self, q: f64) -> f64 {
        let mut all = Samples::default();
        for window in self.slots.iter().flatten() {
            all.absorb(&window.latencies);
        }
        all.us_supported(q)
    }

    /// Every latency of each window's fastest execution: what the gauges
    /// that need one pooled sample (a miss rate, a p99.9) are read from.
    pub fn pooled(&self) -> Samples {
        let mut all = Samples::default();
        for runs in &self.slots {
            if let Some(best) = runs.iter().min_by_key(|w| w.wall_ns) {
                all.absorb(&best.latencies);
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19).1, "p50");
        assert_eq!(highest_supported(20).1, "p50");
        assert_eq!(highest_supported(100).1, "p90");
        assert_eq!(highest_supported(999).1, "p90");
        assert_eq!(highest_supported(1_000).1, "p99");
        assert_eq!(highest_supported(9_999).1, "p99");
        assert_eq!(highest_supported(10_000).1, "p99.9");
        assert_eq!(highest_supported(100_000).1, "p99.99");
        assert!(supported(1_000, 0.99) && !supported(999, 0.99));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn unsupported_tail_falls_back_to_the_highest_supported() {
        let mut s = Samples::default();
        for i in 1..=100u64 {
            s.push(i * 1_000);
        }
        assert_eq!(s.us(0.5), 50.0);
        // 100 samples support p90, not p99.
        assert_eq!(s.us_supported(0.99), 90.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    fn window(wall_ns: u64, work: u64, latency: u64) -> Window {
        let mut latencies = Samples::default();
        latencies.push(latency);
        Window {
            wall_ns,
            work,
            latencies,
        }
    }

    #[test]
    fn phase_takes_each_window_at_its_best_pass() {
        // Pass 0 was disturbed in window 1, pass 1 in window 0; window 2 is
        // slow in both (the program's own cost) and only pass 1 reached 3.
        let passes = vec![
            vec![
                window(100, 10, 1_000),
                window(900, 10, 9_000),
                window(500, 10, 5_000),
            ],
            vec![
                window(700, 10, 7_000),
                window(125, 10, 2_000),
                window(510, 10, 6_000),
                window(50, 5, 3_000),
            ],
        ];
        let mut phase = Phase::from_passes(passes);
        assert_eq!(phase.windows(), 4);
        // Best times per window: 100, 125, 500 and 50 ns for 10, 10, 10 and
        // 5 units of work.
        assert_eq!(phase.rate_per_s(), 35.0 / (775.0 / 1e9));
        // Best latencies per window: 1, 2, 5, 3 us -> upper median 3.
        assert_eq!(phase.latency_us(0.5), 3.0);
        // Plain: 65 units of work in 2,885 ns; seven samples, median 5 us.
        assert_eq!(phase.plain_rate_per_s(), 65.0 / (2_885.0 / 1e9));
        assert_eq!(phase.plain_latency_us(0.5), 5.0);
        // Pooled: the fastest execution of each window, all its samples.
        let mut pooled = phase.pooled();
        assert_eq!(pooled.len(), 4);
        assert_eq!(pooled.us(1.0), 5.0);
        assert_eq!(pooled.share_above(2_500), 0.5);

        let mut both = Phase::from_passes(vec![vec![window(100, 10, 1_000)]]);
        both.add(Phase::from_passes(vec![vec![window(200, 10, 4_000)]]));
        assert_eq!(both.windows(), 2);
        assert_eq!(both.latency_us(0.5), 4.0);
    }
}
