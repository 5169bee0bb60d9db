//! DPT node statistics (§4.1, §4.4).
//!
//! Each node of a Dynamic Partition Tree maintains, for the aggregation
//! attribute:
//!
//! * an optional **exact base** — present when the node was populated by a
//!   full scan (SPT-style construction, used by the PASS baseline and by
//!   `catchup_ratio = 1` bootstraps);
//! * **catch-up moments** — `h_i`, `Σ_{H_i} a`, `Σ_{H_i} a²` of the
//!   catch-up samples observed in this node's epoch, from which the base
//!   statistics of the epoch snapshot are *estimated*;
//! * exact **inserted** / **deleted** delta moments since the node's epoch
//!   — the incremental part of §4.1;
//! * bounded **MIN/MAX heaps** (§4.1).
//!
//! A node's aggregate estimate is `catchup-estimate + inserted − deleted`
//! (§4.4), and its contribution to the catch-up variance `ν_c` follows
//! Appendix C.

use crate::formulas;
use janus_common::Moments;
use janus_index::topk::MinMaxTracker;

/// Per-epoch catch-up bookkeeping shared by all nodes of that epoch.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpochInfo {
    /// Table size `N` at the epoch snapshot.
    pub population: f64,
    /// Number of catch-up samples offered so far in this epoch (`h`).
    pub offered: u64,
}

/// The statistics block of one DPT node.
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// Exact base moments when built by a full scan; `None` in catch-up
    /// mode.
    pub exact_base: Option<Moments>,
    /// Moments of the catch-up samples that landed in this node
    /// (`h_i`, `Σ a`, `Σ a²`).
    pub catchup: Moments,
    /// Exact moments of tuples inserted since the node's epoch.
    pub inserted: Moments,
    /// Exact moments of tuples deleted since the node's epoch.
    pub deleted: Moments,
    /// Bounded top-k / bottom-k heaps for MIN/MAX.
    pub minmax: MinMaxTracker,
    /// Catch-up epoch this node belongs to.
    pub epoch: usize,
    /// `offered` count of the epoch at node creation; the node's effective
    /// denominator is `offered − h_start`.
    pub h_start: u64,
}

impl NodeStats {
    /// Fresh statistics for a node created in `epoch` after `h_start`
    /// samples were already offered in that epoch.
    pub fn new(minmax_k: usize, epoch: usize, h_start: u64) -> Self {
        NodeStats {
            exact_base: None,
            catchup: Moments::ZERO,
            inserted: Moments::ZERO,
            deleted: Moments::ZERO,
            minmax: MinMaxTracker::new(minmax_k),
            epoch,
            h_start,
        }
    }

    /// Number of catch-up samples this node has absorbed (`h_i`).
    pub fn h_i(&self) -> f64 {
        self.catchup.count
    }

    /// Effective number of catch-up samples offered to this node (`h`).
    pub fn h_offered(&self, epochs: &[EpochInfo]) -> f64 {
        (epochs[self.epoch].offered.saturating_sub(self.h_start)) as f64
    }

    /// Estimated moments of the node's *current* contents:
    /// base estimate (exact or catch-up-scaled) plus inserted minus deleted.
    ///
    /// `count` is `N̂_i` and `sum` is the node's SUM estimate (§4.4).
    pub fn estimated_moments(&self, epochs: &[EpochInfo]) -> Moments {
        let base = match &self.exact_base {
            Some(b) => *b,
            None => {
                let h = self.h_offered(epochs);
                if h <= 0.0 {
                    Moments::ZERO
                } else {
                    let scale = epochs[self.epoch].population / h;
                    Moments {
                        count: self.catchup.count * scale,
                        sum: self.catchup.sum * scale,
                        sumsq: self.catchup.sumsq * scale,
                    }
                }
            }
        };
        let mut m = base.merge(&self.inserted).subtract(&self.deleted);
        // Estimation noise can push tiny nodes negative; clamp for safety.
        if m.count < 0.0 {
            m.count = 0.0;
        }
        m
    }

    /// Catch-up variance contribution `ν_c` of this node when *fully
    /// covered* by a query (Appendix C): zero for exact bases, otherwise
    /// `N̂_i²/h_i³ · (h_i Σa² − (Σa)²)` with the φ transform selected by
    /// `count_query` (COUNT sets `a ≡ 1`, making the kernel vanish).
    pub fn covered_catchup_variance(&self, epochs: &[EpochInfo], count_query: bool) -> f64 {
        if self.exact_base.is_some() {
            return 0.0;
        }
        let h_i = self.h_i();
        if h_i < 2.0 {
            return 0.0;
        }
        let n_hat = self.estimated_moments(epochs).count;
        let phi = if count_query {
            Moments {
                count: h_i,
                sum: h_i,
                sumsq: h_i,
            }
        } else {
            self.catchup
        };
        formulas::sum_estimate_variance(n_hat, h_i, &phi)
    }

    /// AVG-weighted catch-up variance for a covered node (Appendix C):
    /// `w² / h³ · (h Σa² − (Σa)²)` with `w = N̂_i / N̂_q`.
    pub fn covered_catchup_variance_avg(&self, w: f64) -> f64 {
        if self.exact_base.is_some() {
            return 0.0;
        }
        let h_i = self.h_i();
        if h_i < 2.0 {
            return 0.0;
        }
        let kernel = self.catchup.variance_kernel();
        (w * w) / (h_i * h_i * h_i) * kernel
    }

    /// Records an inserted tuple's aggregation value.
    pub fn record_insert(&mut self, a: f64) {
        self.inserted.add(a);
        self.minmax.insert(a);
    }

    /// Records a deleted tuple's aggregation value.
    pub fn record_delete(&mut self, a: f64) {
        self.deleted.add(a);
        self.minmax.delete(a);
    }

    /// Absorbs a catch-up sample (only meaningful in the node's own epoch).
    pub fn record_catchup(&mut self, a: f64) {
        self.catchup.add(a);
        self.minmax.insert(a);
    }

    /// Installs an exact base (full-scan construction).
    pub fn set_exact_base(&mut self, base: Moments) {
        self.exact_base = Some(base);
    }

    /// Adds one scanned tuple to the exact base and the MIN/MAX heaps —
    /// the per-row step of a full-scan construction.
    pub fn record_base(&mut self, a: f64) {
        self.exact_base.get_or_insert(Moments::ZERO).add(a);
        self.minmax.insert(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epochs(population: f64, offered: u64) -> Vec<EpochInfo> {
        vec![EpochInfo {
            population,
            offered,
        }]
    }

    #[test]
    fn exact_base_estimates_are_exact() {
        let mut s = NodeStats::new(8, 0, 0);
        s.set_exact_base(Moments::from_values([1.0, 2.0, 3.0]));
        s.record_insert(4.0);
        s.record_delete(2.0);
        let m = s.estimated_moments(&epochs(100.0, 0));
        assert!((m.count - 3.0).abs() < 1e-12);
        assert!((m.sum - 8.0).abs() < 1e-12);
        assert_eq!(s.covered_catchup_variance(&epochs(100.0, 0), false), 0.0);
    }

    #[test]
    fn catchup_base_scales_by_population() {
        // 10 of 100 offered samples landed here: node holds ~10% of a
        // population of 1000 → N̂ = 100.
        let mut s = NodeStats::new(8, 0, 0);
        for _ in 0..10 {
            s.record_catchup(2.0);
        }
        let eps = epochs(1000.0, 100);
        let m = s.estimated_moments(&eps);
        assert!((m.count - 100.0).abs() < 1e-9);
        assert!((m.sum - 200.0).abs() < 1e-9);
    }

    #[test]
    fn deltas_apply_on_top_of_catchup_base() {
        let mut s = NodeStats::new(8, 0, 0);
        for v in [1.0, 3.0] {
            s.record_catchup(v);
        }
        s.record_insert(10.0);
        s.record_delete(1.0);
        let eps = epochs(20.0, 10); // scale = 2
        let m = s.estimated_moments(&eps);
        // base: count 4, sum 8; +1 insert(10) −1 delete(1)
        assert!((m.count - 4.0).abs() < 1e-12);
        assert!((m.sum - 17.0).abs() < 1e-12);
    }

    #[test]
    fn zero_offered_means_deltas_only() {
        let mut s = NodeStats::new(8, 0, 0);
        s.record_insert(5.0);
        let m = s.estimated_moments(&epochs(1000.0, 0));
        assert_eq!(m.count, 1.0);
        assert_eq!(m.sum, 5.0);
    }

    #[test]
    fn h_start_offsets_the_denominator() {
        // Node created after 50 samples were offered; 5 of the next 50 hit.
        let mut s = NodeStats::new(8, 0, 50);
        for _ in 0..5 {
            s.record_catchup(1.0);
        }
        let eps = epochs(1000.0, 100);
        assert_eq!(s.h_offered(&eps), 50.0);
        let m = s.estimated_moments(&eps);
        assert!((m.count - 100.0).abs() < 1e-9); // 5/50 * 1000
    }

    #[test]
    fn count_query_catchup_variance_vanishes() {
        let mut s = NodeStats::new(8, 0, 0);
        for v in [1.0, 5.0, 2.0, 8.0] {
            s.record_catchup(v);
        }
        let eps = epochs(100.0, 10);
        assert_eq!(s.covered_catchup_variance(&eps, true), 0.0);
        assert!(s.covered_catchup_variance(&eps, false) > 0.0);
    }

    #[test]
    fn min_max_follow_inserts_and_deletes() {
        let mut s = NodeStats::new(4, 0, 0);
        s.record_insert(5.0);
        s.record_insert(-2.0);
        s.record_catchup(9.0);
        assert_eq!(s.minmax.min(), Some(-2.0));
        assert_eq!(s.minmax.max(), Some(9.0));
        s.record_delete(-2.0);
        assert_eq!(s.minmax.min(), Some(5.0));
    }

    #[test]
    fn negative_count_is_clamped() {
        let mut s = NodeStats::new(4, 0, 0);
        s.record_delete(1.0);
        s.record_delete(2.0);
        let m = s.estimated_moments(&epochs(10.0, 0));
        assert_eq!(m.count, 0.0);
        assert!(m.sum < 0.0); // sum deltas stay signed for correct cancellation
    }
}
