//! Equal-count (equi-depth) 1-D partitioning — the exact COUNT fast path.
//!
//! §D.2: "For COUNT queries the optimum partition in 1D consists of equal
//! size buckets", because the worst-query variance of a bucket is
//! `N̂²/(4m)`, monotone in the bucket's sample count. Splitting the sorted
//! samples into `k` equal runs is therefore optimal and takes
//! `O(k log m)` treap probes.

use super::{finish, snap_rank_to_distinct, PartitionOutcome, PartitionSpec};
use crate::maxvar::MaxVarianceIndex;
use janus_common::{AggregateFunction, Result};

/// Equal-count partitioning into (up to) `k` buckets.
pub fn partition(mv: &MaxVarianceIndex, k: usize) -> Result<PartitionOutcome> {
    debug_assert!(mv.dims() == 1, "equicount requires a 1-D synopsis");
    let m = mv.len();
    if m == 0 || k <= 1 {
        return Ok(finish(PartitionSpec::trivial(1), mv));
    }
    let mut boundaries = Vec::with_capacity(k - 1);
    for i in 1..k {
        let rank = snap_rank_to_distinct(mv, i * m / k);
        if rank == 0 || rank >= m {
            continue;
        }
        if let Some(e) = mv.kth_dim0(rank) {
            if boundaries.last().is_none_or(|&last| e.key > last) {
                boundaries.push(e.key);
            }
        }
    }
    let spec = PartitionSpec::from_boundaries(&boundaries)?;
    Ok(finish(spec, mv))
}

/// Whether [`partition`] can return a partitioning with
/// `max_leaf_variance < bound`. Exact for a COUNT index: some bucket of any
/// `k`-way split holds at least `⌈m/k⌉` samples, and `N̂²/(4m)` grows with
/// the bucket's sample count. Any other focus has no closed form: `true`.
pub fn can_reach(mv: &MaxVarianceIndex, k: usize, bound: f64) -> bool {
    mv.focus() != AggregateFunction::Count
        || mv.max_variance_rank_range(0, mv.len().div_ceil(k.max(1))) < bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_index::IndexPoint;

    fn mv(points: Vec<IndexPoint>) -> MaxVarianceIndex {
        MaxVarianceIndex::bulk_load(1, AggregateFunction::Count, 0.1, 0.01, points)
    }

    #[test]
    fn splits_into_equal_runs() {
        let pts: Vec<IndexPoint> = (0..100)
            .map(|i| IndexPoint::new(vec![i as f64], i as u64, 1.0))
            .collect();
        let out = partition(&mv(pts), 4).unwrap();
        assert_eq!(out.spec.leaf_count(), 4);
        out.spec.validate().unwrap();
        // Each leaf holds exactly 25 samples ⇒ equal variances.
        let v0 = out.leaf_variances[0];
        assert!(out.leaf_variances.iter().all(|&v| (v - v0).abs() < 1e-9));
    }

    #[test]
    fn heavy_ties_collapse_boundaries() {
        let pts: Vec<IndexPoint> = (0..100)
            .map(|i| IndexPoint::new(vec![if i < 90 { 1.0 } else { 2.0 }], i as u64, 1.0))
            .collect();
        let out = partition(&mv(pts), 10).unwrap();
        // Only one distinct cut is possible.
        assert!(out.spec.leaf_count() <= 2);
        out.spec.validate().unwrap();
    }

    #[test]
    fn can_reach_is_the_closed_form_of_the_largest_bucket() {
        // Distinct keys: the largest equal-count bucket holds ⌈m/k⌉ samples,
        // so the pre-check is exact — it flips at the achieved variance.
        for (m, k) in [(100usize, 4usize), (101, 4), (7, 3), (50, 64), (1, 2)] {
            let pts = (0..m)
                .map(|i| IndexPoint::new(vec![i as f64], i as u64, 1.0))
                .collect();
            let index = mv(pts);
            let achieved = partition(&index, k).unwrap().max_leaf_variance;
            let c = m.div_ceil(k) as f64;
            assert_eq!(achieved, (c / 0.1) * (c / 0.1) / (4.0 * c), "m={m} k={k}");
            assert!(!can_reach(&index, k, achieved), "m={m} k={k}");
            assert!(can_reach(&index, k, achieved.next_up()), "m={m} k={k}");
        }
        // Ties only make buckets larger: the closed form under-estimates
        // and the pre-check stays reject-only.
        let pts = (0..100)
            .map(|i| IndexPoint::new(vec![if i < 90 { 1.0 } else { 2.0 }], i as u64, 1.0))
            .collect();
        let index = mv(pts);
        let achieved = partition(&index, 10).unwrap().max_leaf_variance;
        let ten = index.max_variance_rank_range(0, 10);
        assert!(!can_reach(&index, 10, ten) && achieved >= ten);
        assert!(can_reach(&index, 10, achieved));
        // A SUM-focused index has no closed form: never rejected.
        let sum = MaxVarianceIndex::bulk_load(1, AggregateFunction::Sum, 0.1, 0.01, Vec::new());
        assert!(can_reach(&sum, 4, 0.0));
    }

    #[test]
    fn trivial_inputs() {
        let out = partition(&mv(Vec::new()), 8).unwrap();
        assert_eq!(out.spec.leaf_count(), 1);
        let pts = vec![IndexPoint::new(vec![1.0], 0, 1.0)];
        let out = partition(&mv(pts), 8).unwrap();
        assert_eq!(out.spec.leaf_count(), 1);
    }
}
