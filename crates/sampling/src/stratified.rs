//! Proportional-allocation mathematics for virtual strata (Appendix B) and
//! equal-depth boundaries for the SRS baseline (§6.1.3).
//!
//! JanusAQP does not materialize physical strata: the leaf nodes of the DPT
//! index into the pooled reservoir, forming *virtual* strata. Appendix B
//! shows that if every stratum's population satisfies
//! `N_i >= (16 / α) · ln k` (with `α` the sampling rate and `k` the number
//! of strata), then with probability at least `1 - 1/k` every stratum
//! receives at least half of its proportional allocation. These helpers
//! implement that check and the resulting re-partition signal.

/// Minimum stratum population for the Appendix B guarantee:
/// `(16 / alpha) * ln(k)` (clamped below by 1).
pub fn min_stratum_population(alpha: f64, k: usize) -> f64 {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "sampling rate must be in (0, 1]"
    );
    let lnk = (k.max(2) as f64).ln();
    (16.0 / alpha * lnk).max(1.0)
}

/// Appendix B sufficiency check: is this stratum large enough for the
/// proportional-allocation guarantee?
pub fn stratum_is_sufficient(population: f64, alpha: f64, k: usize) -> bool {
    population >= min_stratum_population(alpha, k)
}

/// §5.4's under-representation trigger: a leaf with fewer than
/// `ln(m) / alpha ... ` — concretely, the paper flags `|S_i| << (1/α)·log m`
/// scaled by the sampling rate; we implement the practical form
/// `samples_in_stratum < threshold_fraction * ln(m)`, with
/// `threshold_fraction` defaulting to 1.
pub fn stratum_is_underrepresented(
    samples_in_stratum: usize,
    m: usize,
    threshold_fraction: f64,
) -> bool {
    if m < 2 {
        return false;
    }
    (samples_in_stratum as f64) < threshold_fraction * (m as f64).ln()
}

/// True when an observed allocation is within a multiplicative `factor` of
/// proportional (the "up to a factor of 2" of §4.2 / Appendix B).
pub fn allocation_within_factor(observed: f64, expected: f64, factor: f64) -> bool {
    if expected <= 0.0 {
        return observed <= 0.0 + f64::EPSILON;
    }
    observed >= expected / factor && observed <= expected * factor
}

/// Computes `k - 1` equal-depth (equi-count) boundaries over `values`,
/// yielding `k` buckets with (near-)equal populations. Used by the SRS
/// baseline's equal-depth partitioning and by the COUNT fast path (§D.2).
///
/// The returned boundaries are strictly increasing; duplicate candidate
/// boundaries (heavy ties) are skipped, so fewer than `k - 1` boundaries may
/// be returned for low-cardinality data.
pub fn equal_depth_boundaries(values: &mut [f64], k: usize) -> Vec<f64> {
    assert!(k >= 1, "need at least one bucket");
    values.sort_unstable_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n == 0 || k == 1 {
        return Vec::new();
    }
    let mut boundaries = Vec::with_capacity(k - 1);
    for i in 1..k {
        let idx = (i * n) / k;
        if idx == 0 || idx >= n {
            continue;
        }
        let b = values[idx];
        if boundaries.last().is_none_or(|&last| b > last) {
            boundaries.push(b);
        }
    }
    boundaries
}

/// Maps a value to its bucket index given sorted `boundaries` (bucket `i`
/// covers `[boundaries[i-1], boundaries[i])`).
pub fn bucket_of(value: f64, boundaries: &[f64]) -> usize {
    boundaries.partition_point(|&b| b <= value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_population_grows_with_k_and_shrinks_with_alpha() {
        let a = min_stratum_population(0.01, 128);
        let b = min_stratum_population(0.01, 16);
        let c = min_stratum_population(0.1, 128);
        assert!(a > b);
        assert!(a > c);
        // 16/0.01 * ln(128) ≈ 1600 * 4.852 ≈ 7763
        assert!((a - 1600.0 * (128.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn sufficiency_check() {
        assert!(stratum_is_sufficient(1_000_000.0, 0.01, 128));
        assert!(!stratum_is_sufficient(100.0, 0.01, 128));
    }

    #[test]
    fn underrepresentation_flags_tiny_strata() {
        // ln(10000) ≈ 9.2
        assert!(stratum_is_underrepresented(3, 10_000, 1.0));
        assert!(!stratum_is_underrepresented(50, 10_000, 1.0));
        assert!(!stratum_is_underrepresented(0, 1, 1.0));
    }

    #[test]
    fn allocation_factor_check() {
        assert!(allocation_within_factor(10.0, 10.0, 2.0));
        assert!(allocation_within_factor(5.0, 10.0, 2.0));
        assert!(allocation_within_factor(20.0, 10.0, 2.0));
        assert!(!allocation_within_factor(4.9, 10.0, 2.0));
        assert!(!allocation_within_factor(21.0, 10.0, 2.0));
        assert!(allocation_within_factor(0.0, 0.0, 2.0));
    }

    #[test]
    fn equal_depth_boundaries_split_evenly() {
        let mut values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = equal_depth_boundaries(&mut values, 4);
        assert_eq!(b, vec![25.0, 50.0, 75.0]);
        // Every bucket gets 25 values.
        let mut counts = [0usize; 4];
        for v in &values {
            counts[bucket_of(*v, &b)] += 1;
        }
        assert_eq!(counts, [25, 25, 25, 25]);
    }

    #[test]
    fn equal_depth_handles_heavy_ties() {
        let mut values = vec![1.0; 50];
        values.extend([2.0, 3.0]);
        let b = equal_depth_boundaries(&mut values, 4);
        // Duplicate boundary candidates collapse.
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(b.len() <= 3);
    }

    #[test]
    fn bucket_of_maps_edges_correctly() {
        let b = vec![10.0, 20.0];
        assert_eq!(bucket_of(5.0, &b), 0);
        assert_eq!(bucket_of(10.0, &b), 1);
        assert_eq!(bucket_of(19.9, &b), 1);
        assert_eq!(bucket_of(20.0, &b), 2);
        assert_eq!(bucket_of(100.0, &b), 2);
    }

    #[test]
    fn empty_and_single_bucket_cases() {
        let mut empty: Vec<f64> = vec![];
        assert!(equal_depth_boundaries(&mut empty, 4).is_empty());
        let mut v = vec![3.0, 1.0, 2.0];
        assert!(equal_depth_boundaries(&mut v, 1).is_empty());
        assert_eq!(v, vec![1.0, 2.0, 3.0]); // sorted as a side effect
    }
}
