//! Order statistics shared by the experiment runners (§6.1.2).

/// Median of a sample (panics on empty input — an experiment bug).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of empty sample");
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// `p`-th percentile (0..=1) of a sample.
pub fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of empty sample");
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((v.len() as f64 * p) as usize).min(v.len() - 1);
    v[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(vec![1.0, 2.0, 3.0, 4.0], 0.95), 4.0);
        assert_eq!(percentile((1..=100).map(|i| i as f64).collect(), 0.5), 51.0);
    }
}
