//! Accuracy/latency metrics shared by all experiment runners (§6.1.2).

use janus_common::{Estimate, Query, Row};
use std::time::{Duration, Instant};

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

/// Rows per second — the one throughput conversion every experiment must
/// share. Ad-hoc `as_millis`/`as_secs` mixes are how unit-mismatch bugs
/// creep into tracked perf numbers; route every rows-over-wall-time
/// division through here and label the JSON column `*_per_s`.
pub fn rows_per_sec(rows: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        f64::INFINITY
    } else {
        rows as f64 / secs
    }
}

/// Arithmetic mean.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Evaluation of one system over one workload snapshot.
#[derive(Clone, Debug, Default)]
pub struct AccuracyRun {
    /// Per-query relative errors (zero-truth queries skipped).
    pub errors: Vec<f64>,
    /// Total query latency.
    pub latency: Duration,
    /// Queries answered (including zero-truth skips in the denominator of
    /// nothing — latency covers answered queries only).
    pub answered: usize,
}

impl AccuracyRun {
    /// Median relative error (the Table 2 metric).
    pub fn median_error(&self) -> f64 {
        median(self.errors.clone())
    }

    /// Average per-query latency in milliseconds (the Table 2 metric).
    pub fn avg_latency_ms(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.latency.as_secs_f64() * 1e3 / self.answered as f64
        }
    }
}

/// Runs `answer` over the workload against ground truth computed on
/// `truth_rows`, timing only the approximate answers.
pub fn evaluate_system<F>(queries: &[Query], truth_rows: &[Row], mut answer: F) -> AccuracyRun
where
    F: FnMut(&Query) -> Option<Estimate>,
{
    let mut run = AccuracyRun::default();
    for q in queries {
        let truth = q.evaluate_exact(truth_rows);
        let started = Instant::now();
        let est = answer(q);
        run.latency += started.elapsed();
        run.answered += 1;
        let (Some(est), Some(truth)) = (est, truth) else {
            continue;
        };
        if truth.abs() < 1e-9 {
            continue;
        }
        run.errors.push(est.relative_error(truth));
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{AggregateFunction, RangePredicate};

    #[test]
    fn rows_per_sec_units() {
        assert_eq!(rows_per_sec(500, Duration::from_millis(250)), 2_000.0);
        assert_eq!(rows_per_sec(0, Duration::from_secs(1)), 0.0);
        assert_eq!(rows_per_sec(1, Duration::ZERO), f64::INFINITY);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(vec![1.0, 2.0, 3.0, 4.0], 0.95), 4.0);
        assert_eq!(percentile((1..=100).map(|i| i as f64).collect(), 0.5), 51.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn evaluate_system_skips_zero_truth() {
        let rows: Vec<Row> = (0..10).map(|i| Row::new(i, vec![i as f64, 1.0])).collect();
        let q_hit = Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            RangePredicate::new(vec![0.0], vec![5.0]).unwrap(),
        )
        .unwrap();
        let q_miss = Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            RangePredicate::new(vec![100.0], vec![200.0]).unwrap(),
        )
        .unwrap();
        let run = evaluate_system(&[q_hit, q_miss], &rows, |q| {
            q.evaluate_exact(&rows).map(Estimate::exact)
        });
        assert_eq!(run.errors.len(), 1);
        assert_eq!(run.median_error(), 0.0);
        assert_eq!(run.answered, 2);
    }
}
