//! The exact oracle and the accuracy score.
//!
//! Truth is computed by the harness from the rows it knows must be live
//! after the last operation — not from the program's own archive — so a
//! lost or duplicated update shows as error instead of hiding in both
//! sides of the comparison. Every query filters on the one key column, so
//! a key-sorted array with prefix sums answers it in `O(log n)`; the
//! program's `evaluate_exact` scan (3 ms per query over 10^6 rows) is
//! cross-checked against it on a few queries per run instead of being run
//! 2,000 times.

use crate::stats;
use janus_common::{AggregateFunction, Estimate, Query};

pub struct Oracle {
    keys: Vec<f64>,
    values: Vec<f64>,
    /// `prefix[i]` = sum of `values[..i]`.
    prefix: Vec<f64>,
}

impl Oracle {
    /// Builds the oracle over `(key, value)` pairs of the live rows.
    pub fn new(mut live: Vec<(f64, f64)>) -> Self {
        live.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prefix = Vec::with_capacity(live.len() + 1);
        let mut acc = 0.0;
        prefix.push(acc);
        for &(_, v) in &live {
            acc += v;
            prefix.push(acc);
        }
        Oracle {
            keys: live.iter().map(|p| p.0).collect(),
            values: live.iter().map(|p| p.1).collect(),
            prefix,
        }
    }

    pub fn rows(&self) -> usize {
        self.keys.len()
    }

    /// The exact answer, with `Query::evaluate_exact`'s conventions: `None`
    /// for AVG/MIN/MAX over an empty selection, `0` for COUNT/SUM.
    pub fn truth(&self, query: &Query) -> Option<f64> {
        let (lo, hi) = (query.range.lo()[0], query.range.hi()[0]);
        let start = self.keys.partition_point(|&k| k < lo);
        let end = self.keys.partition_point(|&k| k <= hi);
        let count = end.saturating_sub(start);
        let sum = || self.prefix[end] - self.prefix[start];
        let selected = || self.values[start..end].iter().copied();
        match query.agg {
            AggregateFunction::Count => Some(count as f64),
            AggregateFunction::Sum => Some(if count == 0 { 0.0 } else { sum() }),
            AggregateFunction::Avg => (count > 0).then(|| sum() / count as f64),
            AggregateFunction::Min => (count > 0).then(|| selected().fold(f64::INFINITY, f64::min)),
            AggregateFunction::Max => {
                (count > 0).then(|| selected().fold(f64::NEG_INFINITY, f64::max))
            }
        }
    }
}

/// How one set of answers compares with the truth.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Accuracy {
    /// Median relative error over every query with a non-zero truth, in %.
    pub rel_err_p50_pct: f64,
    /// Share of SUM/COUNT/AVG queries whose 95% interval covers the truth.
    pub ci_coverage: f64,
    /// MIN answers below the true minimum or MAX answers above the true
    /// maximum: an extremum is read off rows that exist, so it can fall
    /// short of the true one but never pass it.
    pub extremum_violations: usize,
    /// Queries the program answered with an error.
    pub errors: usize,
    /// Answers flagged partial (no workload sets a deadline, so any is a
    /// failure).
    pub partials: usize,
    /// Means of the work counts carried by the estimates.
    pub samples_used: f64,
    pub partial_nodes: f64,
    pub covered_nodes: f64,
}

/// Interval multiplier the coverage check uses (95%).
pub const Z: f64 = 1.96;

pub fn score(
    queries: &[Query],
    oracle: &Oracle,
    answers: &[Result<Option<Estimate>, String>],
) -> Accuracy {
    assert_eq!(queries.len(), answers.len());
    let mut acc = Accuracy::default();
    let mut errors_ppm: Vec<u64> = Vec::new();
    let (mut ci_asked, mut ci_covered) = (0usize, 0usize);
    let mut answered = 0usize;
    for (query, answer) in queries.iter().zip(answers) {
        let truth = oracle.truth(query);
        let estimate = match answer {
            Ok(e) => *e,
            Err(_) => {
                acc.errors += 1;
                continue;
            }
        };
        if let Some(e) = estimate {
            answered += 1;
            acc.partials += e.partial as usize;
            acc.samples_used += e.samples_used as f64;
            acc.partial_nodes += e.partial_nodes as f64;
            acc.covered_nodes += e.covered_nodes as f64;
        }
        let Some(truth) = truth else { continue };
        if query.agg.is_extremum() {
            if let Some(e) = estimate {
                let slack = 1e-9 * truth.abs().max(1.0);
                let beyond = match query.agg {
                    AggregateFunction::Min => e.value < truth - slack,
                    _ => e.value > truth + slack,
                };
                acc.extremum_violations += beyond as usize;
            }
        } else {
            ci_asked += 1;
            if let Some(e) = estimate {
                let slack = 1e-9 * truth.abs().max(1.0);
                ci_covered += ((e.value - truth).abs() <= e.ci_half_width(Z) + slack) as usize;
            }
        }
        if let Some(e) = estimate {
            if truth.abs() > 1e-9 {
                errors_ppm.push((e.relative_error(truth) * 1e12) as u64);
            }
        }
    }
    errors_ppm.sort_unstable();
    if !errors_ppm.is_empty() {
        acc.rel_err_p50_pct = stats::quantile(&errors_ppm, 0.5) as f64 / 1e12 * 100.0;
    }
    acc.ci_coverage = ci_covered as f64 / ci_asked.max(1) as f64;
    let answered = answered.max(1) as f64;
    acc.samples_used /= answered;
    acc.partial_nodes /= answered;
    acc.covered_nodes /= answered;
    acc
}

/// Largest relative disagreement between the harness oracle and the
/// program's own exact scan over `picks` queries.
pub fn cross_check(
    queries: &[Query],
    oracle: &Oracle,
    picks: &[usize],
    mut exact: impl FnMut(&Query) -> Option<f64>,
) -> f64 {
    let mut worst = 0.0f64;
    for &i in picks {
        let (ours, theirs) = (oracle.truth(&queries[i]), exact(&queries[i]));
        worst = worst.max(match (ours, theirs) {
            (Some(a), Some(b)) => (a - b).abs() / a.abs().max(1.0),
            (None, None) => 0.0,
            _ => f64::INFINITY,
        });
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{RangePredicate, Row};

    fn query(agg: AggregateFunction, lo: f64, hi: f64) -> Query {
        Query::new(
            agg,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn oracle_matches_the_exact_scan() {
        let rows: Vec<Row> = (0..500u64)
            .map(|i| Row::new(i, vec![((i * 37) % 101) as f64, (i % 13) as f64 - 3.0]))
            .collect();
        let oracle = Oracle::new(rows.iter().map(|r| (r.value(0), r.value(1))).collect());
        for agg in AggregateFunction::ALL {
            for (lo, hi) in [(10.0, 50.0), (0.0, 100.0), (200.0, 300.0), (33.0, 33.0)] {
                let q = query(agg, lo, hi);
                let (ours, theirs) = (oracle.truth(&q), q.evaluate_exact(&rows));
                match (ours, theirs) {
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{agg} {lo} {hi}"),
                    (a, b) => assert_eq!(a, b, "{agg} {lo} {hi}"),
                }
            }
        }
    }

    #[test]
    fn score_counts_coverage_and_extremum_violations() {
        let oracle = Oracle::new((0..100).map(|i| (i as f64, 2.0)).collect());
        let queries = vec![
            query(AggregateFunction::Sum, 0.0, 49.0),  // truth 100
            query(AggregateFunction::Count, 0.0, 9.0), // truth 10
            query(AggregateFunction::Min, 0.0, 99.0),  // truth 2
            query(AggregateFunction::Max, 0.0, 99.0),  // truth 2
        ];
        let with_var = |value: f64, var: f64| Estimate {
            sample_variance: var,
            ..Estimate::exact(value)
        };
        let answers = vec![
            Ok(Some(with_var(104.0, 9.0))), // |4| <= 1.96 * 3: covered
            Ok(Some(with_var(20.0, 1.0))),  // |10| > 1.96: missed
            Ok(Some(Estimate::exact(1.5))), // below the true minimum
            Ok(Some(Estimate::exact(2.0))),
        ];
        let acc = score(&queries, &oracle, &answers);
        assert_eq!(acc.ci_coverage, 0.5);
        assert_eq!(acc.extremum_violations, 1);
        assert_eq!((acc.errors, acc.partials), (0, 0));
        // Relative errors 4%, 100%, 25%, 0%: nearest-rank median is 4%.
        assert!(
            (acc.rel_err_p50_pct - 4.0).abs() < 1e-6,
            "{}",
            acc.rel_err_p50_pct
        );
    }
}
