//! Queries, query templates, and estimates.

use crate::kernels::{self, ScanPartial};
use crate::rect::RangePredicate;
use crate::row::Row;

/// Identifies the tenant a request is billed to in a multi-tenant
/// deployment. Tenant `0` is the untenanted default every legacy path
/// implicitly uses.
pub type TenantId = u32;

/// The aggregate functions supported by JanusAQP synopses (§1, §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `COUNT(*)` over matching tuples.
    Count,
    /// `SUM(A)` over matching tuples.
    Sum,
    /// `AVG(A)` over matching tuples.
    Avg,
    /// `MIN(A)` over matching tuples.
    Min,
    /// `MAX(A)` over matching tuples.
    Max,
}

impl AggregateFunction {
    /// True for MIN/MAX, which are answered from the bounded heaps rather
    /// than from moment statistics.
    #[inline]
    pub fn is_extremum(self) -> bool {
        matches!(self, AggregateFunction::Min | AggregateFunction::Max)
    }

    /// All five supported functions.
    pub const ALL: [AggregateFunction; 5] = [
        AggregateFunction::Count,
        AggregateFunction::Sum,
        AggregateFunction::Avg,
        AggregateFunction::Min,
        AggregateFunction::Max,
    ];
}

impl std::fmt::Display for AggregateFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Avg => "AVG",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// A query *template*: the shape `SELECT agg(A) FROM D WHERE
/// Rectangle(c1,...,cd)` that a synopsis is constructed for (§3.1, §5.5).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryTemplate {
    /// Aggregate function of the template.
    pub agg: AggregateFunction,
    /// Index of the aggregation attribute `A` in the schema.
    pub agg_column: usize,
    /// Indexes of the predicate attributes `c1..cd` in the schema.
    pub predicate_columns: Vec<usize>,
}

impl QueryTemplate {
    /// Convenience constructor.
    pub fn new(agg: AggregateFunction, agg_column: usize, predicate_columns: Vec<usize>) -> Self {
        QueryTemplate {
            agg,
            agg_column,
            predicate_columns,
        }
    }

    /// Dimensionality `d` of the predicate space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.predicate_columns.len()
    }
}

/// A concrete aggregate query: a template instantiated with a rectangular
/// predicate.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Aggregate function.
    pub agg: AggregateFunction,
    /// Index of the aggregation attribute in the schema.
    pub agg_column: usize,
    /// Indexes of the predicate attributes in the schema.
    pub predicate_columns: Vec<usize>,
    /// Closed rectangular predicate over the predicate attributes.
    pub range: RangePredicate,
}

impl Query {
    /// Creates a query; the predicate dimensionality must match the number
    /// of predicate columns.
    pub fn new(
        agg: AggregateFunction,
        agg_column: usize,
        predicate_columns: Vec<usize>,
        range: RangePredicate,
    ) -> crate::Result<Self> {
        if range.dims() != predicate_columns.len() {
            return Err(crate::JanusError::DimensionMismatch {
                expected: predicate_columns.len(),
                actual: range.dims(),
            });
        }
        Ok(Query {
            agg,
            agg_column,
            predicate_columns,
            range,
        })
    }

    /// The template this query belongs to.
    pub fn template(&self) -> QueryTemplate {
        QueryTemplate {
            agg: self.agg,
            agg_column: self.agg_column,
            predicate_columns: self.predicate_columns.clone(),
        }
    }

    /// `Predicate(t, q)` from §2.3.2: does `row` satisfy the predicate?
    #[inline]
    pub fn matches(&self, row: &Row) -> bool {
        self.matches_values(&row.values)
    }

    /// Predicate check over a raw value slice — the form columnar scans
    /// use ([`crate::RowRef`] hands out slices, not [`Row`]s). The
    /// conjunction folds with non-short-circuiting `&` (the
    /// [`crate::kernels`] mask idiom) so the scan loop carries one
    /// predictable branch instead of one per predicate dimension.
    #[inline]
    pub fn matches_values(&self, values: &[f64]) -> bool {
        let (lo, hi) = (self.range.lo(), self.range.hi());
        let mut m = true;
        for (d, &c) in self.predicate_columns.iter().enumerate() {
            let x = values[c];
            m &= (lo[d] <= x) & (x <= hi[d]);
        }
        m
    }

    /// Evaluates the query exactly over `rows` (the ground-truth oracle used
    /// by tests and by the benchmark). Scans that cannot hand out
    /// `&Row` (columnar archives) stream into an [`ExactAccumulator`]
    /// instead.
    pub fn evaluate_exact<'a>(&self, rows: impl IntoIterator<Item = &'a Row>) -> Option<f64> {
        let mut acc = self.exact_accumulator();
        for row in rows {
            acc.offer(&row.values);
        }
        acc.finish()
    }

    /// A streaming exact evaluator for this query: `offer` every row's
    /// value slice, then `finish`. This is how per-row scans compute
    /// ground truth without materializing a `Row` per tuple.
    pub fn exact_accumulator(&self) -> ExactAccumulator<'_> {
        ExactAccumulator {
            query: self,
            partial: ScanPartial::EMPTY,
        }
    }
}

/// Streaming state of an exact query evaluation (see
/// [`Query::exact_accumulator`]). Accumulation order is the offer order,
/// so two scans that offer the same rows in the same order produce
/// bit-identical answers — whether rows arrive one at a time through
/// [`ExactAccumulator::offer`] or in dense chunks through
/// [`ExactAccumulator::offer_columns`] (see the [`crate::kernels`]
/// bit-identity contract).
pub struct ExactAccumulator<'q> {
    query: &'q Query,
    partial: ScanPartial,
}

impl ExactAccumulator<'_> {
    /// Offers one row's full value slice.
    #[inline]
    pub fn offer(&mut self, values: &[f64]) {
        if self.query.matches_values(values) {
            self.partial.accept(values[self.query.agg_column]);
        }
    }

    /// Offers a dense arity-strided block of rows (the columnar archive's
    /// value buffer) through the chunked kernels, continuing the same
    /// serial accumulation: bit-identical to calling [`offer`] on each
    /// row slice in order, including across multiple blocks.
    ///
    /// [`offer`]: ExactAccumulator::offer
    #[inline]
    pub fn offer_columns(&mut self, values: &[f64], arity: usize) {
        kernels::scan_columns(self.query, values, arity, &mut self.partial);
    }

    /// The mergeable partial state accumulated so far.
    #[inline]
    pub fn partial(&self) -> &ScanPartial {
        &self.partial
    }

    /// The exact answer over everything offered so far (`None` for
    /// AVG/MIN/MAX over an empty selection, matching
    /// [`Query::evaluate_exact`]).
    pub fn finish(&self) -> Option<f64> {
        self.partial.finish(self.query.agg)
    }
}

/// An approximate answer together with its uncertainty (§4.4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Point estimate of the aggregate.
    pub value: f64,
    /// Variance contributed by catch-up (node-statistic) estimation, `ν_c`.
    pub catchup_variance: f64,
    /// Variance contributed by stratified-sample estimation, `ν_s`.
    pub sample_variance: f64,
    /// Number of fully covered partitions used (`|R_cover|`).
    pub covered_nodes: usize,
    /// Number of partially covered leaf partitions used (`|R_partial|`).
    pub partial_nodes: usize,
    /// Number of stratified samples that contributed to the estimate.
    pub samples_used: usize,
    /// True when the answer was assembled from a subset of the shards that
    /// hold the data — a deadline-bounded gather merged the sub-answers
    /// that arrived in time and widened the CI for the missing population
    /// (see `janus_common::merge::merge_partial_additive`). Complete
    /// answers always carry `false`, so the flag never perturbs the
    /// bit-identity pins on the full scatter-gather path.
    pub partial: bool,
}

impl Estimate {
    /// An exact answer with zero variance.
    pub fn exact(value: f64) -> Self {
        Estimate {
            value,
            catchup_variance: 0.0,
            sample_variance: 0.0,
            covered_nodes: 0,
            partial_nodes: 0,
            samples_used: 0,
            partial: false,
        }
    }

    /// Total estimator variance `ν_c + ν_s`.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.catchup_variance + self.sample_variance
    }

    /// Confidence-interval half width `z * sqrt(ν_c + ν_s)`.
    #[inline]
    pub fn ci_half_width(&self, z: f64) -> f64 {
        z * self.variance().max(0.0).sqrt()
    }

    /// Relative error against a known ground truth. Uses the paper's
    /// convention: `|est - truth| / |truth|`, and `|est|` when the truth is
    /// zero (so a correct zero estimate scores 0).
    pub fn relative_error(&self, truth: f64) -> f64 {
        if truth == 0.0 {
            self.value.abs()
        } else {
            (self.value - truth).abs() / truth.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::RangePredicate;

    fn rows() -> Vec<Row> {
        (0..10)
            .map(|i| Row::new(i, vec![i as f64, (i * i) as f64]))
            .collect()
    }

    fn q(agg: AggregateFunction, lo: f64, hi: f64) -> Query {
        Query::new(
            agg,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn exact_evaluation_matches_hand_computation() {
        let rows = rows();
        // rows with time in [2, 5]: values 4, 9, 16, 25
        assert_eq!(
            q(AggregateFunction::Count, 2.0, 5.0).evaluate_exact(&rows),
            Some(4.0)
        );
        assert_eq!(
            q(AggregateFunction::Sum, 2.0, 5.0).evaluate_exact(&rows),
            Some(54.0)
        );
        assert_eq!(
            q(AggregateFunction::Avg, 2.0, 5.0).evaluate_exact(&rows),
            Some(13.5)
        );
        assert_eq!(
            q(AggregateFunction::Min, 2.0, 5.0).evaluate_exact(&rows),
            Some(4.0)
        );
        assert_eq!(
            q(AggregateFunction::Max, 2.0, 5.0).evaluate_exact(&rows),
            Some(25.0)
        );
    }

    #[test]
    fn empty_selection_yields_none_for_avg_min_max() {
        let rows = rows();
        assert_eq!(
            q(AggregateFunction::Count, 100.0, 200.0).evaluate_exact(&rows),
            Some(0.0)
        );
        assert_eq!(
            q(AggregateFunction::Sum, 100.0, 200.0).evaluate_exact(&rows),
            Some(0.0)
        );
        assert_eq!(
            q(AggregateFunction::Avg, 100.0, 200.0).evaluate_exact(&rows),
            None
        );
        assert_eq!(
            q(AggregateFunction::Min, 100.0, 200.0).evaluate_exact(&rows),
            None
        );
    }

    #[test]
    fn accumulator_streams_to_the_same_answers() {
        let rows = rows();
        for agg in AggregateFunction::ALL {
            for (lo, hi) in [(2.0, 5.0), (100.0, 200.0), (0.0, 9.0)] {
                let query = q(agg, lo, hi);
                let mut acc = query.exact_accumulator();
                for row in &rows {
                    acc.offer(&row.values);
                }
                assert_eq!(
                    acc.finish(),
                    query.evaluate_exact(&rows),
                    "{agg} [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let r = RangePredicate::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(Query::new(AggregateFunction::Sum, 1, vec![0], r).is_err());
    }

    #[test]
    fn ci_half_width_uses_both_variances() {
        let e = Estimate {
            value: 10.0,
            catchup_variance: 3.0,
            sample_variance: 1.0,
            covered_nodes: 1,
            partial_nodes: 1,
            samples_used: 5,
            partial: false,
        };
        assert!((e.ci_half_width(2.0) - 4.0).abs() < 1e-12);
        assert_eq!(e.variance(), 4.0);
    }

    #[test]
    fn relative_error_conventions() {
        let e = Estimate::exact(5.0);
        assert!((e.relative_error(4.0) - 0.25).abs() < 1e-12);
        assert_eq!(Estimate::exact(0.0).relative_error(0.0), 0.0);
        assert_eq!(e.relative_error(0.0), 5.0);
    }

    #[test]
    fn template_round_trip() {
        let query = q(AggregateFunction::Sum, 0.0, 1.0);
        let t = query.template();
        assert_eq!(t.agg, AggregateFunction::Sum);
        assert_eq!(t.dims(), 1);
        assert_eq!(t.agg_column, 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(AggregateFunction::Count.to_string(), "COUNT");
        assert_eq!(AggregateFunction::Avg.to_string(), "AVG");
        assert_eq!(AggregateFunction::ALL.len(), 5);
    }
}
