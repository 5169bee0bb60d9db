//! The one estimator under every answer path (§4.4, §5.5).
//!
//! **Gather** ([`Gathered`]): classify the tree once, keep the statistics
//! of every fully covered node and scan the stratum of every partially
//! covered leaf once ([`Term`]: `N̂_i`, `m_i`, the moments and extremes of
//! `t.a` over the matching samples). **Finish**: SUM, COUNT, AVG, MIN/MAX
//! and the scatter-gather `(SUM, COUNT)` pair all come from those terms.
//! §5.5's fallbacks are the same terms from fewer [`Layers`]: every
//! intersecting leaf's stratum and no node statistics, or the pooled
//! sample as one stratum with `N̂ = |D|`.
//!
//! **Accumulation order.** Answers are compared bit for bit (restored vs.
//! uninterrupted, cluster vs. single engine, `tests/estimator_pins.rs`),
//! so every finisher adds covered nodes first, in [`Dpt::classify`]
//! order, then terms in `classify` order (strata-only: partial leaves,
//! then each covered subtree's leaves); a scan visits its stratum in
//! `BTreeSet<RowId>` order. All are functions of the tree's *content*,
//! not its history. Value, `ν_c` and `ν_s` are separate sums from `+0.0`.
//!
//! **Conventions.** An *empty stratum* (`m_i = 0`) contributes no value
//! and no variance, though it counts in `N̂_q` and `partial_nodes`; a
//! stratum *none of whose samples match* contributes value 0, variance 0.
//! Both understate the interval (ROADMAP item 1) and are one arm each of
//! [`Term::contributes`]. Pinned metadata: MIN/MAX report `samples_used = 0`
//! and node counts only when node statistics were used; a pooled answer
//! reports `partial_nodes = 0` and its AVG is the plain sample mean (one
//! stratum's `N̂/m` factors cancel).

use crate::formulas::{avg_estimate_variance, sum_estimate, sum_estimate_variance};
use crate::node::{EpochInfo, NodeStats};
use crate::tree::{Dpt, SampleSource};
use janus_common::{AggregateFunction, Estimate, JanusError, Moments, Query, Result, Row};
use janus_sampling::DynamicReservoir;

/// One stratum's share of an answer: one pass over its sampled rows.
#[derive(Clone, Copy)]
struct Term {
    /// `N̂_i`: the stratum's estimated population.
    n_hat: f64,
    /// `m_i`: rows sampled from the stratum, matching or not.
    drawn: f64,
    /// Moments of `t.a` over the rows matching the predicate.
    matched: Moments,
    /// Smallest / largest `t.a` among them (`±∞` when none match).
    min: f64,
    max: f64,
}

impl Term {
    fn scan<'r>(n_hat: f64, query: &Query, rows: impl Iterator<Item = &'r Row>) -> Self {
        let mut term = Term {
            n_hat,
            drawn: 0.0,
            matched: Moments::ZERO,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        for row in rows {
            term.drawn += 1.0;
            if query.matches(row) {
                let a = row.value(query.agg_column);
                term.matched.add(a);
                term.min = term.min.min(a);
                term.max = term.max.max(a);
            }
        }
        term
    }

    /// Whether the stratum adds anything to a value, a variance or an
    /// extreme.
    fn contributes(&self) -> bool {
        match (self.drawn > 0.0, self.matched.count > 0.0) {
            (false, _) => false,    // empty stratum
            (true, false) => false, // no sampled row matches: value 0, variance 0
            (true, true) => true,
        }
    }
}

/// Which layers of the synopsis feed an answer (§4.4, §5.5).
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Layers {
    /// Node statistics for covered nodes, strata for partial leaves.
    Both,
    /// Strata only — the tree's statistics track another attribute.
    Strata,
    /// The pooled sample as one stratum — no tree over these predicates.
    Pooled,
}

/// Everything a query touches, gathered once; see the module docs.
pub(crate) struct Gathered<'a> {
    layers: Layers,
    epochs: &'a [EpochInfo],
    covered: Vec<&'a NodeStats>,
    terms: Vec<Term>,
}

impl<'a> Gathered<'a> {
    /// Classifies `dpt` against the query and scans each partial leaf's
    /// stratum. A stratum id the sample source no longer holds is a bug
    /// (`debug_assert!`) and is skipped.
    pub(crate) fn from_tree(
        dpt: &'a Dpt,
        query: &Query,
        samples: &dyn SampleSource,
        layers: Layers,
    ) -> Result<Self> {
        if query.predicate_columns != dpt.template().predicate_columns {
            return Err(JanusError::UnsupportedTemplate(format!(
                "tree is over predicate columns {:?}, query uses {:?}",
                dpt.template().predicate_columns,
                query.predicate_columns
            )));
        }
        let (mut covered, mut leaves) = dpt.classify(query);
        if layers != Layers::Both {
            for idx in covered.drain(..) {
                leaves.extend(dpt.leaf_descendants(idx));
            }
        }
        let epochs = dpt.epochs();
        let scan = |&leaf: &usize| {
            let node = dpt.node(leaf);
            let rows = node.samples.iter().filter_map(|&id| {
                let row = samples.sample_row(id);
                debug_assert!(row.is_some(), "stratum references unsampled row {id}");
                row
            });
            Term::scan(node.stats.estimated_moments(epochs).count, query, rows)
        };
        Ok(Gathered {
            layers,
            epochs,
            terms: leaves.iter().map(scan).collect(),
            covered: covered.iter().map(|&idx| &dpt.node(idx).stats).collect(),
        })
    }

    /// The pooled sample of a `population`-row table as a single term.
    pub(crate) fn pooled<'r>(
        query: &Query,
        rows: impl Iterator<Item = &'r Row>,
        population: usize,
    ) -> Self {
        Gathered {
            layers: Layers::Pooled,
            epochs: &[],
            covered: Vec::new(),
            terms: vec![Term::scan(population as f64, query, rows)],
        }
    }

    /// The §5.5 dispatch: a tree over the query's predicate columns *and*
    /// aggregation column answers from both layers (any aggregate
    /// function); a tree over the predicate columns alone lends its
    /// strata; otherwise the pooled sample is one uniform stratum.
    pub(crate) fn route(
        query: &Query,
        mut trees: impl Iterator<Item = &'a Dpt> + Clone,
        reservoir: &DynamicReservoir,
        population: usize,
    ) -> Result<Self> {
        let same_predicate = |t: &&Dpt| t.template().predicate_columns == query.predicate_columns;
        let same_template =
            |t: &&Dpt| same_predicate(t) && t.template().agg_column == query.agg_column;
        if let Some(dpt) = trees.clone().find(same_template) {
            Self::from_tree(dpt, query, reservoir, Layers::Both)
        } else if let Some(dpt) = trees.find(same_predicate) {
            Self::from_tree(dpt, query, reservoir, Layers::Strata)
        } else {
            Ok(Self::pooled(query, reservoir.iter(), population))
        }
    }

    /// The answer for `agg`; `None` for AVG/MIN/MAX over an (estimated)
    /// empty selection.
    pub(crate) fn finish(&self, agg: AggregateFunction) -> Option<Estimate> {
        match agg {
            AggregateFunction::Sum => Some(self.sum_like(false)),
            AggregateFunction::Count => Some(self.sum_like(true)),
            AggregateFunction::Avg => self.avg(),
            AggregateFunction::Min => self.extremum(true),
            AggregateFunction::Max => self.extremum(false),
        }
    }

    /// The `(SUM, COUNT)` pair over the query's selection — the
    /// moment-level form a scatter-gather merges across shards.
    pub(crate) fn sum_count(&self) -> (Estimate, Estimate) {
        (self.sum_like(false), self.sum_like(true))
    }

    /// An estimate carrying this gather's node and matching-sample counts.
    fn estimate(&self, value: f64, catchup_variance: f64, sample_variance: f64) -> Estimate {
        let pooled = self.layers == Layers::Pooled;
        Estimate {
            value,
            catchup_variance,
            sample_variance,
            covered_nodes: self.covered.len(),
            partial_nodes: if pooled { 0 } else { self.terms.len() },
            samples_used: self.terms.iter().map(|t| t.matched.count as usize).sum(),
            partial: false,
        }
    }

    /// SUM, or COUNT as the SUM of `φ ≡ 1`: exact-plus-catch-up moments of
    /// the covered nodes, `N̂_i/m_i · Σφ` of the terms.
    fn sum_like(&self, count_query: bool) -> Estimate {
        let (mut value, mut vc, mut vs) = (0.0, 0.0, 0.0);
        for stats in &self.covered {
            let est = stats.estimated_moments(self.epochs);
            value += if count_query { est.count } else { est.sum };
            vc += stats.covered_catchup_variance(self.epochs, count_query);
        }
        for t in self.terms.iter().filter(|t| t.contributes()) {
            let (count, mut phi) = (t.matched.count, t.matched);
            if count_query {
                (phi.sum, phi.sumsq) = (count, count);
            }
            value += sum_estimate(t.n_hat, t.drawn, phi.sum);
            vs += sum_estimate_variance(t.n_hat, t.drawn, &phi);
        }
        self.estimate(value, vc, vs)
    }

    /// Ratio estimator: the SUM estimate over the COUNT estimate, with the
    /// Appendix-C variance under stratum weights `w_i = N̂_i / N̂_q`, where
    /// `N̂_q` is the population of all relevant partitions (Table 1).
    fn avg(&self) -> Option<Estimate> {
        let (sum, count) = (self.sum_like(false).value, self.sum_like(true).value);
        let n_hat = |stats: &&NodeStats| stats.estimated_moments(self.epochs).count;
        let populations = self.covered.iter().map(n_hat);
        let n_q = populations
            .chain(self.terms.iter().map(|t| t.n_hat))
            .fold(0.0, |n_q, n| n_q + n);
        if count <= 0.0 || n_q <= 0.0 {
            return None;
        }
        let value = match (self.layers, &self.terms[..]) {
            (Layers::Pooled, [pool]) => pool.matched.mean()?,
            _ => sum / count,
        };
        let (mut vc, mut vs) = (0.0, 0.0);
        for stats in &self.covered {
            vc += stats.covered_catchup_variance_avg(n_hat(stats) / n_q);
        }
        for t in self.terms.iter().filter(|t| t.contributes()) {
            vs += avg_estimate_variance(t.n_hat / n_q, t.drawn, &t.matched);
        }
        Some(self.estimate(value, vc, vs))
    }

    /// MIN/MAX: the heap extreme of every non-empty covered node and the
    /// extreme matching sample of every term.
    fn extremum(&self, is_min: bool) -> Option<Estimate> {
        let non_empty = |s: &&&NodeStats| s.estimated_moments(self.epochs).count > 0.0;
        let heaps = self.covered.iter().filter(non_empty).map(|s| &s.minmax);
        let heaped = heaps.filter_map(|h| if is_min { h.min() } else { h.max() });
        let matching = self.terms.iter().filter(|t| t.contributes());
        let sampled = matching.map(|t| if is_min { t.min } else { t.max });
        let extreme = |best: f64, v: f64| if is_min { best.min(v) } else { best.max(v) };
        let mut est = Estimate::exact(heaped.chain(sampled).reduce(extreme)?);
        if self.layers == Layers::Both {
            (est.covered_nodes, est.partial_nodes) = (self.covered.len(), self.terms.len());
        }
        Some(est)
    }
}

/// Uniform-sampling estimate of a query from a pooled sample of a
/// population of `population` rows — the RS-style fallback for predicate
/// attributes the synopsis was not built over (§5.5, evaluated in Fig. 8
/// as "DropoffOverPickup").
pub fn uniform_estimate<'a>(
    query: &Query,
    samples: impl Iterator<Item = &'a Row>,
    population: usize,
) -> Option<Estimate> {
    Gathered::pooled(query, samples, population).finish(query.agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use crate::{JanusEngine, SynopsisConfig};
    use janus_common::{DetHashMap, QueryTemplate, RangePredicate, RowId};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Rows `(x ∈ [0, 10), y ∈ [0, 1), a)`; the template is SUM(a) over x.
    fn rows(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|id| {
                let (x, y) = (rng.gen::<f64>() * 10.0, rng.gen::<f64>());
                Row::new(id, vec![x, y, 50.0 * rng.gen::<f64>() - 10.0])
            })
            .collect()
    }

    fn query(agg: AggregateFunction, agg_col: usize, pred: usize, lo: f64, hi: f64) -> Query {
        let range = RangePredicate::new(vec![lo], vec![hi]).unwrap();
        Query::new(agg, agg_col, vec![pred], range).unwrap()
    }

    fn strata(terms: Vec<Term>) -> Gathered<'static> {
        Gathered {
            layers: Layers::Strata,
            epochs: &[],
            covered: Vec::new(),
            terms,
        }
    }

    #[test]
    fn uniform_estimate_tracks_truth() {
        let data = rows(5_000, 1);
        let sample: Vec<&Row> = data.iter().step_by(20).collect();
        let q = query(AggregateFunction::Sum, 2, 0, 1.0, 8.0);
        let est = uniform_estimate(&q, sample.into_iter(), data.len()).unwrap();
        let truth = q.evaluate_exact(&data).unwrap();
        assert!(
            (est.value - truth).abs() / truth < 0.2,
            "est {} truth {truth}",
            est.value
        );
        assert!(est.sample_variance > 0.0);
    }

    #[test]
    fn uniform_estimate_handles_empty_matches() {
        let data = rows(100, 2);
        let q = query(AggregateFunction::Avg, 2, 0, 1000.0, 2000.0);
        assert!(uniform_estimate(&q, data.iter(), data.len()).is_none());
        let q = query(AggregateFunction::Count, 2, 0, 1000.0, 2000.0);
        let est = uniform_estimate(&q, data.iter(), data.len()).unwrap();
        assert_eq!(est.value, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// On every §5.5 path the scatter-gather pair is the SUM and the
        /// COUNT answer, field for field, and AVG is their ratio (a pooled
        /// AVG is the unscaled sample mean: equal up to rounding).
        #[test]
        fn sum_count_pair_is_the_two_answers_and_avg_their_ratio(
            n in 40usize..400,
            seed in any::<u64>(),
            lo in -1.0f64..10.0,
            width in 0.0f64..11.0,
            path in 0usize..3,
        ) {
            let mut config = SynopsisConfig::paper_default(
                QueryTemplate::new(AggregateFunction::Sum, 2, vec![0]),
                seed,
            );
            config.leaf_count = 4;
            config.sample_rate = 0.2;
            config.catchup_ratio = 0.5;
            let engine = JanusEngine::bootstrap(config, rows(n, seed)).unwrap();
            // (aggregation column, predicate column): template, other
            // aggregation attribute, other predicate attribute.
            let (agg_col, pred, scale) = [(2, 0, 1.0), (1, 0, 1.0), (2, 1, 0.1)][path];
            let q = |agg| query(agg, agg_col, pred, lo * scale, (lo + width) * scale);
            let (sum, count) = engine.answer_sum_count(&q(AggregateFunction::Avg)).unwrap();
            prop_assert_eq!(Some(sum), engine.query(&q(AggregateFunction::Sum)).unwrap());
            prop_assert_eq!(Some(count), engine.query(&q(AggregateFunction::Count)).unwrap());
            match engine.query(&q(AggregateFunction::Avg)).unwrap() {
                None => prop_assert!(count.value <= 0.0),
                Some(avg) if path == 2 => {
                    let ratio = sum.value / count.value;
                    prop_assert!((avg.value - ratio).abs() <= 1e-12 * ratio.abs().max(1.0));
                }
                Some(avg) => prop_assert_eq!(avg.value, sum.value / count.value),
            }
        }

        /// The two §5.5 fallbacks share one core: over a one-leaf tree with
        /// an exact base, the strata-only SUM/COUNT is the pooled estimate
        /// with `population = N̂`, bit for bit.
        #[test]
        fn one_leaf_strata_answer_is_the_pooled_answer(
            n in 1usize..200,
            keep in 0.0f64..1.0,
            seed in any::<u64>(),
            lo in -1.0f64..10.0,
            width in 0.0f64..11.0,
        ) {
            let table = rows(n, seed);
            let spec = PartitionSpec::from_boundaries(&[]).unwrap();
            let template = QueryTemplate::new(AggregateFunction::Sum, 2, vec![0]);
            let mut dpt = Dpt::build(template, 4, &spec, &[0.0], n as f64).unwrap();
            dpt.install_exact_base(table.iter());
            let mut rng = SmallRng::seed_from_u64(seed ^ 1);
            let mut sample: DetHashMap<RowId, Row> = DetHashMap::default();
            for row in table.iter().filter(|_| rng.gen::<f64>() < keep) {
                dpt.assign_sample(row.id, &[row.value(0)]);
                sample.insert(row.id, row.clone());
            }
            // The stratum is scanned in id order; feed the pool the same way.
            let pool = table.iter().filter(|r| sample.contains_key(&r.id));
            for agg in [AggregateFunction::Sum, AggregateFunction::Count] {
                let q = query(agg, 1, 0, lo, lo + width);
                let strata = dpt.answer_sampling_only(&q, &sample).unwrap().unwrap();
                let pooled = uniform_estimate(&q, pool.clone(), n).unwrap();
                prop_assert_eq!(strata.partial_nodes, 1);
                prop_assert_eq!(Estimate { partial_nodes: 0, ..strata }, pooled);
            }
        }

        /// The documented conventions: an empty stratum and a stratum with
        /// no matching sample add no value and no variance to SUM/COUNT/AVG
        /// — they only count as terms and (AVG) widen `N̂_q`.
        #[test]
        fn empty_and_zero_match_strata_contribute_nothing(
            n in 1usize..60,
            seed in any::<u64>(),
            n_hat in 1.0f64..500.0,
        ) {
            let q = query(AggregateFunction::Sum, 2, 0, 0.0, 10.0);
            let hit = Term::scan(n_hat, &q, rows(n, seed).iter());
            let outside = [Row::new(0, vec![11.0, 0.0, 5.0]), Row::new(1, vec![-3.0, 0.0, 7.0])];
            let empty = Term::scan(n_hat, &q, [].iter());
            let missed = Term::scan(n_hat, &q, outside.iter());
            prop_assert_eq!((empty.drawn, missed.drawn), (0.0, 2.0));
            prop_assert!(!empty.contributes() && !missed.contributes());
            let (alone, padded) = (strata(vec![hit]), strata(vec![empty, hit, missed]));
            for agg in [AggregateFunction::Sum, AggregateFunction::Count] {
                let (a, p) = (alone.finish(agg).unwrap(), padded.finish(agg).unwrap());
                prop_assert_eq!(p.partial_nodes, 3);
                prop_assert_eq!(Estimate { partial_nodes: 1, ..p }, a);
            }
            let (a, p) = (alone.avg().unwrap(), padded.avg().unwrap());
            prop_assert_eq!(p.value, a.value);
            let shrunk = a.sample_variance / 9.0; // w = N̂/N̂_q: 1 → 1/3
            prop_assert!((p.sample_variance - shrunk).abs() <= 1e-12 * shrunk);
            for agg in [AggregateFunction::Min, AggregateFunction::Max] {
                prop_assert_eq!(padded.finish(agg), alone.finish(agg));
            }
        }
    }
}
