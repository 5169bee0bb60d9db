//! Multi-template support (§5.5).
//!
//! Two mechanisms from the paper:
//!
//! 1. **First method** — [`MultiTemplateEngine`]: one *global* pooled
//!    sample shared by several partition trees, one tree per query
//!    template, for total space `O(m + L·k)`. Every tree keeps its own
//!    statistics and catch-up, and every update fans out to all trees.
//! 2. **Second method (heuristics)** — answering queries that do not match
//!    any tree: a different aggregation *function* over the same tree is
//!    free (SUM/COUNT/AVG share the moment statistics); a different
//!    aggregation *attribute* is answered from the stratified samples
//!    ([`crate::tree::Dpt::answer_sampling_only`]); a different *predicate*
//!    attribute falls back to uniform estimation over the pooled sample
//!    ([`uniform_estimate`]).

use crate::config::SynopsisConfig;
use crate::estimator::Gathered;
use crate::synopsis::{PooledSample, Synopsis};
use janus_common::{Estimate, JanusError, Query, Result, Row, RowId};
use janus_storage::ArchiveStore;

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

/// §5.5 first method: one pooled sample, `L` partition trees.
pub struct MultiTemplateEngine {
    pool: PooledSample,
    synopses: Vec<Synopsis>,
}

impl MultiTemplateEngine {
    /// Bootstraps over `rows` with one synopsis per config. The shared
    /// reservoir is sized by the largest configured sample rate.
    pub fn bootstrap(configs: Vec<SynopsisConfig>, rows: Vec<Row>) -> Result<Self> {
        if configs.is_empty() {
            return Err(JanusError::InvalidConfig(
                "need at least one template".into(),
            ));
        }
        for c in &configs {
            c.validate()?;
        }
        let archive = ArchiveStore::from_rows_in(&configs[0].archive_backend, rows)?;
        let rate = configs.iter().map(|c| c.sample_rate).fold(0.0, f64::max);
        let mut engine = MultiTemplateEngine {
            pool: PooledSample::draw(archive, rate, configs[0].seed, [0x3333, 0x4444]),
            synopses: Vec::new(),
        };
        for config in configs {
            let synopsis = engine.build_synopsis(config)?;
            engine.synopses.push(synopsis);
        }
        Ok(engine)
    }

    /// Registers a new template at runtime (§5.5: "when we see a query from
    /// a new template we can construct a new partition tree ... and start
    /// the catch-up phase only for this tree"), running its catch-up to the
    /// configured goal.
    pub fn add_template(&mut self, config: SynopsisConfig) -> Result<()> {
        config.validate()?;
        let mut synopsis = self.build_synopsis(config)?;
        synopsis.run_catchup_to_goal();
        self.synopses.push(synopsis);
        Ok(())
    }

    /// One more tree over the pooled sample, its catch-up phase seeded
    /// from the shared sequence and not yet started.
    fn build_synopsis(&mut self, config: SynopsisConfig) -> Result<Synopsis> {
        let seed = self.pool.next_seed();
        Synopsis::build(config, &self.pool, Some(seed))
    }

    /// Number of registered templates.
    pub fn template_count(&self) -> usize {
        self.synopses.len()
    }

    /// Current table size.
    pub fn population(&self) -> usize {
        self.pool.archive.len()
    }

    /// Ground-truth oracle (chunked columnar scan on dense backends).
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        self.pool.archive.evaluate_exact(query)
    }

    /// Runs the catch-up of synopsis `idx` to its goal.
    pub fn run_catchup_to_goal(&mut self, idx: usize) {
        self.synopses[idx].run_catchup_to_goal();
    }

    /// Runs every synopsis' catch-up to its goal.
    pub fn run_all_catchup(&mut self) {
        for synopsis in &mut self.synopses {
            synopsis.run_catchup_to_goal();
        }
    }

    /// Inserts a tuple, fanning out to every tree.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if !self.pool.archive.insert_values(row.id, &row.values)? {
            return Err(JanusError::InvalidConfig(format!(
                "duplicate row id {}",
                row.id
            )));
        }
        for synopsis in &mut self.synopses {
            synopsis.dpt.record_insert(&row);
        }
        self.pool.offer(row, &mut self.synopses);
        Ok(())
    }

    /// Deletes a tuple by id, fanning out to every tree.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let row = self
            .pool
            .archive
            .delete(id)?
            .ok_or(JanusError::RowNotFound(id))?;
        for synopsis in &mut self.synopses {
            synopsis.dpt.record_delete(&row);
        }
        self.pool.remove(&row, &mut self.synopses);
        Ok(row)
    }

    /// Routes a query to the best synopsis:
    ///
    /// 1. a tree over the same predicate columns *and* aggregation column —
    ///    full two-layer answering (any aggregate function);
    /// 2. a tree over the same predicate columns — sampling-only answering;
    /// 3. otherwise — uniform estimation over the pooled sample.
    pub fn query(&self, query: &Query) -> Result<Option<Estimate>> {
        let trees = self.synopses.iter().map(|s| &s.dpt);
        let pool = &self.pool;
        Ok(Gathered::route(query, trees, &pool.reservoir, pool.archive.len())?.finish(query.agg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{AggregateFunction, QueryTemplate, RangePredicate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rows(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let x = rng.gen::<f64>() * 50.0;
                let y = rng.gen::<f64>() * 10.0;
                Row::new(i, vec![x, y, x + y])
            })
            .collect()
    }

    fn cfg(agg_col: usize, pred: Vec<usize>, seed: u64) -> SynopsisConfig {
        let mut c = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, agg_col, pred),
            seed,
        );
        c.leaf_count = 8;
        c.sample_rate = 0.1;
        c.catchup_ratio = 0.5;
        c
    }

    fn q(agg: AggregateFunction, agg_col: usize, pred: usize, lo: f64, hi: f64) -> Query {
        Query::new(
            agg,
            agg_col,
            vec![pred],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn uniform_estimate_tracks_truth() {
        let data = rows(5_000, 1);
        let sample: Vec<&Row> = data.iter().step_by(20).collect();
        let query = q(AggregateFunction::Sum, 2, 0, 10.0, 40.0);
        let est = uniform_estimate(&query, sample.into_iter(), data.len()).unwrap();
        let truth = query.evaluate_exact(&data).unwrap();
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
        let query = q(AggregateFunction::Avg, 2, 0, 1000.0, 2000.0);
        assert!(uniform_estimate(&query, data.iter(), data.len()).is_none());
        let query = q(AggregateFunction::Count, 2, 0, 1000.0, 2000.0);
        let est = uniform_estimate(&query, data.iter(), data.len()).unwrap();
        assert_eq!(est.value, 0.0);
    }

    #[test]
    fn multi_template_routes_by_predicate_columns() {
        let data = rows(8_000, 3);
        let mut engine =
            MultiTemplateEngine::bootstrap(vec![cfg(2, vec![0], 7), cfg(2, vec![1], 7)], data)
                .unwrap();
        engine.run_all_catchup();
        // Template over column 0.
        let q0 = q(AggregateFunction::Sum, 2, 0, 5.0, 45.0);
        let est = engine.query(&q0).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q0).unwrap();
        assert!((est.value - truth).abs() / truth < 0.1);
        // Template over column 1.
        let q1 = q(AggregateFunction::Sum, 2, 1, 2.0, 8.0);
        let est = engine.query(&q1).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q1).unwrap();
        assert!((est.value - truth).abs() / truth < 0.1);
    }

    #[test]
    fn unknown_aggregation_column_uses_sampling_fallback() {
        let data = rows(8_000, 4);
        let mut engine = MultiTemplateEngine::bootstrap(vec![cfg(2, vec![0], 9)], data).unwrap();
        engine.run_all_catchup();
        // Aggregate column 1 (tree tracks column 2).
        let query = q(AggregateFunction::Sum, 1, 0, 5.0, 45.0);
        let est = engine.query(&query).unwrap().unwrap();
        let truth = engine.evaluate_exact(&query).unwrap();
        assert!((est.value - truth).abs() / truth < 0.25);
    }

    #[test]
    fn unknown_predicate_column_uses_uniform_fallback() {
        let data = rows(8_000, 5);
        let mut engine = MultiTemplateEngine::bootstrap(vec![cfg(2, vec![0], 11)], data).unwrap();
        engine.run_all_catchup();
        let query = q(AggregateFunction::Sum, 2, 1, 2.0, 8.0);
        let est = engine.query(&query).unwrap().unwrap();
        let truth = engine.evaluate_exact(&query).unwrap();
        assert!((est.value - truth).abs() / truth < 0.25);
    }

    #[test]
    fn updates_fan_out_to_all_trees() {
        let data = rows(2_000, 6);
        let mut engine =
            MultiTemplateEngine::bootstrap(vec![cfg(2, vec![0], 13), cfg(2, vec![1], 13)], data)
                .unwrap();
        engine.run_all_catchup();
        let mut rng = SmallRng::seed_from_u64(14);
        for i in 0..500u64 {
            let x = rng.gen::<f64>() * 50.0;
            let y = rng.gen::<f64>() * 10.0;
            engine
                .insert(Row::new(10_000 + i, vec![x, y, x + y]))
                .unwrap();
        }
        for id in 0..200u64 {
            engine.delete(id).unwrap();
        }
        for query in [
            q(AggregateFunction::Sum, 2, 0, 0.0, 50.0),
            q(AggregateFunction::Sum, 2, 1, 0.0, 10.0),
        ] {
            let est = engine.query(&query).unwrap().unwrap();
            let truth = engine.evaluate_exact(&query).unwrap();
            assert!(
                (est.value - truth).abs() / truth < 0.12,
                "est {} truth {truth}",
                est.value
            );
        }
    }

    #[test]
    fn add_template_at_runtime() {
        let data = rows(4_000, 7);
        let mut engine = MultiTemplateEngine::bootstrap(vec![cfg(2, vec![0], 17)], data).unwrap();
        engine.run_all_catchup();
        assert_eq!(engine.template_count(), 1);
        engine.add_template(cfg(2, vec![1], 18)).unwrap();
        assert_eq!(engine.template_count(), 2);
        let query = q(AggregateFunction::Sum, 2, 1, 2.0, 8.0);
        let est = engine.query(&query).unwrap().unwrap();
        let truth = engine.evaluate_exact(&query).unwrap();
        assert!((est.value - truth).abs() / truth < 0.1);
    }
}
