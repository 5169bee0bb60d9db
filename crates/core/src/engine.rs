//! The JanusAQP engine (§3, §4.3, §5.4): archive + pooled reservoir +
//! max-variance index + DPT, with catch-up processing and automatic
//! re-partitioning.
//!
//! This engine is synchronous and deterministic: every random choice
//! derives from the configured seed, and catch-up advances only when the
//! caller pumps it ([`JanusEngine::advance_catchup`]) — which is exactly
//! what reproducible experiments need. The multi-threaded façade used for
//! the throughput experiments lives in [`crate::concurrent`].

use crate::catchup::CatchupQueue;
use crate::config::SynopsisConfig;
use crate::estimator::Gathered;
use crate::maxvar::MaxVarianceIndex;
use crate::partition::{PartitionOutcome, Partitioner};
use crate::synopsis::{PooledSample, Synopsis};
use crate::tree::Dpt;
use crate::trigger::{self, TriggerConfig};
use janus_common::{Estimate, JanusError, Query, Result, Row, RowId};
use janus_index::IndexPoint;
use janus_sampling::DynamicReservoir;
use janus_storage::ArchiveStore;
use std::sync::atomic::{AtomicU64, Ordering};

/// Operation counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tuples inserted.
    pub inserts: u64,
    /// Tuples deleted.
    pub deletes: u64,
    /// Queries answered.
    pub queries: u64,
    /// Full re-partitionings adopted.
    pub repartitions: u64,
    /// Partial (subtree) re-partitionings adopted.
    pub partial_repartitions: u64,
    /// Candidate re-partitionings computed but rejected by the β rule.
    pub rejected_repartitions: u64,
    /// Reservoir re-samples forced by deletions (§4.2).
    pub resamples: u64,
    /// Catch-up rows applied.
    pub catchup_applied: u64,
}

/// The synchronous JanusAQP engine: the `L = 1` case of the §5.5
/// architecture — one pooled sample, one synopsis over it.
pub struct JanusEngine {
    pool: PooledSample,
    synopsis: Synopsis,
    /// Every counter but `queries`, which readers bump through `&self`.
    stats: EngineStats,
    queries: AtomicU64,
    updates_since_check: usize,
}

impl JanusEngine {
    /// Builds an engine over the initial table `rows`, runs the partition
    /// optimizer on a fresh pooled sample, and completes the catch-up phase
    /// to the configured goal.
    pub fn bootstrap(config: SynopsisConfig, rows: Vec<Row>) -> Result<Self> {
        let mut engine = Self::bootstrap_without_catchup(config, rows)?;
        engine.run_catchup_to_goal();
        Ok(engine)
    }

    /// Builds an engine but leaves the catch-up queue unconsumed, so the
    /// caller can study the catch-up phase itself (Fig. 7).
    pub fn bootstrap_without_catchup(config: SynopsisConfig, rows: Vec<Row>) -> Result<Self> {
        config.validate()?;
        let archive = ArchiveStore::from_rows_in(&config.archive_backend, rows)?;
        let pool = PooledSample::draw(archive, config.sample_rate, config.seed, [0x5e5e, 0xa11a]);
        // A catch-up goal of the whole table is an exact base instead.
        let catchup_seed = (config.catchup_ratio < 1.0).then_some(config.seed ^ 0xca7c);
        let synopsis = Synopsis::build(config, &pool, catchup_seed)?;
        Ok(Self::assemble(pool, synopsis, 0))
    }

    fn assemble(pool: PooledSample, synopsis: Synopsis, updates_since_check: usize) -> Self {
        JanusEngine {
            pool,
            synopsis,
            stats: EngineStats::default(),
            queries: AtomicU64::new(0),
            updates_since_check,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The synopsis configuration.
    pub fn config(&self) -> &SynopsisConfig {
        &self.synopsis.config
    }

    /// Current table size `|D|`.
    pub fn population(&self) -> usize {
        self.pool.archive.len()
    }

    /// The archival store (ground-truth oracle for experiments).
    pub fn archive(&self) -> &ArchiveStore {
        &self.pool.archive
    }

    /// The pooled reservoir sample.
    pub fn reservoir(&self) -> &DynamicReservoir {
        &self.pool.reservoir
    }

    /// The partition tree.
    pub fn dpt(&self) -> &Dpt {
        &self.synopsis.dpt
    }

    /// The max-variance index.
    pub fn maxvar(&self) -> &MaxVarianceIndex {
        &self.synopsis.maxvar
    }

    /// Operation counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Catch-up progress in `[0, 1]`.
    pub fn catchup_progress(&self) -> f64 {
        self.synopsis.catchup.progress()
    }

    // ------------------------------------------------------------------
    // Updates (§4.1, §4.2)
    // ------------------------------------------------------------------

    /// Inserts a tuple: archive, tree path statistics, reservoir, and (if
    /// sampled) the max-variance index; may trigger re-partitioning.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        let id = row.id;
        if !self.pool.archive.insert_values(id, &row.values)? {
            return Err(JanusError::InvalidConfig(format!("duplicate row id {id}")));
        }
        let leaf = self.synopsis.dpt.record_insert(&row);
        self.offer_to_reservoir(row);
        self.after_update(leaf);
        Ok(())
    }

    /// Deletes a tuple by id; returns the removed row.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let row = self
            .pool
            .archive
            .delete(id)?
            .ok_or(JanusError::RowNotFound(id))?;
        let leaf = self.synopsis.dpt.record_delete(&row);
        self.delete_from_reservoir(&row);
        self.after_update(leaf);
        Ok(row)
    }

    /// The sample half of an insert the archive accepted, whichever path
    /// applied the tree statistics.
    fn offer_to_reservoir(&mut self, row: Row) {
        self.pool
            .offer(row, std::slice::from_mut(&mut self.synopsis));
        self.stats.inserts += 1;
    }

    /// The sample half of a delete the archive applied.
    fn delete_from_reservoir(&mut self, row: &Row) {
        let synopses = std::slice::from_mut(&mut self.synopsis);
        self.stats.resamples += u64::from(self.pool.remove(row, synopses));
        self.stats.deletes += 1;
    }

    // ------------------------------------------------------------------
    // Hooks for the multi-threaded batch updater (crate::concurrent)
    // ------------------------------------------------------------------

    /// Applies pre-aggregated per-leaf tree deltas (parallel batch phase 2).
    pub(crate) fn apply_leaf_delta_internal(
        &mut self,
        leaf: usize,
        inserted: janus_common::Moments,
        deleted: janus_common::Moments,
        inserted_values: &[f64],
        deleted_values: &[f64],
    ) {
        let dpt = &mut self.synopsis.dpt;
        dpt.apply_leaf_delta(leaf, inserted, deleted, inserted_values, deleted_values);
    }

    /// Archive + reservoir bookkeeping for an insert whose tree statistics
    /// were already applied by the batch updater.
    pub(crate) fn apply_insert_sampling(&mut self, row: Row) -> Result<()> {
        if self.pool.archive.insert_values(row.id, &row.values)? {
            self.offer_to_reservoir(row);
        }
        Ok(())
    }

    /// Archive + reservoir bookkeeping for a delete whose tree statistics
    /// were already applied by the batch updater.
    pub(crate) fn apply_delete_sampling(&mut self, row: &Row) -> Result<()> {
        if self.pool.archive.delete(row.id)?.is_some() {
            self.delete_from_reservoir(row);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries (§4.4)
    // ------------------------------------------------------------------

    /// Answers a query from the synopsis. `Ok(None)` for AVG/MIN/MAX over
    /// an (estimated) empty selection.
    pub fn query(&self, query: &Query) -> Result<Option<Estimate>> {
        Ok(self.gather(query)?.finish(query.agg))
    }

    /// Moment-level merge hook for scatter-gather deployments: answers the
    /// query's selection as a (SUM, COUNT) estimate pair over the same
    /// predicate, from one gather. A cluster façade merges these additively
    /// across shards and re-derives AVG as the ratio of the merged moments
    /// ([`janus_common::merge::combine_avg`]), which is the only
    /// composition that keeps the §4.4.1 two-source confidence interval
    /// correct — per-shard AVG answers themselves do not add.
    pub fn answer_sum_count(&self, query: &Query) -> Result<(Estimate, Estimate)> {
        Ok(self.gather(query)?.sum_count())
    }

    /// Counts the query and gathers what it touches, through the §5.5
    /// dispatch: this engine's one tree, else the pooled sample.
    fn gather(&self, query: &Query) -> Result<Gathered<'_>> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let trees = std::iter::once(&self.synopsis.dpt);
        let pool = &self.pool;
        Gathered::route(query, trees, &pool.reservoir, pool.archive.len())
    }

    /// Applies a batch of updates in arrival order under a single call —
    /// the batch-apply entry point topic consumers (e.g. a cluster shard
    /// draining its ingest log) use so per-record dispatch overhead is
    /// paid once per batch. Application is strictly sequential, so the
    /// resulting engine state is *bit-identical* to calling
    /// [`JanusEngine::insert`]/[`JanusEngine::delete`] per record.
    ///
    /// Returns `(applied, skipped, first_error)`. With `skip_failed`
    /// unset, application stops at the first failing update (it is
    /// neither applied nor skipped); with it set, failing updates are
    /// counted in `skipped` and the batch continues.
    pub fn apply_update_batch(
        &mut self,
        updates: impl IntoIterator<Item = crate::concurrent::Update>,
        skip_failed: bool,
    ) -> (usize, usize, Option<JanusError>) {
        let mut applied = 0;
        let mut skipped = 0;
        let mut first_error = None;
        for update in updates {
            let outcome = match update {
                crate::concurrent::Update::Insert(row) => self.insert(row),
                crate::concurrent::Update::Delete(id) => self.delete(id).map(|_| ()),
            };
            match outcome {
                Ok(()) => applied += 1,
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                    if !skip_failed {
                        break;
                    }
                    skipped += 1;
                }
            }
        }
        (applied, skipped, first_error)
    }

    /// Builds a new engine *bit-identical* to this one by shipping its
    /// synopsis snapshot plus a forked archive through the restore
    /// machinery ([`JanusEngine::save_synopsis`] /
    /// [`JanusEngine::restore_with_archive`]) — the snapshot-shipping
    /// path a cluster uses to (re)build follower engines after a
    /// migration instead of replaying every operation. The archive is
    /// copied in slot order onto the engine's configured backend (a
    /// column-wise memcpy for in-memory, a streamed spill for
    /// `FileSpill` — a fork of a larger-than-RAM engine keeps
    /// spilling), so the fork's sampling streams — and therefore its
    /// entire future evolution — are bit-identical to this engine's.
    pub fn fork_via_snapshot(&self) -> Result<Self> {
        Self::restore_with_archive(
            self.config().clone(),
            self.pool.archive.fork_in(&self.config().archive_backend)?,
            &self.save_synopsis(),
        )
    }

    /// Exact evaluation over the archive — the ground-truth oracle used by
    /// tests and the benchmark (never used to answer synopsis queries).
    /// Dense backends go through the chunked columnar kernels; file-backed
    /// ones stream zero-copy row views — bit-identical either way (see the
    /// `janus_common::kernels` bit-identity contract).
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        self.pool.archive.evaluate_exact(query)
    }

    /// Exports the live table rows (id order unspecified) — the archive
    /// side of a shard migration or a full synopsis hand-off; pair with
    /// [`JanusEngine::save_synopsis`] for the synopsis side.
    pub fn export_rows(&self) -> Vec<Row> {
        self.pool.archive.to_rows()
    }

    // ------------------------------------------------------------------
    // Catch-up (§4.3)
    // ------------------------------------------------------------------

    /// Applies up to `n` catch-up rows; returns how many were applied.
    pub fn advance_catchup(&mut self, n: usize) -> usize {
        let applied = self.synopsis.advance_catchup(n);
        self.stats.catchup_applied += applied as u64;
        applied
    }

    /// Runs catch-up to the configured goal.
    pub fn run_catchup_to_goal(&mut self) {
        self.stats.catchup_applied += self.synopsis.run_catchup_to_goal() as u64;
    }

    // ------------------------------------------------------------------
    // Re-optimization (§4.3, §5.4, Appendix E)
    // ------------------------------------------------------------------

    fn after_update(&mut self, leaf: usize) {
        // Background catch-up, interleaved with update processing (§4.3).
        let per_update = self.config().catchup_per_update;
        if per_update > 0 && !self.synopsis.catchup.is_complete() {
            self.advance_catchup(per_update);
        }
        self.updates_since_check += 1;
        if self.updates_since_check < self.config().trigger_check_interval {
            return;
        }
        self.updates_since_check = 0;
        let synopsis = &mut self.synopsis;
        synopsis.maxvar.set_population(self.pool.archive.len());
        if !synopsis.config.auto_repartition {
            return;
        }
        let trigger_cfg = TriggerConfig {
            beta: synopsis.config.beta,
            underrep_fraction: 1.0,
        };
        if trigger::check_leaf(&synopsis.dpt, &synopsis.maxvar, leaf, &trigger_cfg).is_some() {
            self.try_repartition();
        }
    }

    /// Evaluates the current partitioning after a leaf was flagged: asks
    /// the partitioner for a candidate that can beat `M(R)/β` and adopts it
    /// when it does (§5.4). A candidate the partitioner's pre-check rules
    /// out ([`Partitioner::compute_if_below`]) counts as rejected without
    /// being computed. Returns whether a re-partitioning was adopted.
    pub fn try_repartition(&mut self) -> bool {
        let current_max = self.current_max_variance();
        let config = self.config();
        let beta = config.beta;
        let Ok(candidate) = Partitioner::auto(config.rho).compute_if_below(
            &self.synopsis.maxvar,
            config.leaf_count,
            trigger::adoption_bound(current_max, beta),
        ) else {
            return false;
        };
        match candidate {
            Some(outcome)
                if trigger::accept_candidate(current_max, outcome.max_leaf_variance, beta) =>
            {
                self.adopt_planned(outcome);
                true
            }
            _ => {
                self.stats.rejected_repartitions += 1;
                false
            }
        }
    }

    /// `M(R)` of the current partitioning: the worst live-leaf probe.
    pub fn current_max_variance(&self) -> f64 {
        let Synopsis { dpt, maxvar, .. } = &self.synopsis;
        dpt.live_leaves()
            .map(|leaf| maxvar.max_variance(&leaf.rect))
            .fold(0.0, f64::max)
    }

    /// Forces a full re-initialization (§4.3): re-optimize the partitioning
    /// from the pooled sample, populate approximate statistics from it,
    /// re-sample the reservoir, and restart catch-up.
    pub fn reinitialize(&mut self) -> Result<()> {
        let config = self.config();
        let outcome =
            Partitioner::auto(config.rho).compute(&self.synopsis.maxvar, config.leaf_count)?;
        self.adopt_planned(outcome);
        Ok(())
    }

    /// Exports the synopsis (tree + pooled sample) for persistence; see
    /// [`crate::snapshot`].
    pub fn save_synopsis(&self) -> crate::snapshot::SynopsisSnapshot {
        let reservoir = &self.pool.reservoir;
        crate::snapshot::SynopsisSnapshot {
            dpt: self.synopsis.dpt.to_snapshot(),
            sample_rows: reservoir.iter().cloned().collect(),
            reservoir_floor: reservoir.floor(),
            reservoir_target: reservoir.target(),
            population: self.pool.archive.len(),
            reservoir_rng: reservoir.rng_state().to_vec(),
            seed_counter: self.pool.seed_counter,
            updates_since_check: self.updates_since_check as u64,
            catchup_rows: self.synopsis.catchup.remaining().to_vec(),
        }
    }

    /// Restores an engine from a persisted synopsis plus the (durable)
    /// archival rows. The archive must match the snapshot's population —
    /// updates that happened after the snapshot must be replayed through
    /// `insert`/`delete` afterwards.
    ///
    /// Restoration is *bit-faithful*: the snapshot carries the reservoir's
    /// RNG words, the derived-seed counter, the trigger cadence counter,
    /// and the unconsumed catch-up queue, and `archive_rows` must be in
    /// [`JanusEngine::export_rows`] order (archive eviction uses
    /// `swap_remove`, so row order is part of the state). A restored
    /// engine therefore answers — and keeps evolving under further
    /// updates — bit-identically to the engine it was saved from, with
    /// one scoped exception: the max-variance index is rebuilt from the
    /// restored sample rather than carried over, so with
    /// `auto_repartition` enabled a *re-partitioning decision* after
    /// restore may differ. Operation counters ([`EngineStats`]) restart
    /// from zero.
    pub fn restore(
        config: SynopsisConfig,
        archive_rows: Vec<Row>,
        snapshot: &crate::snapshot::SynopsisSnapshot,
    ) -> Result<Self> {
        let archive = ArchiveStore::from_rows_in(&config.archive_backend, archive_rows)?;
        Self::restore_with_archive(config, archive, snapshot)
    }

    /// [`JanusEngine::restore`] over an already-built archive — the
    /// zero-copy restore path: callers that hold a forked or freshly
    /// spilled archive (replica construction, [`JanusEngine::fork_via_snapshot`])
    /// hand it over without materializing a `Vec<Row>` in between. The
    /// archive's slot order must be the saved engine's export order, which
    /// every [`ArchiveStore::fork`] guarantees.
    pub fn restore_with_archive(
        config: SynopsisConfig,
        archive: ArchiveStore,
        snapshot: &crate::snapshot::SynopsisSnapshot,
    ) -> Result<Self> {
        config.validate()?;
        if archive.len() != snapshot.population {
            return Err(JanusError::InvalidConfig(format!(
                "archive has {} rows but the snapshot was taken at {}",
                archive.len(),
                snapshot.population
            )));
        }
        let dpt = Dpt::from_snapshot(&snapshot.dpt)?;
        let mut reservoir = DynamicReservoir::new(
            snapshot.reservoir_floor,
            snapshot.reservoir_target,
            config.seed ^ 0x4e4e,
        );
        reservoir.reset(snapshot.sample_rows.clone());
        if let Ok(words) = <[u64; 4]>::try_from(snapshot.reservoir_rng.as_slice()) {
            reservoir.restore_rng(words);
        } else if !snapshot.reservoir_rng.is_empty() {
            return Err(JanusError::InvalidConfig(format!(
                "snapshot reservoir RNG has {} state words, expected 4",
                snapshot.reservoir_rng.len()
            )));
        }
        let pool = PooledSample {
            archive,
            reservoir,
            seed: config.seed,
            seed_counter: snapshot.seed_counter,
        };
        let synopsis = Synopsis {
            maxvar: Synopsis::index_over(&config, &pool),
            config,
            dpt,
            catchup: CatchupQueue::new(snapshot.catchup_rows.clone()),
        };
        let updates_since_check = snapshot.updates_since_check as usize;
        Ok(Self::assemble(pool, synopsis, updates_since_check))
    }

    /// Snapshot of the current pooled-sample index points — the input the
    /// §4.3 *optimization phase* works on, taken so the optimizer can run
    /// off-thread without holding any engine lock.
    pub fn snapshot_sample_points(&self) -> Vec<IndexPoint> {
        self.synopsis.maxvar.live_points()
    }

    /// Computes a candidate partitioning from a (possibly stale) point
    /// snapshot without touching engine state — §4.3 step 1, runnable in a
    /// worker thread while the old synopsis keeps serving.
    pub fn plan_repartition(&self, points: Vec<IndexPoint>) -> Result<PartitionOutcome> {
        let config = self.config();
        let population = self.pool.archive.len();
        let mv = MaxVarianceIndex::over_points(&config.template, config.delta, points, population);
        Partitioner::auto(config.rho).compute(&mv, config.leaf_count)
    }

    /// Installs a previously-planned partitioning — the §4.3 step-2
    /// *blocking* swap (statistics populated from the current pooled
    /// sample, reservoir re-sampled, catch-up restarted).
    pub fn adopt_planned(&mut self, outcome: PartitionOutcome) {
        let (pool, synopsis) = (&mut self.pool, &mut self.synopsis);
        // (1) New empty DPT from the optimized spec.
        let mut dpt = Synopsis::tree_over(&synopsis.config, &outcome, pool.archive.len())
            .expect("partitioner produced a valid spec");
        // (2) Blocking step: approximate node statistics from the pooled
        // reservoir sample (reflects all data up to now).
        for row in pool.reservoir.iter() {
            dpt.apply_catchup_row(row);
        }
        // (3) The old tree is discarded. (4) Fresh pooled sample.
        synopsis.dpt = dpt;
        pool.redraw(synopsis.config.sample_rate);
        synopsis.reset_samples(pool);
        // (5) Catch-up restarts in the background.
        synopsis.restart_catchup(pool);
        self.stats.repartitions += 1;
    }

    /// Partial re-partitioning (Appendix E): rebuilds only the subtree
    /// `psi` levels above `leaf`, keeping all other estimates. Returns
    /// whether the splice succeeded.
    pub fn partial_repartition(&mut self, leaf: usize, psi: usize) -> Result<()> {
        let (pool, synopsis) = (&mut self.pool, &mut self.synopsis);
        let (dpt, maxvar) = (&mut synopsis.dpt, &synopsis.maxvar);
        let at = dpt.ancestor_at(leaf, psi);
        let l_u = dpt.leaves_under(at).max(2);
        let rect = dpt.node(at).rect.clone();
        let outcome = if synopsis.config.dims() == 1 {
            let rho = synopsis.config.rho;
            crate::partition::bs1d::partition_within(maxvar, rect.lo()[0], rect.hi()[0], l_u, rho)?
        } else {
            crate::partition::kd::partition_within(maxvar, rect, l_u)?
        };
        dpt.push_epoch(pool.archive.len() as f64);
        let orphans = dpt.splice_subtree(at, &outcome.spec, &outcome.leaf_variances)?;
        for id in orphans {
            if let Some(row) = pool.reservoir.get(id) {
                let point = dpt.project(row);
                dpt.assign_sample(id, &point);
            }
        }
        // Restart catch-up for the new-epoch nodes.
        synopsis.restart_catchup(pool);
        self.stats.partial_repartitions += 1;
        Ok(())
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
                let x = rng.gen::<f64>() * 100.0;
                Row::new(i, vec![x, x * 2.0 + rng.gen::<f64>() * 10.0])
            })
            .collect()
    }

    fn config(seed: u64) -> SynopsisConfig {
        let mut cfg = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]),
            seed,
        );
        cfg.leaf_count = 16;
        cfg.sample_rate = 0.05;
        cfg.catchup_ratio = 0.3;
        cfg
    }

    fn sum_query(lo: f64, hi: f64) -> Query {
        Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn bootstrap_and_query_are_reasonably_accurate() {
        let data = rows(20_000, 1);
        let engine = JanusEngine::bootstrap(config(1), data).unwrap();
        for (lo, hi) in [(10.0, 60.0), (0.0, 100.0), (40.0, 45.0)] {
            let q = sum_query(lo, hi);
            let est = engine.query(&q).unwrap().unwrap();
            let truth = engine.evaluate_exact(&q).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(
                rel < 0.15,
                "[{lo},{hi}]: est {} truth {truth} rel {rel}",
                est.value
            );
        }
        assert_eq!(engine.stats().queries, 3);
    }

    #[test]
    fn inserts_and_deletes_keep_estimates_tracking_truth() {
        let data = rows(5_000, 2);
        let mut engine = JanusEngine::bootstrap(config(2), data).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut next_id = 5_000u64;
        let mut live: Vec<u64> = (0..5_000).collect();
        for _ in 0..2_000 {
            if rng.gen_bool(0.8) {
                let x = rng.gen::<f64>() * 100.0;
                engine.insert(Row::new(next_id, vec![x, x * 2.0])).unwrap();
                live.push(next_id);
                next_id += 1;
            } else {
                let at = rng.gen_range(0..live.len());
                let id = live.swap_remove(at);
                engine.delete(id).unwrap();
            }
        }
        let q = sum_query(20.0, 80.0);
        let est = engine.query(&q).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.15, "est {} truth {truth} rel {rel}", est.value);
        assert_eq!(engine.population(), live.len());
    }

    #[test]
    fn duplicate_insert_and_missing_delete_error() {
        let data = rows(200, 4);
        let mut engine = JanusEngine::bootstrap(config(4), data).unwrap();
        assert!(engine.insert(Row::new(0, vec![1.0, 2.0])).is_err());
        assert!(matches!(
            engine.delete(99_999),
            Err(JanusError::RowNotFound(_))
        ));
    }

    #[test]
    fn heavy_deletions_force_resample() {
        let data = rows(2_000, 5);
        let mut cfg = config(5);
        cfg.auto_repartition = false;
        let mut engine = JanusEngine::bootstrap(cfg, data).unwrap();
        for id in 0..1_500u64 {
            engine.delete(id).unwrap();
        }
        assert!(
            engine.stats().resamples >= 1,
            "reservoir should have been refilled"
        );
        // All remaining sampled ids must be live rows.
        for s in engine.reservoir().iter() {
            assert!(engine.archive().contains(s.id));
        }
        let q = sum_query(0.0, 100.0);
        let est = engine.query(&q).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q).unwrap();
        assert!((est.value - truth).abs() / truth < 0.25);
    }

    /// The persisted catch-up queue is the head of the full archive
    /// shuffle for the engine's seed — what it was when the queue held
    /// every row — and shrinks from the front as catch-up advances.
    #[test]
    fn saved_catchup_rows_are_the_head_of_the_seeded_shuffle() {
        let cfg = config(8);
        let mut engine =
            JanusEngine::bootstrap_without_catchup(cfg.clone(), rows(2_000, 8)).unwrap();
        let full = engine.archive().shuffled(cfg.seed ^ 0xca7c);
        let goal = 600; // catchup_ratio 0.3
        assert_eq!(engine.save_synopsis().catchup_rows, full[..goal]);
        assert_eq!(engine.advance_catchup(250), 250);
        assert_eq!(engine.save_synopsis().catchup_rows, full[250..goal]);
        engine.run_catchup_to_goal();
        assert!(engine.save_synopsis().catchup_rows.is_empty());
        assert_eq!(engine.stats().catchup_applied, goal as u64);
    }

    #[test]
    fn reinitialize_restarts_catchup_and_keeps_accuracy() {
        let data = rows(10_000, 6);
        let mut engine = JanusEngine::bootstrap(config(6), data).unwrap();
        engine.reinitialize().unwrap();
        assert!(engine.stats().repartitions >= 1);
        assert!(!engine.synopsis.catchup.is_complete());
        engine.run_catchup_to_goal();
        let q = sum_query(0.0, 100.0);
        let est = engine.query(&q).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q).unwrap();
        assert!((est.value - truth).abs() / truth < 0.1);
    }

    #[test]
    fn catchup_progress_improves_covered_estimates() {
        let data = rows(20_000, 7);
        let mut engine = JanusEngine::bootstrap_without_catchup(config(7), data).unwrap();
        // Before catch-up the reservoir-free covered nodes have h_i == 0.
        let q = sum_query(0.0, 100.0);
        let truth = engine.evaluate_exact(&q).unwrap();
        engine.advance_catchup(500);
        let early = engine.query(&q).unwrap().unwrap();
        engine.run_catchup_to_goal();
        let late = engine.query(&q).unwrap().unwrap();
        let early_err = (early.value - truth).abs() / truth;
        let late_err = (late.value - truth).abs() / truth;
        assert!(
            late_err <= early_err + 0.02,
            "late {late_err} vs early {early_err}"
        );
        assert!(late_err < 0.05, "late err {late_err}");
    }

    #[test]
    fn different_agg_column_falls_back_to_sampling() {
        let data = rows(10_000, 8);
        let engine = JanusEngine::bootstrap(config(8), data).unwrap();
        // Query aggregates column 0 (the predicate column) instead of 1.
        let q = Query::new(
            AggregateFunction::Sum,
            0,
            vec![0],
            RangePredicate::new(vec![10.0], vec![90.0]).unwrap(),
        )
        .unwrap();
        let est = engine.query(&q).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q).unwrap();
        assert!((est.value - truth).abs() / truth < 0.2);
    }

    #[test]
    fn partial_repartition_splices_and_answers() {
        let data = rows(10_000, 9);
        let mut engine = JanusEngine::bootstrap(config(9), data).unwrap();
        let leaf = engine.dpt().leaf_indices()[0];
        engine.partial_repartition(leaf, 2).unwrap();
        assert_eq!(engine.stats().partial_repartitions, 1);
        engine.run_catchup_to_goal();
        let q = sum_query(0.0, 100.0);
        let est = engine.query(&q).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q).unwrap();
        assert!((est.value - truth).abs() / truth < 0.12);
    }

    #[test]
    fn reinserting_a_deleted_sample_keeps_index_and_reservoir_in_step() {
        // d = 2 runs the range-tree index, d = 3 the k-d tree; both sit
        // behind `DynamicIndex`, whose tombstones are keyed by row id.
        for dims in [2usize, 3] {
            let mut rng = SmallRng::seed_from_u64(dims as u64);
            let data: Vec<Row> = (0..400u64)
                .map(|i| Row::new(i, (0..=dims).map(|_| rng.gen::<f64>() * 100.0).collect()))
                .collect();
            let template = QueryTemplate::new(AggregateFunction::Sum, dims, (0..dims).collect());
            let mut cfg = SynopsisConfig::paper_default(template, 21);
            cfg.leaf_count = 8;
            cfg.sample_rate = 0.5; // 2m = 400: every row is sampled
            let mut engine = JanusEngine::bootstrap(cfg, data.clone()).unwrap();
            let whole = janus_common::Rect::unbounded(dims);
            let in_step = |engine: &JanusEngine, step: &str| {
                let sampled = engine.reservoir().len();
                let indexed = engine.maxvar().moments_in(&whole).count;
                assert_eq!(indexed, sampled as f64, "{dims}-D after {step}");
                let points = engine.snapshot_sample_points().len();
                assert_eq!(points, sampled, "{dims}-D after {step}");
            };
            in_step(&engine, "bootstrap");
            let victim = data[7].clone();
            engine.delete(victim.id).unwrap();
            assert_eq!(engine.reservoir().len(), 399);
            in_step(&engine, "delete");
            // Below target the reservoir admits the next offer outright.
            engine.insert(victim.clone()).unwrap();
            assert_eq!(engine.reservoir().len(), 400);
            in_step(&engine, "re-insert");
            engine.delete(victim.id).unwrap();
            assert_eq!(engine.reservoir().len(), 399);
            in_step(&engine, "second delete");
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let data = rows(3_000, 10);
            let mut engine = JanusEngine::bootstrap(config(10), data).unwrap();
            for i in 0..500u64 {
                let x = (i % 100) as f64;
                engine.insert(Row::new(10_000 + i, vec![x, x])).unwrap();
            }
            let q = sum_query(0.0, 100.0);
            engine.query(&q).unwrap().unwrap().value
        };
        assert_eq!(run(), run());
    }
}
