//! The JanusAQP engine (§3, §4.3, §5.4, §5.5): archive + pooled reservoir
//! feeding `L` synopses (max-variance index + DPT each), with catch-up
//! processing and automatic re-partitioning.
//!
//! `L = 1` ([`JanusEngine::bootstrap`]) is the common case. §5.5's first
//! method registers one tree per query template over the same pooled
//! sample ([`JanusEngine::bootstrap_templates`], or
//! [`JanusEngine::add_template`] at run time) for total space `O(m + L·k)`;
//! every update fans out to all trees, and each tree keeps its own
//! statistics, catch-up and triggers. A query goes to the tree over its
//! template, else to a tree over its predicate columns (sampling-only),
//! else to the pooled sample ([`crate::uniform_estimate`]).
//!
//! This engine is synchronous and deterministic: every random choice
//! derives from the configured seed, and catch-up advances only when the
//! caller pumps it ([`JanusEngine::advance_catchup`]) — which is exactly
//! what reproducible experiments need. The multi-threaded façade used for
//! the throughput experiments lives in [`crate::concurrent`].
//!
//! ## Bootstrap
//!
//! Every engine built from a table — [`JanusEngine::bootstrap`],
//! [`JanusEngine::bootstrap_without_catchup`],
//! [`JanusEngine::bootstrap_templates`], each in-process cluster shard and
//! each shard a `janus-node` hosts — comes out of one two-core build
//! (`JanusEngine::build`):
//!
//! 1. the archive's column pass ([`ArchiveStore::fill_columns`]) on the
//!    calling thread;
//! 2. one scoped helper thread runs the archive's read-only id-index pass
//!    ([`ArchiveStore::index_slots`]), which nothing in the synopsis build
//!    reads, while the calling thread draws the catch-up shuffle, draws
//!    the pooled reservoir, loads **M**, partitions, builds the tree and
//!    strata, copies the catch-up queue, and (for `bootstrap`) runs
//!    catch-up to its goal — all reads of the archive by slot;
//! 3. the caller joins the helper and installs the index. If the index
//!    pass met a repeated id, the speculative synopses are dropped, the
//!    archive is compacted in place ([`ArchiveStore::index_columns`]) and
//!    step 2's synopsis build runs again, alone: a repeated id keeps its
//!    first copy, exactly as in a per-row build. A row of another arity
//!    ends the column pass, and the rest of the table goes through the
//!    index before step 2, as in [`ArchiveStore::try_from_rows`].
//!
//! **Allocation order.** Everything is allocated on the calling thread:
//! the columns (each input row freed once copied), the id map sized for
//! every row, the input vector's buffer freed, then the synopsis side,
//! whose first allocation is the catch-up shuffle buffer (then the
//! reservoir, **M**, the tree and the queue). The helper allocates
//! nothing. Where a large buffer is allocated moves `peak_rss_mb`
//! (ROADMAP item 10) on `engine_stream`: a shuffle buffer allocated before
//! the id map read +2.4%, one drawn after the tree (the serial build's
//! place) +0.2%, and one drawn first, as here, −0.2%.
//!
//! The shuffle stays on the calling thread. Drawn over `u32` slots it is
//! ~5 ms of a 500k-row bootstrap, while the index pass takes ~14–35 ms
//! and is the longer half: drawing the shuffle on the helper ahead of the
//! index put the helper on the critical path, and `setup_s` read lower
//! than the serial build's in fewer pairs.

use crate::catchup::CatchupQueue;
use crate::concurrent::UpdateRef;
use crate::config::SynopsisConfig;
use crate::estimator::Gathered;
use crate::maxvar::MaxVarianceIndex;
use crate::partition::{PartitionOutcome, Partitioner};
use crate::synopsis::{PooledSample, Seeds, Synopsis};
use crate::tree::Dpt;
use crate::trigger::{self, TriggerConfig};
use janus_common::{DetHashMap, Estimate, JanusError, Query, Result, Row, RowId, RowRef};
use janus_index::IndexPoint;
use janus_sampling::DynamicReservoir;
use janus_storage::ArchiveStore;
use std::sync::atomic::{AtomicU64, Ordering};

/// Operation counters exposed for experiments and tests, summed over
/// every tree.
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

/// The synchronous JanusAQP engine: the §5.5 architecture — one pooled
/// sample, one synopsis over it per registered template. The single-tree
/// accessors ([`JanusEngine::dpt`], [`JanusEngine::try_repartition`], …)
/// address the first template.
pub struct JanusEngine {
    pool: PooledSample,
    /// Never empty.
    synopses: Vec<Synopsis>,
    /// Every counter but `queries`, which readers bump through `&self`.
    stats: EngineStats,
    queries: AtomicU64,
    /// Updates since the last trigger check, at the first template's
    /// `trigger_check_interval`.
    updates_since_check: usize,
}

/// Which bootstrap a bulk build serves. They differ only in how they
/// seed their draws and whether catch-up runs to its goal.
#[derive(Clone, Copy)]
enum Bootstrap {
    /// [`JanusEngine::bootstrap`] (`run_catchup`) and
    /// [`JanusEngine::bootstrap_without_catchup`]: one template, whose
    /// catch-up is seeded apart from the derived sequence.
    One { run_catchup: bool },
    /// [`JanusEngine::bootstrap_templates`]: each template's catch-up
    /// seeded from the derived sequence, left unconsumed.
    Templates,
}

/// A bootstrap's synopsis side: the pooled reservoir, one synopsis per
/// template, and the catch-up rows applied.
type Built = (DynamicReservoir, Vec<Synopsis>, usize);

/// Runs `build` on this thread while one scoped helper runs `archive`'s
/// read-only index pass into `index` ([`ArchiveStore::index_slots`]);
/// returns what `build` returned and whether the pass completed (`false`
/// at a repeated id). With no `index` to fill, `build` runs alone. The
/// helper allocates nothing: the map was sized by the caller.
fn beside_index<T>(
    archive: &ArchiveStore,
    index: Option<&mut DetHashMap<RowId, usize>>,
    build: impl FnOnce() -> T,
) -> Result<(T, bool)> {
    let Some(index) = index else {
        return Ok((build(), true));
    };
    std::thread::scope(|scope| {
        let helper = std::thread::Builder::new()
            .name("janus-bootstrap".into())
            .spawn_scoped(scope, || archive.index_slots(index))
            .map_err(|e| JanusError::Storage(format!("spawn janus-bootstrap: {e}")))?;
        let built = build();
        let indexed = helper.join().expect("the index pass does not panic");
        Ok((built, indexed))
    })
}

impl JanusEngine {
    /// Builds an engine over the initial table `rows`, runs the partition
    /// optimizer on a fresh pooled sample, and completes the catch-up phase
    /// to the configured goal.
    pub fn bootstrap(config: SynopsisConfig, rows: Vec<Row>) -> Result<Self> {
        Self::build(vec![config], rows, Bootstrap::One { run_catchup: true })
    }

    /// Builds an engine but leaves the catch-up queue unconsumed, so the
    /// caller can study the catch-up phase itself (Fig. 7).
    pub fn bootstrap_without_catchup(config: SynopsisConfig, rows: Vec<Row>) -> Result<Self> {
        Self::build(vec![config], rows, Bootstrap::One { run_catchup: false })
    }

    /// Builds an engine with one synopsis per config over one pooled
    /// sample (§5.5), sized by the largest configured sample rate and
    /// seeded by the first config. Every catch-up phase is left
    /// unconsumed, seeded from the shared sequence.
    pub fn bootstrap_templates(configs: Vec<SynopsisConfig>, rows: Vec<Row>) -> Result<Self> {
        Self::build(configs, rows, Bootstrap::Templates)
    }

    /// The one bulk build behind every bootstrap (see the module doc's
    /// "Bootstrap"): the archive's column pass, then the synopsis build
    /// beside the index pass ([`beside_index`]), then the index installed
    /// — or, if the index pass met a repeated id, the archive compacted in
    /// place and the same synopsis build run again over it.
    fn build(configs: Vec<SynopsisConfig>, rows: Vec<Row>, kind: Bootstrap) -> Result<Self> {
        let Some(first) = configs.first() else {
            return Err(JanusError::InvalidConfig(
                "need at least one template".into(),
            ));
        };
        for config in &configs {
            config.validate()?;
        }
        let mut seeds = Seeds::new(first.seed);
        let (salts, catchup_seeds, run_catchup) = match kind {
            // A catch-up goal of the whole table is an exact base instead.
            Bootstrap::One { run_catchup } => {
                let seed = (first.catchup_ratio < 1.0).then_some(first.seed ^ 0xca7c);
                ([0x5e5e, 0xa11a], vec![seed], run_catchup)
            }
            Bootstrap::Templates => {
                let seeds = configs.iter().map(|_| Some(seeds.next())).collect();
                ([0x3333, 0x4444], seeds, false)
            }
        };
        let rate = configs.iter().map(|c| c.sample_rate).fold(0.0, f64::max);
        let synopses = |archive: &ArchiveStore| -> Result<Option<Built>> {
            // The shuffles first: their buffers are the first allocation
            // after the id map and the freed input.
            let orders: Vec<_> = (catchup_seeds.iter())
                .map(|seed| seed.map(|seed| archive.slot_order(seed)))
                .collect();
            // Two sampled rows share an id: the index pass reports the
            // repeat, and the build runs again over the compacted archive.
            let Some(reservoir) = PooledSample::draw(archive, rate, first.seed, salts) else {
                return Ok(None);
            };
            let (mut built, mut applied) = (Vec::with_capacity(configs.len()), 0);
            for (config, order) in configs.iter().zip(orders) {
                let order = order.as_ref();
                let mut synopsis = Synopsis::build(config.clone(), archive, &reservoir, order)?;
                if run_catchup {
                    applied += synopsis.run_catchup_to_goal();
                }
                built.push(synopsis);
            }
            Ok(Some((reservoir, built, applied)))
        };
        // The serial build's allocation order, all on this thread: the
        // columns (freeing each input row), the id map, the input vector's
        // buffer freed, then the synopsis side.
        let mut rows = rows.into_iter();
        let (mut archive, odd) = ArchiveStore::fill_columns(&mut rows);
        let mut index = match odd {
            None => Some(DetHashMap::with_capacity_and_hasher(
                archive.len(),
                Default::default(),
            )),
            // A row of another arity: the rest go through the index, as in
            // `ArchiveStore::try_from_rows`, before the synopsis build.
            Some(odd) => {
                archive.index_columns();
                archive.insert_rows(std::iter::once(odd).chain(rows.by_ref()))?;
                None
            }
        };
        drop(rows);
        let (mut built, indexed) = beside_index(&archive, index.as_mut(), || synopses(&archive))?;
        match index {
            Some(index) if indexed => archive.install_index(index),
            Some(index) => {
                drop((built, index));
                archive.index_columns();
                built = synopses(&archive);
            }
            None => {}
        }
        let (reservoir, synopses, catchup_applied) =
            built?.expect("a compacted archive holds each id once");
        let pool = PooledSample {
            archive,
            reservoir,
            seeds,
        };
        let mut engine = Self::assemble(pool, synopses, 0);
        engine.stats.catchup_applied = catchup_applied as u64;
        Ok(engine)
    }

    /// Registers a new template at run time (§5.5: "when we see a query
    /// from a new template we can construct a new partition tree ... and
    /// start the catch-up phase only for this tree"), running its catch-up
    /// to the configured goal.
    pub fn add_template(&mut self, config: SynopsisConfig) -> Result<()> {
        config.validate()?;
        let seed = self.pool.seeds.next();
        let (archive, reservoir) = (&self.pool.archive, &self.pool.reservoir);
        let order = archive.slot_order(seed);
        let mut synopsis = Synopsis::build(config, archive, reservoir, Some(&order))?;
        self.stats.catchup_applied += synopsis.run_catchup_to_goal() as u64;
        self.synopses.push(synopsis);
        Ok(())
    }

    fn assemble(pool: PooledSample, synopses: Vec<Synopsis>, updates_since_check: usize) -> Self {
        JanusEngine {
            pool,
            synopses,
            stats: EngineStats::default(),
            queries: AtomicU64::new(0),
            updates_since_check,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The first template's synopsis configuration.
    pub fn config(&self) -> &SynopsisConfig {
        &self.synopses[0].config
    }

    /// Number of registered templates `L`.
    pub fn template_count(&self) -> usize {
        self.synopses.len()
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

    /// The first template's partition tree.
    pub fn dpt(&self) -> &Dpt {
        &self.synopses[0].dpt
    }

    /// The first template's max-variance index.
    pub fn maxvar(&self) -> &MaxVarianceIndex {
        &self.synopses[0].maxvar
    }

    /// Operation counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Catch-up progress in `[0, 1]` of the tree furthest behind.
    pub fn catchup_progress(&self) -> f64 {
        let progress = self.synopses.iter().map(|s| s.catchup.progress());
        progress.fold(1.0, f64::min)
    }

    // ------------------------------------------------------------------
    // Updates (§4.1, §4.2)
    // ------------------------------------------------------------------

    /// Inserts a tuple: archive, every tree's path statistics, reservoir,
    /// and (if sampled) the max-variance indexes; may trigger
    /// re-partitioning. A thin wrapper over [`JanusEngine::insert_ref`].
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.insert_ref(row.as_ref())
    }

    /// [`JanusEngine::insert`] of a borrowed tuple: the archive copies
    /// its values, and the reservoir materialises a row only if it admits
    /// it, so an insert it skips allocates nothing outside the archive.
    pub fn insert_ref(&mut self, row: RowRef<'_>) -> Result<()> {
        let id = row.id;
        if !self.pool.archive.insert_values(id, row.values)? {
            return Err(JanusError::InvalidConfig(format!("duplicate row id {id}")));
        }
        for synopsis in &mut self.synopses {
            synopsis.last_leaf = synopsis.dpt.record_insert(row);
        }
        self.offer_to_reservoir(row);
        self.after_update();
        Ok(())
    }

    /// Deletes a tuple by id; returns the removed row.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let row = self
            .pool
            .archive
            .delete(id)
            .ok_or(JanusError::RowNotFound(id))?;
        for synopsis in &mut self.synopses {
            synopsis.last_leaf = synopsis.dpt.record_delete(row.as_ref());
        }
        self.delete_from_reservoir(&row);
        self.after_update();
        Ok(row)
    }

    /// The sample half of an insert the archive accepted, whichever path
    /// applied the tree statistics.
    fn offer_to_reservoir(&mut self, row: RowRef<'_>) {
        self.pool.offer(row, &mut self.synopses);
        self.stats.inserts += 1;
    }

    /// The sample half of a delete the archive applied.
    fn delete_from_reservoir(&mut self, row: &Row) {
        let resampled = self.pool.remove(row, &mut self.synopses);
        self.stats.resamples += u64::from(resampled);
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
        let dpt = &mut self.synopses[0].dpt;
        dpt.apply_leaf_delta(leaf, inserted, deleted, inserted_values, deleted_values);
    }

    /// Archive + reservoir bookkeeping for an insert whose tree statistics
    /// were already applied by the batch updater.
    pub(crate) fn apply_insert_sampling(&mut self, row: Row) -> Result<()> {
        if self.pool.archive.insert_values(row.id, &row.values)? {
            self.offer_to_reservoir(row.as_ref());
        }
        Ok(())
    }

    /// Archive + reservoir bookkeeping for a delete whose tree statistics
    /// were already applied by the batch updater.
    pub(crate) fn apply_delete_sampling(&mut self, row: &Row) {
        if self.pool.archive.delete(row.id).is_some() {
            self.delete_from_reservoir(row);
        }
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
    /// dispatch over the registered trees, else the pooled sample.
    fn gather(&self, query: &Query) -> Result<Gathered<'_>> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let trees = self.synopses.iter().map(|s| &s.dpt);
        let pool = &self.pool;
        Gathered::route(query, trees, &pool.reservoir, pool.archive.len())
    }

    /// Applies a batch of borrowed updates in arrival order under a
    /// single call — the batch-apply entry point topic consumers (e.g. a
    /// cluster shard draining its ingest log, or a node applying a
    /// shipped batch decoded flat) use so per-record dispatch overhead is
    /// paid once per batch. Application is strictly sequential, so the
    /// resulting engine state is *bit-identical* to calling
    /// [`JanusEngine::insert`]/[`JanusEngine::delete`] per record, for any
    /// number of templates. `&Update`s convert, so a `&Vec<Update>` is a
    /// batch as is.
    ///
    /// Returns `(applied, skipped, first_error)`. With `skip_failed`
    /// unset, application stops at the first failing update (it is
    /// neither applied nor skipped); with it set, failing updates are
    /// counted in `skipped` and the batch continues.
    pub fn apply_update_refs<'a>(
        &mut self,
        updates: impl IntoIterator<Item = impl Into<UpdateRef<'a>>>,
        skip_failed: bool,
    ) -> (usize, usize, Option<JanusError>) {
        let mut applied = 0;
        let mut skipped = 0;
        let mut first_error = None;
        for update in updates {
            let outcome = match update.into() {
                UpdateRef::Insert(row) => self.insert_ref(row),
                UpdateRef::Delete(id) => self.delete(id).map(|_| ()),
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
    /// copied column-wise in slot order, so the fork's sampling streams —
    /// and therefore its entire future evolution — are bit-identical to
    /// this engine's.
    pub fn fork_via_snapshot(&self) -> Result<Self> {
        Self::restore_with_archive(
            self.config().clone(),
            self.pool.archive.fork(),
            &self.save_synopsis(),
        )
    }

    /// Exact evaluation over the archive — the ground-truth oracle used by
    /// tests and the benchmark (never used to answer synopsis queries),
    /// through the chunked columnar kernels (see the
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

    /// Applies up to `n` catch-up rows to every tree; returns how many
    /// were applied in all.
    pub fn advance_catchup(&mut self, n: usize) -> usize {
        let applied = self.synopses.iter_mut().map(|s| s.advance_catchup(n)).sum();
        self.stats.catchup_applied += applied as u64;
        applied
    }

    /// Runs every tree's catch-up to its configured goal.
    pub fn run_catchup_to_goal(&mut self) {
        let synopses = self.synopses.iter_mut();
        let applied: usize = synopses.map(Synopsis::run_catchup_to_goal).sum();
        self.stats.catchup_applied += applied as u64;
    }

    // ------------------------------------------------------------------
    // Re-optimization (§4.3, §5.4, Appendix E)
    // ------------------------------------------------------------------

    fn after_update(&mut self) {
        // Background catch-up, interleaved with update processing (§4.3).
        for synopsis in &mut self.synopses {
            let per_update = synopsis.config.catchup_per_update;
            if per_update > 0 && !synopsis.catchup.is_complete() {
                self.stats.catchup_applied += synopsis.advance_catchup(per_update) as u64;
            }
        }
        self.updates_since_check += 1;
        if self.updates_since_check < self.config().trigger_check_interval {
            return;
        }
        self.updates_since_check = 0;
        for i in 0..self.synopses.len() {
            let synopsis = &mut self.synopses[i];
            synopsis.maxvar.set_population(self.pool.archive.len());
            if !synopsis.config.auto_repartition {
                continue;
            }
            let trigger_cfg = TriggerConfig {
                beta: synopsis.config.beta,
                underrep_fraction: 1.0,
            };
            let (dpt, maxvar, leaf) = (&synopsis.dpt, &synopsis.maxvar, synopsis.last_leaf);
            if trigger::check_leaf(dpt, maxvar, leaf, &trigger_cfg).is_some() {
                self.try_repartition_at(i);
            }
        }
    }

    /// Evaluates the first tree's partitioning after a leaf was flagged:
    /// asks the partitioner for a candidate that can beat `M(R)/β` and
    /// adopts it when it does (§5.4). A candidate the partitioner's
    /// pre-check rules out ([`Partitioner::compute_if_below`]) counts as
    /// rejected without being computed; most such rejections are decided
    /// by re-checking the infeasibility certificate the previous one left,
    /// in `k` probes. Returns whether a re-partitioning was adopted.
    pub fn try_repartition(&mut self) -> bool {
        self.try_repartition_at(0)
    }

    /// [`JanusEngine::try_repartition`] for tree `i`.
    fn try_repartition_at(&mut self, i: usize) -> bool {
        let current_max = self.current_max_variance_at(i);
        let synopsis = &mut self.synopses[i];
        let config = &synopsis.config;
        let beta = config.beta;
        let Ok(candidate) = Partitioner::auto(config.rho).compute_if_below_remembering(
            &synopsis.maxvar,
            config.leaf_count,
            trigger::adoption_bound(current_max, beta),
            &mut synopsis.certificate,
        ) else {
            return false;
        };
        match candidate {
            Some(outcome)
                if trigger::accept_candidate(current_max, outcome.max_leaf_variance, beta) =>
            {
                self.adopt_at(i, outcome);
                true
            }
            _ => {
                self.stats.rejected_repartitions += 1;
                false
            }
        }
    }

    /// `M(R)` of the first tree's partitioning: the worst live-leaf probe.
    pub fn current_max_variance(&self) -> f64 {
        self.current_max_variance_at(0)
    }

    fn current_max_variance_at(&self, i: usize) -> f64 {
        let Synopsis { dpt, maxvar, .. } = &self.synopses[i];
        dpt.live_leaves()
            .map(|leaf| maxvar.max_variance(&leaf.rect))
            .fold(0.0, f64::max)
    }

    /// Forces a full re-initialization of the first tree (§4.3):
    /// re-optimize the partitioning from the pooled sample, populate
    /// approximate statistics from it, re-sample the reservoir, and restart
    /// catch-up.
    pub fn reinitialize(&mut self) -> Result<()> {
        let Synopsis { config, maxvar, .. } = &self.synopses[0];
        let outcome = Partitioner::auto(config.rho).compute(maxvar, config.leaf_count)?;
        self.adopt_at(0, outcome);
        Ok(())
    }

    /// Exports the synopsis (tree + pooled sample) for persistence; see
    /// [`crate::snapshot`].
    ///
    /// # Panics
    ///
    /// If more than one template is registered: a snapshot carries one
    /// tree.
    pub fn save_synopsis(&self) -> crate::snapshot::SynopsisSnapshot {
        let [synopsis] = self.synopses.as_slice() else {
            panic!(
                "a synopsis snapshot holds one tree, not {}",
                self.synopses.len()
            );
        };
        let reservoir = &self.pool.reservoir;
        crate::snapshot::SynopsisSnapshot {
            dpt: synopsis.dpt.to_snapshot(),
            sample_rows: reservoir.iter().cloned().collect(),
            reservoir_floor: reservoir.floor(),
            reservoir_target: reservoir.target(),
            population: self.pool.archive.len(),
            reservoir_rng: reservoir.rng_state(),
            seed_counter: self.pool.seeds.counter,
            updates_since_check: self.updates_since_check as u64,
            catchup_rows: synopsis
                .catchup
                .remaining()
                .rows()
                .map(|r| r.to_row())
                .collect(),
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
    /// restore may differ. The trigger path's infeasibility certificate is
    /// not saved either: the restored engine re-derives it from the first
    /// armed trigger's failing cover. A certificate rejects only what it
    /// re-verifies against the current index, so its absence costs that
    /// one cover and — as far as `M` is monotone, the pre-check's own
    /// caveat — no decision. Operation counters ([`EngineStats`]) restart
    /// from zero.
    pub fn restore(
        config: SynopsisConfig,
        archive_rows: Vec<Row>,
        snapshot: &crate::snapshot::SynopsisSnapshot,
    ) -> Result<Self> {
        let archive = ArchiveStore::try_from_rows(archive_rows)?;
        Self::restore_with_archive(config, archive, snapshot)
    }

    /// [`JanusEngine::restore`] over an already-built archive — the
    /// zero-copy restore path: callers that hold a forked or freshly
    /// built archive (replica construction, [`JanusEngine::fork_via_snapshot`])
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
        reservoir.restore_rng(snapshot.reservoir_rng);
        let pool = PooledSample {
            archive,
            reservoir,
            seeds: Seeds {
                seed: config.seed,
                counter: snapshot.seed_counter,
            },
        };
        let synopsis = Synopsis {
            maxvar: Synopsis::index_over(&config, &pool.reservoir, pool.archive.len()),
            config,
            dpt,
            catchup: CatchupQueue::from_rows(&snapshot.catchup_rows)?,
            certificate: None,
            last_leaf: 0,
        };
        let updates_since_check = snapshot.updates_since_check as usize;
        Ok(Self::assemble(pool, vec![synopsis], updates_since_check))
    }

    /// Snapshot of the current pooled-sample index points of the first
    /// tree — the input the §4.3 *optimization phase* works on, taken so
    /// the optimizer can run off-thread without holding any engine lock.
    pub fn snapshot_sample_points(&self) -> Vec<IndexPoint> {
        self.maxvar().live_points()
    }

    /// Computes a candidate partitioning for the first tree from a
    /// (possibly stale) point snapshot without touching engine state —
    /// §4.3 step 1, runnable in a worker thread while the old synopsis
    /// keeps serving.
    pub fn plan_repartition(&self, points: Vec<IndexPoint>) -> Result<PartitionOutcome> {
        let config = self.config();
        let population = self.pool.archive.len();
        let mv = MaxVarianceIndex::over_points(&config.template, config.delta, points, population);
        Partitioner::auto(config.rho).compute(&mv, config.leaf_count)
    }

    /// Installs a previously-planned partitioning of the first tree — the
    /// §4.3 step-2 *blocking* swap (statistics populated from the current
    /// pooled sample, reservoir re-sampled, catch-up restarted).
    pub fn adopt_planned(&mut self, outcome: PartitionOutcome) {
        self.adopt_at(0, outcome);
    }

    /// [`JanusEngine::adopt_planned`] for tree `i`. The re-drawn pooled
    /// sample is every tree's, so each re-derives its strata and **M** —
    /// as on a §4.2 floor breach — while catch-up restarts for tree `i`
    /// alone.
    fn adopt_at(&mut self, i: usize, outcome: PartitionOutcome) {
        let pool = &mut self.pool;
        let synopsis = &mut self.synopses[i];
        // (1) New empty DPT from the optimized spec.
        let mut dpt = Synopsis::tree_over(&synopsis.config, &outcome, pool.archive.len())
            .expect("partitioner produced a valid spec");
        // (2) Blocking step: approximate node statistics from the pooled
        // reservoir sample (reflects all data up to now).
        for row in pool.reservoir.iter() {
            dpt.apply_catchup_row(row.as_ref());
        }
        // (3) The old tree is discarded. (4) Fresh pooled sample, at the
        // largest rate any tree asks for.
        synopsis.dpt = dpt;
        let rates = self.synopses.iter().map(|s| s.config.sample_rate);
        pool.redraw(rates.fold(0.0, f64::max));
        for synopsis in &mut self.synopses {
            synopsis.reset_samples(pool);
        }
        // (5) Catch-up restarts in the background.
        self.synopses[i].restart_catchup(pool);
        self.stats.repartitions += 1;
    }

    /// Partial re-partitioning of the first tree (Appendix E): rebuilds
    /// only the subtree `psi` levels above `leaf`, keeping all other
    /// estimates. Returns whether the splice succeeded.
    pub fn partial_repartition(&mut self, leaf: usize, psi: usize) -> Result<()> {
        let (pool, synopsis) = (&mut self.pool, &mut self.synopses[0]);
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

    /// When every row is sampled, a repeated id lands in the draw twice:
    /// the speculative build stops at the draw, and the engine is the one
    /// bootstrapped from the rows without the later copy.
    #[test]
    fn a_repeated_id_in_the_draw_rebuilds_over_the_compacted_archive() {
        let mut cfg = config(3);
        cfg.sample_rate = 0.5; // 2m = |D|: every row is drawn
        for n in [400, 20_000] {
            let clean = rows(n, 3);
            let mut with_repeat = clean.clone();
            with_repeat.insert(n / 2, Row::new(7, vec![-1.0, -2.0]));
            let want = JanusEngine::bootstrap(cfg.clone(), clean).unwrap();
            let got = JanusEngine::bootstrap(cfg.clone(), with_repeat).unwrap();
            assert_eq!(got.export_rows(), want.export_rows(), "{n} rows");
            let (a, b) = (got.save_synopsis(), want.save_synopsis());
            assert_eq!(a.to_bytes(), b.to_bytes(), "{n} rows");
            assert_eq!(got.stats(), want.stats(), "{n} rows");
        }
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
    /// every row — and shrinks from the front as catch-up advances. A
    /// half-consumed queue survives a save → restore round trip through
    /// the snapshot bytes.
    #[test]
    fn saved_catchup_rows_are_the_head_of_the_seeded_shuffle() {
        let cfg = config(8);
        let mut engine =
            JanusEngine::bootstrap_without_catchup(cfg.clone(), rows(2_000, 8)).unwrap();
        let full = engine.archive().shuffled(cfg.seed ^ 0xca7c);
        let goal = 600; // catchup_ratio 0.3
        assert_eq!(engine.save_synopsis().catchup_rows, full[..goal]);
        assert_eq!(engine.advance_catchup(250), 250);
        let saved = engine.save_synopsis();
        assert_eq!(saved.catchup_rows, full[250..goal]);
        let snapshot = crate::snapshot::SynopsisSnapshot::from_bytes(&saved.to_bytes()).unwrap();
        let mut restored = JanusEngine::restore(cfg, engine.export_rows(), &snapshot).unwrap();
        assert_eq!(restored.save_synopsis().to_bytes(), saved.to_bytes());
        assert_eq!(restored.advance_catchup(100), engine.advance_catchup(100));
        assert_eq!(
            restored.save_synopsis().to_bytes(),
            engine.save_synopsis().to_bytes()
        );
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
        assert!(!engine.synopses[0].catchup.is_complete());
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

    /// A batch is per-row `insert`/`delete` in arrival order, triggers
    /// included, with one template or two over the pooled sample.
    #[test]
    fn update_batches_match_per_row_updates_for_one_and_two_templates() {
        use crate::concurrent::Update;
        let mut transposed = config(14);
        transposed.template = QueryTemplate::new(AggregateFunction::Sum, 0, vec![1]);
        let mut rng = SmallRng::seed_from_u64(15);
        let updates: Vec<Update> = (0..3_000u64)
            .map(|i| match i % 4 {
                3 => Update::Delete(i),
                _ => {
                    let x = rng.gen::<f64>() * 100.0;
                    Update::Insert(Row::new(10_000 + i, vec![x, x * 2.0]))
                }
            })
            .collect();
        let queries = [
            sum_query(10.0, 60.0),
            Query::new(
                AggregateFunction::Avg,
                0,
                vec![1],
                RangePredicate::new(vec![30.0], vec![150.0]).unwrap(),
            )
            .unwrap(),
        ];
        for configs in [vec![config(14)], vec![config(14), transposed]] {
            let make = || {
                let mut engine =
                    JanusEngine::bootstrap_templates(configs.clone(), rows(4_000, 14)).unwrap();
                engine.run_catchup_to_goal();
                engine
            };
            let (mut per_row, mut batched) = (make(), make());
            for update in updates.clone() {
                match update {
                    Update::Insert(row) => per_row.insert(row).unwrap(),
                    Update::Delete(id) => drop(per_row.delete(id).unwrap()),
                }
            }
            let (applied, skipped, error) = batched.apply_update_refs(&updates, false);
            assert_eq!((applied, skipped), (updates.len(), 0));
            assert!(error.is_none());
            let templates = configs.len();
            assert_eq!(batched.stats(), per_row.stats(), "{templates} templates");
            let bits = |engine: &JanusEngine, q: &Query| {
                let e = engine.query(q).unwrap().unwrap();
                let variances = (e.catchup_variance.to_bits(), e.sample_variance.to_bits());
                (e.value.to_bits(), variances, e.samples_used)
            };
            for q in &queries {
                let (a, b) = (bits(&batched, q), bits(&per_row, q));
                assert_eq!(a, b, "{templates} templates: {q:?}");
            }
        }
    }
}
