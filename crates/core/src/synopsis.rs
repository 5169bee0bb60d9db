//! The synopsis body the engine is built from (§4.2, §4.3, §5.5): one
//! pooled sample feeding `L` partition trees, each with its strata, its
//! max-variance index **M** and its catch-up queue.
//!
//! [`Synopsis`] is one tree's worth; [`PooledSample`] is the archive, the
//! reservoir drawn from it and the derived-seed sequence. Every reservoir
//! outcome is mirrored into the strata and **M** of every synopsis here,
//! in [`PooledSample::offer`] and [`PooledSample::remove`], and nowhere
//! else. [`crate::engine::JanusEngine`] holds one pool and `L ≥ 1`
//! synopses.

use crate::catchup::CatchupQueue;
use crate::config::SynopsisConfig;
use crate::maxvar::{index_point, MaxVarianceIndex};
use crate::partition::bs1d::Certificate;
use crate::partition::{PartitionOutcome, Partitioner};
use crate::tree::Dpt;
use janus_common::{Result, Row, RowRef};
use janus_sampling::{DeleteOutcome, DynamicReservoir, InsertOutcome};
use janus_storage::ArchiveStore;

/// One template's partition tree with the sample structures that follow
/// the pooled reservoir: the leaf strata (inside `dpt`) and **M**.
pub(crate) struct Synopsis {
    pub(crate) config: SynopsisConfig,
    pub(crate) dpt: Dpt,
    pub(crate) maxvar: MaxVarianceIndex,
    pub(crate) catchup: CatchupQueue,
    /// Why this tree's last armed trigger's candidate was out of reach,
    /// re-checked against **M** by the next one before any cover runs
    /// (`partition::bs1d`, "Certificates"). Never persisted.
    pub(crate) certificate: Option<Certificate>,
    /// The leaf the latest update's path ended in: the one a trigger
    /// check inspects.
    pub(crate) last_leaf: usize,
}

impl Synopsis {
    /// Initialization (§4.3): **M** over the pooled sample, the optimized
    /// partitioning, an empty tree over it with the sample assigned to
    /// its leaf strata, and the catch-up phase. With a `catchup_seed` the
    /// phase is the seeded archive shuffle up to the configured goal;
    /// without one the base statistics are installed exactly by a full
    /// scan and there is nothing to catch up on.
    pub(crate) fn build(
        config: SynopsisConfig,
        pool: &PooledSample,
        catchup_seed: Option<u64>,
    ) -> Result<Self> {
        let archive = &pool.archive;
        let maxvar = Self::index_over(&config, pool);
        let outcome = Partitioner::auto(config.rho).compute(&maxvar, config.leaf_count)?;
        let mut dpt = Self::tree_over(&config, &outcome, archive.len())?;
        assign_strata(&mut dpt, &pool.reservoir);
        let catchup = match catchup_seed {
            Some(seed) => CatchupQueue::over_archive(archive, config.catchup_ratio, seed),
            None => {
                dpt.install_exact_base_columns(archive.blocks());
                CatchupQueue::completed()
            }
        };
        Ok(Synopsis {
            config,
            dpt,
            maxvar,
            catchup,
            certificate: None,
            last_leaf: 0,
        })
    }

    /// **M** for `config`'s template over the pooled sample as it stands.
    pub(crate) fn index_over(config: &SynopsisConfig, pool: &PooledSample) -> MaxVarianceIndex {
        let (rows, population) = (pool.reservoir.iter(), pool.archive.len());
        MaxVarianceIndex::over_sample(&config.template, config.delta, rows, population)
    }

    /// An empty tree over an optimized partitioning of `population` rows.
    pub(crate) fn tree_over(
        config: &SynopsisConfig,
        outcome: &PartitionOutcome,
        population: usize,
    ) -> Result<Dpt> {
        Dpt::build(
            config.template.clone(),
            config.minmax_k,
            &outcome.spec,
            &outcome.leaf_variances,
            population as f64,
        )
    }

    /// Registers a newly sampled row with its stratum and **M**.
    fn admit(&mut self, row: &Row) {
        let point = index_point(&self.config.template, row.as_ref());
        self.dpt.assign_sample(row.id, &point.coords);
        self.maxvar.insert(point);
    }

    /// Drops a row that left the sample from its stratum and from **M**,
    /// which needs the full point to cancel its aggregates.
    fn evict(&mut self, row: RowRef<'_>) {
        self.dpt.remove_sample(row.id);
        self.maxvar.delete(&index_point(&self.config.template, row));
    }

    /// Re-derives the strata and **M** from a reservoir that was replaced
    /// wholesale (§4.2 floor breach, §4.3 step 4).
    pub(crate) fn reset_samples(&mut self, pool: &PooledSample) {
        self.dpt.clear_samples();
        assign_strata(&mut self.dpt, &pool.reservoir);
        self.maxvar = Self::index_over(&self.config, pool);
    }

    /// Restarts the catch-up phase over the archive as it stands, under
    /// the next derived seed (§4.3 step 5).
    pub(crate) fn restart_catchup(&mut self, pool: &mut PooledSample) {
        let seed = pool.next_seed();
        self.catchup = CatchupQueue::over_archive(&pool.archive, self.config.catchup_ratio, seed);
    }

    /// Applies up to `n` catch-up rows; returns how many were applied.
    pub(crate) fn advance_catchup(&mut self, n: usize) -> usize {
        // Field-disjoint borrows: the queue hands out rows, the tree
        // absorbs them — no chunk clone. A row deleted since the queue was
        // drawn is still applied (it was in the epoch snapshot its delete
        // delta is relative to); later inserts are not in the queue.
        let chunk = self.catchup.next_chunk(n);
        for row in chunk.rows() {
            self.dpt.apply_catchup_row(row);
        }
        chunk.len()
    }

    /// Runs catch-up to the configured goal; returns the rows applied.
    pub(crate) fn run_catchup_to_goal(&mut self) -> usize {
        let chunk = self.config.catchup_chunk.max(1);
        let mut applied = 0;
        while !self.catchup.is_complete() {
            applied += self.advance_catchup(chunk);
        }
        applied
    }
}

/// The archive, the pooled reservoir sample drawn from it, and the
/// sequence of seeds every later random draw derives from.
pub(crate) struct PooledSample {
    pub(crate) archive: ArchiveStore,
    pub(crate) reservoir: DynamicReservoir,
    pub(crate) seed: u64,
    pub(crate) seed_counter: u64,
}

impl PooledSample {
    /// Draws the initial pooled sample of `archive` at `sample_rate`.
    /// `salts` tell the reservoir's admission stream and the draw apart
    /// from each other and from the other bootstrap's.
    pub(crate) fn draw(
        archive: ArchiveStore,
        sample_rate: f64,
        seed: u64,
        salts: [u64; 2],
    ) -> Self {
        let reservoir = fresh_reservoir(&archive, sample_rate, seed ^ salts[0], seed ^ salts[1]);
        PooledSample {
            archive,
            reservoir,
            seed,
            seed_counter: 1,
        }
    }

    /// Replaces the reservoir by a fresh one sized for the *current*
    /// population (the paper's `α·N` sample; the table may have grown by
    /// orders of magnitude since bootstrap). The synopses' strata and
    /// **M** are stale until [`Synopsis::reset_samples`].
    pub(crate) fn redraw(&mut self, sample_rate: f64) {
        let reservoir_seed = self.next_seed();
        let draw_seed = self.next_seed();
        self.reservoir = fresh_reservoir(&self.archive, sample_rate, reservoir_seed, draw_seed);
    }

    /// The next seed of the derived sequence.
    pub(crate) fn next_seed(&mut self) -> u64 {
        self.seed_counter = self
            .seed_counter
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(1);
        self.seed ^ self.seed_counter
    }

    /// Offers a row the archive just took in to the reservoir — its last
    /// consumer, so it moves in — and mirrors an admission, and the
    /// eviction a replacement implies, into every synopsis.
    pub(crate) fn offer(&mut self, row: Row, synopses: &mut [Synopsis]) {
        let id = row.id;
        match self.reservoir.offer(row, self.archive.len()) {
            InsertOutcome::Skipped => return,
            InsertOutcome::Added => {}
            InsertOutcome::Replaced { evicted } => {
                // The replaced row is still live: read it where it lives.
                self.archive
                    .with_row(evicted, |old| {
                        for synopsis in synopses.iter_mut() {
                            synopsis.evict(old);
                        }
                    })
                    .expect("replaced sample is live");
            }
        }
        let row = self.reservoir.get(id).expect("row was just admitted");
        for synopsis in synopses {
            synopsis.admit(row);
        }
    }

    /// Removes a row that just left the archive from the reservoir and
    /// mirrors the outcome into every synopsis. At the floor the reservoir
    /// is re-sampled from the archive instead (§4.2); returns whether
    /// that happened.
    pub(crate) fn remove(&mut self, row: &Row, synopses: &mut [Synopsis]) -> bool {
        match self.reservoir.delete(row.id) {
            DeleteOutcome::NotInSample => false,
            DeleteOutcome::Removed => {
                // Gone from the archive: cancel with the copy in hand.
                for synopsis in synopses {
                    synopsis.evict(row.as_ref());
                }
                false
            }
            DeleteOutcome::NeedsResample => {
                let seed = self.next_seed();
                let rows = self.archive.sample_distinct(self.reservoir.target(), seed);
                self.reservoir.reset(rows);
                for synopsis in synopses {
                    synopsis.reset_samples(self);
                }
                true
            }
        }
    }
}

/// Registers every sampled row with the leaf stratum it falls in.
fn assign_strata(dpt: &mut Dpt, reservoir: &DynamicReservoir) {
    let mut point = Vec::new();
    for row in reservoir.iter() {
        dpt.project_into(row, &mut point);
        dpt.assign_sample(row.id, &point);
    }
}

/// A reservoir with floor `m = ⌈rate·|D|⌉` (at least 16) holding `2m`
/// distinct rows of `archive`.
fn fresh_reservoir(
    archive: &ArchiveStore,
    sample_rate: f64,
    reservoir_seed: u64,
    draw_seed: u64,
) -> DynamicReservoir {
    let m = ((sample_rate * archive.len() as f64).ceil() as usize).max(16);
    let mut reservoir = DynamicReservoir::with_m(m, reservoir_seed);
    reservoir.reset(archive.sample_distinct(2 * m, draw_seed));
    reservoir
}
