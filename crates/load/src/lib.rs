//! # janus-load
//!
//! The shard-affine parallel bulk loader: streams a directory of
//! [`janus_data::partitioned`] chunk files into a [`ClusterEngine`]
//! through its one publish body, [`ClusterEngine::publish_batch`], with a
//! per-file resume journal that makes a killed load restart exactly-once.
//!
//! ## The loading model
//!
//! The loader pins one routing policy for the whole load and partitions
//! the *claim space*, not the files: with `T` threads on an `S`-shard
//! cluster, thread `t` owns every shard `s` with `s % T == t`, and
//! publishes exactly the rows the policy places on its shards. Under a
//! range policy the per-chunk `[min, max]` header lets a thread skip
//! whole files that cannot contain its rows — on a range-sorted dataset
//! each thread reads a disjoint stripe of the file set. Threads parallelize chunk reads and decoding only: each flushed
//! buffer is one [`ClusterEngine::publish_batch`], which re-routes its
//! rows under every directory stripe, so publishes serialize.
//!
//! Every thread walks the chunk files in canonical (sorted-name) order
//! and flushes its per-shard buffers in row order at every buffer fill
//! and at every file boundary, so each shard's topic receives its rows
//! as a subsequence of the dataset's canonical row order. That makes the
//! drained cluster state **bit-identical** across thread counts *and*
//! to publishing every row one-by-one in canonical order — the
//! equivalence `tests/bulk_load.rs` pins for every routing policy.
//!
//! **One drain beside the publishers.** The calling thread does not wait
//! idle for the loader threads: while they publish, it sweeps every
//! shard topic into its primary engine ([`ClusterEngine::pump_shard`]),
//! parking on a short [`Backoff`] when the topics are empty, and once
//! they are done a final [`ClusterEngine::pump_all`] applies the rest and
//! catches up the followers. A topic drains in offset order whoever
//! drains it, so the overlap changes *when* a row is applied, never the
//! order: the drained state is the same bits. A failing apply fails the
//! load with its typed error once the loader threads have finished.
//!
//! **One header pass.** Before any thread starts, the loader reads every
//! chunk header once and hands the headers to the threads, so a thread
//! opens only the files its claims need, and each of those once. Nothing
//! is sized ahead from the row counts: shard archives and topics both
//! grow by fixed-size blocks that an append never copies.
//!
//! ## Exactly-once resume
//!
//! With a journal store attached ([`BulkLoader::with_journal`]), the
//! loader persists a [`LoadProgress`] journal — per file, per claimed
//! shard, how many rows it has *attempted* to publish — together with
//! the routing policy and rebalance generation the claims were computed
//! under. Counts are recorded only after the publish call returns, so a
//! kill can only under-count; the resumed load skips the recorded prefix of each
//! (file, shard) claim and re-attempts the unrecorded tail, whose
//! already-published rows the cluster's directory rejects as duplicates
//! without appending anything. Topics — and therefore all drained state
//! — end up bit-identical to an uninterrupted load.
//!
//! A resumed load *always* interprets claims with the journal's policy
//! (that is what the counts mean); a journal policy that does not fit
//! the cluster's shard count fails the load with
//! [`JanusError::InvalidConfig`]. If the live cluster has rebalanced
//! past it — different generation or bounds — the claims still
//! partition the work correctly and the publish body still places every
//! row by the live router, exactly once, but two threads' claims can
//! then feed one shard, so cross-thread interleaving makes topic *order*
//! (not content) scheduling-dependent; [`LoadReport::routed`] says which
//! case a load was.

use janus_cluster::notify::Backoff;
use janus_cluster::{ClusterEngine, ShardOp, ShardPolicy, ShardRouter, PUMP_CHUNK};
use janus_common::{JanusError, Result, Row};
use janus_data::partitioned::{list_chunks, read_chunk, read_chunk_header, ChunkHeader};
use janus_storage::{CheckpointStore, LoadProgress};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The longest the drain parks on empty topics, which is also the most
/// it can lag the loader threads' exit.
const DRAIN_IDLE_MAX: Duration = Duration::from_millis(1);

/// Tuning knobs of a bulk load.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Loader threads requested; 0 is rejected. Capped at the shard
    /// count. Threads parallelize chunk reads and decoding; their
    /// publishes serialize on the directory stripes.
    pub threads: usize,
    /// Rows a per-shard buffer accumulates before it is flushed as one
    /// publish batch (buffers also flush at every file boundary).
    pub batch_rows: usize,
    /// Journal flush cadence: persist the journal every this many
    /// recorded publishes (0 = only the final flush). Smaller means
    /// less re-attempted work after a kill, at more journal writes.
    pub checkpoint_batches: usize,
    /// Apply the loaded rows before returning: the calling thread drains
    /// every shard while the loader threads publish, then a final pump
    /// applies the rest. Off, the load only publishes and the rows wait
    /// in the shard topics for the caller's pump.
    pub pump: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            threads: 1,
            batch_rows: 1024,
            checkpoint_batches: 8,
            pump: true,
        }
    }
}

/// What a load did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Rows appended to shard topics by this load.
    pub rows_published: usize,
    /// Rows the cluster rejected as duplicates (typically the
    /// journal-unrecorded tail a resumed load re-attempted).
    pub rows_rejected: usize,
    /// Rows skipped up front because the journal had recorded them.
    pub rows_skipped: u64,
    /// Chunk files in the dataset.
    pub files: usize,
    /// Loader threads actually used after clamping.
    pub threads: usize,
    /// Whether the journal's claims are the live routing, so the drained
    /// state does not depend on thread scheduling (`false` only for a
    /// resumed journal whose policy or generation the live cluster has
    /// moved past).
    pub routed: bool,
    /// Whether a stop flag interrupted the load before completion.
    pub interrupted: bool,
}

/// A configured bulk load of one dataset directory into one cluster.
pub struct BulkLoader<'a> {
    cluster: &'a ClusterEngine,
    dir: PathBuf,
    config: LoadConfig,
    journal_store: Option<&'a dyn CheckpointStore>,
}

/// How this load publishes and how its claims are interpreted.
struct LoadPlan {
    /// The router claims are computed with — the journal's policy on
    /// resume, the live cluster's otherwise.
    claim: ShardRouter,
    /// Threads after clamping.
    threads: usize,
}

/// The shared journal: progress plus flush pacing, one lock for all
/// threads (touched once per flushed batch, not per row).
struct Journal<'a> {
    store: Option<&'a dyn CheckpointStore>,
    every: usize,
    inner: Mutex<JournalInner>,
}

struct JournalInner {
    progress: LoadProgress,
    next_id: u64,
    since_flush: usize,
}

impl Journal<'_> {
    /// Records one publish attempt and flushes on cadence.
    fn record(&self, file: &str, shard: usize, shards: usize, rows: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.progress.record(file, shard, shards, rows);
        if let Some(store) = self.store {
            inner.since_flush += 1;
            if self.every > 0 && inner.since_flush >= self.every {
                janus_common::faults::check_storage("load.journal")?;
                inner.progress.save(store, inner.next_id)?;
                store.prune(2)?;
                inner.next_id += 1;
                inner.since_flush = 0;
            }
        }
        Ok(())
    }

    /// Persists the final journal so a later resume skips everything.
    fn finish(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(store) = self.store {
            janus_common::faults::check_storage("load.journal")?;
            inner.progress.save(store, inner.next_id)?;
            store.prune(2)?;
            inner.next_id += 1;
            inner.since_flush = 0;
        }
        Ok(())
    }
}

/// What one loader thread tallied.
#[derive(Default)]
struct ThreadOutcome {
    published: usize,
    rejected: usize,
    skipped: u64,
    interrupted: bool,
}

impl<'a> BulkLoader<'a> {
    /// A loader for the chunk files under `dir`, with default tuning.
    pub fn new(cluster: &'a ClusterEngine, dir: impl AsRef<Path>) -> Self {
        BulkLoader {
            cluster,
            dir: dir.as_ref().to_path_buf(),
            config: LoadConfig::default(),
            journal_store: None,
        }
    }

    /// Replaces the tuning knobs.
    pub fn with_config(mut self, config: LoadConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a resume journal: progress persists here, and a journal
    /// already in the store resumes the load it describes.
    pub fn with_journal(mut self, store: &'a dyn CheckpointStore) -> Self {
        self.journal_store = Some(store);
        self
    }

    /// Runs the load to completion.
    pub fn load(&self) -> Result<LoadReport> {
        self.load_with_stop(&AtomicBool::new(false))
    }

    /// Runs the load until done or until `stop` turns true (checked at
    /// file and batch boundaries); a stopped load leaves a consistent
    /// journal behind and reports `interrupted`.
    pub fn load_with_stop(&self, stop: &AtomicBool) -> Result<LoadReport> {
        if self.config.batch_rows == 0 || self.config.threads == 0 {
            return Err(JanusError::InvalidConfig(
                "bulk load needs batch_rows and threads both > 0".into(),
            ));
        }
        // The one header pass: the threads take their file-skip
        // decisions from it.
        let chunks = list_chunks(&self.dir)?
            .into_iter()
            .map(|path| Ok((read_chunk_header(&path)?, path)))
            .collect::<Result<Vec<(ChunkHeader, PathBuf)>>>()?;
        let live = self.cluster.routing_snapshot();

        // Resume or start a journal, and decide the claim policy.
        let resumed = match self.journal_store {
            Some(store) => LoadProgress::load_latest(store)?,
            None => None,
        };
        let (progress, next_id, policy) = match resumed {
            Some((id, progress)) => {
                let policy = ShardPolicy::from_bytes(&progress.policy)?;
                (progress, id + 1, policy)
            }
            None => {
                let progress = LoadProgress::new(live.generation, live.policy.to_bytes());
                (progress, 1, live.policy.clone())
            }
        };
        let routed = progress.generation == live.generation && policy == live.policy;
        let claim = ShardRouter::new(policy, self.cluster.shards())?;
        let threads = self.config.threads.min(claim.shards());
        let plan = LoadPlan { claim, threads };
        let journal = Journal {
            store: self.journal_store,
            every: self.config.checkpoint_batches,
            inner: Mutex::new(JournalInner {
                progress,
                next_id,
                since_flush: 0,
            }),
        };

        let (outcomes, drained) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.threads)
                .map(|tid| {
                    let (chunks, plan, journal) = (&chunks, &plan, &journal);
                    scope.spawn(move || self.run_thread(tid, chunks, plan, journal, stop))
                })
                .collect();
            let drained = if self.config.pump {
                self.drain_while(|| handles.iter().any(|h| !h.is_finished()))
            } else {
                Ok(())
            };
            let outcomes: Vec<Result<ThreadOutcome>> = handles
                .into_iter()
                .map(|h| h.join().expect("loader thread panicked"))
                .collect();
            (outcomes, drained)
        });

        let mut report = LoadReport {
            files: chunks.len(),
            threads: plan.threads,
            routed,
            ..LoadReport::default()
        };
        for outcome in outcomes {
            let outcome = outcome?;
            report.rows_published += outcome.published;
            report.rows_rejected += outcome.rejected;
            report.rows_skipped += outcome.skipped;
            report.interrupted |= outcome.interrupted;
        }
        journal.finish()?;
        drained?;
        if self.config.pump && !report.interrupted {
            self.cluster.pump_all()?;
        }
        Ok(report)
    }

    /// The drain beside the loader threads: sweeps every shard topic
    /// into its primary engine while `loading()` holds, parking while the
    /// topics are empty. Returns at the first failing apply; what it
    /// leaves behind, the final pump applies.
    fn drain_while(&self, loading: impl Fn() -> bool) -> Result<()> {
        let mut backoff = Backoff::capped(DRAIN_IDLE_MAX);
        while loading() {
            let mut applied = 0;
            for shard in 0..self.cluster.shards() {
                applied += self.cluster.pump_shard(shard, PUMP_CHUNK)?;
            }
            if applied == 0 {
                backoff.park();
            } else {
                backoff.reset();
            }
        }
        Ok(())
    }

    /// One loader thread: walk the files in canonical order, keep the
    /// rows the claim router places on shards `s % threads == tid`,
    /// and publish them in order.
    fn run_thread(
        &self,
        tid: usize,
        chunks: &[(ChunkHeader, PathBuf)],
        plan: &LoadPlan,
        journal: &Journal<'_>,
        stop: &AtomicBool,
    ) -> Result<ThreadOutcome> {
        let shards = plan.claim.shards();
        let mut outcome = ThreadOutcome::default();
        // Per-owned-shard row buffers; index by shard for O(1) routing.
        let mut buffers: Vec<Vec<Row>> = vec![Vec::new(); shards];

        'files: for (header, path) in chunks {
            if stop.load(Ordering::Relaxed) {
                outcome.interrupted = true;
                break;
            }
            if !self.file_claims_overlap(header, plan, tid)? {
                continue;
            }
            let name = file_name(path);
            let (_, rows) = read_chunk(path)?;
            // Already-journaled prefix of each (file, claim-shard).
            let recorded = {
                let inner = journal.inner.lock();
                inner.progress.progress(name).map(<[u64]>::to_vec)
            };
            let mut seen = vec![0u64; shards];
            for row in rows {
                let shard = plan.claim.route(&row);
                if shard % plan.threads != tid {
                    continue;
                }
                let skip = recorded
                    .as_ref()
                    .and_then(|r| r.get(shard))
                    .copied()
                    .unwrap_or(0);
                if seen[shard] < skip {
                    seen[shard] += 1;
                    outcome.skipped += 1;
                    continue;
                }
                seen[shard] += 1;
                buffers[shard].push(row);
                if buffers[shard].len() >= self.config.batch_rows {
                    self.flush(
                        shard,
                        &mut buffers[shard],
                        name,
                        plan,
                        journal,
                        &mut outcome,
                    )?;
                    if stop.load(Ordering::Relaxed) {
                        outcome.interrupted = true;
                        break 'files;
                    }
                }
            }
            // Buffers never span files: the journal records per file.
            for shard in (tid..shards).step_by(plan.threads) {
                self.flush(
                    shard,
                    &mut buffers[shard],
                    name,
                    plan,
                    journal,
                    &mut outcome,
                )?;
            }
        }
        Ok(outcome)
    }

    /// Whether `header`'s routing-column range can contain rows claimed
    /// by thread `tid` — the whole-file skip that makes range loads
    /// shard-affine. Non-range claims never skip files.
    fn file_claims_overlap(
        &self,
        header: &ChunkHeader,
        plan: &LoadPlan,
        tid: usize,
    ) -> Result<bool> {
        let &ShardPolicy::Range { column, .. } = plan.claim.policy() else {
            return Ok(true);
        };
        if column >= header.arity {
            return Err(JanusError::InvalidConfig(format!(
                "routing column {column} out of chunk arity {}",
                header.arity
            )));
        }
        // Range routing is monotone in the column, so the shards of the
        // header's min and max bracket every shard the file can feed.
        let probe = |v: f64| {
            let mut values = vec![0.0; header.arity];
            values[column] = v;
            plan.claim.route(&Row::new(u64::MAX, values))
        };
        let (lo, hi) = (probe(header.min[column]), probe(header.max[column]));
        Ok((lo..=hi).any(|s| s % plan.threads == tid))
    }

    /// Publishes one per-shard buffer, then journals the attempt.
    fn flush(
        &self,
        shard: usize,
        buffer: &mut Vec<Row>,
        file: &str,
        plan: &LoadPlan,
        journal: &Journal<'_>,
        outcome: &mut ThreadOutcome,
    ) -> Result<()> {
        if buffer.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(buffer);
        let attempted = rows.len() as u64;
        let report = self
            .cluster
            .publish_batch(rows.into_iter().map(ShardOp::Insert));
        outcome.published += report.published;
        outcome.rejected += report.rejected;
        journal.record(file, shard, plan.claim.shards(), attempted)
    }
}

fn file_name(path: &Path) -> &str {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("<chunk>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_cluster::{ClusterConfig, ClusterEngine};
    use janus_common::{AggregateFunction, QueryTemplate};
    use janus_core::SynopsisConfig;
    use janus_data::partitioned::{generate_partitioned, PartitionedSpec};
    use janus_storage::MemoryCheckpointStore;

    fn small_cluster(shards: usize, policy: ShardPolicy) -> ClusterEngine {
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let mut base = SynopsisConfig::paper_default(template, 42);
        base.leaf_count = 8;
        base.sample_rate = 0.2;
        let seed: Vec<Row> = (0..400u64)
            .map(|i| Row::new(1_000_000 + i, vec![(i % 100) as f64, 1.0]))
            .collect();
        ClusterEngine::bootstrap(ClusterConfig::new(base, shards, policy), seed).unwrap()
    }

    fn dataset(tag: &str, rows: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "janus-load-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        generate_partitioned(&dir, &PartitionedSpec::uniform_sorted(rows, 64, 9)).unwrap();
        dir
    }

    #[test]
    fn loads_every_row_exactly_once() {
        let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
        let cluster = small_cluster(4, policy);
        let before = cluster.population();
        let dir = dataset("basic", 1_000);
        let report = BulkLoader::new(&cluster, &dir)
            .with_config(LoadConfig {
                threads: 4,
                batch_rows: 100,
                ..LoadConfig::default()
            })
            .load()
            .unwrap();
        assert!(report.routed);
        assert_eq!(report.threads, 4);
        assert_eq!(report.rows_published, 1_000);
        assert_eq!(report.rows_rejected, 0);
        assert_eq!(report.rows_skipped, 0);
        assert_eq!(cluster.population(), before + 1_000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reloading_rejects_everything_as_duplicates() {
        let cluster = small_cluster(2, ShardPolicy::HashById);
        let dir = dataset("dup", 500);
        let loader = BulkLoader::new(&cluster, &dir);
        assert_eq!(loader.load().unwrap().rows_published, 500);
        let again = loader.load().unwrap();
        assert_eq!(again.rows_published, 0);
        assert_eq!(again.rows_rejected, 500);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_resume_skips_recorded_work() {
        let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 2).unwrap();
        let cluster = small_cluster(2, policy);
        let dir = dataset("journal", 600);
        let store = MemoryCheckpointStore::new();
        let first = BulkLoader::new(&cluster, &dir)
            .with_journal(&store)
            .load()
            .unwrap();
        assert_eq!(first.rows_published, 600);
        assert!(store.latest_id().is_some(), "journal persisted");
        let resumed = BulkLoader::new(&cluster, &dir)
            .with_journal(&store)
            .load()
            .unwrap();
        assert_eq!(resumed.rows_skipped, 600, "everything journaled");
        assert_eq!(resumed.rows_published, 0);
        assert_eq!(resumed.rows_rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_policy_that_does_not_fit_the_cluster_fails_typed() {
        let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 2).unwrap();
        let cluster = small_cluster(2, policy);
        let dir = dataset("misfit", 300);
        let store = MemoryCheckpointStore::new();
        let four = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
        LoadProgress::new(0, four.to_bytes())
            .save(&store, 1)
            .unwrap();
        let err = BulkLoader::new(&cluster, &dir).with_journal(&store).load();
        assert!(matches!(err, Err(JanusError::InvalidConfig(_))), "{err:?}");
        assert_eq!(cluster.pending(), 0, "a rejected load publishes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_pump_the_load_publishes_and_applies_nothing() {
        let cluster = small_cluster(4, ShardPolicy::HashById);
        let before = cluster.population();
        let dir = dataset("nopump", 800);
        let report = BulkLoader::new(&cluster, &dir)
            .with_config(LoadConfig {
                threads: 2,
                batch_rows: 50,
                pump: false,
                ..LoadConfig::default()
            })
            .load()
            .unwrap();
        assert_eq!(report.rows_published, 800);
        assert_eq!(cluster.pending(), report.rows_published as u64);
        assert_eq!(cluster.population(), before, "nothing applied");
        cluster.pump_all().unwrap();
        assert_eq!(cluster.population(), before + 800);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_batch_rows_is_rejected() {
        let cluster = small_cluster(1, ShardPolicy::HashById);
        let dir = dataset("cfg", 10);
        for config in [
            LoadConfig {
                batch_rows: 0,
                ..LoadConfig::default()
            },
            LoadConfig {
                threads: 0,
                ..LoadConfig::default()
            },
        ] {
            let err = BulkLoader::new(&cluster, &dir).with_config(config).load();
            assert!(matches!(err, Err(JanusError::InvalidConfig(_))), "{err:?}");
        }
        assert_eq!(cluster.pending(), 0, "a rejected load publishes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
