//! The cluster façade: N `JanusEngine` shards behind one ingest/query API.
//!
//! * **Ingest** is published to one Kafka-like topic per shard
//!   ([`janus_storage::ShardedLog`]); a [`ShardRouter`] picks the topic.
//!   The publish path is [`ClusterEngine::publish_batch`]: a whole
//!   batch of operations is routed under **one** router-write +
//!   directory-write acquisition, grouped per shard, and each group lands
//!   in its topic with a single batch append —
//!   [`ClusterEngine::publish_insert`]/[`ClusterEngine::publish_delete`]
//!   are one-element batches for row-at-a-time producers. Nothing
//!   reaches a synopsis until the topics are drained in offset order — by
//!   [`ClusterEngine::pump`] (all shards, on the persistent worker pool)
//!   or [`ClusterEngine::pump_shard`] (one shard, the granularity the
//!   [`crate::live::LiveCluster`] background workers use) — so per-shard
//!   catch-up is independent, back-pressure is explicit, and replay from
//!   offset zero is deterministic. Each drained batch is applied under
//!   one shard-lock acquisition through the engine's batch-apply entry
//!   point ([`JanusEngine::apply_update_batch`]).
//! * **Queries** scatter to every shard whose slab the predicate can touch
//!   (all shards under discrete policies) through
//!   [`ScatterPool::fan_out`] — one target on the calling thread, several
//!   in parallel on the long-lived per-shard pool workers, no thread
//!   spawned per query — and the per-shard [`Estimate`]s come back in
//!   shard order and are merged by [`janus_common::merge::gather`], the
//!   one merge every coordinator shares: COUNT/SUM add values and per-source
//!   variances; AVG is re-derived from merged SUM/COUNT moment estimates
//!   (each shard answers through the
//!   [`JanusEngine::answer_sum_count`] moment hook); MIN/MAX take the
//!   extreme answer.
//! * **Re-partitioning** stays local to each shard (its own triggers keep
//!   firing); the cluster level adds a row-count skew check with
//!   hysteresis (a cooldown in pumped records plus a minimum skew-ratio
//!   gain over the last migration's result) and a snapshot-shipping
//!   migration — see [`crate::rebalance`].
//!
//! ## Locking model
//!
//! Every public operation takes `&self`: state is sharded across locks so
//! ingest, pumping, and scatter-gather queries proceed concurrently on
//! different shards instead of serializing on one `&mut self` borrow.
//!
//! | state | lock | writers |
//! |---|---|---|
//! | each `Shard` (engine + consumed offset) | own `RwLock` | pump, rebalance (scatter sub-queries only read) |
//! | [`ShardRouter`] | `RwLock` | publish (rotation cursor), rebalance (bounds) |
//! | row→shard directory | 16 striped `RwLock`s (`crate::directory`) | publish, rebalance |
//! | ingest gate | `RwLock<()>` | checkpoint, fail_shard (exclusive); routed publish (shared) |
//! | operation counters | atomics | everyone |
//!
//! Lock order is router → ingest gate → directory stripes (ascending
//! stripe index) → shards (ascending) → replica sets; no path acquires
//! them in any other order — the pool workers touch only shard and
//! replica locks — so the engine is deadlock-free by construction.
//! Classic publishes hold every directory stripe across their topic
//! appends, and take the router write lock first — which a routed publish
//! holds shared for its whole call — so a delete can never outrun its
//! row's insert into the same shard topic.
//!
//! ## The pre-routed fast path
//!
//! [`ClusterEngine::publish_batch_routed`] is the bulk-ingest contract:
//! the caller groups insert batches by shard against a
//! [`RoutingSnapshot`] taken via [`ClusterEngine::routing_snapshot`], and
//! the engine lands them under a router **read** lock — concurrent
//! loaders do not serialize on the router, and the striped directory
//! confines their placement writes to the stripes their rows hash to.
//! Safety comes from three checks inside the call: the snapshot's
//! rebalance generation must still be current, the policy must be
//! stateless (`RoundRobin` placement is cursor-dependent and cannot be
//! pre-routed), and every row's claimed shard is re-verified against the
//! live bounds; any miss re-routes the whole call through the classic
//! [`ClusterEngine::publish_batch`] path. Either way the per-shard topic
//! contents — and therefore every drained state — are bit-identical to
//! publishing the same rows one at a time in group order. Checkpoint and
//! fail-shard exclude routed publishers with the ingest gate instead of
//! the router write lock, keeping queries live while the cut is taken.

use crate::bootstrap::{build_shards, partition_rows, shard_config};
use crate::cache::{AnswerCache, QueryKey};
use crate::checkpoint::{ClusterCheckpoint, RouterSnapshot, ShardCheckpoint};
use crate::directory::{resolve_batch, StripedDirectory};
use crate::rebalance::{self, RebalanceReport};
use crate::router::{RoutingSnapshot, ShardPolicy, ShardRouter};
use crate::scatter::{Priority, ScatterPool};
use janus_common::merge::{self, SubAnswer};
use janus_common::{
    AggregateFunction, DetHashMap, Estimate, JanusError, Query, Result, Row, RowId,
};
use janus_core::{JanusEngine, SynopsisConfig};
use janus_storage::ShardedLog;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One record of a shard's ingest topic: the engine's own update type,
/// so a drained batch feeds [`JanusEngine::apply_update_batch`] as is.
pub use janus_core::concurrent::Update as ShardOp;

/// Configuration of a [`ClusterEngine`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-shard synopsis configuration; shard `i` runs with
    /// `base.seed` mixed with `i` so shard samples are independent.
    pub base: SynopsisConfig,
    /// Number of shards.
    pub shards: usize,
    /// Routing policy.
    pub policy: ShardPolicy,
    /// Records drained per shard per [`ClusterEngine::pump`] call.
    pub pump_chunk: usize,
    /// Cluster rebalance trigger: a shard holding at least this factor
    /// times the median shard population triggers a range-split migration
    /// on the next [`ClusterEngine::maybe_rebalance`]. `None` disables.
    pub skew_factor: Option<f64>,
    /// Rebalance hysteresis, part 1: after a migration, at least this
    /// many records must be pumped into primaries before the skew trigger
    /// is evaluated again. `0` (the default) disables the cooldown.
    pub rebalance_cooldown: u64,
    /// Rebalance hysteresis, part 2: a new migration runs only when the
    /// current skew ratio (largest shard / median shard) exceeds the
    /// ratio measured right after the previous migration by at least this
    /// much — repeated triggers on a skew the last migration could not
    /// improve would otherwise thrash. `0.0` (the default) disables it.
    pub rebalance_min_gain: f64,
    /// Follower engines per shard. Each follower is built with the same
    /// per-shard seed and tails the same topic as its primary, so at
    /// equal offsets it is *bit-identical* to the primary — which is what
    /// makes replica-served reads exact and
    /// [`ClusterEngine::fail_shard`] promotion lossless. `0` disables
    /// replication.
    pub replicas: usize,
    /// Freshness gate for replica-served reads: a follower may answer a
    /// sub-query only while it trails its topic's end by at most this
    /// many records. `0` (the default) serves from fully-caught-up
    /// replicas only, so replica answers are indistinguishable from
    /// primary answers.
    pub replica_lag: u64,
    /// Capacity of the scatter-answer memo (entries). `0` (the default)
    /// disables caching entirely, leaving the query path untouched. See
    /// [`ClusterConfig::with_answer_cache`] for the offset-based
    /// invalidation rule.
    pub answer_cache: usize,
}

impl ClusterConfig {
    /// A cluster of `shards` engines with the given per-shard synopsis
    /// config and policy, paper-ish pump chunk, and the 2x skew trigger
    /// enabled (without hysteresis — see
    /// [`ClusterConfig::with_rebalance_hysteresis`]).
    pub fn new(base: SynopsisConfig, shards: usize, policy: ShardPolicy) -> Self {
        ClusterConfig {
            base,
            shards,
            policy,
            pump_chunk: 4096,
            skew_factor: Some(2.0),
            rebalance_cooldown: 0,
            rebalance_min_gain: 0.0,
            replicas: 0,
            replica_lag: 0,
            answer_cache: 0,
        }
    }

    /// Enables `replicas` follower engines per shard (builder-style).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Selects the archive backend every shard engine runs its cold
    /// store on (builder-style): in-memory columnar by default, or the
    /// segmented file-backed spill store for tables larger than RAM.
    /// The representation never changes answers — restored and forked
    /// engines stay bit-identical either way.
    pub fn with_archive_backend(mut self, kind: janus_storage::ArchiveBackendKind) -> Self {
        self.base.archive_backend = kind;
        self
    }

    /// Enables rebalance hysteresis (builder-style): a migration runs at
    /// most every `cooldown` pumped records, and only when the skew ratio
    /// has grown by at least `min_gain` since the previous migration's
    /// result.
    pub fn with_rebalance_hysteresis(mut self, cooldown: u64, min_gain: f64) -> Self {
        self.rebalance_cooldown = cooldown;
        self.rebalance_min_gain = min_gain;
        self
    }

    /// Enables the answer cache with room for `capacity` memoized gathers
    /// (builder-style). Each entry snapshots the rebalance generation and
    /// the applied topic offset of every shard its query covered; a write
    /// pumped into any covered shard — or any rebalance — invalidates the
    /// entry on its next lookup, so a hit always returns bit-identically
    /// what a fresh scatter against the same shard states would. `0`
    /// disables caching.
    pub fn with_answer_cache(mut self, capacity: usize) -> Self {
        self.answer_cache = capacity;
        self
    }
}

/// Per-call serving options for [`ClusterEngine::query_with`].
///
/// The default — bulk lane, no deadline, cache allowed — makes
/// `query_with(q, QueryOptions::default())` behave exactly like
/// [`ClusterEngine::query`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryOptions {
    /// Pool lane the scatter's sub-queries ride. Interactive jobs
    /// overtake queued bulk work at job boundaries; scheduling-only,
    /// never changes answers.
    pub priority: Priority,
    /// Gather budget. `None` waits for every covered shard (the classic
    /// path); `Some(budget)` returns after the budget with whatever
    /// shards answered, merged k-of-n style and flagged
    /// [`Estimate::partial`] if any shard holding rows was missed.
    pub deadline: Option<Duration>,
    /// Whether this call may consult and populate the cluster's answer
    /// cache. Ignored when [`ClusterConfig::with_answer_cache`] never
    /// enabled one.
    pub use_cache: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            priority: Priority::Bulk,
            deadline: None,
            use_cache: true,
        }
    }
}

impl QueryOptions {
    /// Interactive-lane options with no deadline and caching allowed —
    /// the front-end default for latency-sensitive tenants.
    pub fn interactive() -> Self {
        QueryOptions {
            priority: Priority::Interactive,
            ..QueryOptions::default()
        }
    }

    /// Sets the gather budget (builder-style).
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Opts this call out of the answer cache (builder-style).
    pub fn no_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }
}

/// One shard: a synopsis engine plus its consumption offset into its topic.
pub(crate) struct Shard {
    pub(crate) engine: JanusEngine,
    pub(crate) offset: u64,
}

/// Outcome of one [`ClusterEngine::publish_batch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishReport {
    /// Operations routed and appended to shard topics.
    pub published: usize,
    /// Operations rejected before publication (duplicate insert, delete
    /// of an unknown row) — counted and skipped; the per-row wrappers
    /// report them as errors.
    pub rejected: usize,
}

/// Operation counters plus a pump-lag snapshot for the cluster layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterStats {
    /// Inserts published.
    pub inserts: u64,
    /// Deletes published.
    pub deletes: u64,
    /// Queries answered (scatter-gather round trips).
    pub queries: u64,
    /// Per-shard sub-queries dispatched across all scatters.
    pub subqueries: u64,
    /// Records drained from topics into shard engines.
    pub pumped: u64,
    /// Cluster-level rebalance migrations executed.
    pub rebalances: u64,
    /// Rows moved between shards by rebalancing.
    pub rows_migrated: u64,
    /// Sub-queries served by replica shards instead of primaries.
    pub replica_queries: u64,
    /// Replica promotions executed by [`ClusterEngine::fail_shard`].
    pub promotions: u64,
    /// Deadline-bounded answers returned from a strict subset of the
    /// covered shards (the estimate carried `partial: true`).
    pub partial_answers: u64,
    /// Queries answered from the scatter-answer memo without scattering.
    pub cache_hits: u64,
    /// Cache-enabled queries that had to scatter (no entry, or the entry
    /// was invalidated by a pumped write or a rebalance).
    pub cache_misses: u64,
    /// Pump lag at snapshot time: records published but not yet applied,
    /// per shard in shard order.
    pub shard_backlog: Vec<u64>,
}

impl ClusterStats {
    /// The most-behind shard's backlog (0 for an empty cluster).
    pub fn backlog_max(&self) -> u64 {
        self.shard_backlog.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-shard backlog (0 for an empty cluster).
    pub fn backlog_mean(&self) -> f64 {
        if self.shard_backlog.is_empty() {
            0.0
        } else {
            self.shard_backlog.iter().sum::<u64>() as f64 / self.shard_backlog.len() as f64
        }
    }
}

/// Lock-free operation counters (relaxed: they are metrics, not fences).
#[derive(Default)]
pub(crate) struct Counters {
    inserts: AtomicU64,
    deletes: AtomicU64,
    queries: AtomicU64,
    subqueries: AtomicU64,
    pub(crate) pumped: AtomicU64,
    pub(crate) rebalances: AtomicU64,
    rows_migrated: AtomicU64,
    replica_queries: AtomicU64,
    promotions: AtomicU64,
    partial_answers: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// The shard-side state the façade shares with the jobs it hands the
/// worker pool: topics, primary and follower engines, the backlog gauges,
/// and the counters both sides maintain. Everything a scatter or pump job
/// touches lives here — the router, directory, and rebalance state stay
/// exclusive to [`ClusterEngine`], so pool workers can never participate
/// in a router→directory lock ordering.
pub(crate) struct ShardSet {
    /// Shard topics are `Arc`-shared: like Kafka partitions they are
    /// durable *infrastructure*, not engine state, and surviving the
    /// engine is what lets [`ClusterEngine::restore`] replay them.
    pub(crate) log: Arc<ShardedLog<ShardOp>>,
    pub(crate) shards: Vec<RwLock<Shard>>,
    /// Follower engines per shard (outer lock: membership, changed only
    /// by promotion; inner locks: one per follower). Each follower tails
    /// the primary's topic at its own offset. Lock order extends the
    /// engine-wide order: primary shard → its replica set → one replica.
    pub(crate) replicas: Vec<RwLock<Vec<RwLock<Shard>>>>,
    /// Round-robin cursor spreading sub-queries across a shard's primary
    /// and its fresh replicas.
    read_cursor: AtomicU64,
    /// Per-shard published-minus-applied record counts, maintained at
    /// publish/pump time so the backpressure probe is a handful of
    /// relaxed loads instead of lock acquisitions.
    pub(crate) backlog: Vec<AtomicU64>,
    pub(crate) counters: Counters,
    /// Configured follower count (`ClusterConfig::replicas`).
    replica_count: usize,
    /// Configured freshness gate (`ClusterConfig::replica_lag`).
    replica_lag: u64,
    /// Per-shard artificial delay (ms) before a *pooled* sub-query is
    /// served — see [`ClusterEngine::inject_scatter_delay`].
    stall_ms: Vec<AtomicU64>,
}

impl ShardSet {
    /// One pump step of `shard`, the entry every pump path shares: up to
    /// `max_primary` records into the primary under its write lock, then
    /// up to `max_follower` into each follower; a side whose maximum is 0
    /// is not locked. Both sides drain in the same mode, which is
    /// load-bearing. Strict, a failing record stays at the head of both
    /// cursors: a follower must never advance past a record its primary
    /// still holds, or a later promotion would silently drop it. Lossy
    /// (`skip_failed`), followers are bit-identical to the primary, so a
    /// record it skipped fails, and is skipped, identically on each.
    /// Returns `(applied, skipped, followers, first_error)`: the
    /// primary's counts and error, and the records consumed across all
    /// followers, whose progress touches neither the backlog gauge nor
    /// the `pumped` counter.
    pub(crate) fn pump(
        &self,
        shard: usize,
        max_primary: usize,
        max_follower: usize,
        skip_failed: bool,
    ) -> (usize, usize, usize, Option<JanusError>) {
        let (applied, skipped, first_error) = if max_primary > 0 {
            let mut guard = self.shards[shard].write();
            self.drain_locked(shard, &mut guard, max_primary, skip_failed)
        } else {
            (0, 0, None)
        };
        let mut followers = 0;
        if max_follower > 0 {
            for replica in self.replicas[shard].read().iter() {
                let mut guard = replica.write();
                let (a, s, _) =
                    drain_topic(&self.log, shard, &mut guard, max_follower, skip_failed);
                followers += a + s;
            }
        }
        (applied, skipped, followers, first_error)
    }

    /// Primary-shard drain — callers hold the shard's write guard. Wraps
    /// the shared [`drain_topic`] batch apply and maintains the `pumped`
    /// counter and the shard's atomic backlog gauge, so offset-advance,
    /// counter, and gauge semantics cannot drift between pump paths.
    pub(crate) fn drain_locked(
        &self,
        shard: usize,
        guard: &mut Shard,
        max: usize,
        skip_failed: bool,
    ) -> (usize, usize, Option<JanusError>) {
        let (applied, skipped, first_error) =
            drain_topic(&self.log, shard, guard, max, skip_failed);
        self.counters
            .pumped
            .fetch_add(applied as u64, Ordering::Relaxed);
        self.backlog[shard].fetch_sub((applied + skipped) as u64, Ordering::Relaxed);
        (applied, skipped, first_error)
    }

    /// Serves one sub-query in the shape the gather needs — the worker
    /// entry point.
    pub(crate) fn serve(&self, shard: usize, query: &Query) -> Result<SubAnswer> {
        if query.agg == AggregateFunction::Avg {
            self.serve_shard_query(shard, &|e| e.answer_sum_count(query))
                .map(|(sum, count)| SubAnswer::Moments { sum, count })
        } else {
            self.serve_shard_query(shard, &|e| e.query(query))
                .map(|answer| answer.map_or(SubAnswer::Empty, SubAnswer::Estimate))
        }
    }

    /// Runs one sub-query against `shard`, load-balancing across the
    /// primary and its *fresh* followers (round-robin). A follower is
    /// fresh while it trails the topic end by at most `replica_lag`
    /// records; at the default of 0 only fully caught-up followers —
    /// whose engines are bit-identical to a fully caught-up primary —
    /// serve, so replica answers are exact. Stale followers are skipped,
    /// and the primary always remains a candidate, so a lagging replica
    /// set degrades to primary-only reads rather than stale answers.
    fn serve_shard_query<T>(
        &self,
        shard: usize,
        f: &(impl Fn(&JanusEngine) -> Result<T> + Sync),
    ) -> Result<T> {
        if self.replica_count > 0 {
            let set = self.replicas[shard].read();
            if !set.is_empty() {
                let end = self.log.topic(shard).len() as u64;
                let lag = self.replica_lag;
                // The guard that passed the freshness check is the guard
                // the answer runs under: a follower cannot be judged fresh
                // and then answer from a different offset.
                let mut fresh: Vec<_> = set
                    .iter()
                    .map(|r| r.read())
                    .filter(|r| end.saturating_sub(r.offset) <= lag)
                    .collect();
                let pick =
                    self.read_cursor.fetch_add(1, Ordering::Relaxed) as usize % (fresh.len() + 1);
                if pick > 0 {
                    self.counters
                        .replica_queries
                        .fetch_add(1, Ordering::Relaxed);
                    let replica = fresh.swap_remove(pick - 1);
                    drop(fresh);
                    return f(&replica.engine);
                }
            }
        }
        f(&self.shards[shard].read().engine)
    }
}

/// N `JanusEngine` shards behind one scatter-gather façade. All methods
/// take `&self` — see the module docs for the locking model.
pub struct ClusterEngine {
    config: ClusterConfig,
    router: RwLock<ShardRouter>,
    /// Authoritative row → shard placement, updated at publish time and by
    /// migrations; deletes and rebalancing route through it, so placement
    /// stays correct even after the router's bounds move. Striped over 16
    /// locks so concurrent pre-routed publishers don't serialize on one
    /// write lock — see [`crate::directory`] for the stripe discipline.
    directory: StripedDirectory,
    /// The ingest gate: routed publishers hold it shared for the span of
    /// a [`ClusterEngine::publish_batch_routed`] call (they never take
    /// the router *write* lock); checkpoint and fail-shard take it
    /// exclusively to fence all topic appends without blocking queries
    /// behind a router write. Sits between the router and the directory
    /// stripes in the lock order.
    ingest_gate: RwLock<()>,
    /// Bumped (under all locks) by every completed migration; queries
    /// re-validate their pruning against it so a scatter never merges a
    /// pre-migration target set with post-migration shard contents.
    rebalance_generation: AtomicU64,
    /// `pumped` counter value at the moment of the last executed
    /// migration — the clock the rebalance cooldown runs on.
    rebalance_mark: AtomicU64,
    /// Skew ratio (as `f64::to_bits`) measured right after the last
    /// migration — the baseline the `rebalance_min_gain` hysteresis
    /// compares against.
    post_rebalance_skew: AtomicU64,
    /// Shard-side state shared with the pool's jobs and the live workers.
    pub(crate) set: Arc<ShardSet>,
    /// One worker per shard under scatters and `pump`; joined on drop.
    pool: ScatterPool,
    /// Scatter-answer memo, present when `config.answer_cache > 0`.
    cache: Option<AnswerCache>,
}

impl ClusterEngine {
    /// Partitions `rows` by the configured policy and bootstraps one
    /// engine per shard (empty shards bootstrap lazily on first insert is
    /// *not* supported by the underlying engine, so every shard gets at
    /// least its slab's rows; tiny shards are fine).
    pub fn bootstrap(config: ClusterConfig, rows: Vec<Row>) -> Result<Self> {
        if config.shards == 0 {
            return Err(JanusError::InvalidConfig("need at least one shard".into()));
        }
        let mut router = ShardRouter::new(config.policy.clone(), config.shards)?;
        let (per_shard, directory) = partition_rows(&mut router, rows)?;
        // Followers bootstrap from the same rows with the same per-shard
        // seed as their primary: identical construction + identical topic
        // replay keeps them bit-identical at equal offsets.
        let replica_sets =
            crate::bootstrap::build_replicas(&config.base, &per_shard, config.replicas)?;
        let shards = build_shards(&config.base, per_shard)?;
        let n_shards = config.shards;
        let log = Arc::new(ShardedLog::new(n_shards));
        let backlog = (0..n_shards).map(|_| AtomicU64::new(0)).collect();
        Ok(Self::assemble(
            config,
            router,
            directory,
            shards,
            replica_sets,
            log,
            backlog,
            0,
        ))
    }

    /// Final assembly shared by [`ClusterEngine::bootstrap`] and
    /// [`ClusterEngine::restore`]: wraps the state into the shared
    /// [`ShardSet`] and starts the worker pool over it.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        config: ClusterConfig,
        router: ShardRouter,
        directory: DetHashMap<RowId, usize>,
        shards: Vec<Shard>,
        replica_sets: Vec<Vec<Shard>>,
        log: Arc<ShardedLog<ShardOp>>,
        backlog: Vec<AtomicU64>,
        rebalance_generation: u64,
    ) -> Self {
        let set = Arc::new(ShardSet {
            log,
            shards: shards.into_iter().map(RwLock::new).collect(),
            replicas: replica_sets
                .into_iter()
                .map(|set| RwLock::new(set.into_iter().map(RwLock::new).collect()))
                .collect(),
            read_cursor: AtomicU64::new(0),
            backlog,
            counters: Counters::default(),
            replica_count: config.replicas,
            replica_lag: config.replica_lag,
            stall_ms: (0..config.shards).map(|_| AtomicU64::new(0)).collect(),
        });
        let pool = ScatterPool::start("janus-scatter", config.shards);
        let cache = (config.answer_cache > 0).then(|| AnswerCache::new(config.answer_cache));
        ClusterEngine {
            config,
            router: RwLock::new(router),
            directory: StripedDirectory::from_map(directory),
            ingest_gate: RwLock::new(()),
            rebalance_generation: AtomicU64::new(rebalance_generation),
            rebalance_mark: AtomicU64::new(0),
            post_rebalance_skew: AtomicU64::new(0f64.to_bits()),
            set,
            pool,
            cache,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.set.shards.len()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The routing policy currently in force (bounds reflect past
    /// rebalances).
    pub fn policy(&self) -> ShardPolicy {
        self.router.read().policy().clone()
    }

    /// A shared handle to the shard topics. Topics are durable
    /// infrastructure (the Kafka side of the deployment): they outlive
    /// the engine, and a handle taken before a crash is what
    /// [`ClusterEngine::restore`] replays from.
    pub fn topics(&self) -> Arc<ShardedLog<ShardOp>> {
        Arc::clone(&self.set.log)
    }

    /// Live follower count of one shard (shrinks when a promotion
    /// consumes a replica).
    pub fn replica_count(&self, shard: usize) -> usize {
        self.set.replicas[shard].read().len()
    }

    /// Topic offsets of one shard's followers, in replica order.
    pub fn replica_offsets(&self, shard: usize) -> Vec<u64> {
        self.set.replicas[shard]
            .read()
            .iter()
            .map(|r| r.read().offset)
            .collect()
    }

    /// Cluster-level operation counters and the current pump-lag snapshot.
    pub fn stats(&self) -> ClusterStats {
        let counters = &self.set.counters;
        ClusterStats {
            inserts: counters.inserts.load(Ordering::Relaxed),
            deletes: counters.deletes.load(Ordering::Relaxed),
            queries: counters.queries.load(Ordering::Relaxed),
            subqueries: counters.subqueries.load(Ordering::Relaxed),
            pumped: counters.pumped.load(Ordering::Relaxed),
            rebalances: counters.rebalances.load(Ordering::Relaxed),
            rows_migrated: counters.rows_migrated.load(Ordering::Relaxed),
            replica_queries: counters.replica_queries.load(Ordering::Relaxed),
            promotions: counters.promotions.load(Ordering::Relaxed),
            partial_answers: counters.partial_answers.load(Ordering::Relaxed),
            cache_hits: counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: counters.cache_misses.load(Ordering::Relaxed),
            shard_backlog: self.shard_backlogs(),
        }
    }

    /// Rows applied across all shard engines.
    pub fn population(&self) -> usize {
        self.set
            .shards
            .iter()
            .map(|s| s.read().engine.population())
            .sum()
    }

    /// Applied rows per shard, in shard order.
    pub fn shard_populations(&self) -> Vec<usize> {
        self.set
            .shards
            .iter()
            .map(|s| s.read().engine.population())
            .collect()
    }

    /// Records published but not yet pumped, per shard in shard order.
    /// Read without a global lock, so under concurrent pumping the values
    /// can only *under*-state the true lag — never overstate it.
    pub fn shard_backlogs(&self) -> Vec<u64> {
        self.set
            .log
            .end_offsets()
            .iter()
            .zip(&self.set.shards)
            .map(|(end, s)| end.saturating_sub(s.read().offset))
            .collect()
    }

    /// The per-shard backlog *gauges* (the atomics the backpressure probe
    /// reads), in shard order. In any quiesced state they equal
    /// [`ClusterEngine::shard_backlogs`] — `published - applied` per
    /// shard — which the batching tests pin down; under concurrent
    /// pumping a gauge may transiently overstate the lag between a
    /// pump's application and its decrement.
    pub fn backlog_gauges(&self) -> Vec<u64> {
        self.set
            .backlog
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Rows the row → shard directory currently places — published
    /// inserts minus published deletes, whether or not pumped yet.
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }

    /// Records published but not yet pumped into shard engines.
    pub fn pending(&self) -> u64 {
        self.shard_backlogs().iter().sum()
    }

    /// Records drained into primary shard engines so far — the cheap
    /// (one relaxed load, no allocation) progress gauge the live
    /// checkpointer paces itself by.
    pub fn pumped_records(&self) -> u64 {
        self.set.counters.pumped.load(Ordering::Relaxed)
    }

    /// True when any shard's publish-ahead backlog has reached `limit` —
    /// the backpressure probe the live front end calls per batch. Reads
    /// only the per-shard atomic counters (no locks, no allocation); the
    /// counters can transiently *over*state the lag between a pump's
    /// application and its decrement, which errs on the safe side for
    /// backpressure (a spurious stall, never a missed one).
    pub fn backlog_exceeds(&self, limit: u64) -> bool {
        self.set
            .backlog
            .iter()
            .any(|b| b.load(Ordering::Relaxed) >= limit)
    }

    /// Runs `f` against one shard's engine (experiments and tests).
    pub fn with_shard_engine<T>(&self, shard: usize, f: impl FnOnce(&JanusEngine) -> T) -> T {
        f(&self.set.shards[shard].read().engine)
    }

    // ------------------------------------------------------------------
    // Ingest: publish → topic, pump → engine
    // ------------------------------------------------------------------

    /// Routes an insert to its shard topic — a one-element
    /// [`ClusterEngine::publish_batch`]. The row is visible to queries
    /// after the next pump that drains it.
    pub fn publish_insert(&self, row: Row) -> Result<()> {
        let id = row.id;
        match self.publish_batch([ShardOp::Insert(row)]).rejected {
            0 => Ok(()),
            _ => Err(JanusError::InvalidConfig(format!("duplicate row id {id}"))),
        }
    }

    /// Routes a delete to the shard actually holding the row (directory
    /// lookup, so placement survives round-robin/hash routing and past
    /// migrations) — a one-element [`ClusterEngine::publish_batch`].
    pub fn publish_delete(&self, id: RowId) -> Result<()> {
        match self.publish_batch([ShardOp::Delete(id)]).rejected {
            0 => Ok(()),
            _ => Err(JanusError::RowNotFound(id)),
        }
    }

    /// Routes and publishes a whole batch of operations under **one**
    /// router-write + directory-write acquisition: [`resolve_batch`]
    /// resolves them in arrival order and groups them per shard, and
    /// each group lands in its topic with a single batch append — so
    /// per-shard topic contents (and therefore every drained state) are
    /// identical to publishing the same operations one at a time, however
    /// the caller slices them. The backlog gauge advances once per group.
    ///
    /// A duplicate insert or a delete of an unknown row is counted in
    /// [`PublishReport::rejected`] and skipped; the rest of the batch
    /// still publishes — matching how a live front end treats per-request
    /// errors.
    pub fn publish_batch(&self, ops: impl IntoIterator<Item = ShardOp>) -> PublishReport {
        // The router write lock excludes every routed publisher for its
        // whole reserve → append window, so each entry the directory
        // shows here already has its insert in the shard topic.
        let mut router = self.router.write();
        let mut directory = self.directory.write_all();
        let (groups, inserts, deletes, rejected) = resolve_batch(ops, &mut directory, &mut router);
        drop(router);
        // Appends stay under the directory stripes: once the directory
        // names a row, its insert is in the shard topic ahead of any
        // delete a later publisher could append, and topic length and
        // backlog gauge can never be observed out of step by anyone
        // holding all stripes — which is what lets fail_shard rebuild the
        // gauge absolutely. Per-shard relative order inside each group is
        // arrival order, and cross-shard order carries no meaning
        // (offsets are per topic).
        let mut published = 0usize;
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let len = group.len();
            self.set.log.publish_batch(shard, group);
            self.set.backlog[shard].fetch_add(len as u64, Ordering::Relaxed);
            published += len;
        }
        drop(directory);
        self.set
            .counters
            .inserts
            .fetch_add(inserts, Ordering::Relaxed);
        self.set
            .counters
            .deletes
            .fetch_add(deletes, Ordering::Relaxed);
        PublishReport {
            published,
            rejected,
        }
    }

    /// The routing state a bulk producer pre-routes against: policy,
    /// shard count, and the rebalance generation they were read under.
    /// [`ClusterEngine::publish_batch_routed`] validates batches grouped
    /// by this snapshot and falls back to classic routing when a
    /// rebalance has moved the bounds since.
    pub fn routing_snapshot(&self) -> RoutingSnapshot {
        let router = self.router.read();
        // Generation bumps happen under the router write lock, so a read
        // under the router read lock pairs generation and policy
        // race-free.
        RoutingSnapshot {
            generation: self.rebalance_generation.load(Ordering::Acquire),
            shards: router.shards(),
            policy: router.policy().clone(),
        }
    }

    /// The shard-affine bulk-insert fast path: lands insert batches the
    /// caller already grouped by shard (against a [`RoutingSnapshot`] of
    /// `generation`) under a router **read** lock, so concurrent loaders
    /// feeding different shards do not serialize on the router — each
    /// group costs one directory-stripe pass and one batched topic append.
    ///
    /// The call re-verifies its inputs before trusting them: if the
    /// generation is stale (a rebalance landed since the snapshot), the
    /// policy is stateful (`RoundRobin`), or any row's claimed shard
    /// disagrees with the live bounds, the whole call falls back to the
    /// classic [`ClusterEngine::publish_batch`] path, which re-routes
    /// every row — correctness never depends on the caller's grouping.
    ///
    /// Per-shard topic contents — and therefore every drained state —
    /// are **bit-identical** to publishing the same rows per-row in group
    /// order (groups iterated in the given order, rows in order within
    /// each group): duplicates are rejected identically and counted in
    /// [`PublishReport::rejected`], accepted rows append in order.
    pub fn publish_batch_routed(
        &self,
        generation: u64,
        groups: Vec<(usize, Vec<Row>)>,
    ) -> Result<PublishReport> {
        let shards = self.shards();
        if let Some((bad, _)) = groups.iter().find(|(s, _)| *s >= shards) {
            return Err(JanusError::InvalidConfig(format!(
                "routed batch names shard {bad} of a {shards}-shard cluster"
            )));
        }
        let router = self.router.read();
        // Claim verification is one stateless route per row (branchless
        // under range policies) — negligible next to the hashing the
        // directory pass does, and it makes misuse impossible: a stale or
        // wrongly grouped batch re-routes instead of landing misplaced.
        let fresh = self.rebalance_generation.load(Ordering::Acquire) == generation;
        let claims_hold = fresh
            && groups.iter().all(|(shard, rows)| {
                rows.iter()
                    .all(|row| router.route_stateless(row) == Some(*shard))
            });
        if !claims_hold {
            drop(router);
            return Ok(self.publish_batch(
                groups
                    .into_iter()
                    .flat_map(|(_, rows)| rows.into_iter().map(ShardOp::Insert)),
            ));
        }
        // Fast path. The gate (shared) is what checkpoint/fail_shard
        // fence appends with; the router read lock is held for the whole
        // body so no rebalance — and no classic batch, the only path that
        // deletes — can interleave with a reserve → append window: a
        // reserved row whose insert is not in its topic yet is only ever
        // seen by another routed publisher's duplicate check.
        let _gate = self.ingest_gate.read();
        let mut published = 0usize;
        let mut rejected = 0usize;
        for (shard, rows) in groups {
            if rows.is_empty() {
                continue;
            }
            let mut accepted = vec![false; rows.len()];
            let ok = self.directory.reserve(shard, &rows, &mut accepted);
            rejected += rows.len() - ok;
            if ok == 0 {
                continue;
            }
            let ops = rows
                .into_iter()
                .zip(accepted)
                .filter_map(|(row, acc)| acc.then_some(ShardOp::Insert(row)));
            self.set.log.publish_batch(shard, ops);
            self.set.backlog[shard].fetch_add(ok as u64, Ordering::Relaxed);
            published += ok;
        }
        self.set
            .counters
            .inserts
            .fetch_add(published as u64, Ordering::Relaxed);
        Ok(PublishReport {
            published,
            rejected,
        })
    }

    /// Drains up to `max` records of `shard`'s topic into its engine, in
    /// offset order; returns the number applied. This is the granularity a
    /// background pump worker owns: it write-locks only its shard once per
    /// batch, so pumping never blocks ingest or queries on other shards.
    pub fn pump_shard(&self, shard: usize, max: usize) -> Result<usize> {
        let (applied, _, _, error) = self.set.pump(shard, max, 0, false);
        match error {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// Drains up to `max` records of `shard`'s topic into each of its
    /// follower engines, strictly — a record whose application fails
    /// stays at the head of the follower's cursor, exactly like
    /// [`ClusterEngine::pump_shard`] on the primary. Returns records
    /// applied across all followers.
    pub fn pump_replicas(&self, shard: usize, max: usize) -> usize {
        self.set.pump(shard, 0, max, false).2
    }

    /// Records published but not yet applied by follower engines, summed
    /// over every replica of every shard.
    pub fn replica_pending(&self) -> u64 {
        let ends = self.set.log.end_offsets();
        self.set
            .replicas
            .iter()
            .zip(&ends)
            .map(|(set, end)| {
                set.read()
                    .iter()
                    .map(|r| end.saturating_sub(r.read().offset))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Drains up to `max_per_shard` topic records into every shard engine,
    /// in offset order per shard; returns the number applied. Shards are
    /// independent, so they drain in parallel on the persistent worker
    /// pool — each worker locks its shard once per batch, and per-shard
    /// record order (the only order that matters) is preserved. Shard
    /// triggers (under-representation, β-drift) fire as usual inside each
    /// engine while it absorbs its records. A shard that fails mid-batch
    /// already advanced its engine and offset for the records before the
    /// failure, and those still count in `stats`.
    pub fn pump(&self, max_per_shard: usize) -> Result<usize> {
        let jobs = (0..self.shards()).map(|shard| {
            let set = Arc::clone(&self.set);
            let job = move || {
                let (applied, _, followers, error) =
                    set.pump(shard, max_per_shard, max_per_shard, false);
                (applied + followers, error)
            };
            (shard, job)
        });
        let mut applied = 0;
        let mut first_error = None;
        // Shard order, so the error reported is the lowest failing shard's.
        for outcome in self.pool.fan_out(Priority::Bulk, None, jobs) {
            let (n, error) = outcome.expect("pump worker died");
            applied += n;
            first_error = first_error.or(error);
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// Pumps until every shard topic is fully drained. Note that under
    /// concurrent publishing this is a moving target; the barrier only
    /// means "drained at some instant".
    pub fn pump_all(&self) -> Result<()> {
        let chunk = self.config.pump_chunk.max(1);
        while self.pump(chunk)? > 0 {}
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries: scatter, gather, merge
    // ------------------------------------------------------------------

    /// Answers a query by scatter-gather over the overlapping shards.
    /// `Ok(None)` for AVG/MIN/MAX over an (estimated) empty selection,
    /// matching the single-engine contract.
    ///
    /// Equivalent to [`ClusterEngine::query_with`] under
    /// [`QueryOptions::default`]: bulk lane, no deadline, cache consulted
    /// when the cluster has one.
    ///
    /// The target-shard set is pruned against the router's range bounds,
    /// which a concurrent [`ClusterEngine::maybe_rebalance`] can redraw
    /// between pruning and gathering; the scatter therefore re-validates
    /// the rebalance generation afterwards and retries on a mismatch, so
    /// an answer never merges stale pruning with migrated shards.
    pub fn query(&self, query: &Query) -> Result<Option<Estimate>> {
        self.query_with(query, QueryOptions::default())
    }

    /// [`ClusterEngine::query`] with per-call serving options.
    ///
    /// * **Priority** picks the pool lane the scatter's sub-queries ride
    ///   (see [`Priority`]); it affects scheduling only, never answers.
    /// * **Deadline** bounds the *gather*: the first sub-answer is always
    ///   awaited (a partial answer needs at least one shard's rate to
    ///   extrapolate from), then the remaining shards get whatever is
    ///   left of the budget. Sub-answers from shards that miss it are
    ///   dropped, and the arrived ones are merged k-of-n style
    ///   (see [`merge::gather`]): the merged value is scaled
    ///   by the missing shards' share of the pre-scatter population
    ///   snapshot, the CI widened by the between-shard rate dispersion,
    ///   and the estimate flagged [`Estimate::partial`]. With no deadline
    ///   — or when every shard answers in time — the gather, the merges,
    ///   and the answer are bit-identical to [`ClusterEngine::query`].
    ///   The deadline bounds waiting, not correctness: the rare
    ///   mid-scatter rebalance still retries even past the deadline, so
    ///   an answer never merges stale pruning with migrated shards.
    /// * **`use_cache`** consults (and on a complete miss populates) the
    ///   cluster's answer cache, when [`ClusterConfig::with_answer_cache`]
    ///   enabled one. A hit returns bit-identically the memoized
    ///   estimate; entries self-invalidate as soon as a write is pumped
    ///   into any covered shard or a rebalance lands. Partial answers are
    ///   never cached.
    pub fn query_with(&self, query: &Query, opts: QueryOptions) -> Result<Option<Estimate>> {
        self.set.counters.queries.fetch_add(1, Ordering::Relaxed);
        let deadline = opts.deadline.map(|budget| Instant::now() + budget);
        let cache = self
            .cache
            .as_ref()
            .filter(|_| opts.use_cache)
            .map(|cache| (cache, QueryKey::of(query)));
        loop {
            let generation = self.rebalance_generation.load(Ordering::Acquire);
            let targets = self.router.read().overlapping(query);
            // Cache lookup, and the offsets a complete answer would be
            // memoized under. Snapshotting them *before* the scatter (and
            // re-checking after) guarantees a memoized answer corresponds
            // to exactly these shard states — a write pumped mid-scatter
            // vetoes the insert rather than caching an ambiguous answer.
            let pre_offsets: Vec<u64> = match &cache {
                Some((cache, key)) => {
                    let offsets: Vec<u64> =
                        targets.iter().map(|&s| self.applied_offset(s)).collect();
                    if let Some(hit) = cache.lookup(key, generation, |s| self.applied_offset(s)) {
                        self.set.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(hit);
                    }
                    self.set
                        .counters
                        .cache_misses
                        .fetch_add(1, Ordering::Relaxed);
                    offsets
                }
                None => Vec::new(),
            };
            // Population snapshot for k-of-n extrapolation weights; only
            // a deadline-bounded gather can need it.
            let populations: Vec<u64> = if deadline.is_some() {
                targets
                    .iter()
                    .map(|&s| self.set.shards[s].read().engine.population() as u64)
                    .collect()
            } else {
                Vec::new()
            };
            let slots = self.scatter_bounded(&targets, query, opts.priority, deadline)?;
            let answer = merge::gather(query.agg, &slots, &populations);
            if self.rebalance_generation.load(Ordering::Acquire) == generation {
                // Count only the attempt whose answer is returned, so
                // subqueries-per-query stats don't drift on retries.
                self.set
                    .counters
                    .subqueries
                    .fetch_add(targets.len() as u64, Ordering::Relaxed);
                if let Ok(estimate) = &answer {
                    if estimate.is_some_and(|e| e.partial) {
                        self.set
                            .counters
                            .partial_answers
                            .fetch_add(1, Ordering::Relaxed);
                    } else if let Some((cache, key)) = &cache {
                        let post_offsets: Vec<u64> =
                            targets.iter().map(|&s| self.applied_offset(s)).collect();
                        if post_offsets == pre_offsets {
                            cache.insert(
                                key.clone(),
                                generation,
                                targets.clone(),
                                post_offsets,
                                *estimate,
                            );
                        }
                    }
                }
                return answer;
            }
            // A migration landed mid-scatter; the pruning may have missed
            // shards that now hold matching rows. Rebalances are rare, so
            // the retry loop terminates in practice after one extra pass.
        }
    }

    /// One shard's applied topic offset — the cache-invalidation clock.
    fn applied_offset(&self, shard: usize) -> u64 {
        self.set.shards[shard].read().offset
    }

    /// Makes `shard`'s pool worker sleep `delay` before serving each
    /// sub-query (zero clears it) — a deterministic straggler for tests,
    /// demos, and the SLO benchmark. Scheduling-only: answers are
    /// unaffected, so it exercises deadline paths without touching data.
    #[doc(hidden)]
    pub fn inject_scatter_delay(&self, shard: usize, delay: Duration) {
        self.set.stall_ms[shard].store(delay.as_millis() as u64, Ordering::Relaxed);
    }

    /// Exact evaluation across all shard archives (ground-truth oracle;
    /// ignores unpumped records, exactly like per-shard synopses do).
    /// One accumulator continues the same serial accumulation chain
    /// across shards in shard order; dense shard archives feed it through
    /// the chunked columnar kernels, spill-backed ones stream zero-copy
    /// row views — bit-identical either way, and unchanged from the
    /// pre-kernel scan.
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        let guards: Vec<_> = self.set.shards.iter().map(|s| s.read()).collect();
        let mut acc = query.exact_accumulator();
        for g in &guards {
            let archive = g.engine.archive();
            match archive.columns() {
                Some(c) => acc.offer_columns(c.values, c.arity),
                None => archive.for_each_row(|r| acc.offer(r.values)),
            }
        }
        acc.finish()
    }

    /// Scatters `query` to `targets` — one inline on the calling thread,
    /// several through [`ScatterPool::fan_out`] on their shards' workers.
    /// Slot `i` is `None` iff shard `targets[i]` missed the deadline; the
    /// first failed sub-query (in target order) fails the scatter.
    fn scatter_bounded(
        &self,
        targets: &[usize],
        query: &Query,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<Vec<Option<SubAnswer>>> {
        if let [shard] = *targets {
            return Ok(vec![Some(self.set.serve(shard, query)?)]);
        }
        let query = Arc::new(query.clone());
        let jobs = targets.iter().map(|&shard| {
            let (set, query) = (Arc::clone(&self.set), Arc::clone(&query));
            let job = move || {
                let stall = set.stall_ms[shard].load(Ordering::Relaxed);
                if stall > 0 {
                    std::thread::sleep(Duration::from_millis(stall));
                }
                set.serve(shard, &query)
            };
            (shard, job)
        });
        self.pool
            .fan_out(priority, deadline, jobs)
            .into_iter()
            .map(Option::transpose)
            .collect()
    }

    /// Fails a shard's primary and promotes its freshest follower (ties
    /// break toward the lowest replica index). The promoted engine
    /// resumes pumping the shard topic from its own offset, so every
    /// *acknowledged* write — every record published to the topic —
    /// is eventually applied even if the follower lagged the primary at
    /// promotion time: acknowledged writes survive, only the failed
    /// process's unpublished in-memory state is lost. Errors when the
    /// shard has no replica left.
    pub fn fail_shard(&self, shard: usize) -> Result<()> {
        if shard >= self.set.shards.len() {
            return Err(JanusError::InvalidConfig(format!(
                "shard {shard} out of range"
            )));
        }
        // The exclusive ingest gate fences routed publishers and the
        // all-stripes write blocks the classic paths, so no topic append
        // is in flight and the backlog gauge can be rebuilt consistently;
        // then primary → replica set, the engine-wide lock order.
        let _gate = self.ingest_gate.write();
        let _directory = self.directory.write_all();
        let mut primary = self.set.shards[shard].write();
        let mut set = self.set.replicas[shard].write();
        if set.is_empty() {
            return Err(JanusError::InvalidConfig(format!(
                "shard {shard} has no replica to promote"
            )));
        }
        let best = set
            .iter()
            .enumerate()
            .max_by_key(|(i, r)| (r.read().offset, usize::MAX - *i))
            .expect("non-empty replica set")
            .0;
        *primary = set.remove(best).into_inner();
        let end = self.set.log.topic(shard).len() as u64;
        self.set.backlog[shard].store(end.saturating_sub(primary.offset), Ordering::Relaxed);
        drop(set);
        drop(primary);
        self.set.counters.promotions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore
    // ------------------------------------------------------------------

    /// Captures a consistent whole-cluster checkpoint: router state,
    /// rebalance generation, and per shard the engine's bit-faithful
    /// synopsis snapshot, its archival rows, and its topic offsets.
    ///
    /// Holding the router read lock, the ingest gate (exclusive), and
    /// every directory stripe (read) for the duration blocks all publish
    /// paths — classic batches need the router write lock (and hold the
    /// stripes until their appends land), routed publishes the shared
    /// gate — so no
    /// record lands in any topic while the cut is taken; queries keep
    /// flowing (they take none of these), and pump workers may keep
    /// applying already-published records, but each shard's `(snapshot,
    /// offset)` pair is read under that shard's lock and is internally
    /// consistent. Replicas are not captured — they are reconstructed
    /// from the primary snapshot at restore, which is exact because a
    /// follower at the same offset *is* the primary, bit for bit.
    ///
    /// A later [`ClusterEngine::maybe_rebalance`] migration invalidates
    /// replay from this checkpoint (migrations move rows without topic
    /// records); take a fresh checkpoint after every rebalance. The
    /// stored `rebalance_generation` makes the staleness detectable.
    pub fn checkpoint(&self) -> ClusterCheckpoint {
        let router = self.router.read();
        let _gate = self.ingest_gate.write();
        let _directory = self.directory.read_all();
        let shards = self
            .set
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let g = s.read();
                let published = self.set.log.topic(i).len() as u64;
                ShardCheckpoint::capture(i, &g.engine, g.offset, published)
            })
            .collect();
        ClusterCheckpoint {
            router: RouterSnapshot::capture(&router),
            rebalance_generation: self.rebalance_generation.load(Ordering::Acquire),
            request_offset: 0,
            shards,
        }
    }

    /// Rebuilds a cluster from a checkpoint plus the *surviving* shard
    /// topics (an `Arc` handle taken via [`ClusterEngine::topics`] before
    /// the crash — topics are durable infrastructure in the modeled
    /// deployment). Every record published after the checkpoint is still
    /// in the topics; the restored shards resume at their checkpointed
    /// offsets, so the next [`ClusterEngine::pump_all`] replays exactly
    /// the missed tail and the cluster converges to the state of an
    /// uninterrupted run — bit for bit, because engine restoration is
    /// bit-faithful and per-shard replay order is topic order.
    ///
    /// Takes the checkpoint by value: each shard's archive rows are
    /// *moved* into its restored primary (followers, which need their own
    /// copies, clone), so restoring a large cluster does not double its
    /// transient memory footprint.
    pub fn restore(
        config: ClusterConfig,
        checkpoint: ClusterCheckpoint,
        log: Arc<ShardedLog<ShardOp>>,
    ) -> Result<Self> {
        Self::restore_impl(config, checkpoint, Some(log))
    }

    /// Rebuilds a cluster from a checkpoint alone, on fresh empty topics
    /// — the recovery path when the topics died with the process (e.g.
    /// [`crate::live::LiveCluster::recover`], which re-derives shard
    /// traffic from the durable request log instead). Requires a
    /// *tail-free* checkpoint (`applied == published` on every shard):
    /// with unapplied records recorded but no log to replay them from,
    /// restoration would silently lose data, so it refuses.
    pub fn restore_detached(config: ClusterConfig, checkpoint: ClusterCheckpoint) -> Result<Self> {
        if !checkpoint.is_tail_free() {
            return Err(JanusError::Storage(
                "checkpoint has unreplayed topic records but no surviving topics; \
                 restore with the original log instead"
                    .into(),
            ));
        }
        Self::restore_impl(config, checkpoint, None)
    }

    fn restore_impl(
        mut config: ClusterConfig,
        checkpoint: ClusterCheckpoint,
        log: Option<Arc<ShardedLog<ShardOp>>>,
    ) -> Result<Self> {
        if config.shards != checkpoint.shards.len() {
            return Err(JanusError::InvalidConfig(format!(
                "config has {} shards but the checkpoint captured {}",
                config.shards,
                checkpoint.shards.len()
            )));
        }
        if let Some(log) = &log {
            if log.shards() != config.shards {
                return Err(JanusError::InvalidConfig(format!(
                    "surviving log has {} topics for {} shards",
                    log.shards(),
                    config.shards
                )));
            }
        }
        // The checkpoint's router state supersedes the configured policy:
        // bounds move with rebalances and the rotation cursor with
        // traffic, and both are part of what "exactly as it was" means.
        let mut router = checkpoint.router.rebuild(config.shards)?;
        config.policy = checkpoint.router.to_policy();
        let rebalance_generation = checkpoint.rebalance_generation;
        let router_snapshot = checkpoint.router.clone();
        let detached = log.is_none();
        let log = log.unwrap_or_else(|| Arc::new(ShardedLog::new(config.shards)));

        // Per-shard topic offsets survive the move-out of the archive
        // rows below; the tail-replay pass needs them afterwards.
        let offsets: Vec<(u64, u64)> = checkpoint
            .shards
            .iter()
            .map(|sc| (sc.applied_offset, sc.published_offset))
            .collect();

        let mut shards = Vec::with_capacity(config.shards);
        let mut replica_sets = Vec::with_capacity(config.shards);
        let mut directory: DetHashMap<RowId, usize> = DetHashMap::default();
        for sc in checkpoint.shards {
            let offset = if detached { 0 } else { sc.applied_offset };
            for row in &sc.archive_rows {
                if directory.insert(row.id, sc.shard).is_some() {
                    return Err(JanusError::InvalidConfig(format!(
                        "row {} appears in two shard archives of the checkpoint",
                        row.id
                    )));
                }
            }
            // The checkpointed rows are materialized into an archive once
            // (moved, on the configured backend); every follower *forks*
            // that archive — a column-wise slot-order copy — instead of
            // cloning the whole `Vec<Row>` once per replica. Restoration
            // is deterministic and the fork preserves slot order, so the
            // followers come back bit-identical to the primary, exactly
            // as replicas are.
            let shard_cfg = shard_config(&config.base, sc.shard);
            let archive = janus_storage::ArchiveStore::from_rows_in(
                &shard_cfg.archive_backend,
                sc.archive_rows,
            )?;
            let set: Vec<Shard> = (0..config.replicas)
                .map(|_| {
                    Ok(Shard {
                        engine: JanusEngine::restore_with_archive(
                            shard_cfg.clone(),
                            archive.fork(),
                            &sc.synopsis,
                        )?,
                        offset,
                    })
                })
                .collect::<Result<_>>()?;
            replica_sets.push(set);
            shards.push(Shard {
                engine: JanusEngine::restore_with_archive(shard_cfg, archive, &sc.synopsis)?,
                offset,
            });
        }

        // Records published after the checkpoint updated the (lost)
        // directory at publish time; replay their placement effects from
        // the surviving topics. Topics carry no *global* order, so a
        // naive shard-by-shard replay can mis-resolve a row deleted on
        // one shard and re-inserted on another within the tail. Per-topic
        // order *is* reliable, and deletes always route to the row's
        // current shard, so a row's ops form matched insert/delete pairs
        // per topic with at most one dangling insert across all topics:
        // each topic's *final* op per row states whether the row ended
        // live there. Dropping every id the tails mention (tail activity
        // supersedes its archive placement) and re-adding the survivors
        // resolves cross-shard ordering without timestamps.
        //
        // Each insert published beyond the checkpoint cut also advanced
        // the (lost) rotation cursor; advance the restored one past them
        // too, so future publishes continue the rotation exactly where
        // the crashed cluster left it — replayed records were already
        // routed, only *new* traffic consults the cursor.
        if !detached {
            let mut tail_inserts = 0u64;
            // (id, shard, live-on-that-shard) — one entry per row id per
            // topic, holding the topic's final op for that id.
            let mut final_ops: Vec<(RowId, usize, bool)> = Vec::new();
            for (i, (applied_offset, published_offset)) in offsets.iter().enumerate() {
                let mut last_op: DetHashMap<RowId, bool> = DetHashMap::default();
                let mut cursor = *applied_offset;
                loop {
                    let batch = log.poll(i, cursor, 4096);
                    if batch.is_empty() {
                        break;
                    }
                    for op in batch.iter() {
                        match op {
                            ShardOp::Insert(row) => {
                                last_op.insert(row.id, true);
                                if cursor >= *published_offset {
                                    tail_inserts += 1;
                                }
                            }
                            ShardOp::Delete(id) => {
                                last_op.insert(*id, false);
                            }
                        }
                        cursor += 1;
                    }
                }
                final_ops.extend(last_op.into_iter().map(|(id, live)| (id, i, live)));
            }
            for (id, _, _) in &final_ops {
                directory.remove(id);
            }
            for (id, shard, live) in final_ops {
                if live && directory.insert(id, shard).is_some() {
                    return Err(JanusError::Storage(format!(
                        "row {id} ends live on two shard topics; topics are corrupt"
                    )));
                }
            }
            router.restore_cursor(router_snapshot.cursor + (tail_inserts as usize % config.shards));
        }

        let backlog: Vec<AtomicU64> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| AtomicU64::new((log.topic(i).len() as u64).saturating_sub(s.offset)))
            .collect();
        Ok(Self::assemble(
            config,
            router,
            directory,
            shards,
            replica_sets,
            log,
            backlog,
            rebalance_generation,
        ))
    }

    // ------------------------------------------------------------------
    // Cluster-level rebalance
    // ------------------------------------------------------------------

    /// Checks the shard row-count skew trigger and, when it fires, runs a
    /// snapshot-shipping migration (see [`crate::rebalance`]). Topics are
    /// fully drained first so migration acts on applied state; the
    /// migration itself holds every lock (router → directory stripes →
    /// shards),
    /// so concurrent publishers, pumpers, and queries simply wait it out
    /// — the cluster analogue of the paper's short blocking swap step.
    ///
    /// Two hysteresis gates keep repeated triggers from thrashing: a
    /// cooldown (at least [`ClusterConfig::rebalance_cooldown`] records
    /// pumped since the last migration) and a minimum skew-ratio gain
    /// (the current ratio must exceed the post-migration ratio by at
    /// least [`ClusterConfig::rebalance_min_gain`] — a skew the last
    /// migration could not improve does not re-trigger). Returns the
    /// migration report when one ran.
    pub fn maybe_rebalance(&self) -> Result<Option<RebalanceReport>> {
        let Some(factor) = self.config.skew_factor else {
            return Ok(None);
        };
        // Cooldown gate, before any work: cheap relaxed loads.
        if self.config.rebalance_cooldown > 0
            && self.set.counters.rebalances.load(Ordering::Relaxed) > 0
        {
            let since = self
                .pumped_records()
                .saturating_sub(self.rebalance_mark.load(Ordering::Relaxed));
            if since < self.config.rebalance_cooldown {
                return Ok(None);
            }
        }
        // Best-effort pre-drain outside the locks keeps the fully-locked
        // window short.
        self.pump_all()?;
        let mut router = self.router.write();
        // Router write excludes routed publishers entirely, so no append
        // can land anywhere for the duration of the migration.
        let mut directory = self.directory.write_all();
        let mut guards: Vec<_> = self.set.shards.iter().map(|s| s.write()).collect();
        let mut replica_guards: Vec<_> = self.set.replicas.iter().map(|s| s.write()).collect();
        // Drain the stragglers published between pump_all() and lock
        // acquisition: we hold the router write lock and every directory
        // stripe, so no further records can land, and migrating with
        // unapplied topic records would
        // misplace them against the redrawn bounds (or resurrect rows
        // whose pending delete fails on the donor after a move). Replicas
        // drain to the same point so the shipped post-migration snapshots
        // replace followers that were bit-identical to their primaries.
        let chunk = self.config.pump_chunk.max(1);
        for (i, guard) in guards.iter_mut().enumerate() {
            loop {
                let (applied, _, error) = self.set.drain_locked(i, guard, chunk, false);
                if let Some(e) = error {
                    return Err(e);
                }
                if applied == 0 {
                    break;
                }
            }
        }
        for (i, set) in replica_guards.iter_mut().enumerate() {
            for replica in set.iter_mut() {
                let guard = replica.get_mut();
                loop {
                    let (applied, _, error) = drain_topic(&self.set.log, i, guard, chunk, false);
                    if let Some(e) = error {
                        return Err(e);
                    }
                    if applied == 0 {
                        break;
                    }
                }
            }
        }
        let populations: Vec<usize> = guards.iter().map(|g| g.engine.population()).collect();
        if !rebalance::skew_exceeds(&populations, factor) {
            return Ok(None);
        }
        // Minimum-gain gate: the skew must have grown meaningfully past
        // what the previous migration left behind.
        if self.config.rebalance_min_gain > 0.0
            && self.set.counters.rebalances.load(Ordering::Relaxed) > 0
        {
            let baseline = f64::from_bits(self.post_rebalance_skew.load(Ordering::Relaxed));
            if rebalance::skew_ratio(&populations) < baseline + self.config.rebalance_min_gain {
                return Ok(None);
            }
        }
        let mut shard_refs: Vec<&mut Shard> = guards.iter_mut().map(|g| &mut **g).collect();
        let mut replica_refs: Vec<Vec<&mut Shard>> = replica_guards
            .iter_mut()
            .map(|set| set.iter_mut().map(|r| r.get_mut()).collect())
            .collect();
        let report = rebalance::rebalance(
            &mut router,
            &mut shard_refs,
            &mut replica_refs,
            &mut directory,
            &self.config.base,
        );
        drop(replica_refs);
        drop(shard_refs);
        // Bump the generation on any mutation attempt — still under all
        // locks. Even a failed migration may already have redrawn bounds
        // and moved rows, so in-flight queries must re-prune either way.
        self.rebalance_generation.fetch_add(1, Ordering::Release);
        let report = report?;
        if let Some(r) = &report {
            self.set.counters.rebalances.fetch_add(1, Ordering::Relaxed);
            self.set
                .counters
                .rows_migrated
                .fetch_add(r.rows_moved as u64, Ordering::Relaxed);
            // Record the hysteresis baselines: the pump clock and the
            // skew ratio this migration achieved.
            self.rebalance_mark
                .store(self.pumped_records(), Ordering::Relaxed);
            let post: Vec<usize> = guards.iter().map(|g| g.engine.population()).collect();
            self.post_rebalance_skew
                .store(rebalance::skew_ratio(&post).to_bits(), Ordering::Relaxed);
        }
        Ok(report)
    }
}

/// The one batch-apply loop every consumer of a shard topic shares —
/// primaries and replicas alike. Polls one batch and applies it through
/// the engine's batch entry point ([`JanusEngine::apply_update_batch`]),
/// so a drained batch costs one poll and one apply call under the
/// caller's single lock acquisition. Returns `(applied, skipped, first
/// error)`; with `skip_failed` unset, the failing record stays at the
/// head of the topic (offset not consumed).
fn drain_topic(
    log: &ShardedLog<ShardOp>,
    shard: usize,
    guard: &mut Shard,
    max: usize,
    skip_failed: bool,
) -> (usize, usize, Option<JanusError>) {
    let batch = log.poll(shard, guard.offset, max);
    if batch.is_empty() {
        return (0, 0, None);
    }
    let (applied, skipped, first_error) = guard.engine.apply_update_batch(batch, skip_failed);
    guard.offset += (applied + skipped) as u64;
    (applied, skipped, first_error)
}
