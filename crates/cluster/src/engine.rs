//! The cluster coordinator: N `JanusEngine` shards behind one
//! ingest/query API, over either of two transports.
//!
//! [`ClusterEngine`] is the one coordinator. It owns the router, the
//! row → shard directory, the ingest gate, the rebalance generation, the
//! answer cache and the scatter pool, and it holds the one publish body
//! and the one scatter/gather/merge body. What lies behind the shards is a
//! [`ShardTransport`]. [`ShardSet`], the default, holds in-process
//! [`ShardHost`]s, which this module pumps, checkpoints, restores,
//! promotes and rebalances. The node links of `janus-net`'s
//! `RemoteCluster` ship each topic's tail to `janus-node` processes and
//! answer sub-queries over TCP.
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
//!   any retained offset is deterministic. Each shard, primary or
//!   follower, is a [`ShardHost`], whose drain applies one batch under
//!   one shard-lock acquisition.
//! * **Retention.** Every pump step that drains a primary truncates its
//!   shard topic below the shard's [`retention_floor`] over the primary,
//!   its followers and the newest [`ClusterEngine::checkpoint`] (or
//!   restore), so a topic holds what some copy or a restore from the
//!   newest checkpoint still needs, not the whole stream.
//! * **Queries** scatter to every shard whose slab the predicate can touch
//!   (all shards under discrete policies) through
//!   [`ScatterPool::fan_out`] — one target on the calling thread, several
//!   in parallel on the long-lived per-shard pool workers, no thread
//!   spawned per query — and the per-shard [`Estimate`]s come back in
//!   shard order and are merged by [`janus_common::merge::gather`]:
//!   COUNT/SUM add values and per-source
//!   variances; AVG is re-derived from merged SUM/COUNT moment estimates
//!   (each shard answers through the
//!   [`JanusEngine::answer_sum_count`] moment hook); MIN/MAX take the
//!   extreme answer. A deadline-partial gather weighs each shard by the
//!   rows the directory places on it, whichever the transport.
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
//! | each [`ShardHost`] engine (its applied offset is an atomic stored under it) | own `RwLock` | pump, rebalance, promotion (scatter sub-queries only read) |
//! | [`ShardRouter`] | `RwLock` | publish (rotation cursor), rebalance (bounds) |
//! | row→shard directory | 16 striped `RwLock`s (`crate::directory`) | publish, rebalance |
//! | ingest gate | `RwLock<()>` | checkpoint (exclusive); routed publish (shared) |
//! | operation counters | atomics | everyone |
//!
//! Lock order is router → ingest gate → directory stripes (ascending
//! stripe index) → shards (ascending) → replica sets; no path acquires
//! them in any other order — the pool workers touch only shard and
//! replica locks — so the engine is deadlock-free by construction. Both
//! transports publish through the same body, so they share this order;
//! the networked transport takes its own locks (placement directory,
//! links) only outside the router and the stripes.
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
//! publishing the same rows one at a time in group order. Checkpoint
//! excludes routed publishers with the ingest gate instead of the router
//! write lock, keeping queries live while the cut is taken.

use crate::bootstrap::{build_shards, partition_rows, shard_config};
use crate::cache::{AnswerCache, QueryKey};
use crate::checkpoint::{ClusterCheckpoint, RouterSnapshot, ShardCheckpoint};
use crate::directory::{resolve_batch, StripedDirectory};
use crate::host::{pick_read, promote, retention_floor, ShardHost, UNPINNED};
use crate::rebalance::{self, RebalanceReport};
use crate::router::{RoutingSnapshot, ShardPolicy, ShardRouter};
use crate::scatter::{Priority, ScatterPool};
use janus_common::merge::{self, SubAnswer};
use janus_common::{DetHashMap, Estimate, JanusError, Query, Result, Row, RowId};
use janus_core::{JanusEngine, SynopsisConfig};
use janus_storage::ShardedLog;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records drained per shard per [`ClusterEngine::pump`] step of
/// [`ClusterEngine::pump_all`], and per shard per sweep of the bulk
/// loader's drain.
pub const PUMP_CHUNK: usize = 4096;

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
    /// config and policy, and the 2x skew trigger enabled (without
    /// hysteresis — see [`ClusterConfig::with_rebalance_hysteresis`]).
    pub fn new(base: SynopsisConfig, shards: usize, policy: ShardPolicy) -> Self {
        ClusterConfig {
            base,
            shards,
            policy,
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
    /// Operations rejected at publish (duplicate insert, delete of an
    /// unknown row).
    pub rejected: u64,
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

/// The coordinator's lock-free operation counters (relaxed: they are
/// metrics, not fences).
#[derive(Default)]
struct Counters {
    inserts: AtomicU64,
    deletes: AtomicU64,
    rejected: AtomicU64,
    queries: AtomicU64,
    subqueries: AtomicU64,
    rebalances: AtomicU64,
    rows_migrated: AtomicU64,
    promotions: AtomicU64,
    partial_answers: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// What the coordinator needs of the shards behind it: the topics it
/// appends to, each shard's applied offset and backlog, and one
/// sub-query answer. [`ClusterEngine`]'s publish, query and backpressure
/// bodies call nothing else, so they run unchanged over [`ShardSet`] (in
/// process) and over `janus-net`'s node links. Pumping, shipping and
/// checkpoints stay with each transport.
///
/// Pool workers call [`ShardTransport::serve`] with no coordinator lock
/// held, so a transport must not take the router or the directory.
pub trait ShardTransport: Send + Sync + 'static {
    /// The per-shard topics published records are appended to.
    fn topics(&self) -> &Arc<ShardedLog<ShardOp>>;

    /// `shard`'s primary applied topic offset — the answer cache's clock.
    fn applied(&self, shard: usize) -> u64;

    /// `shard`'s publish-ahead lag, derived as a Kafka consumer's lag is:
    /// the topic's end offset, read first, minus an applied offset read
    /// after it (over TCP, the slowest alive copy's), so applies racing
    /// the read can only make it understate.
    fn backlog(&self, shard: usize) -> u64;

    /// Answers one sub-query of `shard` in the shape the gather needs.
    /// `expiry` bounds the wait, and [`JanusError::Deadline`] means the
    /// shard missed this gather and nothing else.
    fn serve(&self, shard: usize, query: &Query, expiry: Option<Instant>) -> Result<SubAnswer>;
}

/// The in-process transport: topics, primary and follower engines, and
/// the counters the pool's jobs maintain. Everything a scatter or pump
/// job touches lives here — the router, directory, and rebalance state
/// stay exclusive to [`ClusterEngine`], so pool workers can never
/// participate in a router→directory lock ordering.
pub struct ShardSet {
    /// Shard topics are `Arc`-shared: like Kafka partitions they are
    /// durable *infrastructure*, not engine state, and surviving the
    /// engine is what lets [`ClusterEngine::restore`] replay them.
    pub(crate) log: Arc<ShardedLog<ShardOp>>,
    pub(crate) shards: Vec<ShardHost>,
    /// Follower hosts per shard (the lock guards membership, changed
    /// only by promotion and migration). Each follower tails the
    /// primary's topic at its own offset. Lock order extends the
    /// engine-wide order: primary host → its replica set → one replica.
    pub(crate) replicas: Vec<RwLock<Vec<ShardHost>>>,
    /// The [`pick_read`] cursor.
    read_cursor: AtomicU64,
    /// Records drained into primaries.
    pumped: AtomicU64,
    /// Sub-queries served by followers.
    replica_queries: AtomicU64,
    /// Configured follower count (`ClusterConfig::replicas`).
    replica_count: usize,
    /// Configured freshness gate (`ClusterConfig::replica_lag`).
    replica_lag: u64,
    /// Per-shard retention pin: the newest checkpoint's (or restore's)
    /// applied offset, [`UNPINNED`] before the first. Stored under the
    /// primary's read guard, read under its write guard.
    pins: Vec<AtomicU64>,
}

impl ShardSet {
    /// The transport over freshly built hosts; no shard is checkpointed
    /// yet.
    fn new(
        config: &ClusterConfig,
        shards: Vec<ShardHost>,
        replica_sets: Vec<Vec<ShardHost>>,
        log: Arc<ShardedLog<ShardOp>>,
    ) -> Arc<Self> {
        Arc::new(ShardSet {
            log,
            shards,
            replicas: replica_sets.into_iter().map(RwLock::new).collect(),
            read_cursor: AtomicU64::new(0),
            pumped: AtomicU64::new(0),
            replica_queries: AtomicU64::new(0),
            replica_count: config.replicas,
            replica_lag: config.replica_lag,
            pins: (0..config.shards)
                .map(|_| AtomicU64::new(UNPINNED))
                .collect(),
        })
    }

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
    /// followers, which the `pumped` counter leaves out.
    ///
    /// A step that drains the primary also computes the shard's
    /// [`retention_floor`] over the primary, the followers (replica set
    /// read lock, the engine-wide order) and the checkpoint pin. Under
    /// both guards no promotion can swap a lower-offset follower in and
    /// no checkpoint can be cut; offsets only rise afterwards, so the
    /// topic is truncated below it once every lock is released.
    pub(crate) fn pump(
        &self,
        shard: usize,
        max_primary: usize,
        max_follower: usize,
        skip_failed: bool,
    ) -> (usize, usize, usize, Option<JanusError>) {
        let topic = self.log.topic(shard);
        let (applied, skipped, first_error, floor) = if max_primary > 0 {
            let host = &self.shards[shard];
            let mut engine = host.write();
            let (applied, skipped, first_error) =
                host.drain_locked(&mut engine, topic, max_primary, skip_failed);
            self.pumped.fetch_add(applied as u64, Ordering::Relaxed);
            let floor = retention_floor(
                std::iter::once(host.applied())
                    .chain(self.replicas[shard].read().iter().map(ShardHost::applied)),
                self.pins[shard].load(Ordering::Acquire),
            );
            (applied, skipped, first_error, floor)
        } else {
            (0, 0, None, None)
        };
        let mut followers = 0;
        if max_follower > 0 {
            for replica in self.replicas[shard].read().iter() {
                let (a, s, _) =
                    replica.drain_locked(&mut replica.write(), topic, max_follower, skip_failed);
                followers += a + s;
            }
        }
        if let Some(floor) = floor {
            topic.truncate_below(floor);
        }
        (applied, skipped, followers, first_error)
    }

    /// Captures shard `shard` for a checkpoint and makes its applied
    /// offset the shard's checkpoint floor, under one read guard of the
    /// primary — so no pump step computes a floor between the two.
    fn checkpoint_shard(&self, shard: usize) -> ShardCheckpoint {
        let host = &self.shards[shard];
        let engine = host.read();
        let published = self.log.topic(shard).len() as u64;
        let captured = host.capture_locked(&engine, shard, published);
        self.pins[shard].store(captured.applied_offset, Ordering::Release);
        captured
    }
}

impl ShardTransport for ShardSet {
    fn topics(&self) -> &Arc<ShardedLog<ShardOp>> {
        &self.log
    }

    fn applied(&self, shard: usize) -> u64 {
        self.shards[shard].applied()
    }

    /// The topic end minus the primary's applied offset; takes no
    /// engine lock.
    fn backlog(&self, shard: usize) -> u64 {
        (self.log.topic(shard).len() as u64).saturating_sub(self.shards[shard].applied())
    }

    /// Answers from the copy [`pick_read`] picks, with no breaker. At
    /// the default `replica_lag` of 0 only fully caught-up followers —
    /// bit-identical to a caught-up primary — serve, so replica answers
    /// are exact. Answers in process never miss a deadline: `expiry` is
    /// ignored.
    fn serve(&self, shard: usize, query: &Query, _expiry: Option<Instant>) -> Result<SubAnswer> {
        if self.replica_count > 0 {
            let set = self.replicas[shard].read();
            if !set.is_empty() {
                let end = self.log.topic(shard).len() as u64;
                let followers = set.iter().map(ShardHost::applied).enumerate();
                let lag = self.replica_lag;
                // Offsets only grow, so the pick passes the re-check its
                // answer runs under.
                if let Some(read) =
                    pick_read(followers, end, lag, &self.read_cursor, false, || false)
                {
                    if let Ok(answer) = set[read.index].answer(read.min_applied, query) {
                        self.replica_queries.fetch_add(1, Ordering::Relaxed);
                        return answer;
                    }
                }
            }
        }
        let primary = self.shards[shard].answer(0, query);
        primary.unwrap_or_else(|_| unreachable!("every applied offset is at least 0"))
    }
}

/// The one coordinator: N shards behind one scatter-gather façade, over
/// the transport `T` — in-process [`ShardSet`] by default. All methods
/// take `&self` — see the module docs for the locking model.
pub struct ClusterEngine<T: ShardTransport = ShardSet> {
    config: ClusterConfig,
    router: RwLock<ShardRouter>,
    /// Authoritative row → shard placement, updated at publish time and by
    /// migrations; deletes and rebalancing route through it, so placement
    /// stays correct even after the router's bounds move. Striped over 16
    /// locks so concurrent pre-routed publishers don't serialize on one
    /// write lock — see [`crate::directory`] for the stripe discipline.
    /// Its per-shard row counts weigh deadline-partial gathers.
    directory: StripedDirectory,
    /// The ingest gate: routed publishers hold it shared for the span of
    /// a [`ClusterEngine::publish_batch_routed`] call (they never take
    /// the router *write* lock); checkpoint takes it exclusively to fence
    /// all topic appends without blocking queries behind a router write.
    /// Sits between the router and the directory stripes in the lock
    /// order.
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
    counters: Counters,
    /// Per-shard artificial delay (ms) before a *pooled* sub-query is
    /// served — see [`ClusterEngine::inject_scatter_delay`].
    stall_ms: Vec<AtomicU64>,
    /// Shard-side state shared with the pool's jobs (and, in process,
    /// the live workers).
    pub(crate) set: Arc<T>,
    /// One worker per shard under scatters, `pump` and a transport's
    /// bootstrap jobs; joined on drop.
    pool: ScatterPool,
    /// Scatter-answer memo, present when `config.answer_cache > 0`.
    cache: Option<AnswerCache>,
}

impl<T: ShardTransport> ClusterEngine<T> {
    /// Partitions `rows` by the configured policy — a duplicate id fails
    /// here, before any shard is hosted — and builds the coordinator over
    /// the transport `host` returns for the per-shard partitions, the
    /// fresh topics, and the coordinator's scatter pool (one worker per
    /// shard, named `{pool}-{index}`), which `host` may run its own jobs
    /// on. [`ClusterEngine::bootstrap`] is this over in-process hosts.
    pub fn bootstrap_over(
        config: ClusterConfig,
        rows: Vec<Row>,
        pool: &str,
        host: impl FnOnce(Vec<Vec<Row>>, Arc<ShardedLog<ShardOp>>, &ScatterPool) -> Result<Arc<T>>,
    ) -> Result<Self> {
        if config.shards == 0 {
            return Err(JanusError::InvalidConfig("need at least one shard".into()));
        }
        let mut router = ShardRouter::new(config.policy.clone(), config.shards)?;
        let directory = StripedDirectory::with_capacity(config.shards, rows.len());
        let per_shard = partition_rows(&mut router, rows, &mut directory.write_all())?;
        let pool = ScatterPool::start(pool, config.shards);
        let set = host(per_shard, Arc::new(ShardedLog::new(config.shards)), &pool)?;
        Ok(Self::assemble(config, router, directory, set, 0, pool))
    }

    /// Final assembly shared by [`ClusterEngine::bootstrap_over`] and
    /// [`ClusterEngine::restore`].
    fn assemble(
        config: ClusterConfig,
        router: ShardRouter,
        directory: StripedDirectory,
        set: Arc<T>,
        rebalance_generation: u64,
        pool: ScatterPool,
    ) -> Self {
        let cache = (config.answer_cache > 0).then(|| AnswerCache::new(config.answer_cache));
        ClusterEngine {
            stall_ms: (0..config.shards).map(|_| AtomicU64::new(0)).collect(),
            config,
            router: RwLock::new(router),
            directory,
            ingest_gate: RwLock::new(()),
            rebalance_generation: AtomicU64::new(rebalance_generation),
            rebalance_mark: AtomicU64::new(0),
            post_rebalance_skew: AtomicU64::new(0f64.to_bits()),
            counters: Counters::default(),
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
        self.config.shards
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
    /// [`ClusterEngine::restore`] replays from. Each topic retains only
    /// the records from its shard's retention floor on (see the module
    /// docs), so a poll below [`janus_storage::TopicLog::first_offset`]
    /// panics.
    pub fn topics(&self) -> Arc<ShardedLog<ShardOp>> {
        Arc::clone(self.set.topics())
    }

    /// The transport behind the shards.
    pub fn transport(&self) -> &Arc<T> {
        &self.set
    }

    /// The coordinator's own counters: publishes, queries, partial
    /// answers, the cache and rebalances. The shard-side fields —
    /// `pumped`, `replica_queries` and `shard_backlog` — belong to the
    /// transport and are zero here; [`ClusterEngine::stats`] fills them
    /// in process.
    pub fn coordinator_stats(&self) -> ClusterStats {
        let counters = &self.counters;
        ClusterStats {
            inserts: counters.inserts.load(Ordering::Relaxed),
            deletes: counters.deletes.load(Ordering::Relaxed),
            rejected: counters.rejected.load(Ordering::Relaxed),
            queries: counters.queries.load(Ordering::Relaxed),
            subqueries: counters.subqueries.load(Ordering::Relaxed),
            rebalances: counters.rebalances.load(Ordering::Relaxed),
            rows_migrated: counters.rows_migrated.load(Ordering::Relaxed),
            promotions: counters.promotions.load(Ordering::Relaxed),
            partial_answers: counters.partial_answers.load(Ordering::Relaxed),
            cache_hits: counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: counters.cache_misses.load(Ordering::Relaxed),
            ..ClusterStats::default()
        }
    }

    /// Rows the row → shard directory currently places — published
    /// inserts minus published deletes, whether or not pumped yet.
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }

    /// True when any shard's backlog ([`ShardTransport::backlog`]) is
    /// over `limit`: the one backpressure probe, under the live front
    /// end's stall and the networked publisher's. Takes no engine lock
    /// and allocates nothing.
    pub fn backlog_exceeds(&self, limit: u64) -> bool {
        (0..self.shards()).any(|shard| self.set.backlog(shard) > limit)
    }

    // ------------------------------------------------------------------
    // Ingest: publish
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
    /// router-write + directory-write acquisition: `resolve_batch`
    /// resolves them in arrival order and groups them per shard, and
    /// each group lands in its topic with a single batch append — so
    /// per-shard topic contents (and therefore every drained state) are
    /// identical to publishing the same operations one at a time, however
    /// the caller slices them.
    ///
    /// A duplicate insert or a delete of an unknown row is counted in
    /// [`PublishReport::rejected`] and skipped; the rest of the batch
    /// still publishes — matching how a live front end treats per-request
    /// errors.
    pub fn publish_batch(&self, ops: impl IntoIterator<Item = ShardOp>) -> PublishReport {
        self.publish_batch_with(ops, |_| {})
    }

    /// [`ClusterEngine::publish_batch`] that calls `landed(shard)` for
    /// each shard it appends to, in shard order, right after the append
    /// (still under the directory stripes) — how a transport that paces
    /// its publishers learns which shards to wait on.
    pub fn publish_batch_with(
        &self,
        ops: impl IntoIterator<Item = ShardOp>,
        mut landed: impl FnMut(usize),
    ) -> PublishReport {
        // The router write lock excludes every routed publisher for its
        // whole reserve → append window, so each entry the directory
        // shows here already has its insert in the shard topic.
        let mut router = self.router.write();
        let mut directory = self.directory.write_all();
        let (groups, inserts, deletes, rejected) = resolve_batch(ops, &mut directory, &mut router);
        drop(router);
        // Appends stay under the directory stripes: once the directory
        // names a row, its insert is in the shard topic ahead of any
        // delete a later publisher could append. Per-shard relative order
        // inside each group is arrival order, and cross-shard order
        // carries no meaning (offsets are per topic).
        let topics = self.set.topics();
        let mut published = 0usize;
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let len = group.len();
            topics.publish_batch(shard, group);
            landed(shard);
            published += len;
        }
        drop(directory);
        let counters = &self.counters;
        counters.inserts.fetch_add(inserts, Ordering::Relaxed);
        counters.deletes.fetch_add(deletes, Ordering::Relaxed);
        counters
            .rejected
            .fetch_add(rejected as u64, Ordering::Relaxed);
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
        // Fast path. The gate (shared) is what checkpoint fences appends
        // with; the router read lock is held for the whole body so no
        // rebalance — and no classic batch, the only path that deletes —
        // can interleave with a reserve → append window: a
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
            self.set.topics().publish_batch(shard, ops);
            published += ok;
        }
        self.counters
            .inserts
            .fetch_add(published as u64, Ordering::Relaxed);
        self.counters
            .rejected
            .fetch_add(rejected as u64, Ordering::Relaxed);
        Ok(PublishReport {
            published,
            rejected,
        })
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
    ///   (see [`merge::gather`]): the merged value is scaled by the
    ///   missing shards' share of the rows the directory places (their
    ///   populations, once the topics are drained), the CI widened by the
    ///   between-shard rate dispersion,
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
    ///
    /// This is the one query body of both transports, and it has one
    /// error of its own: [`JanusError::Deadline`] when *no* shard
    /// answered within the deadline.
    pub fn query_with(&self, query: &Query, opts: QueryOptions) -> Result<Option<Estimate>> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
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
                    let offsets: Vec<u64> = targets.iter().map(|&s| self.set.applied(s)).collect();
                    if let Some(hit) = cache.lookup(key, generation, |s| self.set.applied(s)) {
                        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(hit);
                    }
                    self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                    offsets
                }
                None => Vec::new(),
            };
            // k-of-n extrapolation weights, read without a lock; only a
            // deadline-bounded gather can need them.
            let weights: Vec<u64> = if deadline.is_some() {
                targets.iter().map(|&s| self.directory.count(s)).collect()
            } else {
                Vec::new()
            };
            let slots = self.scatter(&targets, query, opts.priority, deadline)?;
            if !targets.is_empty() && slots.iter().all(Option::is_none) {
                return Err(JanusError::Deadline);
            }
            let answer = merge::gather(query.agg, &slots, &weights);
            if self.rebalance_generation.load(Ordering::Acquire) == generation {
                // Count only the attempt whose answer is returned, so
                // subqueries-per-query stats don't drift on retries.
                self.counters
                    .subqueries
                    .fetch_add(targets.len() as u64, Ordering::Relaxed);
                if let Ok(estimate) = &answer {
                    if estimate.is_some_and(|e| e.partial) {
                        self.counters
                            .partial_answers
                            .fetch_add(1, Ordering::Relaxed);
                    } else if let Some((cache, key)) = &cache {
                        let post_offsets: Vec<u64> =
                            targets.iter().map(|&s| self.set.applied(s)).collect();
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

    /// Makes `shard`'s pool worker sleep `delay` before serving each
    /// sub-query (zero clears it) — a deterministic straggler for tests,
    /// demos, and the SLO benchmark. Scheduling-only: answers are
    /// unaffected, so it exercises deadline paths without touching data.
    #[doc(hidden)]
    pub fn inject_scatter_delay(&self, shard: usize, delay: Duration) {
        self.stall_ms[shard].store(delay.as_millis() as u64, Ordering::Relaxed);
    }

    /// Scatters `query` to `targets` — one inline on the calling thread,
    /// several through [`ScatterPool::fan_out`] on their shards' workers,
    /// each pooled job first sleeping its shard's injected delay. Slot `i`
    /// is `None` iff shard `targets[i]` missed the deadline; the first
    /// other failed sub-query (in target order) fails the scatter.
    fn scatter(
        &self,
        targets: &[usize],
        query: &Query,
        priority: Priority,
        expiry: Option<Instant>,
    ) -> Result<Vec<Option<SubAnswer>>> {
        let settle = |slot: Option<Result<SubAnswer>>| match slot {
            Some(Err(JanusError::Deadline)) | None => Ok(None),
            Some(outcome) => outcome.map(Some),
        };
        if let [shard] = *targets {
            return Ok(vec![settle(Some(self.set.serve(shard, query, expiry)))?]);
        }
        let query = Arc::new(query.clone());
        let jobs = targets.iter().map(|&shard| {
            let (set, query) = (Arc::clone(&self.set), Arc::clone(&query));
            let stall = self.stall_ms[shard].load(Ordering::Relaxed);
            let job = move || {
                if stall > 0 {
                    std::thread::sleep(Duration::from_millis(stall));
                }
                set.serve(shard, &query, expiry)
            };
            (shard, job)
        });
        self.pool
            .fan_out(priority, expiry, jobs)
            .into_iter()
            .map(settle)
            .collect()
    }
}

/// The in-process transport: pumping, failover, checkpoints and rebalance.
impl ClusterEngine<ShardSet> {
    /// Partitions `rows` by the configured policy and bootstraps one
    /// engine per shard (empty shards bootstrap lazily on first insert is
    /// *not* supported by the underlying engine, so every shard gets at
    /// least its slab's rows; tiny shards are fine).
    pub fn bootstrap(config: ClusterConfig, rows: Vec<Row>) -> Result<Self> {
        let hosts = config.clone();
        Self::bootstrap_over(config, rows, "janus-scatter", |per_shard, log, _| {
            // Followers bootstrap from the same rows with the same
            // per-shard seed as their primary: identical construction +
            // identical topic replay keeps them bit-identical at equal
            // offsets.
            let (shards, replica_sets) = build_shards(&hosts.base, per_shard, hosts.replicas)?;
            Ok(ShardSet::new(&hosts, shards, replica_sets, log))
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

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
            .map(ShardHost::applied)
            .collect()
    }

    /// Cluster-level operation counters and the current pump-lag snapshot.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            pumped: self.pumped_records(),
            replica_queries: self.set.replica_queries.load(Ordering::Relaxed),
            shard_backlog: self.shard_backlogs(),
            ..self.coordinator_stats()
        }
    }

    /// Rows applied across all shard engines.
    pub fn population(&self) -> usize {
        self.shard_populations().into_iter().sum()
    }

    /// Applied rows per shard, in shard order.
    pub fn shard_populations(&self) -> Vec<usize> {
        self.set
            .shards
            .iter()
            .map(|s| s.read().population())
            .collect()
    }

    /// Records published but not yet pumped, per shard in shard order
    /// ([`ShardTransport::backlog`]). Read without any engine lock, so
    /// under concurrent pumping the values can only *under*-state the
    /// true lag — never overstate it.
    pub fn shard_backlogs(&self) -> Vec<u64> {
        (0..self.shards()).map(|i| self.set.backlog(i)).collect()
    }

    fn topic_end(&self, i: usize) -> u64 {
        self.set.log.topic(i).len() as u64
    }

    /// Records published but not yet pumped into shard engines.
    /// Allocation-free: the drain, stall and checkpoint loops probe it
    /// on every progress bump.
    pub fn pending(&self) -> u64 {
        (0..self.shards()).map(|i| self.set.backlog(i)).sum()
    }

    /// Records drained into primary shard engines so far — the cheap
    /// (one relaxed load, no allocation) progress gauge the live
    /// checkpointer paces itself by.
    pub fn pumped_records(&self) -> u64 {
        self.set.pumped.load(Ordering::Relaxed)
    }

    /// Runs `f` against one shard's engine (experiments and tests).
    pub fn with_shard_engine<T>(&self, shard: usize, f: impl FnOnce(&JanusEngine) -> T) -> T {
        f(&self.set.shards[shard].read())
    }

    // ------------------------------------------------------------------
    // Ingest: pump
    // ------------------------------------------------------------------

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
        self.set
            .replicas
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let end = self.topic_end(i);
                set.read()
                    .iter()
                    .map(|r| end.saturating_sub(r.applied()))
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
        while self.pump(PUMP_CHUNK)? > 0 {}
        Ok(())
    }

    // ------------------------------------------------------------------
    // Ground truth and failover
    // ------------------------------------------------------------------

    /// Exact evaluation across all shard archives (ground-truth oracle;
    /// ignores unpumped records, exactly like per-shard synopses do).
    /// One accumulator continues the same serial accumulation chain
    /// across shards in shard order, fed through the chunked columnar
    /// kernels — bit-identical to the pre-kernel per-row scan.
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        let guards: Vec<_> = self.set.shards.iter().map(ShardHost::read).collect();
        let mut acc = query.exact_accumulator();
        for c in guards.iter().flat_map(|g| g.archive().blocks()) {
            acc.offer_columns(c.values, c.arity);
        }
        acc.finish()
    }

    /// Fails a shard's primary and promotes the follower [`promote`]
    /// picks by replica index. The promoted engine
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
        // Primary → replica set, the engine-wide lock order. Publishers
        // need neither: a promotion moves no topic record, and the
        // shard's backlog is derived from the promoted host's offset.
        let host = &self.set.shards[shard];
        let mut primary = host.write();
        let mut set = self.set.replicas[shard].write();
        let Some(best) = promote(set.iter().map(ShardHost::applied).enumerate()) else {
            return Err(JanusError::InvalidConfig(format!(
                "shard {shard} has no replica to promote"
            )));
        };
        host.take_over(&mut primary, set.remove(best));
        self.counters.promotions.fetch_add(1, Ordering::Relaxed);
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
    /// The checkpoint becomes each shard topic's retention pin: from the
    /// next pump step on, the topics keep every record from its applied
    /// offsets on, and may drop what an older checkpoint would need.
    ///
    /// A later [`ClusterEngine::maybe_rebalance`] migration invalidates
    /// replay from this checkpoint (migrations move rows without topic
    /// records); take a fresh checkpoint after every rebalance. The
    /// stored `rebalance_generation` makes the staleness detectable.
    pub fn checkpoint(&self) -> ClusterCheckpoint {
        let router = self.router.read();
        let _gate = self.ingest_gate.write();
        let _directory = self.directory.read_all();
        let shards = (0..self.shards())
            .map(|i| self.set.checkpoint_shard(i))
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
    /// deployment). The topics retain every record from the *newest*
    /// checkpoint's applied offsets on; the restored shards resume at
    /// their checkpointed offsets, so the next [`ClusterEngine::pump_all`]
    /// replays exactly the missed tail and the cluster converges to the
    /// state of an uninterrupted run — bit for bit, because engine
    /// restoration is bit-faithful and per-shard replay order is topic
    /// order. Restoring from an older checkpoint whose tail the topics
    /// have already dropped fails with [`JanusError::Storage`] before
    /// anything is built.
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
            for (i, sc) in checkpoint.shards.iter().enumerate() {
                let first = log.topic(i).first_offset();
                if sc.applied_offset < first {
                    return Err(JanusError::Storage(format!(
                        "shard {i} resumes at offset {} but its topic retains only \
                         offsets {first} and up; restore from a newer checkpoint",
                        sc.applied_offset
                    )));
                }
            }
        }
        // The checkpoint's router state supersedes the configured policy:
        // bounds move with rebalances and the rotation cursor with
        // traffic, and both are part of what "exactly as it was" means.
        let mut router = checkpoint.router.rebuild(config.shards)?;
        config.policy = checkpoint.router.policy.clone();
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
        // Sized once for every checkpointed row, like each shard's index.
        let rows: usize = checkpoint
            .shards
            .iter()
            .map(|sc| sc.archive_rows.len())
            .sum();
        let mut directory: DetHashMap<RowId, usize> =
            DetHashMap::with_capacity_and_hasher(rows, Default::default());
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
            // The checkpointed rows are moved into an archive once; every
            // follower *forks* that archive — a column-wise slot-order
            // copy — instead of cloning the whole `Vec<Row>` once per
            // replica. Restoration is deterministic and the fork preserves
            // slot order, so the followers come back bit-identical to the
            // primary, exactly as replicas are.
            let shard_cfg = shard_config(&config.base, sc.shard);
            let archive = janus_storage::ArchiveStore::try_from_rows(sc.archive_rows)?;
            let host = |archive| -> Result<ShardHost> {
                let engine =
                    JanusEngine::restore_with_archive(shard_cfg.clone(), archive, &sc.synopsis)?;
                Ok(ShardHost::new(engine, offset))
            };
            replica_sets.push(
                (0..config.replicas)
                    .map(|_| host(archive.fork()))
                    .collect::<Result<_>>()?,
            );
            shards.push(host(archive)?);
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

        let directory = StripedDirectory::from_map(config.shards, directory);
        let set = ShardSet::new(&config, shards, replica_sets, log);
        let pool = ScatterPool::start("janus-scatter", config.shards);
        let cluster = Self::assemble(config, router, directory, set, rebalance_generation, pool);
        // A restore over the surviving topics pins them at the offsets it
        // resumes from, as the checkpoint it restores did.
        if !detached {
            for (pin, (applied, _)) in cluster.set.pins.iter().zip(offsets) {
                pin.store(applied, Ordering::Release);
            }
        }
        Ok(cluster)
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
            && self.counters.rebalances.load(Ordering::Relaxed) > 0
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
        // Drain the stragglers published between the pre-drain and lock
        // acquisition: we hold the router write lock and every directory
        // stripe, so no further records can land, and migrating with
        // unapplied topic records would misplace them against the redrawn
        // bounds (or resurrect rows whose pending delete fails on the
        // donor after a move). Replicas drain to the same point so the
        // shipped post-migration snapshots replace followers that were
        // bit-identical to their primaries.
        self.pump_all()?;
        let mut guards: Vec<_> = self.set.shards.iter().map(ShardHost::write).collect();
        let mut replica_sets: Vec<_> = self.set.replicas.iter().map(|s| s.write()).collect();
        let populations: Vec<usize> = guards.iter().map(|g| g.population()).collect();
        if !rebalance::skew_exceeds(&populations, factor) {
            return Ok(None);
        }
        // Minimum-gain gate: the skew must have grown meaningfully past
        // what the previous migration left behind.
        if self.config.rebalance_min_gain > 0.0
            && self.counters.rebalances.load(Ordering::Relaxed) > 0
        {
            let baseline = f64::from_bits(self.post_rebalance_skew.load(Ordering::Relaxed));
            if rebalance::skew_ratio(&populations) < baseline + self.config.rebalance_min_gain {
                return Ok(None);
            }
        }
        let mut shard_refs: Vec<&mut JanusEngine> = guards.iter_mut().map(|g| &mut **g).collect();
        let mut replica_refs: Vec<Vec<&mut JanusEngine>> = replica_sets
            .iter_mut()
            .map(|set| set.iter_mut().map(ShardHost::get_mut).collect())
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
            self.counters.rebalances.fetch_add(1, Ordering::Relaxed);
            self.counters
                .rows_migrated
                .fetch_add(r.rows_moved as u64, Ordering::Relaxed);
            // Record the hysteresis baselines: the pump clock and the
            // skew ratio this migration achieved.
            self.rebalance_mark
                .store(self.pumped_records(), Ordering::Relaxed);
            let post: Vec<usize> = guards.iter().map(|g| g.population()).collect();
            self.post_rebalance_skew
                .store(rebalance::skew_ratio(&post).to_bits(), Ordering::Relaxed);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{AggregateFunction, QueryTemplate};

    /// `shards` hash shards with one follower each over 400 bootstrap
    /// rows, and `published` inserts published but not pumped.
    fn replicated_cluster(shards: usize, published: u64) -> ClusterEngine {
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let mut base = SynopsisConfig::paper_default(template, 5);
        base.leaf_count = 4;
        let rows = (0..400).map(|i| Row::new(i, vec![i as f64, 1.0])).collect();
        let config = ClusterConfig::new(base, shards, ShardPolicy::HashById).with_replicas(1);
        let cluster = ClusterEngine::bootstrap(config, rows).unwrap();
        cluster.publish_batch(
            (1_000..1_000 + published).map(|id| ShardOp::Insert(Row::new(id, vec![1.0, 1.0]))),
        );
        cluster
    }

    /// Progress probes read offsets, not engines: while this thread holds
    /// shard 0's primary and follower engines exclusively, `pending`,
    /// `shard_backlogs` and `replica_pending` still return — a probe that
    /// took a shard's read lock would wait, which the `recv_timeout`
    /// reports as a failure instead of a hang.
    #[test]
    fn progress_reads_do_not_wait_on_a_shard_lock() {
        let cluster = replicated_cluster(2, 10);
        let probes = || {
            (
                cluster.pending(),
                cluster.shard_backlogs(),
                cluster.replica_pending(),
            )
        };
        let expected = probes();
        assert_eq!((expected.0, expected.2), (10, 10));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let primary = cluster.set.shards[0].write();
        let followers = cluster.set.replicas[0].read();
        let follower = followers[0].write();
        std::thread::scope(|s| {
            s.spawn(|| done_tx.send(probes()).unwrap());
            let reply = done_rx.recv_timeout(Duration::from_secs(10));
            drop((follower, primary));
            assert_eq!(
                reply.expect("a progress read waited for a shard lock"),
                expected
            );
        });
    }

    /// `backlog_exceeds(limit)` means "over the limit": at a settled
    /// backlog `b` it is false at `b` and true at `b - 1`, before and
    /// after a partial pump, and a drained shard exceeds no limit.
    #[test]
    fn backlog_exceeds_means_over_the_limit() {
        let cluster = replicated_cluster(1, 10);
        for b in [10, 6] {
            assert_eq!(cluster.shard_backlogs(), vec![b]);
            assert!(!cluster.backlog_exceeds(b), "at b = {b}");
            assert!(cluster.backlog_exceeds(b - 1), "at b - 1 = {}", b - 1);
            cluster.pump_shard(0, 4).unwrap();
        }
        cluster.pump_all().unwrap();
        assert!(!cluster.backlog_exceeds(0));
    }

    /// The directory's per-shard row counts, in shard order.
    fn directory_counts(cluster: &ClusterEngine) -> Vec<usize> {
        (0..cluster.shards())
            .map(|shard| cluster.directory.count(shard) as usize)
            .collect()
    }

    fn assert_counts_settled(cluster: &ClusterEngine, when: &str) {
        assert_eq!(
            directory_counts(cluster),
            cluster.shard_populations(),
            "{when}"
        );
    }

    /// The row counts a deadline-partial gather weighs shards by equal
    /// the shard populations whenever the topics are drained: after
    /// bootstrap, after inserts and deletes, after a migration and after
    /// a restore. A routed publish counts exactly what a classic one does.
    #[test]
    fn directory_counts_equal_shard_populations() {
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let mut base = SynopsisConfig::paper_default(template, 7);
        base.leaf_count = 4;
        let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
        let config = ClusterConfig::new(base, 4, policy);
        let rows = || (0..800).map(|i| Row::new(i, vec![(i % 100) as f64, 1.0]));
        let classic = ClusterEngine::bootstrap(config.clone(), rows().collect()).unwrap();
        let routed = ClusterEngine::bootstrap(config.clone(), rows().collect()).unwrap();
        assert_counts_settled(&classic, "after bootstrap");

        // Two thousand inserts into the lowest slab skew shard 0.
        let inserts: Vec<Row> = (10_000..12_000)
            .map(|i| Row::new(i, vec![(i % 20) as f64, 2.0]))
            .collect();
        classic.publish_batch(inserts.iter().cloned().map(ShardOp::Insert));
        let snapshot = routed.routing_snapshot();
        let router = ShardRouter::new(snapshot.policy.clone(), snapshot.shards).unwrap();
        let mut groups: Vec<(usize, Vec<Row>)> = (0..4).map(|shard| (shard, Vec::new())).collect();
        for row in inserts {
            groups[router.route_stateless(&row).unwrap()].1.push(row);
        }
        let report = routed
            .publish_batch_routed(snapshot.generation, groups)
            .unwrap();
        assert_eq!(report.published, 2_000);
        assert_eq!(
            directory_counts(&routed),
            directory_counts(&classic),
            "routed and classic publishes, before any pump"
        );

        let deletes = || (0..300).step_by(3).map(ShardOp::Delete);
        for cluster in [&classic, &routed] {
            assert_eq!(cluster.publish_batch(deletes()).rejected, 0);
            cluster.pump_all().unwrap();
            assert_counts_settled(cluster, "after inserts and deletes");
        }

        let report = classic.maybe_rebalance().unwrap().expect("skew triggers");
        assert!(report.rows_moved > 0);
        assert_counts_settled(&classic, "after a migration");

        let checkpoint = classic.checkpoint();
        classic.publish_batch(
            (20_000..20_500)
                .map(|i| ShardOp::Insert(Row::new(i, vec![(i % 100) as f64, 3.0])))
                .chain((300..600).step_by(5).map(ShardOp::Delete)),
        );
        let restored = ClusterEngine::restore(config, checkpoint, classic.topics()).unwrap();
        restored.pump_all().unwrap();
        classic.pump_all().unwrap();
        assert_counts_settled(&restored, "after a restore and its tail");
        assert_eq!(directory_counts(&restored), directory_counts(&classic));
    }
}
