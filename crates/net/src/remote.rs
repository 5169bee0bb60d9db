//! The coordinator front end for a networked cluster.
//!
//! [`RemoteCluster`] presents the same publish / query / drain /
//! backpressure surface as the in-process cluster (`ClusterEngine` +
//! `LiveCluster`), but every shard engine lives in a remote
//! [`crate::node::NodeServer`] process. The coordinator owns the
//! durable state:
//!
//! * the **router** and the authoritative row → shard directory, so
//!   publishes route identically to the in-process cluster (identical
//!   per-shard topic contents, hence bit-identical shard engines);
//! * the **per-shard topics** ([`ShardedLog`]) — the source of truth a
//!   node death can never lose: an acknowledged publish is durable at
//!   the coordinator before any node sees it;
//! * the **placement directory** ([`Directory`]), replicated by value
//!   through an optional [`CheckpointStore`].
//!
//! There is one publish path: [`RemoteCluster::publish_batch`] resolves a
//! whole batch against the row directory under one lock acquisition,
//! appends once per touched shard, wakes the shippers once, and then
//! stalls once per touched shard while that shard is over the
//! publish-ahead bound (`publish_insert` / `publish_delete` are
//! one-element batches). Because the stall follows the append, the
//! slowest alive copy of a shard trails its topic end by at most
//! [`RemoteConfig::max_backlog`] records plus one batch.
//!
//! Per-node *shipper* threads push each shard topic's tail to every
//! node hosting a copy ([`Frame::PublishBatch`]), so followers tail
//! remote topics exactly like in-process replicas tail local ones. A
//! heartbeat thread doubles as failure detector and applied-offset
//! poller. When a node dies (heartbeat or ship error), the directory
//! promotes the freshest surviving follower per lost primary — the
//! `fail_shard` rule — and the promoted copy catches up from the
//! coordinator topic, so recovery is bit-exact for every acknowledged
//! record.
//!
//! Reads scatter per overlapping shard through the in-process
//! coordinator's own [`ScatterPool::fan_out`] (one pool worker per shard,
//! started at bootstrap; one TCP exchange per job; no thread per query),
//! with the same freshness gate as in-process replicas: a follower may
//! serve only while it trails the topic end by at most `replica_lag`
//! records (round-robin across primary + fresh followers); the node
//! re-checks the gate under its engine lock and answers `Stale` if it
//! fell behind, in which case the coordinator falls back to the primary.
//!
//! # Transient-failure hardening
//!
//! Every transport exchange (shipper pushes, query scatters, checkpoint
//! shipping, population probes) runs under a seeded [`RetryPolicy`]:
//! exponential backoff with deterministic jitter, a fresh TCP dial
//! before each retry (connections are stateless after the bootstrap
//! hello, and publish replays deduplicate by offset on the node), and
//! `fail_node` only after the budget is exhausted. Heartbeats fail a
//! node only after `retry.budget` *consecutive* misses. Each node also
//! carries a circuit breaker: after `retry.budget` consecutive
//! query-path failures it opens for `retry.cap`, during which scatters
//! prefer fresh followers (degraded replica reads, counted in
//! [`RemoteStats::degraded_reads`]); a half-open probe then readmits
//! the node on the first success.

use crate::directory::{Directory, NodeDesc};
use crate::node::NodeConfig;
use crate::wire::{self, Frame, QueryOutcome};
use janus_cluster::bootstrap::{partition_rows, shard_config};
use janus_cluster::notify::{Backoff, Progress};
use janus_cluster::{
    resolve_batch, Priority, PublishReport, ScatterPool, ShardCheckpoint, ShardOp, ShardPolicy,
    ShardRouter,
};
use janus_common::merge::{self, SubAnswer};
use janus_common::{
    faults, AggregateFunction, DetHashMap, Estimate, JanusError, Query, Result, Row, RowId,
};
use janus_core::SynopsisConfig;
use janus_storage::{CheckpointStore, ShardedLog};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ceiling of [`RemoteCluster::drain`]'s wait. Nodes do not push their
/// applied offsets, so this one timeout is a probe period rather than a
/// missed-wakeup backstop and stays shorter than the shared idle cap.
const DRAIN_PROBE_MAX: Duration = Duration::from_millis(20);
/// Pause before re-reading the directory when a shard's primary was seen
/// dead mid-promotion.
const PROMOTION_POLL: Duration = Duration::from_millis(1);
/// Bound on a re-dial attempt during retry; the bootstrap dial keeps its
/// own, more generous timeout.
const REDIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// Exponential-backoff budget for transport exchanges with one node.
///
/// `budget` attempts total; attempt `n` (1-based) sleeps a jittered
/// `base * 2^(n-1)` capped at `cap` before the retry. Jitter is a pure
/// function of `(seed, salt, attempt)` via the same SplitMix64 finalizer
/// the failpoint registry uses, so two coordinators configured alike
/// back off identically — the chaos suite pins that.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts before the operation fails over (minimum 1).
    pub budget: u32,
    /// First backoff sleep.
    pub base: Duration,
    /// Backoff ceiling — also the circuit breaker's open interval.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 0x6a61_6e75_735f_7270,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `attempt` (1-based).
    /// Deterministic in `(seed, salt, attempt)`; jitter spans the upper
    /// half of the exponential step so backoff never collapses to zero.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.base.as_nanos().max(1) as u64;
        let cap = self.cap.as_nanos().max(1) as u64;
        let step = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(cap);
        let h = faults::mix64(self.seed ^ salt ^ u64::from(attempt).wrapping_mul(0x9e37));
        let jittered = step / 2 + h % (step / 2 + 1);
        Duration::from_nanos(jittered.min(cap))
    }
}

/// Per-node circuit breaker: opens after `threshold` consecutive
/// failures, holds for `cooldown`, then admits a single half-open probe
/// whose outcome closes or re-opens it.
struct Breaker {
    fails: AtomicU32,
    state: Mutex<BreakerState>,
}

enum BreakerState {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            fails: AtomicU32::new(0),
            state: Mutex::new(BreakerState::Closed),
        }
    }

    /// `true` while callers should avoid this node. The first caller to
    /// observe an expired open interval transitions to half-open and is
    /// told `false` — it becomes the probe; everyone else keeps seeing
    /// `true` until the probe reports.
    fn is_open(&self) -> bool {
        let mut state = self.state.lock();
        match *state {
            BreakerState::Closed => false,
            BreakerState::Open { until } => {
                if Instant::now() < until {
                    true
                } else {
                    *state = BreakerState::HalfOpen;
                    false
                }
            }
            BreakerState::HalfOpen => true,
        }
    }

    fn record_ok(&self) {
        self.fails.store(0, Ordering::Relaxed);
        *self.state.lock() = BreakerState::Closed;
    }

    fn record_err(&self, threshold: u32, cooldown: Duration) -> bool {
        let fails = self.fails.fetch_add(1, Ordering::Relaxed) + 1;
        let mut state = self.state.lock();
        let reopen = matches!(*state, BreakerState::HalfOpen) || fails >= threshold.max(1);
        if reopen {
            *state = BreakerState::Open {
                until: Instant::now() + cooldown,
            };
        }
        reopen
    }

    fn force_open(&self, hold: Duration) {
        *self.state.lock() = BreakerState::Open {
            until: Instant::now() + hold,
        };
    }
}

/// Deployment parameters for a networked cluster.
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// Base synopsis configuration; each shard gets its seed mixed via
    /// [`shard_config`], exactly like the in-process cluster.
    pub base: SynopsisConfig,
    /// Number of shards.
    pub shards: usize,
    /// Row → shard routing policy.
    pub policy: ShardPolicy,
    /// Follower copies per shard (placed in distinct failure domains).
    pub replicas: usize,
    /// Freshness gate: a follower serves reads only while it trails the
    /// shard topic end by at most this many records.
    pub replica_lag: u64,
    /// Per-shard publish-ahead bound: a publish call stalls on return
    /// while any copy of a shard it appended to trails by more than this
    /// many applied records, so a copy trails by at most `max_backlog`
    /// plus one batch (0 disables backpressure).
    pub max_backlog: u64,
    /// Records per shipped batch.
    pub ship_chunk: usize,
    /// Failure-detection / offset-poll period.
    pub heartbeat_every: Duration,
    /// Socket read timeout on both channels of every node link. `None`
    /// (the default, matching the pre-retry behavior) blocks reads
    /// indefinitely; setting it makes a stalled node surface as a
    /// transport error that the retry/breaker machinery handles.
    pub read_timeout: Option<Duration>,
    /// Backoff budget for every transport exchange; also sets the
    /// heartbeat miss threshold (`budget` consecutive misses) and the
    /// circuit breaker's threshold and open interval.
    pub retry: RetryPolicy,
}

impl RemoteConfig {
    /// Defaults mirroring the in-process cluster's tuning.
    pub fn new(base: SynopsisConfig, shards: usize, policy: ShardPolicy) -> Self {
        RemoteConfig {
            base,
            shards,
            policy,
            replicas: 0,
            replica_lag: 0,
            max_backlog: 65_536,
            ship_chunk: 1024,
            heartbeat_every: Duration::from_millis(100),
            read_timeout: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Enables `replicas` follower copies per shard with freshness gate
    /// `replica_lag`.
    pub fn with_replicas(mut self, replicas: usize, replica_lag: u64) -> Self {
        self.replicas = replicas;
        self.replica_lag = replica_lag;
        self
    }

    /// Sets the failure-detection / offset-poll period.
    pub fn with_heartbeat_every(mut self, period: Duration) -> Self {
        self.heartbeat_every = period;
        self
    }

    /// Sets the socket read timeout on every node link.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Sets the publish-ahead window (`max_backlog`): a publish call
    /// stalls while any copy of a shard it appended to trails by more
    /// than this many applied records. `0` disables backpressure.
    pub fn with_publish_window(mut self, max_backlog: u64) -> Self {
        self.max_backlog = max_backlog;
        self
    }

    /// Sets the transport retry/backoff policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Counters for the coordinator's observable work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Records accepted into shard topics.
    pub published: u64,
    /// Publishes rejected (duplicate insert / unknown delete).
    pub rejected: u64,
    /// Node failures handled.
    pub failovers: u64,
    /// Sub-queries served by a follower instead of the primary.
    pub replica_queries: u64,
    /// Shard migrations completed via checkpoint shipping.
    pub migrations: u64,
    /// Deadline-bounded answers merged from a strict subset of shards.
    pub partial_answers: u64,
    /// Transport retries that eventually succeeded or failed over.
    pub link_retries: u64,
    /// Sub-queries steered to a follower because the primary's circuit
    /// breaker was open.
    pub degraded_reads: u64,
}

#[derive(Default)]
struct Counters {
    published: AtomicU64,
    rejected: AtomicU64,
    failovers: AtomicU64,
    replica_queries: AtomicU64,
    migrations: AtomicU64,
    partial_answers: AtomicU64,
    link_retries: AtomicU64,
    degraded_reads: AtomicU64,
}

/// Live connection state for one node.
struct NodeLink {
    desc: NodeDesc,
    /// Bulk data channel: host/install, tail shipping, checkpoints.
    ship: Mutex<TcpStream>,
    /// Control channel: heartbeats, queries, population probes — kept
    /// separate so a large in-flight batch never delays a read.
    ctrl: Mutex<TcpStream>,
    alive: AtomicBool,
    /// Per-shard topic offset acknowledged as received by the node.
    shipped: Mutex<HashMap<u32, u64>>,
    /// Per-shard topic offset the node reported as applied.
    applied: Mutex<HashMap<u32, u64>>,
    /// Shipper thread handle, for publish-side unparks.
    thread: Mutex<Option<std::thread::Thread>>,
    hb_seq: AtomicU64,
    /// Consecutive heartbeat misses; `retry.budget` of them fail the node.
    hb_misses: AtomicU32,
    /// Socket read timeout restored after every deadline-bounded call.
    read_timeout: Option<Duration>,
    breaker: Breaker,
}

impl NodeLink {
    fn request(stream: &Mutex<TcpStream>, frame: &Frame) -> Result<Frame> {
        let mut s = stream.lock();
        Self::exchange(&mut s, frame, false)
    }

    /// One request/reply exchange that tolerates *straggler* replies: a
    /// query whose socket deadline expired leaves its eventual
    /// [`Frame::Estimate`] in the stream, so every reader discards any
    /// estimate whose correlation id is not the one it asked for (or any
    /// estimate at all, for non-query requests). `bounded` reads honor
    /// the stream's configured read timeout via
    /// [`wire::read_frame_deadline`].
    fn exchange(s: &mut TcpStream, frame: &Frame, bounded: bool) -> Result<Frame> {
        let want = match frame {
            Frame::Query { id, .. } => Some(*id),
            _ => None,
        };
        wire::write_frame(s, frame)?;
        loop {
            let reply = if bounded {
                wire::read_frame_deadline(s)?
            } else {
                wire::read_frame(s)?
            };
            match reply {
                None => {
                    return Err(JanusError::Protocol(
                        "connection closed before reply".into(),
                    ))
                }
                Some(Frame::Estimate { id, .. }) if want != Some(id) => continue,
                Some(reply) => return Ok(reply),
            }
        }
    }

    fn request_ship(&self, frame: &Frame) -> Result<Frame> {
        Self::request(&self.ship, frame)
    }

    fn request_ctrl(&self, frame: &Frame) -> Result<Frame> {
        Self::request(&self.ctrl, frame)
    }

    /// [`NodeLink::request_ctrl`] under a read deadline: the socket read
    /// times out after `budget`, surfacing [`JanusError::Deadline`] when
    /// the node is healthy but too slow — the caller treats the shard as
    /// missing from the gather, **not** as a node failure. The timeout is
    /// always cleared before the lock is released.
    fn request_ctrl_deadline(&self, frame: &Frame, budget: Duration) -> Result<Frame> {
        let mut s = self.ctrl.lock();
        // A zero timeout would mean "no timeout" to the OS; clamp up.
        if s.set_read_timeout(Some(budget.max(Duration::from_millis(1))))
            .is_err()
        {
            return Self::exchange(&mut s, frame, false);
        }
        let result = Self::exchange(&mut s, frame, true);
        let _ = s.set_read_timeout(self.read_timeout);
        result
    }

    /// Dials a fresh connection to this node (retry path — bounded by
    /// [`REDIAL_TIMEOUT`]). No hello is needed: connections are
    /// stateless after the bootstrap handshake.
    fn dial(&self) -> std::io::Result<TcpStream> {
        let s = TcpStream::connect_timeout(&self.desc.addr, REDIAL_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(self.read_timeout)?;
        Ok(s)
    }

    /// Best-effort replacement of the control stream with a fresh dial.
    fn redial_ctrl(&self) {
        if let Ok(fresh) = self.dial() {
            *self.ctrl.lock() = fresh;
        }
    }

    /// One request with the full retry budget: on a transport error,
    /// back off (jitter salted by this node's id), re-dial, and resend.
    /// Safe for every frame the coordinator ships — publishes replay
    /// idempotently by offset and the rest are read-only or idempotent
    /// installs. Returns the last error once the budget is exhausted.
    fn request_retry(
        &self,
        stream: &Mutex<TcpStream>,
        frame: &Frame,
        policy: &RetryPolicy,
        retries: &AtomicU64,
    ) -> Result<Frame> {
        let mut s = stream.lock();
        let mut attempt = 0u32;
        loop {
            match Self::exchange(&mut s, frame, false) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    attempt += 1;
                    if attempt >= policy.budget.max(1) {
                        return Err(e);
                    }
                    retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(policy.backoff(attempt, self.desc.node_id));
                    if let Ok(fresh) = self.dial() {
                        *s = fresh;
                    }
                }
            }
        }
    }

    fn shipped_of(&self, shard: u32) -> u64 {
        self.shipped.lock().get(&shard).copied().unwrap_or(0)
    }

    fn applied_of(&self, shard: u32) -> u64 {
        self.applied.lock().get(&shard).copied().unwrap_or(0)
    }

    fn unpark(&self) {
        if let Some(t) = self.thread.lock().as_ref() {
            t.unpark();
        }
    }
}

struct RemoteShared {
    config: RemoteConfig,
    router: RwLock<ShardRouter>,
    /// Authoritative row → shard placement (same role as the in-process
    /// cluster's directory): dedups inserts, routes deletes.
    row_homes: Mutex<DetHashMap<RowId, usize>>,
    /// The durable per-shard operation topics. Source of truth: every
    /// acknowledged publish lives here before any node applies it.
    topics: ShardedLog<ShardOp>,
    directory: RwLock<Directory>,
    links: Vec<NodeLink>,
    shutdown: AtomicBool,
    progress: Progress,
    read_cursor: AtomicU64,
    query_seq: AtomicU64,
    /// Directory replication target plus its version counter.
    store: Option<Arc<dyn CheckpointStore>>,
    store_version: AtomicU64,
    counters: Counters,
}

impl RemoteShared {
    fn unpark_shippers(&self) {
        for link in &self.links {
            link.unpark();
        }
    }

    fn persist_directory(&self, dir: &Directory) {
        if let Some(store) = &self.store {
            let version = self.store_version.fetch_add(1, Ordering::Relaxed) + 1;
            if let Ok(json) = serde_json::to_string(&dir.snapshot()) {
                let _ = store.put(version, &json);
                let _ = store.prune(2);
            }
        }
    }

    /// Worst observed lag for `shard`: topic end minus the smallest
    /// applied offset over its alive copies.
    fn backlog_of(&self, shard: u32) -> u64 {
        let dir = self.directory.read();
        if dir.lost_shards().contains(&shard) {
            return 0;
        }
        let end = self.topics.topic(shard as usize).len() as u64;
        dir.hosts_of(shard)
            .all()
            .filter(|&n| dir.is_alive(n))
            .map(|n| end.saturating_sub(self.links[n].applied_of(shard)))
            .max()
            .unwrap_or(0)
    }
}

/// The error for a reply of the wrong kind: a node-side
/// [`Frame::Error`] surfaces its message, anything else is a protocol
/// violation naming the exchange.
fn reply_error(reply: Frame, exchange: &str) -> JanusError {
    match reply {
        Frame::Error { message } => JanusError::Storage(message),
        other => JanusError::Protocol(format!("unexpected {exchange} reply: {other:?}")),
    }
}

/// Accepts [`Frame::Ok`]; everything else is a [`reply_error`].
fn expect_ok(reply: Frame, exchange: &str) -> Result<()> {
    match reply {
        Frame::Ok => Ok(()),
        other => Err(reply_error(other, exchange)),
    }
}

/// `shard`'s primary if it is alive; `None` while its death has been
/// observed but the promotion has not landed (callers pause
/// [`PROMOTION_POLL`] and look again). Errs once the shard lost every
/// copy.
fn alive_primary(dir: &Directory, shard: u32) -> Result<Option<usize>> {
    if dir.lost_shards().contains(&shard) {
        return Err(JanusError::Storage(format!(
            "shard {shard} lost every copy"
        )));
    }
    let primary = dir.hosts_of(shard).primary;
    Ok(dir.is_alive(primary).then_some(primary))
}

/// Marks a node dead and promotes followers for every shard it led.
/// Idempotent: concurrent detectors (shipper error, heartbeat timeout,
/// query error) race on the `alive` swap and only one runs promotions.
fn fail_node(shared: &RemoteShared, idx: usize) {
    if !shared.links[idx].alive.swap(false, Ordering::AcqRel) {
        return;
    }
    let mut dir = shared.directory.write();
    let promotions = dir.fail_node(idx, |node, shard| shared.links[node].applied_of(shard));
    shared.persist_directory(&dir);
    drop(dir);
    drop(promotions);
    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
    shared.unpark_shippers();
    shared.progress.bump();
}

/// One heartbeat sweep: probe every alive node, fold its applied
/// offsets into the link state. A miss re-dials and is only fatal after
/// `retry.budget` *consecutive* misses — a dropped connection or one
/// slow reply no longer kills a node that is otherwise healthy.
fn probe_all(shared: &RemoteShared) {
    let threshold = shared.config.retry.budget.max(1);
    for (idx, link) in shared.links.iter().enumerate() {
        if !link.alive.load(Ordering::Acquire) {
            continue;
        }
        let seq = link.hb_seq.fetch_add(1, Ordering::Relaxed);
        match link.request_ctrl(&Frame::Heartbeat { seq }) {
            Ok(Frame::HeartbeatAck { applied, .. }) => {
                link.hb_misses.store(0, Ordering::Relaxed);
                let mut map = link.applied.lock();
                for (shard, off) in applied {
                    map.insert(shard, off);
                }
                drop(map);
                shared.progress.bump();
            }
            _ => {
                let misses = link.hb_misses.fetch_add(1, Ordering::Relaxed) + 1;
                if misses >= threshold {
                    fail_node(shared, idx);
                } else {
                    link.redial_ctrl();
                }
            }
        }
    }
}

/// Pushes topic tails to one node until shutdown or node death.
fn shipper_loop(shared: &RemoteShared, idx: usize) {
    let link = &shared.links[idx];
    let mut idle = Backoff::new();
    while !shared.shutdown.load(Ordering::Acquire) && link.alive.load(Ordering::Acquire) {
        let hosted = shared.directory.read().hosted_shards(idx);
        let mut moved = false;
        for shard in hosted {
            let cursor = link.shipped_of(shard);
            let batch = shared
                .topics
                .poll(shard as usize, cursor, shared.config.ship_chunk.max(1));
            if batch.is_empty() {
                continue;
            }
            let frame = Frame::PublishBatch {
                shard,
                first_offset: cursor,
                ops: batch,
            };
            let reply = link.request_retry(
                &link.ship,
                &frame,
                &shared.config.retry,
                &shared.counters.link_retries,
            );
            match reply {
                Ok(Frame::PublishAck {
                    received, applied, ..
                }) => {
                    link.shipped.lock().insert(shard, received);
                    link.applied.lock().insert(shard, applied);
                    moved = true;
                    shared.progress.bump();
                }
                // A node-side error (gap, unhosted shard) means this
                // copy cannot converge; a transport failure surviving
                // the full retry budget means the node is gone. Either
                // way the copy is done for.
                Ok(_) | Err(_) => {
                    fail_node(shared, idx);
                    return;
                }
            }
        }
        if moved {
            idle.reset();
        } else {
            idle.park();
        }
    }
}

fn heartbeat_loop(shared: &RemoteShared) {
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::park_timeout(shared.config.heartbeat_every);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        probe_all(shared);
    }
}

/// A networked cluster's coordinator handle.
pub struct RemoteCluster {
    shared: Arc<RemoteShared>,
    workers: Vec<JoinHandle<()>>,
    /// One worker per shard, under every multi-target scatter; joined
    /// when the handle drops, after `stop_workers` raised the flag.
    pool: ScatterPool,
}

impl RemoteCluster {
    /// Connects to node daemons at `addrs`, partitions `rows` across
    /// `config.shards` shards exactly like the in-process cluster
    /// (same router, same per-shard seeds), places primaries and
    /// distinct-failure-domain followers via [`Directory::place`], and
    /// ships each shard's bootstrap partition to its hosts.
    pub fn bootstrap(config: RemoteConfig, rows: Vec<Row>, addrs: &[SocketAddr]) -> Result<Self> {
        Self::bootstrap_with_store(config, rows, addrs, None)
    }

    /// [`RemoteCluster::bootstrap`] that also replicates the placement
    /// directory into `store` after every mutation (bootstrap,
    /// failover, migration) — give the directory its own store, not the
    /// one shard checkpoints use.
    pub fn bootstrap_with_store(
        config: RemoteConfig,
        rows: Vec<Row>,
        addrs: &[SocketAddr],
        store: Option<Arc<dyn CheckpointStore>>,
    ) -> Result<Self> {
        config.base.validate()?;
        if config.shards == 0 {
            return Err(JanusError::InvalidConfig("need at least one shard".into()));
        }
        let mut links = Vec::with_capacity(addrs.len());
        for addr in addrs {
            links.push(connect_node(*addr, config.read_timeout)?);
        }
        let descs: Vec<NodeDesc> = links.iter().map(|l| l.desc.clone()).collect();
        let directory = Directory::place(descs, config.shards, config.replicas)?;

        let mut router = ShardRouter::new(config.policy.clone(), config.shards)?;
        let (per_shard, row_homes) = partition_rows(&mut router, rows)?;
        for (shard, bucket) in per_shard.into_iter().enumerate() {
            let shard_cfg = shard_config(&config.base, shard);
            for node in directory.hosts_of(shard as u32).all() {
                let reply = links[node].request_ship(&Frame::Host {
                    shard: shard as u32,
                    config: shard_cfg.clone(),
                    rows: bucket.clone(),
                })?;
                expect_ok(reply, "host")?;
            }
        }

        let shards = config.shards;
        let shared = Arc::new(RemoteShared {
            config,
            router: RwLock::new(router),
            row_homes: Mutex::new(row_homes),
            topics: ShardedLog::new(shards),
            directory: RwLock::new(directory),
            links,
            shutdown: AtomicBool::new(false),
            progress: Progress::new(),
            read_cursor: AtomicU64::new(0),
            query_seq: AtomicU64::new(0),
            store,
            store_version: AtomicU64::new(0),
            counters: Counters::default(),
        });
        shared.persist_directory(&shared.directory.read());

        let mut workers = Vec::new();
        for idx in 0..shared.links.len() {
            let s = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("janus-ship-{idx}"))
                .spawn(move || shipper_loop(&s, idx))
                .map_err(|e| JanusError::Storage(format!("spawn shipper: {e}")))?;
            *shared.links[idx].thread.lock() = Some(handle.thread().clone());
            workers.push(handle);
        }
        let s = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name("janus-heartbeat".into())
                .spawn(move || heartbeat_loop(&s))
                .map_err(|e| JanusError::Storage(format!("spawn heartbeat: {e}")))?,
        );
        Ok(RemoteCluster {
            shared,
            workers,
            pool: ScatterPool::start("janus-gather", shards),
        })
    }

    /// Routes an insert to its shard topic — a one-element
    /// [`RemoteCluster::publish_batch`].
    pub fn publish_insert(&self, row: Row) -> Result<()> {
        let id = row.id;
        match self.publish_batch([ShardOp::Insert(row)]).rejected {
            0 => Ok(()),
            _ => Err(JanusError::InvalidConfig(format!("duplicate row id {id}"))),
        }
    }

    /// Routes a delete to the shard holding the row — a one-element
    /// [`RemoteCluster::publish_batch`].
    pub fn publish_delete(&self, id: RowId) -> Result<()> {
        match self.publish_batch([ShardOp::Delete(id)]).rejected {
            0 => Ok(()),
            _ => Err(JanusError::RowNotFound(id)),
        }
    }

    /// Routes and publishes a batch under one row-directory and one
    /// router-write acquisition, through the in-process coordinator's own
    /// [`resolve_batch`] (arrival-order resolve, rejects skipped, one
    /// group per shard), and each group lands in its topic with a single
    /// batch append — so per-shard topic contents match
    /// `ClusterEngine::publish_batch`'s, however the caller slices. Every
    /// accepted record is durable at the coordinator on return; shippers
    /// push it to the hosting nodes asynchronously. The call then stalls
    /// once per shard it appended to while that shard is over the
    /// publish-ahead bound.
    pub fn publish_batch(&self, ops: impl IntoIterator<Item = ShardOp>) -> PublishReport {
        let shared = &self.shared;
        let mut homes = shared.row_homes.lock();
        let mut router = shared.router.write();
        let (groups, _, _, rejected) = resolve_batch(ops, &mut *homes, &mut router);
        drop(router);
        // Appends stay under the row-directory lock, mirroring the
        // in-process ordering guarantee: once the directory names a row,
        // its insert is in the topic ahead of any delete a concurrent
        // publisher could append.
        let mut published = 0usize;
        let mut touched = Vec::new();
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            published += group.len();
            shared.topics.publish_batch(shard, group);
            touched.push(shard as u32);
        }
        drop(homes);
        let counters = &shared.counters;
        counters
            .published
            .fetch_add(published as u64, Ordering::Relaxed);
        counters
            .rejected
            .fetch_add(rejected as u64, Ordering::Relaxed);
        if published > 0 {
            shared.unpark_shippers();
        }
        for shard in touched {
            self.stall_for_backlog(shard);
        }
        PublishReport {
            published,
            rejected,
        }
    }

    /// Blocks while the publish-ahead bound is exceeded for `shard`:
    /// the slowest alive copy may trail the topic end by at most
    /// `max_backlog` records plus the batch just appended (and in-flight
    /// publishers), so an unbounded producer cannot run away from the
    /// fleet. Applied offsets only move on a publish ack or a heartbeat,
    /// and both bump progress.
    fn stall_for_backlog(&self, shard: u32) {
        let shared = &self.shared;
        let limit = shared.config.max_backlog;
        if limit == 0 {
            return;
        }
        shared.progress.wait_until(
            Backoff::new(),
            || shared.shutdown.load(Ordering::Acquire),
            || {},
            || shared.backlog_of(shard) <= limit,
        );
    }

    /// Worst publish-ahead lag across shards — `true` if any shard's
    /// slowest alive copy trails by more than `limit` records.
    pub fn backlog_exceeds(&self, limit: u64) -> bool {
        (0..self.shared.config.shards).any(|s| self.shared.backlog_of(s as u32) > limit)
    }

    /// Blocks until every alive copy of every shard has received and
    /// applied the full topic — the networked drain barrier. Probes
    /// nodes directly (not just on the heartbeat period) so the barrier
    /// resolves promptly.
    pub fn drain(&self) {
        let shared = &self.shared;
        shared.progress.wait_until(
            Backoff::capped(DRAIN_PROBE_MAX),
            || shared.shutdown.load(Ordering::Acquire),
            || {
                shared.unpark_shippers();
                probe_all(shared);
            },
            || self.drained(),
        );
    }

    fn drained(&self) -> bool {
        let dir = self.shared.directory.read();
        let ends = self.shared.topics.end_offsets();
        (0..self.shared.config.shards as u32).all(|shard| {
            if dir.lost_shards().contains(&shard) {
                return true; // nothing left to converge
            }
            let end = ends[shard as usize];
            dir.hosts_of(shard)
                .all()
                .filter(|&n| dir.is_alive(n))
                .all(|n| {
                    self.shared.links[n].shipped_of(shard) >= end
                        && self.shared.links[n].applied_of(shard) >= end
                })
        })
    }

    /// Scatter-gather query with the in-process cluster's exact merge
    /// semantics: COUNT/SUM merge additively, AVG re-derives from
    /// merged SUM/COUNT moments, MIN/MAX take the extreme of per-shard
    /// answers. Shard pruning uses the same router, and each sub-answer
    /// comes from an engine applying the same records in the same
    /// order — so a drained networked cluster answers bit-identically
    /// to a drained in-process one.
    pub fn query(&self, query: &Query) -> Result<Option<Estimate>> {
        self.query_with(query, 0, None)
    }

    /// [`RemoteCluster::query`] with a tenant tag and an optional gather
    /// deadline.
    ///
    /// The tenant rides every scattered [`Frame::Query`] (billing /
    /// tracing on the node side). The deadline bounds the gather (the
    /// first sub-answer is awaited, the rest only until expiry) and every
    /// socket read on the per-node control channels: a node that is
    /// healthy but too slow surfaces [`JanusError::Deadline`] for its
    /// shard — **never** a failover — and the arrived sub-answers are
    /// merged k-of-n style exactly like the in-process engine's
    /// deadline path, weighted by the coordinator's applied-offset
    /// gauges and flagged [`Estimate::partial`]. With no deadline the
    /// call is [`RemoteCluster::query`] unchanged. Errs with
    /// [`JanusError::Deadline`] only when *no* shard answered in time.
    pub fn query_with(
        &self,
        query: &Query,
        tenant: u32,
        deadline: Option<Duration>,
    ) -> Result<Option<Estimate>> {
        let expiry = deadline.map(|budget| Instant::now() + budget);
        let targets = self.shared.router.read().overlapping(query);
        // Extrapolation weights for a partial merge: the coordinator's
        // per-shard applied-record gauges (maintained by heartbeats and
        // publish acks) — a zero-cost proxy for shard row counts that
        // never blocks on a slow node.
        let weights: Vec<u64> = if expiry.is_some() {
            targets
                .iter()
                .map(|&t| self.shard_weight(t as u32))
                .collect()
        } else {
            Vec::new()
        };
        let slots = self.scatter(&targets, query, tenant, expiry)?;
        if !targets.is_empty() && slots.iter().all(Option::is_none) {
            return Err(JanusError::Deadline);
        }
        let answer = merge::gather(query.agg, &slots, &weights)?;
        if answer.is_some_and(|e| e.partial) {
            self.shared
                .counters
                .partial_answers
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(answer)
    }

    /// The coordinator's applied-record gauge for `shard`'s primary — the
    /// partial-merge weight proxy.
    fn shard_weight(&self, shard: u32) -> u64 {
        let dir = self.shared.directory.read();
        let primary = dir.hosts_of(shard).primary;
        self.shared.links[primary].applied_of(shard)
    }

    /// Scatters `query` at every target shard through
    /// [`ScatterPool::fan_out`] (one target on the calling thread, several
    /// on the pool's per-shard workers), in target order; slot `i` is
    /// `None` iff shard `targets[i]` missed the deadline.
    fn scatter(
        &self,
        targets: &[usize],
        query: &Query,
        tenant: u32,
        expiry: Option<Instant>,
    ) -> Result<Vec<Option<SubAnswer>>> {
        let moments = query.agg == AggregateFunction::Avg;
        let query = Arc::new(query.clone());
        let jobs = targets.iter().map(|&t| {
            let (shared, query) = (Arc::clone(&self.shared), Arc::clone(&query));
            let job = move || Self::scatter_one(&shared, t as u32, &query, moments, tenant, expiry);
            (t, job)
        });
        self.pool
            .fan_out(Priority::Bulk, expiry, jobs)
            .into_iter()
            .map(|slot| match slot {
                Some(Err(JanusError::Deadline)) | None => Ok(None),
                Some(outcome) => outcome.map(Some),
            })
            .collect()
    }

    /// Serves one sub-query, load-balancing across the primary and
    /// fresh followers, falling back to the primary on a `Stale`
    /// refusal and failing over on transport errors. Under an `expiry`
    /// every socket wait is bounded by the remaining budget;
    /// [`JanusError::Deadline`] means "shard too slow", and explicitly
    /// does not mark the node dead.
    fn scatter_one(
        shared: &RemoteShared,
        shard: u32,
        query: &Query,
        moments: bool,
        tenant: u32,
        expiry: Option<Instant>,
    ) -> Result<SubAnswer> {
        let id = shared.query_seq.fetch_add(1, Ordering::Relaxed);
        let mut primary_only = false;
        let mut attempts: HashMap<usize, u32> = HashMap::new();
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return Err(JanusError::Storage("cluster shut down".into()));
            }
            let budget = match expiry {
                Some(expiry) => {
                    let left = expiry.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(JanusError::Deadline);
                    }
                    Some(left)
                }
                None => None,
            };
            let picked = {
                let dir = shared.directory.read();
                let primary = alive_primary(&dir, shard)?;
                let hosts = dir.hosts_of(shard);
                let end = shared.topics.topic(shard as usize).len() as u64;
                let lag = shared.config.replica_lag;
                let fresh: Vec<usize> = hosts
                    .followers
                    .iter()
                    .copied()
                    .filter(|&f| {
                        dir.is_alive(f)
                            && end.saturating_sub(shared.links[f].applied_of(shard)) <= lag
                    })
                    .collect();
                primary.map(|primary| {
                    // Degraded replica reads: while the primary's
                    // breaker is open, steer round-robin across fresh
                    // followers only — unless the freshness fallback
                    // already pinned this gather to the primary (the
                    // pinned read doubles as the half-open probe).
                    let degraded = !primary_only
                        && !fresh.is_empty()
                        && shared.links[primary].breaker.is_open();
                    let pick = if primary_only {
                        0
                    } else if degraded {
                        shared
                            .counters
                            .degraded_reads
                            .fetch_add(1, Ordering::Relaxed);
                        1 + shared.read_cursor.fetch_add(1, Ordering::Relaxed) as usize
                            % fresh.len()
                    } else {
                        shared.read_cursor.fetch_add(1, Ordering::Relaxed) as usize
                            % (fresh.len() + 1)
                    };
                    if pick == 0 {
                        (primary, 0)
                    } else {
                        shared
                            .counters
                            .replica_queries
                            .fetch_add(1, Ordering::Relaxed);
                        (fresh[pick - 1], end.saturating_sub(lag))
                    }
                })
            };
            let Some((node, min_applied)) = picked else {
                std::thread::park_timeout(PROMOTION_POLL);
                continue;
            };
            let frame = Frame::Query {
                id,
                shard,
                moments,
                min_applied,
                tenant,
                deadline_ms: budget.map_or(0, |b| b.as_millis().max(1) as u64),
                query: query.clone(),
            };
            let reply = match budget {
                Some(budget) => shared.links[node].request_ctrl_deadline(&frame, budget),
                None => shared.links[node].request_ctrl(&frame),
            };
            if reply.is_ok() {
                shared.links[node].breaker.record_ok();
            }
            match reply {
                // `Stale`/`Failed` are wire-only; the answer-bearing
                // outcomes map one-to-one onto the gather's sub-answers.
                Ok(Frame::Estimate { outcome, .. }) => match outcome {
                    QueryOutcome::Stale { .. } => primary_only = true,
                    QueryOutcome::Failed(message) => return Err(JanusError::Storage(message)),
                    QueryOutcome::Empty => return Ok(SubAnswer::Empty),
                    QueryOutcome::Estimate(e) => return Ok(SubAnswer::Estimate(e)),
                    QueryOutcome::Moments { sum, count } => {
                        return Ok(SubAnswer::Moments { sum, count })
                    }
                },
                Ok(other) => return Err(reply_error(other, "query")),
                // A healthy-but-slow node: the shard misses this gather,
                // the node stays in the cluster — and the breaker is
                // left alone (slowness is the deadline's business).
                Err(JanusError::Deadline) => return Err(JanusError::Deadline),
                // Transport failure: back off and retry through a fresh
                // dial; the node is marked dead only once it burns the
                // whole budget for this gather.
                Err(_) => {
                    let policy = &shared.config.retry;
                    shared.links[node]
                        .breaker
                        .record_err(policy.budget, policy.cap);
                    let tried = attempts.entry(node).or_insert(0);
                    *tried += 1;
                    if *tried >= policy.budget.max(1) {
                        fail_node(shared, node);
                    } else {
                        shared.counters.link_retries.fetch_add(1, Ordering::Relaxed);
                        let mut sleep = policy.backoff(*tried, node as u64 ^ id);
                        if let Some(expiry) = expiry {
                            sleep = sleep.min(expiry.saturating_duration_since(Instant::now()));
                        }
                        std::thread::sleep(sleep);
                        shared.links[node].redial_ctrl();
                    }
                }
            }
        }
    }

    /// Exact total population across shards (primary copies).
    pub fn population(&self) -> Result<u64> {
        let mut total = 0;
        for shard in 0..self.shared.config.shards as u32 {
            loop {
                let Some(primary) = alive_primary(&self.shared.directory.read(), shard)? else {
                    std::thread::park_timeout(PROMOTION_POLL);
                    continue;
                };
                let link = &self.shared.links[primary];
                let reply = link.request_retry(
                    &link.ctrl,
                    &Frame::Population { shard },
                    &self.shared.config.retry,
                    &self.shared.counters.link_retries,
                );
                match reply {
                    Ok(Frame::PopulationAck { rows, .. }) => {
                        total += rows;
                        break;
                    }
                    Ok(other) => return Err(reply_error(other, "population")),
                    Err(_) => fail_node(&self.shared, primary),
                }
            }
        }
        Ok(total)
    }

    /// Moves `shard`'s primary copy to node `to` via checkpoint
    /// shipping — the networked twin of the in-process
    /// snapshot-shipping rebalance (`fork_via_snapshot` + archive
    /// fork): the source serializes synopsis + archive, the target
    /// restores them bit-identically, and the coordinator re-ships the
    /// topic tail from the checkpoint's applied offset. Publishes may
    /// continue throughout.
    pub fn move_shard(&self, shard: u32, to: usize) -> Result<()> {
        let shared = &self.shared;
        if to >= shared.links.len() {
            return Err(JanusError::InvalidConfig(format!("no node {to}")));
        }
        let from = {
            let dir = shared.directory.read();
            if !dir.is_alive(to) {
                return Err(JanusError::InvalidConfig(format!("node {to} is dead")));
            }
            dir.hosts_of(shard).primary
        };
        if from == to {
            return Ok(());
        }
        let shipped = shared.links[from].request_retry(
            &shared.links[from].ship,
            &Frame::FetchCheckpoint { shard },
            &shared.config.retry,
            &shared.counters.link_retries,
        )?;
        let Frame::Checkpoint { payload, .. } = &shipped else {
            return Err(reply_error(shipped, "checkpoint"));
        };
        let ck: ShardCheckpoint = serde_json::from_slice(payload)
            .map_err(|e| JanusError::Storage(format!("parse shipped checkpoint: {e}")))?;
        let applied_offset = ck.applied_offset;
        let install = shared.links[to].request_retry(
            &shared.links[to].ship,
            &shipped,
            &shared.config.retry,
            &shared.counters.link_retries,
        )?;
        match install {
            // An install whose ack was lost to a retried transport
            // error already landed; "already hosted" is success here.
            Frame::Error { message } if message.contains("already hosted") => {}
            other => expect_ok(other, "install")?,
        }
        shared.links[to]
            .shipped
            .lock()
            .insert(shard, applied_offset);
        shared.links[to]
            .applied
            .lock()
            .insert(shard, applied_offset);
        {
            let mut dir = shared.directory.write();
            dir.repoint(shard, from, to);
            shared.persist_directory(&dir);
        }
        let _ = shared.links[from].request_ship(&Frame::Release { shard });
        shared.links[from].shipped.lock().remove(&shard);
        shared.links[from].applied.lock().remove(&shard);
        shared.counters.migrations.fetch_add(1, Ordering::Relaxed);
        shared.unpark_shippers();
        shared.progress.bump();
        Ok(())
    }

    /// Snapshot of the coordinator's counters.
    pub fn stats(&self) -> RemoteStats {
        let c = &self.shared.counters;
        RemoteStats {
            published: c.published.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            replica_queries: c.replica_queries.load(Ordering::Relaxed),
            migrations: c.migrations.load(Ordering::Relaxed),
            partial_answers: c.partial_answers.load(Ordering::Relaxed),
            link_retries: c.link_retries.load(Ordering::Relaxed),
            degraded_reads: c.degraded_reads.load(Ordering::Relaxed),
        }
    }

    /// Forces node `idx`'s circuit breaker open for `hold` — the test /
    /// benchmark hook for measuring degraded (replica-served) reads
    /// without killing a node. Scatters avoid the node while the
    /// breaker holds; the first read after expiry is the half-open
    /// probe that readmits it.
    pub fn trip_breaker(&self, idx: usize, hold: Duration) -> Result<()> {
        let link = self
            .shared
            .links
            .get(idx)
            .ok_or_else(|| JanusError::InvalidConfig(format!("no node {idx}")))?;
        link.breaker.force_open(hold);
        Ok(())
    }

    /// Current placement snapshot (for inspection / tests).
    pub fn directory_snapshot(&self) -> crate::directory::DirectorySnapshot {
        self.shared.directory.read().snapshot()
    }

    /// Every record of `shard`'s coordinator topic, in offset order (for
    /// inspection / tests).
    pub fn topic_records(&self, shard: usize) -> Vec<ShardOp> {
        self.shared.topics.poll(shard, 0, usize::MAX)
    }

    /// Shards that lost every copy (answers for them fail loudly).
    pub fn lost_shards(&self) -> Vec<u32> {
        self.shared.directory.read().lost_shards().to_vec()
    }

    /// Asks every alive node daemon to exit (best-effort).
    pub fn shutdown_nodes(&self) {
        for link in &self.shared.links {
            if link.alive.load(Ordering::Acquire) {
                let _ = link.request_ctrl(&Frame::Shutdown);
            }
        }
    }

    /// Stops coordinator threads (shippers, heartbeat). Node daemons
    /// keep running; use [`RemoteCluster::shutdown_nodes`] first to
    /// stop them too.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.unpark_shippers();
        self.shared.progress.bump();
        for w in self.workers.drain(..) {
            // Unpark first, so a parked worker observes the flag.
            w.thread().unpark();
            let _ = w.join();
        }
    }
}

impl Drop for RemoteCluster {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_workers();
        }
    }
}

/// Dials both channels to a node and exchanges the hello handshake.
fn connect_node(addr: SocketAddr, read_timeout: Option<Duration>) -> Result<NodeLink> {
    let dial = || -> std::io::Result<TcpStream> {
        let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(read_timeout)?;
        Ok(s)
    };
    let ship = dial().map_err(|e| JanusError::Storage(format!("connect {addr}: {e}")))?;
    let mut ctrl = dial().map_err(|e| JanusError::Storage(format!("connect {addr}: {e}")))?;
    let hello = wire::roundtrip(&mut ctrl, &Frame::Hello { node_id: 0 })?;
    let Frame::HelloAck {
        node_id, domain, ..
    } = hello
    else {
        return Err(JanusError::Protocol(format!(
            "unexpected hello reply from {addr}: {hello:?}"
        )));
    };
    Ok(NodeLink {
        desc: NodeDesc {
            node_id,
            domain,
            addr,
        },
        ship: Mutex::new(ship),
        ctrl: Mutex::new(ctrl),
        alive: AtomicBool::new(true),
        shipped: Mutex::new(HashMap::new()),
        applied: Mutex::new(HashMap::new()),
        thread: Mutex::new(None),
        hb_seq: AtomicU64::new(0),
        hb_misses: AtomicU32::new(0),
        read_timeout,
        breaker: Breaker::new(),
    })
}

/// Spawns `n` in-process node servers on loopback — the test/bench
/// harness for a networked deployment without separate processes.
pub fn local_fleet(n: usize) -> std::io::Result<Vec<crate::node::NodeServer>> {
    (0..n)
        .map(|i| {
            crate::node::NodeServer::start(
                "127.0.0.1:0",
                NodeConfig::new(i as u64, format!("domain-{i}")),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{QueryTemplate, RangePredicate};

    /// How many `std` threads this process has ever started: thread ids
    /// come off one process-wide counter, so a fresh thread's id is it.
    fn threads_started() -> u64 {
        let id = std::thread::spawn(|| std::thread::current().id()).join();
        let id = format!("{:?}", id.expect("probe thread"));
        let digits = id.trim_matches(|c: char| !c.is_ascii_digit());
        digits.parse().expect("ThreadId(n)")
    }

    #[test]
    fn a_thousand_four_target_queries_start_no_thread() {
        let fleet = local_fleet(2).expect("start fleet");
        let addrs: Vec<SocketAddr> = fleet.iter().map(|s| s.addr()).collect();
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let mut base = SynopsisConfig::paper_default(template, 5);
        base.leaf_count = 8;
        base.sample_rate = 0.1;
        let rows = (0..2_000u64).map(|i| Row::new(i, vec![(i % 100) as f64, i as f64]));
        let config = RemoteConfig::new(base, 4, ShardPolicy::HashById);
        let cluster = RemoteCluster::bootstrap(config, rows.collect(), &addrs).expect("bootstrap");
        let all = RangePredicate::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).unwrap();
        // Hash placement: every query fans out to all four shards.
        let everything = Query::new(AggregateFunction::Count, 1, vec![0], all).unwrap();

        let before = threads_started();
        for _ in 0..1_000 {
            cluster.query(&everything).expect("query").expect("answer");
        }
        let started = threads_started() - before - 1;
        // Other tests of this binary start node servers while this one
        // runs, so "none" is asserted as "nowhere near one per query".
        assert!(
            started < 100,
            "{started} threads started under 1,000 queries"
        );
        cluster.shutdown_nodes();
        cluster.shutdown();
    }
}
