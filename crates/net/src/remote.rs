//! The coordinator front end for a networked cluster.
//!
//! [`RemoteCluster`] presents the same publish / query / drain /
//! backpressure surface as the in-process cluster (`ClusterEngine` +
//! `LiveCluster`), but every shard engine lives in a remote
//! [`crate::node::NodeServer`] process. It *is* the in-process
//! coordinator — a [`ClusterEngine`] over `NodeLinks`, this module's
//! [`ShardTransport`] — plus the threads that only a network needs. So
//! the router, the row → shard directory, the publish body, the scatter,
//! the k-of-n gather and its weights are `ClusterEngine`'s, and publishes
//! route identically to the in-process cluster (identical per-shard topic
//! contents, hence bit-identical shard engines). What this module adds:
//!
//! * the **per-shard topics** are the source of truth a node death can
//!   never lose: an acknowledged publish is held at the coordinator before
//!   any node sees it, and stays there until every alive copy of its
//!   shard has acked applying it. The shippers then drop it with its
//!   block, below the [`retention_floor`] over the shard's alive copies,
//!   so a topic holds the tails copies still need, not the whole stream;
//! * the **placement directory** ([`Directory`]): which nodes host which
//!   shard copies, and which nodes are alive.
//!
//! [`RemoteCluster::publish_batch`] is the shared publish (one router and
//! directory acquisition per batch, one append per touched shard), then
//! one wake of the shippers, then one stall per touched shard while that
//! shard is over the publish-ahead bound (`publish_insert` /
//! `publish_delete` are one-element batches). Because the stall follows
//! the append, the slowest alive copy of a shard trails its topic end by
//! at most [`RemoteConfig::max_backlog`] records plus one batch.
//!
//! Per-node *shipper* threads push each shard topic's tail to every
//! node hosting a copy ([`Frame::PublishBatch`]), so followers tail
//! remote topics exactly like in-process replicas tail local ones. Apply
//! progress rides the same link: after a round with nothing to ship, the
//! shipper sends an empty batch for every copy that has not applied what
//! it was shipped, and the node acks it when its pump moves, so
//! [`RemoteCluster::drain`] and a stalled publisher wake on the apply.
//! A heartbeat thread is the failure detector; its replies refresh
//! applied offsets too. Each copy's offsets only rise at the
//! coordinator, whichever reply lands last. When a node dies (heartbeat
//! or ship error), the directory promotes the surviving follower
//! [`janus_cluster::host::promote`] picks per lost primary, and the
//! promoted copy catches up from the coordinator topic, so recovery is
//! bit-exact for every acknowledged record.
//!
//! The bootstrap partitions the rows first (the coordinator's own
//! partition), so a duplicate id fails before any node hosts anything;
//! then it encodes each shard's [`Frame::Host`] once, on the caller,
//! dropping the shard's rows as it goes, and ships every node's frames at
//! once through the coordinator's scatter pool, one
//! [`ScatterPool::fan_out`] job per node. A node job that fails makes the
//! bootstrap release every shard it hosted.
//!
//! Reads scatter per overlapping shard through the coordinator's pool (one
//! worker per shard; one TCP exchange per job; no thread per query). A
//! sub-query goes to the copy [`janus_cluster::host::pick_read`] picks,
//! as in process: round-robin across the primary and the followers
//! that trail the topic end by at most `replica_lag` records. The node
//! re-checks that gate under its engine lock and answers `Stale` if it
//! fell behind, in which case the coordinator falls back to the
//! primary. The networked coordinator keeps no answer cache: every query
//! scatters, on the pool lane its [`QueryOptions`] name
//! ([`janus_cluster::Priority::Bulk`] by default).
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
use janus_cluster::bootstrap::shard_config;
use janus_cluster::host::{pick_read, retention_floor, UNPINNED};
use janus_cluster::notify::{Backoff, Progress};
use janus_cluster::{
    ClusterConfig, ClusterEngine, Priority, PublishReport, QueryOptions, ScatterPool,
    ShardCheckpoint, ShardOp, ShardPolicy, ShardTransport,
};
use janus_common::merge::SubAnswer;
use janus_common::{faults, AggregateFunction, Estimate, JanusError, Query, Result, Row, RowId};
use janus_core::SynopsisConfig;
use janus_storage::ShardedLog;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// The transport's counters; publishes and partial answers are the
/// coordinator's.
#[derive(Default)]
struct Counters {
    failovers: AtomicU64,
    replica_queries: AtomicU64,
    migrations: AtomicU64,
    link_retries: AtomicU64,
    degraded_reads: AtomicU64,
}

/// Per-shard topic offsets one node has reported. Two threads report
/// them — the shipper on the ship channel, heartbeats on the control
/// channel — and a reply built before another can land after it, so a
/// recorded offset only rises; [`Offsets::reset`] and
/// [`Offsets::remove`] start a shard afresh when it moves.
#[derive(Default)]
struct Offsets(Mutex<HashMap<u32, u64>>);

impl Offsets {
    fn of(&self, shard: u32) -> u64 {
        self.0.lock().get(&shard).copied().unwrap_or(0)
    }

    /// Records `offset` for `shard` unless a higher one is recorded.
    fn record(&self, shard: u32, offset: u64) {
        let mut map = self.0.lock();
        let at = map.entry(shard).or_insert(offset);
        *at = (*at).max(offset);
    }

    /// Sets `shard`'s offset outright — a freshly installed copy.
    fn reset(&self, shard: u32, offset: u64) {
        self.0.lock().insert(shard, offset);
    }

    fn remove(&self, shard: u32) {
        self.0.lock().remove(&shard);
    }
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
    shipped: Offsets,
    /// Per-shard topic offset the node reported as applied.
    applied: Offsets,
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
        Self::exchange_encoded(s, &wire::encode_frame(frame), want, bounded)
    }

    /// [`NodeLink::exchange`] of a frame already encoded by
    /// [`wire::encode_frame`]; `want` is the correlation id of the query
    /// it carries, if any.
    fn exchange_encoded(
        s: &mut TcpStream,
        bytes: &[u8],
        want: Option<u64>,
        bounded: bool,
    ) -> Result<Frame> {
        wire::write_encoded(s, bytes)?;
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

    fn unpark(&self) {
        if let Some(t) = self.thread.lock().as_ref() {
            t.unpark();
        }
    }
}

/// The networked [`ShardTransport`]: one link per node, the placement
/// directory, and the shard topics the coordinator appends to and the
/// shippers drain. Shared by the coordinator, its pool's jobs, the
/// shippers and the heartbeat.
struct NodeLinks {
    config: RemoteConfig,
    /// The per-shard operation topics. Source of truth: every
    /// acknowledged publish lives here until every alive copy of its
    /// shard has applied it.
    topics: Arc<ShardedLog<ShardOp>>,
    /// Per-shard retention pin ([`UNPINNED`] when none):
    /// [`RemoteCluster::move_shard`] holds the floor at or below its
    /// source's applied offset until the target's offsets are reset.
    /// Written under the directory write lock, read under its read lock.
    pins: Vec<AtomicU64>,
    directory: RwLock<Directory>,
    links: Vec<NodeLink>,
    shutdown: AtomicBool,
    progress: Progress,
    read_cursor: AtomicU64,
    query_seq: AtomicU64,
    counters: Counters,
}

impl NodeLinks {
    fn unpark_shippers(&self) {
        for link in &self.links {
            link.unpark();
        }
    }

    /// Truncates `shard`'s topic below its [`retention_floor`] over the
    /// applied offsets its alive copies have acked and the shard's pin.
    /// The floor is computed under the directory read lock, so it sees
    /// either no pin and no move in flight, or the pin. A shard with no
    /// alive copy keeps its topic.
    fn retain(&self, shard: u32) {
        let floor = {
            let dir = self.directory.read();
            let alive = dir.hosts_of(shard).all().filter(|&n| dir.is_alive(n));
            retention_floor(
                alive.map(|n| self.links[n].applied.of(shard)),
                self.pins[shard as usize].load(Ordering::Acquire),
            )
        };
        if let Some(floor) = floor {
            self.topics.topic(shard as usize).truncate_below(floor);
        }
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
fn fail_node(shared: &NodeLinks, idx: usize) {
    if !shared.links[idx].alive.swap(false, Ordering::AcqRel) {
        return;
    }
    shared
        .directory
        .write()
        .fail_node(idx, |node, shard| shared.links[node].applied.of(shard));
    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
    shared.unpark_shippers();
    shared.progress.bump();
}

/// One heartbeat sweep: probe every alive node, fold its applied
/// offsets into the link state. A miss re-dials and is only fatal after
/// `retry.budget` *consecutive* misses — a dropped connection or one
/// slow reply no longer kills a node that is otherwise healthy.
fn probe_all(shared: &NodeLinks) {
    let threshold = shared.config.retry.budget.max(1);
    for (idx, link) in shared.links.iter().enumerate() {
        if !link.alive.load(Ordering::Acquire) {
            continue;
        }
        let seq = link.hb_seq.fetch_add(1, Ordering::Relaxed);
        match link.request_ctrl(&Frame::Heartbeat { seq }) {
            Ok(Frame::HeartbeatAck { applied, .. }) => {
                link.hb_misses.store(0, Ordering::Relaxed);
                for (shard, off) in applied {
                    link.applied.record(shard, off);
                }
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

/// Pushes topic tails to one node until shutdown or node death. A round
/// that ships nothing waits on the node's pump instead, one empty batch
/// per copy that trails what it was shipped; once every copy has applied
/// its tail, the shipper parks and sends nothing. Every round first
/// truncates each hosted shard's topic below what all its copies have
/// applied.
fn shipper_loop(shared: &NodeLinks, idx: usize) {
    let link = &shared.links[idx];
    let mut idle = Backoff::new();
    while !shared.shutdown.load(Ordering::Acquire) && link.alive.load(Ordering::Acquire) {
        let hosted = shared.directory.read().hosted_shards(idx);
        for &shard in &hosted {
            shared.retain(shard);
        }
        let mut moved = false;
        for &shard in &hosted {
            let cursor = link.shipped.of(shard);
            // Polled under the directory read lock while this node still
            // hosts the shard, so every floor computed meanwhile counts
            // this copy's cursor; a shard a move has just taken off the
            // node is skipped instead of read below its truncated topic.
            let batch = {
                let dir = shared.directory.read();
                if !dir.hosts_of(shard).includes(idx) {
                    continue;
                }
                let chunk = shared.config.ship_chunk.max(1);
                shared.topics.poll(shard as usize, cursor, chunk)
            };
            if batch.is_empty() {
                continue;
            }
            if !ship(shared, idx, shard, cursor, batch) {
                return;
            }
            moved = true;
        }
        if !moved {
            for &shard in &hosted {
                let cursor = link.shipped.of(shard);
                if link.applied.of(shard) >= cursor {
                    continue;
                }
                if !ship(shared, idx, shard, cursor, Vec::new()) {
                    return;
                }
                moved = true;
            }
        }
        if moved {
            idle.reset();
        } else {
            idle.park();
        }
    }
}

/// Ships `ops` — topic records from `first_offset` on, or none to wait
/// for the node's apply — to node `idx`'s copy of `shard` and folds the
/// ack into the link. Returns `false` once the copy is done for: a
/// node-side error (gap, unhosted shard) means it cannot converge, and a
/// transport failure surviving the full retry budget means the node is
/// gone. A refusal for a shard the directory no longer places on the
/// node is neither: [`RemoteCluster::move_shard`] released it after
/// this round began.
fn ship(shared: &NodeLinks, idx: usize, shard: u32, first_offset: u64, ops: Vec<ShardOp>) -> bool {
    let link = &shared.links[idx];
    let frame = Frame::PublishBatch {
        shard,
        first_offset,
        ops,
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
            link.shipped.record(shard, received);
            link.applied.record(shard, applied);
            shared.progress.bump();
            true
        }
        Ok(Frame::Error { .. }) if !shared.directory.read().hosts_of(shard).includes(idx) => true,
        Ok(_) | Err(_) => {
            fail_node(shared, idx);
            false
        }
    }
}

fn heartbeat_loop(shared: &NodeLinks) {
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::park_timeout(shared.config.heartbeat_every);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        probe_all(shared);
    }
}

/// Ships every shard's bootstrap partition to its hosts, all nodes at
/// once. Each shard's [`Frame::Host`] is encoded once, on the calling
/// thread, and its rows are dropped right after; every copy of the shard
/// is sent the same bytes. One [`ScatterPool::fan_out`] job per node
/// writes that node's frames in shard order, so every node decodes and
/// builds its engines while the others build theirs, and node `k` is
/// already shipping while the caller encodes node `k + 1`'s frames.
///
/// If any node fails, every shard this bootstrap may have hosted is
/// released (best-effort), so the fleet can be bootstrapped again, and
/// the first error in node order is returned.
fn host_shards(
    shared: &Arc<NodeLinks>,
    pool: &ScatterPool,
    mut per_shard: Vec<Vec<Row>>,
) -> Result<()> {
    let plan: Vec<Vec<u32>> = {
        let dir = shared.directory.read();
        (0..shared.links.len())
            .map(|node| dir.hosted_shards(node))
            .collect()
    };
    let mut encoded: Vec<Option<Arc<Vec<u8>>>> = vec![None; per_shard.len()];
    let jobs = plan.into_iter().enumerate().map(|(node, hosted)| {
        let frames: Vec<(u32, Arc<Vec<u8>>)> = hosted
            .into_iter()
            .map(|shard| {
                let bytes = encoded[shard as usize].get_or_insert_with(|| {
                    Arc::new(wire::encode_frame(&Frame::Host {
                        shard,
                        config: shard_config(&shared.config.base, shard as usize),
                        rows: std::mem::take(&mut per_shard[shard as usize]),
                    }))
                });
                (shard, Arc::clone(bytes))
            })
            .collect();
        let worker = node % shared.config.shards;
        let shared = Arc::clone(shared);
        (worker, move || host_on(&shared.links[node], frames))
    });
    let outcomes = pool.fan_out(Priority::Bulk, None, jobs);

    let mut first = None;
    let mut hosted = Vec::with_capacity(outcomes.len());
    for slot in outcomes {
        let (shards, outcome) = slot.expect("host worker died");
        first = first.or(outcome.err());
        hosted.push(shards);
    }
    let Some(error) = first else {
        return Ok(());
    };
    for (link, shards) in shared.links.iter().zip(hosted) {
        for shard in shards {
            let release = Frame::Release { shard };
            let retry = &shared.config.retry;
            let _ = link.request_retry(&link.ship, &release, retry, &shared.counters.link_retries);
        }
    }
    Err(error)
}

/// Writes `frames` — `(shard, encoded Frame::Host)` in shard order — on
/// `link`'s ship stream and awaits an `Ok` after each. Returns the first
/// error and the shards the node may now host: every acked one, plus the
/// one whose exchange failed in transport, since its Host may have landed.
fn host_on(link: &NodeLink, frames: Vec<(u32, Arc<Vec<u8>>)>) -> (Vec<u32>, Result<()>) {
    let mut hosted = Vec::with_capacity(frames.len());
    let mut ship = link.ship.lock();
    for (shard, bytes) in frames {
        match NodeLink::exchange_encoded(&mut ship, &bytes, None, false) {
            Ok(Frame::Ok) => hosted.push(shard),
            // The node refused the shard: it hosts nothing new.
            Ok(refusal) => return (hosted, Err(reply_error(refusal, "host"))),
            // The Host may have landed before the link broke.
            Err(e) => {
                hosted.push(shard);
                return (hosted, Err(e));
            }
        }
    }
    (hosted, Ok(()))
}

impl ShardTransport for NodeLinks {
    fn topics(&self) -> &Arc<ShardedLog<ShardOp>> {
        &self.topics
    }

    /// The applied offset the shard's primary last reported.
    fn applied(&self, shard: usize) -> u64 {
        let shard = shard as u32;
        let primary = self.directory.read().hosts_of(shard).primary;
        self.links[primary].applied.of(shard)
    }

    /// Worst observed lag for `shard`: topic end minus its unpinned
    /// [`retention_floor`], the slowest alive copy's applied offset (0
    /// once it lost them all).
    fn backlog(&self, shard: usize) -> u64 {
        let (dir, shard) = (self.directory.read(), shard as u32);
        if dir.lost_shards().contains(&shard) {
            return 0;
        }
        let end = self.topics.topic(shard as usize).len() as u64;
        let alive = dir.hosts_of(shard).all().filter(|&n| dir.is_alive(n));
        let floor = retention_floor(alive.map(|n| self.links[n].applied.of(shard)), UNPINNED);
        floor.map_or(0, |floor| end.saturating_sub(floor))
    }

    /// Serves one sub-query from the copy [`pick_read`] picks over the
    /// alive followers, with the primary's breaker and the `Stale`
    /// fallback, and fails over on transport errors. Under an `expiry`
    /// every socket wait is bounded by the remaining budget;
    /// [`JanusError::Deadline`] means "shard too slow", and explicitly
    /// does not mark the node dead.
    fn serve(&self, shard: usize, query: &Query, expiry: Option<Instant>) -> Result<SubAnswer> {
        let (shared, shard) = (self, shard as u32);
        let moments = query.agg == AggregateFunction::Avg;
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
                alive_primary(&dir, shard)?.map(|primary| {
                    let end = shared.topics.topic(shard as usize).len() as u64;
                    let followers = dir.hosts_of(shard).followers.iter().copied();
                    let followers = followers
                        .filter(|&f| dir.is_alive(f))
                        .map(|f| (f, shared.links[f].applied.of(shard)));
                    // A read pinned to the primary by a `Stale` refusal
                    // doubles as the half-open probe of its breaker.
                    let breaker = &shared.links[primary].breaker;
                    let lag = shared.config.replica_lag;
                    let cursor = &shared.read_cursor;
                    let Some(read) = pick_read(followers, end, lag, cursor, primary_only, || {
                        breaker.is_open()
                    }) else {
                        return (primary, 0);
                    };
                    let counters = &shared.counters;
                    if read.degraded {
                        counters.degraded_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    counters.replica_queries.fetch_add(1, Ordering::Relaxed);
                    (read.index, read.min_applied)
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
                tenant: 0,
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
}

/// A networked cluster's coordinator handle: the coordinator over node
/// links, plus the shipper and heartbeat threads.
pub struct RemoteCluster {
    engine: ClusterEngine<NodeLinks>,
    workers: Vec<JoinHandle<()>>,
}

impl RemoteCluster {
    /// Connects to node daemons at `addrs`, partitions `rows` across
    /// `config.shards` shards exactly like the in-process cluster
    /// (same router, same per-shard seeds), places primaries and
    /// distinct-failure-domain followers via [`Directory::place`], and
    /// ships each shard's bootstrap partition to its hosts, every node at
    /// once. A failed bootstrap releases the shards it hosted, so the
    /// same fleet can be bootstrapped again.
    pub fn bootstrap(config: RemoteConfig, rows: Vec<Row>, addrs: &[SocketAddr]) -> Result<Self> {
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

        let coordinator =
            ClusterConfig::new(config.base.clone(), config.shards, config.policy.clone());
        let shards = config.shards;
        let engine = ClusterEngine::bootstrap_over(
            coordinator,
            rows,
            "janus-gather",
            |per_shard, topics, pool| {
                let shared = Arc::new(NodeLinks {
                    config,
                    topics,
                    pins: (0..shards).map(|_| AtomicU64::new(UNPINNED)).collect(),
                    directory: RwLock::new(directory),
                    links,
                    shutdown: AtomicBool::new(false),
                    progress: Progress::new(),
                    read_cursor: AtomicU64::new(0),
                    query_seq: AtomicU64::new(0),
                    counters: Counters::default(),
                });
                host_shards(&shared, pool, per_shard)?;
                Ok(shared)
            },
        )?;

        let shared = engine.transport();
        let mut workers = Vec::new();
        for idx in 0..shared.links.len() {
            let s = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("janus-ship-{idx}"))
                .spawn(move || shipper_loop(&s, idx))
                .map_err(|e| JanusError::Storage(format!("spawn shipper: {e}")))?;
            *shared.links[idx].thread.lock() = Some(handle.thread().clone());
            workers.push(handle);
        }
        let s = Arc::clone(shared);
        workers.push(
            std::thread::Builder::new()
                .name("janus-heartbeat".into())
                .spawn(move || heartbeat_loop(&s))
                .map_err(|e| JanusError::Storage(format!("spawn heartbeat: {e}")))?,
        );
        Ok(RemoteCluster { engine, workers })
    }

    fn shared(&self) -> &NodeLinks {
        self.engine.transport()
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

    /// Publishes a batch through the coordinator's
    /// [`ClusterEngine::publish_batch`] — so per-shard topic contents
    /// match the in-process cluster's, however the caller slices — then
    /// wakes the shippers, which push the records to the hosting nodes
    /// asynchronously. Every accepted record is held at the coordinator
    /// on return. The call then stalls once per shard it appended to
    /// while that shard is over the publish-ahead bound.
    pub fn publish_batch(&self, ops: impl IntoIterator<Item = ShardOp>) -> PublishReport {
        let mut touched = Vec::new();
        let report = self
            .engine
            .publish_batch_with(ops, |shard| touched.push(shard));
        if report.published > 0 {
            self.shared().unpark_shippers();
        }
        for shard in touched {
            self.stall_for_backlog(shard);
        }
        report
    }

    /// Blocks while the publish-ahead bound is exceeded for `shard`:
    /// the slowest alive copy may trail the topic end by at most
    /// `max_backlog` records plus the batch just appended (and in-flight
    /// publishers), so an unbounded producer cannot run away from the
    /// fleet. Applied offsets move on a publish ack — the shipper keeps
    /// asking for one while a copy trails — or a heartbeat, and both
    /// bump progress.
    fn stall_for_backlog(&self, shard: usize) {
        let shared = self.shared();
        let limit = shared.config.max_backlog;
        if limit == 0 {
            return;
        }
        shared.progress.wait_until(
            Backoff::new(),
            || shared.shutdown.load(Ordering::Acquire),
            || {},
            || shared.backlog(shard) <= limit,
        );
    }

    /// Worst publish-ahead lag across shards — `true` if any shard's
    /// slowest alive copy trails by more than `limit` records, through
    /// the coordinator's [`ClusterEngine::backlog_exceeds`].
    pub fn backlog_exceeds(&self, limit: u64) -> bool {
        self.engine.backlog_exceeds(limit)
    }

    /// Blocks until every alive copy of every shard has received and
    /// applied the full topic — the networked drain barrier. The
    /// shippers' apply acks wake it; each round also unparks them and
    /// probes the nodes once, so a barrier over an idle fleet resolves
    /// at once.
    pub fn drain(&self) {
        let shared = self.shared();
        shared.progress.wait_until(
            Backoff::new(),
            || shared.shutdown.load(Ordering::Acquire),
            || {
                shared.unpark_shippers();
                probe_all(shared);
            },
            || self.drained(),
        );
    }

    fn drained(&self) -> bool {
        let dir = self.shared().directory.read();
        (0..self.shared().config.shards as u32).all(|shard| {
            if dir.lost_shards().contains(&shard) {
                return true; // nothing left to converge
            }
            let end = self.shared().topics.topic(shard as usize).len() as u64;
            dir.hosts_of(shard)
                .all()
                .filter(|&n| dir.is_alive(n))
                .all(|n| {
                    self.shared().links[n].shipped.of(shard) >= end
                        && self.shared().links[n].applied.of(shard) >= end
                })
        })
    }

    /// Scatter-gather query through the coordinator's
    /// [`ClusterEngine::query`]: the same router prunes the shards, the
    /// same merge composes them (COUNT/SUM additively, AVG from merged
    /// SUM/COUNT moments, MIN/MAX by extreme), and each sub-answer comes
    /// from an engine applying the same records in the same order — so a
    /// drained networked cluster answers bit-identically to a drained
    /// in-process one.
    pub fn query(&self, query: &Query) -> Result<Option<Estimate>> {
        self.query_with(query, QueryOptions::default())
    }

    /// [`RemoteCluster::query`] with per-call serving options, through
    /// the coordinator's [`ClusterEngine::query_with`]. There is no
    /// answer cache to consult, so `use_cache` changes nothing.
    ///
    /// A deadline bounds the gather (the first sub-answer is awaited, the
    /// rest only until expiry) and every socket read on the per-node
    /// control channels: a node that is healthy but too slow surfaces
    /// [`JanusError::Deadline`] for its shard — **never** a failover —
    /// and the arrived sub-answers are merged k-of-n style exactly like
    /// the in-process engine's deadline path, weighted by the rows the
    /// coordinator's directory places on each shard, and flagged
    /// [`Estimate::partial`]. With no deadline the call is
    /// [`RemoteCluster::query`] unchanged. Errs with
    /// [`JanusError::Deadline`] only when *no* shard answered in time.
    pub fn query_with(&self, query: &Query, opts: QueryOptions) -> Result<Option<Estimate>> {
        self.engine.query_with(query, opts)
    }

    /// Exact total population across shards (primary copies).
    pub fn population(&self) -> Result<u64> {
        let mut total = 0;
        for shard in 0..self.shared().config.shards as u32 {
            loop {
                let Some(primary) = alive_primary(&self.shared().directory.read(), shard)? else {
                    std::thread::park_timeout(PROMOTION_POLL);
                    continue;
                };
                let link = &self.shared().links[primary];
                let reply = link.request_retry(
                    &link.ctrl,
                    &Frame::Population { shard },
                    &self.shared().config.retry,
                    &self.shared().counters.link_retries,
                );
                match reply {
                    Ok(Frame::PopulationAck { rows, .. }) => {
                        total += rows;
                        break;
                    }
                    Ok(other) => return Err(reply_error(other, "population")),
                    Err(_) => fail_node(self.shared(), primary),
                }
            }
        }
        Ok(total)
    }

    /// Moves `shard`'s primary copy to node `to` via checkpoint
    /// shipping — the networked twin of the in-process
    /// snapshot-shipping rebalance (`fork_via_snapshot` + archive
    /// fork): the source encodes synopsis + archive, the target
    /// restores them bit-identically, and the coordinator re-ships the
    /// topic tail from the checkpoint's applied offset. Publishes may
    /// continue throughout. The checkpoint travels as one frame, so the
    /// largest movable shard is [`crate::wire::MAX_FRAME_LEN`] over its
    /// bytes per row: about 61 for 5 columns, ≈ 1.1M rows. Errs with
    /// [`JanusError::InvalidConfig`], moving nothing, when `to` is dead
    /// or already holds a follower copy of the shard.
    pub fn move_shard(&self, shard: u32, to: usize) -> Result<()> {
        let shared = self.shared();
        if to >= shared.links.len() {
            return Err(JanusError::InvalidConfig(format!("no node {to}")));
        }
        let from = {
            let dir = shared.directory.write();
            if !dir.is_alive(to) {
                return Err(JanusError::InvalidConfig(format!("node {to} is dead")));
            }
            let hosts = dir.hosts_of(shard);
            if hosts.primary == to {
                return Ok(());
            }
            if hosts.includes(to) {
                return Err(JanusError::InvalidConfig(format!(
                    "node {to} already holds a copy of shard {shard}"
                )));
            }
            // Pin the floor at the source's recorded offset, which the
            // checkpoint's cannot be below: a heartbeat may raise the
            // recorded offset past the checkpoint before the target is
            // in place, and the target catches up from the checkpoint's
            // offset.
            let pin = shared.links[hosts.primary].applied.of(shard);
            shared.pins[shard as usize].store(pin, Ordering::Release);
            hosts.primary
        };
        let moved = self.move_pinned(shard, from, to);
        shared.pins[shard as usize].store(UNPINNED, Ordering::Release);
        moved
    }

    /// [`RemoteCluster::move_shard`] once its pin is held: fetch, install,
    /// reset the target's offsets and repoint the directory.
    fn move_pinned(&self, shard: u32, from: usize, to: usize) -> Result<()> {
        let shared = self.shared();
        let shipped = shared.links[from].request_retry(
            &shared.links[from].ship,
            &Frame::FetchCheckpoint { shard },
            &shared.config.retry,
            &shared.counters.link_retries,
        )?;
        let Frame::Checkpoint { payload, .. } = &shipped else {
            return Err(reply_error(shipped, "checkpoint"));
        };
        let applied_offset = ShardCheckpoint::from_bytes(payload)?.applied_offset;
        let install = shared.links[to].request_retry(
            &shared.links[to].ship,
            &shipped,
            &shared.config.retry,
            &shared.counters.link_retries,
        )?;
        match install {
            // `to` held no copy when the move began, so "already hosted"
            // means an install whose ack was lost to a retried transport
            // error already landed: success.
            Frame::Error { message } if message.contains("already hosted") => {}
            other => expect_ok(other, "install")?,
        }
        shared.links[to].shipped.reset(shard, applied_offset);
        shared.links[to].applied.reset(shard, applied_offset);
        shared.directory.write().repoint(shard, from, to);
        let _ = shared.links[from].request_ship(&Frame::Release { shard });
        shared.links[from].shipped.remove(shard);
        shared.links[from].applied.remove(shard);
        shared.counters.migrations.fetch_add(1, Ordering::Relaxed);
        shared.unpark_shippers();
        shared.progress.bump();
        Ok(())
    }

    /// Snapshot of the coordinator's counters.
    pub fn stats(&self) -> RemoteStats {
        let c = &self.shared().counters;
        let coordinator = self.engine.coordinator_stats();
        RemoteStats {
            published: coordinator.inserts + coordinator.deletes,
            rejected: coordinator.rejected,
            failovers: c.failovers.load(Ordering::Relaxed),
            replica_queries: c.replica_queries.load(Ordering::Relaxed),
            migrations: c.migrations.load(Ordering::Relaxed),
            partial_answers: coordinator.partial_answers,
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
        let link = (self.shared().links)
            .get(idx)
            .ok_or_else(|| JanusError::InvalidConfig(format!("no node {idx}")))?;
        link.breaker.force_open(hold);
        Ok(())
    }

    /// Current placement snapshot (for inspection / tests).
    pub fn directory_snapshot(&self) -> crate::directory::DirectorySnapshot {
        self.shared().directory.read().snapshot()
    }

    /// Every record of `shard`'s coordinator topic, in offset order (for
    /// inspection / tests).
    ///
    /// # Panics
    /// Panics once the shippers have truncated the topic: its records
    /// from offset 0 are no longer all held.
    pub fn topic_records(&self, shard: usize) -> Vec<ShardOp> {
        self.shared().topics.poll(shard, 0, usize::MAX)
    }

    /// Records of `shard`'s coordinator topic still held in memory — the
    /// tail some alive copy has not acked applying, plus at most the
    /// block it starts in (for inspection / tests).
    pub fn topic_resident_len(&self, shard: usize) -> usize {
        self.shared().topics.topic(shard).resident_len()
    }

    /// Shards that lost every copy (answers for them fail loudly).
    pub fn lost_shards(&self) -> Vec<u32> {
        self.shared().directory.read().lost_shards().to_vec()
    }

    /// Asks every alive node daemon to exit (best-effort).
    pub fn shutdown_nodes(&self) {
        for link in &self.shared().links {
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
        self.shared().shutdown.store(true, Ordering::Release);
        self.shared().unpark_shippers();
        self.shared().progress.bump();
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
        shipped: Offsets::default(),
        applied: Offsets::default(),
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
    fn a_recorded_offset_only_rises_until_its_shard_moves() {
        let offsets = Offsets::default();
        offsets.record(3, 10);
        offsets.record(3, 5);
        assert_eq!(offsets.of(3), 10, "an older reply must not win");
        offsets.remove(3);
        offsets.record(3, 5);
        assert_eq!(offsets.of(3), 5, "a re-hosted shard starts afresh");
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
