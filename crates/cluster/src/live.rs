//! The long-running cluster service: background pump workers plus a
//! request/response front end — the cluster-level analogue of
//! [`janus_core::LiveEngine`].
//!
//! ## Worker / offset model
//!
//! [`LiveCluster::start`] bootstraps a lock-sharded [`ClusterEngine`] and
//! spawns `shards + 1` threads:
//!
//! * **One pump worker per shard.** Worker `i` loops on the lossy form of
//!   the pump step behind [`ClusterEngine::pump_shard`], draining shard
//!   `i`'s topic into its primary and follower
//!   [`ShardHost`](crate::host::ShardHost)s in offset order — the same
//!   host and drain a `janus-node` pump thread runs. Each worker
//!   write-locks only its own shard's engines, one at a time, in the
//!   engine-wide lock order: primary host → replica set → one replica.
//!   The shards absorb their streams in parallel and a busy shard never
//!   blocks the others; progress probes ([`ClusterEngine::pending`],
//!   [`LiveCluster::drain`]) read each host's applied offset atomically
//!   and never wait on a shard lock. An idle worker parks briefly and is
//!   unparked when the front end publishes new records.
//! * **One front-end worker** consuming a [`janus_storage::RequestLog`]
//!   from offset zero, in arrival order: runs of consecutive
//!   `Insert`/`Delete` requests are republished through the *batched*
//!   publish path ([`ClusterEngine::publish_batch`] — one
//!   router/directory acquisition and one topic append per shard per
//!   run; per-shard topic contents are identical to per-record
//!   publishing, so replay stays deterministic); `Execute` requests act
//!   as barriers — the pending run flushes first — and are answered by
//!   scatter-gather over the *currently pumped* state, the estimate
//!   published onto the log's response topic keyed by the request's
//!   offset. Consumption progress is an atomic offset published *after*
//!   each request's effect is durable, which is what makes
//!   [`LiveCluster::drain`] a real barrier.
//!
//! **Backpressure.** Data runs republish in bounded slices: a slice of
//! `k` records is published only once every shard's backlog
//! ([`ClusterEngine::backlog_exceeds`]) is at most `max_backlog - k`, so
//! no shard's publish-ahead gap ever exceeds `max_backlog` — the same
//! bound the per-record path enforced, at one stall check per slice.
//! While over budget the front end stalls (parking, re-checking, nudging
//! the pump workers) instead of letting a fast producer grow an unbounded
//! gap between topics and synopses.
//!
//! ## Multi-tenant serving
//!
//! Clients tag work with a [`TenantId`] via [`LiveCluster::submit_query`]:
//! the request lands on the log as [`Request::Execute`] carrying the
//! tenant, an optional gather deadline, and an interactive flag.
//! Admission control happens *at submit time*: when
//! [`LiveConfig::tenant_quota`] is set, a tenant already holding that
//! many in-flight queries is refused with [`JanusError::Backpressure`]
//! before anything touches the log — a hammering tenant exhausts its own
//! budget and leaves everyone else's latency alone. Interactive queries
//! ride the scatter pool's priority lane; deadlines turn stragglers into
//! *partial* answers merged from the shards that made it (see
//! [`QueryOptions`]). Per-tenant counters snapshot via
//! [`LiveCluster::tenant_stats`]; in-flight accounting is in-memory per
//! service instance, so it resets on recovery (at worst briefly
//! under-counting a tenant toward its quota).
//!
//! **Consistency.** Queries answer from whatever has been pumped when the
//! scatter runs — the same read-your-pumped-writes semantics as the
//! synchronous engine, minus the manual pumping. After [`LiveCluster::
//! drain`] (all topics consumed) the cluster state is *bit-identical* to
//! a synchronous [`ClusterEngine`] fed the same request sequence, because
//! per-shard application order is the topic offset order in both worlds —
//! `tests/live_cluster.rs` pins this down.
//!
//! [`LiveCluster::shutdown`] stops all workers and returns the inner
//! [`ClusterEngine`], mirroring `LiveEngine::shutdown`.
//!
//! **Crash recovery.** Started via [`LiveCluster::start_checkpointed`],
//! the front end periodically cuts a *tail-free* whole-cluster checkpoint
//! (all topics drained, so shard state equals "all effects of requests
//! below the recorded offset") and persists it to a
//! [`janus_storage::CheckpointStore`]. The durable pair (checkpoint
//! store, request log) is the entire recovery contract:
//! [`LiveCluster::recover`] rebuilds the cluster from the newest
//! checkpoint and resumes consuming the request log at the checkpointed
//! offset, re-deriving everything the crash destroyed. Recovery is
//! bit-identical to an uninterrupted run — `tests/cluster_recovery.rs`
//! holds it to that.

use crate::checkpoint::ClusterCheckpoint;
use crate::engine::{ClusterConfig, ClusterEngine, QueryOptions, ShardOp};
use crate::host::UNPINNED;
use crate::notify::{Backoff, Progress};
use crate::scatter::Priority;
use janus_common::{JanusError, Query, Result, Row, TenantId};
use janus_storage::{CheckpointStore, Request, RequestLog};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Checkpoints retained in the store after each save; older ones are
/// pruned.
const CHECKPOINT_KEEP: usize = 4;

/// Tuning knobs of the live service loop.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Records a pump worker drains per lock acquisition.
    pub pump_chunk: usize,
    /// Requests the front end consumes per poll.
    pub frontend_chunk: usize,
    /// Per-shard backpressure limit: no shard's publish-ahead backlog
    /// grows past this; the front end stalls until its next slice fits.
    pub max_backlog: u64,
    /// Automatic checkpoint cadence, in pumped records: after at least
    /// this many records have been drained into shard engines since the
    /// last checkpoint, the front end cuts the next one. `0` disables
    /// the cadence (explicit [`LiveCluster::checkpoint_now`] still
    /// works). Only takes effect when the service was started with a
    /// checkpoint store.
    pub checkpoint_every: u64,
    /// Per-tenant admission quota: a tenant may hold at most this many
    /// in-flight queries (submitted via [`LiveCluster::submit_query`],
    /// not yet answered); further submissions are refused with
    /// [`JanusError::Backpressure`]. `0` disables admission control.
    pub tenant_quota: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            pump_chunk: 1024,
            frontend_chunk: 256,
            max_backlog: 65_536,
            checkpoint_every: 100_000,
            tenant_quota: 0,
        }
    }
}

impl LiveConfig {
    /// Caps each tenant at `quota` in-flight queries (builder-style; see
    /// [`LiveConfig::tenant_quota`]).
    pub fn with_tenant_quota(mut self, quota: u64) -> Self {
        self.tenant_quota = quota;
        self
    }
}

/// Front-end counters (all relaxed atomics; snapshot via
/// [`LiveCluster::live_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Requests consumed from the unified log.
    pub requests_consumed: u64,
    /// Response records published — exactly one per consumed `Execute`.
    pub responses_published: u64,
    /// Queries whose (estimated) selection was empty — their response
    /// record carries `None`.
    pub empty_answers: u64,
    /// Requests rejected at publish/answer time (duplicate insert, delete
    /// of an unknown row, query error) — consumed, counted, skipped.
    pub rejected_requests: u64,
    /// Topic records skipped by the lossy pump path (always 0 unless the
    /// ingest invariants were violated upstream).
    pub records_skipped: u64,
    /// Checkpoints successfully persisted to the store.
    pub checkpoints: u64,
    /// Checkpoint saves that failed at the store (the service keeps
    /// running; the previous checkpoint remains the recovery point).
    pub checkpoint_failures: u64,
    /// Query submissions refused by per-tenant admission control.
    pub admission_rejections: u64,
    /// Responses published with [`janus_common::Estimate::partial`] set —
    /// a deadline expired before every covered shard answered.
    pub partial_responses: u64,
}

#[derive(Default)]
struct LiveCounters {
    requests_consumed: AtomicU64,
    responses_published: AtomicU64,
    empty_answers: AtomicU64,
    rejected_requests: AtomicU64,
    records_skipped: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_failures: AtomicU64,
    admission_rejections: AtomicU64,
    partial_responses: AtomicU64,
}

/// Per-tenant serving counters (snapshot via
/// [`LiveCluster::tenant_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Queries accepted from this tenant (admission passed).
    pub submitted: u64,
    /// Responses published for this tenant.
    pub answered: u64,
    /// Submissions refused because the tenant was at its quota.
    pub admission_rejections: u64,
    /// Answered queries whose estimate carried the partial flag.
    pub partial_answers: u64,
    /// Accepted queries not yet answered. In-memory accounting for this
    /// service instance only — it resets on recovery, which at worst
    /// briefly under-counts a tenant toward its quota.
    pub inflight: u64,
}

struct Shared {
    cluster: ClusterEngine,
    requests: Arc<RequestLog>,
    shutdown: AtomicBool,
    /// Unified-log offset the front end has fully processed (stored with
    /// release ordering after the request's republish/response landed).
    front_offset: AtomicU64,
    /// Durable checkpoint destination; `None` runs the service without
    /// crash recovery.
    store: Option<Arc<dyn CheckpointStore>>,
    /// Handshake flag for [`LiveCluster::checkpoint_now`]: the front-end
    /// worker owns checkpointing (it is the sole topic publisher, which
    /// is what makes the cut consistent), so external callers request
    /// and wait.
    checkpoint_requested: AtomicBool,
    /// Wakeup channel: workers bump it whenever they make observable
    /// progress (records pumped, requests consumed, checkpoint cut), and
    /// the barriers ([`LiveCluster::drain`], backlog stalls,
    /// [`LiveCluster::checkpoint_now`]) block on it instead of
    /// sleep-polling.
    progress: Progress,
    counters: LiveCounters,
    /// Per-tenant admission quota (`0` = admission control off).
    tenant_quota: u64,
    /// Per-tenant serving counters, keyed by tenant id.
    tenants: Mutex<BTreeMap<TenantId, TenantStats>>,
}

/// A `ClusterEngine` running as a service: per-shard pump workers and a
/// request/response front end over a shared [`RequestLog`].
pub struct LiveCluster {
    shared: Arc<Shared>,
    pump_threads: Vec<JoinHandle<()>>,
    frontend_thread: Option<JoinHandle<()>>,
}

impl LiveCluster {
    /// Bootstraps the cluster on `rows` and starts the service loop over
    /// `requests` with default [`LiveConfig`] knobs.
    ///
    /// The request log is consumed from offset zero, so it must carry
    /// only post-bootstrap traffic (bootstrap rows arrive via `rows`).
    /// The front end truncates `requests` below what it has consumed —
    /// and, when a checkpoint store is attached, below the offset of the
    /// newest saved checkpoint, which is where [`LiveCluster::recover`]
    /// resumes — so the log holds only requests someone may still read.
    /// `responses` is kept whole.
    pub fn start(config: ClusterConfig, rows: Vec<Row>, requests: Arc<RequestLog>) -> Result<Self> {
        Self::start_with(config, rows, requests, LiveConfig::default())
    }

    /// [`LiveCluster::start`] with explicit service knobs.
    pub fn start_with(
        config: ClusterConfig,
        rows: Vec<Row>,
        requests: Arc<RequestLog>,
        live: LiveConfig,
    ) -> Result<Self> {
        Self::wrap(ClusterEngine::bootstrap(config, rows)?, requests, live)
    }

    /// Takes over an already-bootstrapped engine and starts the workers —
    /// the seam between the synchronous and live worlds.
    pub fn wrap(
        cluster: ClusterEngine,
        requests: Arc<RequestLog>,
        live: LiveConfig,
    ) -> Result<Self> {
        Self::wrap_inner(cluster, requests, live, None, 0)
    }

    /// [`LiveCluster::start_with`] plus durable crash recovery: the front
    /// end writes a tail-free whole-cluster checkpoint to `store` every
    /// `checkpoint_every` pumped records (and on
    /// [`LiveCluster::checkpoint_now`]). After a crash,
    /// [`LiveCluster::recover`] over the same store and request log
    /// resumes exactly where the newest checkpoint cut.
    pub fn start_checkpointed(
        config: ClusterConfig,
        rows: Vec<Row>,
        requests: Arc<RequestLog>,
        live: LiveConfig,
        store: Arc<dyn CheckpointStore>,
    ) -> Result<Self> {
        Self::wrap_inner(
            ClusterEngine::bootstrap(config, rows)?,
            requests,
            live,
            Some(store),
            0,
        )
    }

    /// Restarts a crashed service from the newest checkpoint in `store`:
    /// rebuilds the cluster on fresh topics
    /// ([`ClusterEngine::restore_detached`]) and resumes consuming
    /// `requests` at the checkpointed offset. Requests processed after
    /// the checkpoint but before the crash are simply re-consumed from
    /// the durable log — their pre-crash effects died with the process,
    /// so re-publishing them is exactly-once with respect to engine
    /// state. An `Execute` re-consumed this way publishes a second
    /// response record for its offset; clients that correlate by offset
    /// see the first (pre-crash) answer, and both are valid estimates.
    ///
    /// The recovered run is *bit-identical* to an uninterrupted run of
    /// the same request sequence — engine restoration is bit-faithful
    /// and routing state (bounds, rotation cursor) is part of the
    /// checkpoint — which `tests/cluster_recovery.rs` pins down.
    pub fn recover(
        config: ClusterConfig,
        store: Arc<dyn CheckpointStore>,
        requests: Arc<RequestLog>,
        live: LiveConfig,
    ) -> Result<Self> {
        let (_, checkpoint) = ClusterCheckpoint::load_latest(store.as_ref())?;
        let request_offset = checkpoint.request_offset;
        let cluster = ClusterEngine::restore_detached(config, checkpoint)?;
        Self::wrap_inner(cluster, requests, live, Some(store), request_offset)
    }

    fn wrap_inner(
        cluster: ClusterEngine,
        requests: Arc<RequestLog>,
        live: LiveConfig,
        store: Option<Arc<dyn CheckpointStore>>,
        start_offset: u64,
    ) -> Result<Self> {
        let shards = cluster.shards();
        let shared = Arc::new(Shared {
            cluster,
            requests,
            shutdown: AtomicBool::new(false),
            front_offset: AtomicU64::new(start_offset),
            store,
            checkpoint_requested: AtomicBool::new(false),
            progress: Progress::new(),
            counters: LiveCounters::default(),
            tenant_quota: live.tenant_quota,
            tenants: Mutex::new(BTreeMap::new()),
        });

        let pump_chunk = live.pump_chunk.max(1);
        let mut pump_threads = Vec::with_capacity(shards);
        for shard in 0..shards {
            let worker = Arc::clone(&shared);
            pump_threads.push(
                std::thread::Builder::new()
                    .name(format!("janus-pump-{shard}"))
                    .spawn(move || {
                        let mut idle = Backoff::new();
                        while !worker.shutdown.load(Ordering::Relaxed) {
                            // Lossy on both sides: a poisoned record must
                            // not stall a live shard forever, and followers
                            // tail the same topic right behind the primary.
                            let (applied, skipped, replica_applied, _) =
                                worker.cluster.set.pump(shard, pump_chunk, pump_chunk, true);
                            if skipped > 0 {
                                worker
                                    .counters
                                    .records_skipped
                                    .fetch_add(skipped as u64, Ordering::Relaxed);
                            }
                            if applied == 0 && skipped == 0 && replica_applied == 0 {
                                // Topic drained: park with bounded backoff
                                // instead of spinning on the shard lock; a
                                // publish unparks us immediately.
                                idle.park();
                            } else {
                                // Applied records are progress the drain /
                                // stall / checkpoint barriers wait on.
                                worker.progress.bump();
                                idle.reset();
                            }
                        }
                    })
                    .expect("spawn pump worker"),
            );
        }

        let pump_handles: Vec<std::thread::Thread> =
            pump_threads.iter().map(|t| t.thread().clone()).collect();
        let worker = Arc::clone(&shared);
        let frontend_chunk = live.frontend_chunk.max(1);
        let max_backlog = live.max_backlog.max(1);
        let checkpoint_every = live.checkpoint_every;
        let frontend_thread = std::thread::Builder::new()
            .name("janus-frontend".into())
            .spawn(move || {
                frontend_loop(
                    &worker,
                    &pump_handles,
                    frontend_chunk,
                    max_backlog,
                    checkpoint_every,
                )
            })
            .expect("spawn front-end worker");

        Ok(LiveCluster {
            shared,
            pump_threads,
            frontend_thread: Some(frontend_thread),
        })
    }

    /// The engine under service. All `ClusterEngine` methods take `&self`,
    /// so direct reads (and even direct publishes) are safe alongside the
    /// workers — this is the low-latency read path a dashboard uses.
    pub fn engine(&self) -> &ClusterEngine {
        &self.shared.cluster
    }

    /// The request log this service consumes.
    pub fn requests(&self) -> &Arc<RequestLog> {
        &self.shared.requests
    }

    /// Requests published but not yet processed by the front end.
    pub fn frontend_lag(&self) -> u64 {
        self.shared
            .requests
            .end_offset()
            .saturating_sub(self.shared.front_offset.load(Ordering::Acquire))
    }

    /// Front-end counter snapshot.
    pub fn live_stats(&self) -> LiveStats {
        let c = &self.shared.counters;
        LiveStats {
            requests_consumed: c.requests_consumed.load(Ordering::Relaxed),
            responses_published: c.responses_published.load(Ordering::Relaxed),
            empty_answers: c.empty_answers.load(Ordering::Relaxed),
            rejected_requests: c.rejected_requests.load(Ordering::Relaxed),
            records_skipped: c.records_skipped.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            checkpoint_failures: c.checkpoint_failures.load(Ordering::Relaxed),
            admission_rejections: c.admission_rejections.load(Ordering::Relaxed),
            partial_responses: c.partial_responses.load(Ordering::Relaxed),
        }
    }

    /// Submits a query on behalf of `tenant` and returns the request-log
    /// offset its response record will be keyed by. Admission control
    /// runs *here*, before anything touches the log: when
    /// [`LiveConfig::tenant_quota`] is set and the tenant is already at
    /// it, the call fails with [`JanusError::Backpressure`] and nothing
    /// is published. `deadline` bounds how long the gather waits for
    /// stragglers — expired shards are merged out into a *partial*
    /// answer — and `interactive` routes the scatter through the pool's
    /// priority lane. Tenant `0` with no deadline and `interactive =
    /// false` lands the very request [`RequestLog::publish_query`] does;
    /// only this call's admission accounting sets it apart.
    pub fn submit_query(
        &self,
        tenant: TenantId,
        query: Query,
        deadline: Option<Duration>,
        interactive: bool,
    ) -> Result<u64> {
        {
            let mut tenants = self.shared.tenants.lock();
            let state = tenants.entry(tenant).or_default();
            if self.shared.tenant_quota > 0 && state.inflight >= self.shared.tenant_quota {
                state.admission_rejections += 1;
                self.shared
                    .counters
                    .admission_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Err(JanusError::Backpressure(format!(
                    "tenant {tenant} is at its in-flight quota ({})",
                    self.shared.tenant_quota
                )));
            }
            state.inflight += 1;
            state.submitted += 1;
        }
        // Sub-millisecond deadlines round *up* to 1ms — `0` on the wire
        // means "no deadline", and a requested deadline must stay one.
        let deadline_ms = deadline.map_or(0, |d| {
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(1)
        });
        let offset =
            self.shared
                .requests
                .publish_query_for(tenant, query, deadline_ms, interactive);
        if let Some(t) = &self.frontend_thread {
            t.thread().unpark();
        }
        Ok(offset)
    }

    /// Counter snapshot for one tenant (all zeros if never seen).
    pub fn tenant_stats(&self, tenant: TenantId) -> TenantStats {
        self.shared
            .tenants
            .lock()
            .get(&tenant)
            .copied()
            .unwrap_or_default()
    }

    /// Snapshot of every tenant seen so far, in tenant-id order.
    pub fn all_tenant_stats(&self) -> Vec<(TenantId, TenantStats)> {
        self.shared
            .tenants
            .lock()
            .iter()
            .map(|(&t, &s)| (t, s))
            .collect()
    }

    /// Requests an immediate checkpoint and blocks until the front-end
    /// worker (the sole publisher, hence the only thread that can cut a
    /// consistent one) has taken it. Returns `true` when a checkpoint was
    /// persisted, `false` when the service has no store, the save failed,
    /// or the service is shutting down.
    pub fn checkpoint_now(&self) -> bool {
        if self.shared.store.is_none() {
            return false;
        }
        let c = &self.shared.counters;
        let attempts_before =
            c.checkpoints.load(Ordering::Relaxed) + c.checkpoint_failures.load(Ordering::Relaxed);
        let ok_before = c.checkpoints.load(Ordering::Relaxed);
        self.shared
            .checkpoint_requested
            .store(true, Ordering::Release);
        // The front end bumps after every checkpoint attempt.
        let attempted = self.wait_until(|| {
            c.checkpoints.load(Ordering::Relaxed) + c.checkpoint_failures.load(Ordering::Relaxed)
                > attempts_before
        });
        attempted && c.checkpoints.load(Ordering::Relaxed) > ok_before
    }

    /// Blocks until `done` holds, waking every worker each round; `false`
    /// when the service shut down first.
    fn wait_until(&self, done: impl FnMut() -> bool) -> bool {
        self.shared.progress.wait_until(
            Backoff::new(),
            || self.shared.shutdown.load(Ordering::Relaxed),
            || {
                if let Some(t) = &self.frontend_thread {
                    t.thread().unpark();
                }
                for t in &self.pump_threads {
                    t.thread().unpark();
                }
            },
            done,
        )
    }

    /// Barrier: blocks until every request published *so far* has been
    /// consumed by the front end **and** every shard topic is fully
    /// pumped — i.e. all effects of the traffic are in the synopses and
    /// all query responses are on the response topic. Producers that keep
    /// publishing move the goalposts; quiesce them first for a final
    /// drain.
    pub fn drain(&self) {
        // Workers bump after every pumped batch / consumed request.
        self.wait_until(|| {
            let end = self.shared.requests.end_offset();
            self.shared.front_offset.load(Ordering::Acquire) >= end
                && self.shared.cluster.pending() == 0
                && self.shared.cluster.replica_pending() == 0
        });
    }

    /// Stops all workers and returns the inner engine. Does *not* drain
    /// first — call [`LiveCluster::drain`] before shutting down when the
    /// remaining traffic matters.
    pub fn shutdown(mut self) -> ClusterEngine {
        self.stop_workers();
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(s) => s.cluster,
            Err(_) => panic!("outstanding references to the live cluster"),
        }
    }

    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Lift any barrier blocked on progress so it re-checks shutdown.
        self.shared.progress.bump();
        if let Some(t) = self.frontend_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
        for t in self.pump_threads.drain(..) {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for LiveCluster {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// The front-end worker body: consume the unified request log in arrival
/// order, republish data to shard topics, answer queries — and, when a
/// checkpoint store is attached, cut tail-free checkpoints between
/// batches (every `checkpoint_every` pumped records, or on request).
/// After each batch it truncates the request topic below its *request
/// floor*: the consumed offset, or the newest saved checkpoint's
/// `request_offset` when that is lower (recovery replays from there).
fn frontend_loop(
    shared: &Shared,
    pump_workers: &[std::thread::Thread],
    chunk: usize,
    max_backlog: u64,
    checkpoint_every: u64,
) {
    let mut offset = shared.front_offset.load(Ordering::Acquire);
    // The request offset recovery would resume from: the start offset
    // until a checkpoint is saved, and no pin at all without a store.
    let mut saved_request_offset = if shared.store.is_some() {
        offset
    } else {
        UNPINNED
    };
    let mut pumped_at_checkpoint = shared.cluster.pumped_records();
    let mut idle = Backoff::new();
    loop {
        if shared.store.is_some() {
            let requested = shared.checkpoint_requested.swap(false, Ordering::AcqRel);
            let due = checkpoint_every > 0
                && shared.cluster.pumped_records() - pumped_at_checkpoint >= checkpoint_every;
            if requested || due {
                match take_checkpoint(shared, pump_workers) {
                    None => return, // shutdown while waiting for the drain
                    Some(true) => saved_request_offset = offset,
                    Some(false) => {} // a failed save moves nothing
                }
                pumped_at_checkpoint = shared.cluster.pumped_records();
            }
        }
        let batch = shared.requests.poll_requests(offset, chunk);
        if batch.is_empty() {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            idle.park();
            continue;
        }
        idle.reset();
        // Consecutive data requests republish through the *batched* path:
        // one router/directory acquisition and one topic append per shard
        // per run, instead of a lock round trip per record. An Execute is
        // a barrier — its answer must see every earlier data request in
        // the topics — so the pending run flushes first.
        let mut pending: Vec<ShardOp> = Vec::new();
        for request in batch {
            match request {
                Request::Insert(row) => pending.push(ShardOp::Insert(row)),
                Request::Delete(id) => pending.push(ShardOp::Delete(id)),
                // Every consumed Execute publishes exactly one response
                // record, so clients can always distinguish "not yet
                // processed" (no record) from "empty/failed" (None).
                Request::Execute {
                    tenant,
                    deadline_ms,
                    interactive,
                    query,
                } => {
                    if !flush_ops(shared, pump_workers, &mut pending, &mut offset, max_backlog) {
                        return; // shutdown while stalled
                    }
                    let opts = QueryOptions {
                        priority: if interactive {
                            Priority::Interactive
                        } else {
                            Priority::Bulk
                        },
                        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
                        use_cache: true,
                    };
                    answer_query(shared, &mut offset, &query, opts, tenant);
                }
            }
        }
        if !flush_ops(shared, pump_workers, &mut pending, &mut offset, max_backlog) {
            return;
        }
        shared
            .requests
            .requests
            .truncate_below(offset.min(saved_request_offset));
        for worker in pump_workers {
            worker.unpark();
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Answers one `Execute` request through [`ClusterEngine::query_with`]
/// and publishes its response record, maintaining the per-request
/// counters and — for a tenant [`LiveCluster::submit_query`] admitted —
/// the tenant's in-flight/answered/partial accounting. A tenant this
/// service never admitted, such as [`RequestLog::publish_query`]'s
/// tenant 0, gets no entry.
fn answer_query(
    shared: &Shared,
    offset: &mut u64,
    query: &Query,
    opts: QueryOptions,
    tenant: TenantId,
) {
    let counters = &shared.counters;
    let answer = match shared.cluster.query_with(query, opts) {
        Ok(Some(est)) => Some(est),
        Ok(None) => {
            counters.empty_answers.fetch_add(1, Ordering::Relaxed);
            None
        }
        Err(_) => {
            counters.rejected_requests.fetch_add(1, Ordering::Relaxed);
            None
        }
    };
    let partial = answer.is_some_and(|e| e.partial);
    if partial {
        counters.partial_responses.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(state) = shared.tenants.lock().get_mut(&tenant) {
        state.inflight = state.inflight.saturating_sub(1);
        state.answered += 1;
        if partial {
            state.partial_answers += 1;
        }
    }
    shared.requests.publish_response(*offset, answer);
    counters.responses_published.fetch_add(1, Ordering::Relaxed);
    *offset += 1;
    counters.requests_consumed.fetch_add(1, Ordering::Relaxed);
    // Release-publish progress only after the request's effect (topic
    // record or response) is visible — the drain contract.
    shared.front_offset.store(*offset, Ordering::Release);
    shared.progress.bump();
}

/// Republishes a run of pending data requests through
/// [`ClusterEngine::publish_batch`], in backpressure-bounded slices: a
/// slice of `k` records is published only once no shard's backlog
/// exceeds `max_backlog - k`, so no shard's publish-ahead gap ever
/// exceeds `max_backlog` — the same bound the per-record path enforced,
/// reached in one stall check per slice instead of one per record. The
/// front-end offset advances per slice (each slice maps 1:1 to a run of
/// consumed requests), keeping the drain contract exact even across a
/// shutdown mid-run. Returns `false` when shutdown was requested while
/// stalled.
fn flush_ops(
    shared: &Shared,
    pump_workers: &[std::thread::Thread],
    ops: &mut Vec<ShardOp>,
    offset: &mut u64,
    max_backlog: u64,
) -> bool {
    if ops.is_empty() {
        return true;
    }
    let counters = &shared.counters;
    // Half the backlog budget per slice keeps publish and pump
    // overlapped; capped so giant runs still stream.
    let cap = (max_backlog / 2).clamp(1, 1024) as usize;
    let mut queue = std::mem::take(ops);
    while !queue.is_empty() {
        let take = queue.len().min(cap);
        let limit = max_backlog.saturating_sub(take as u64);
        if !stall_for_backlog(shared, pump_workers, limit) {
            return false;
        }
        let slice: Vec<ShardOp> = queue.drain(..take).collect();
        let report = shared.cluster.publish_batch(slice);
        if report.rejected > 0 {
            counters
                .rejected_requests
                .fetch_add(report.rejected as u64, Ordering::Relaxed);
        }
        *offset += take as u64;
        counters
            .requests_consumed
            .fetch_add(take as u64, Ordering::Relaxed);
        shared.front_offset.store(*offset, Ordering::Release);
        shared.progress.bump();
        for worker in pump_workers {
            worker.unpark();
        }
    }
    true
}

/// Cuts one tail-free checkpoint and persists it. Runs on the front-end
/// worker between request batches: the front end is the only topic
/// publisher, so while it sits here nothing new lands in the shard
/// topics, and waiting for `pending() == 0` gives a cut where every
/// shard's engine state equals "all effects of requests `< front_offset`"
/// — the exact point recovery resumes from. The tail-free property is
/// re-verified on the cut itself (direct publishers bypassing the
/// request log would violate it) and the cut retried until it holds.
/// Returns whether the save succeeded — its `request_offset` is the
/// front end's consumed offset — or `None` when shutdown was requested
/// mid-wait.
fn take_checkpoint(shared: &Shared, pump_workers: &[std::thread::Thread]) -> Option<bool> {
    let store = shared
        .store
        .as_ref()
        .expect("take_checkpoint requires a store");
    // The pumps bump progress per applied batch.
    while wait_for_pumps(shared, pump_workers, || shared.cluster.pending() == 0) {
        let mut checkpoint = shared.cluster.checkpoint();
        if !checkpoint.is_tail_free() {
            // A record slipped in between the pending probe and the cut;
            // wait for the pumps and retry.
            continue;
        }
        checkpoint.request_offset = shared.front_offset.load(Ordering::Acquire);
        let id = store.latest_id().map_or(0, |latest| latest + 1);
        let saved = checkpoint
            .save(store.as_ref(), id)
            .and_then(|()| store.prune(CHECKPOINT_KEEP));
        let counter = match saved {
            Ok(()) => &shared.counters.checkpoints,
            Err(_) => &shared.counters.checkpoint_failures,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // Wake any checkpoint_now() caller blocked on the attempt
        // counters.
        shared.progress.bump();
        return Some(saved.is_ok());
    }
    None
}

/// Front-end side wait: blocks until `done` holds, unparking the pump
/// workers each round. Returns `false` when shutdown was requested first.
fn wait_for_pumps(
    shared: &Shared,
    pump_workers: &[std::thread::Thread],
    done: impl FnMut() -> bool,
) -> bool {
    shared.progress.wait_until(
        Backoff::new(),
        || shared.shutdown.load(Ordering::Relaxed),
        || pump_workers.iter().for_each(std::thread::Thread::unpark),
        done,
    )
}

/// Blocks while any shard's backlog is over `limit`. Returns `false`
/// when shutdown was requested mid-stall. Runs on every slice, so the
/// fast path is the allocation-free early-exit probe
/// [`ClusterEngine::backlog_exceeds`].
fn stall_for_backlog(shared: &Shared, pump_workers: &[std::thread::Thread], limit: u64) -> bool {
    // The backlog only shrinks when a pump applies records, and every
    // such batch bumps progress.
    wait_for_pumps(shared, pump_workers, || {
        !shared.cluster.backlog_exceeds(limit)
    })
}
