//! The persistent per-shard worker pool behind scatter-gather queries
//! and parallel pumping.
//!
//! The seed engine spawned a fresh `std::thread::scope` thread per target
//! shard on *every* query (and per shard on every `pump` call), so
//! steady-state query latency included thread creation and teardown. The
//! pool replaces that with one long-lived worker per shard, created at
//! engine construction and joined when the engine drops:
//!
//! * each worker owns a channel of [`Job`]s for its shard and executes
//!   them in arrival order — a sub-query locks only the one engine
//!   (primary or fresh replica) it reads, exactly like the scoped-thread
//!   path did;
//! * a scatter sends one job per target shard tagged with its gather
//!   slot, then blocks on a per-query reply channel until every slot has
//!   answered, so gather order (and therefore merge order) remains shard
//!   order — answers stay bit-identical to the spawning path;
//! * [`crate::ClusterEngine::pump`] reuses the same workers for parallel
//!   drains, so the full-cluster pump no longer spawns either.
//!
//! Workers never take the router or directory locks, and never wait on
//! each other, so the pool adds no lock-order edges: the engine-wide
//! deadlock-freedom argument (router → directory → shards) is unchanged.
//!
//! [`Job::Scan`] extends the pool to *segmented exact scans*: the
//! parallel oracle tiles every shard's archive into fixed-size segments
//! (see `janus_common::kernels::SEGMENT_ROWS`) and fans one scan job per
//! segment round-robin across **all** workers, not just the segment's
//! home worker. Each scan job takes its own read lock on the target
//! shard and the gathering caller holds *no* locks while it waits, so a
//! scan worker can only ever be blocked by a writer that itself
//! terminates independently — the pool stays deadlock-free even though
//! scan jobs cross shard boundaries.

//! ## Priority lanes
//!
//! Every job travels with a [`Priority`]. A worker drains its channel
//! into two local queues and always serves the interactive queue first,
//! so a dashboard query scattered behind a long run of bulk pump/scan
//! jobs overtakes them at the *next* job boundary — jobs themselves are
//! never preempted, and jobs of equal priority keep strict arrival
//! order, which is why the default-priority path stays bit-identical to
//! the single-queue pool it replaced.

use crate::engine::ShardSet;
use janus_common::merge::SubAnswer;
use janus_common::{JanusError, Query, Result, ScanPartial};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Scheduling lane for one pool job. Everything defaults to [`Bulk`];
/// deadline-bound tenant queries ride [`Interactive`] and overtake queued
/// bulk work at job boundaries.
///
/// [`Bulk`]: Priority::Bulk
/// [`Interactive`]: Priority::Interactive
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Background lane: ingest pumps, analytical sweeps, anything
    /// without a deadline. The default.
    #[default]
    Bulk,
    /// Latency-sensitive lane, served before any queued bulk job.
    Interactive,
}

/// One unit of work for a shard's worker.
pub(crate) enum Job {
    /// Serve one sub-query and reply on the scatter's gather channel,
    /// tagged with the target's slot so gather order is shard order.
    Query {
        slot: usize,
        query: Arc<Query>,
        reply: Sender<(usize, Result<SubAnswer>)>,
    },
    /// Drain up to `max` topic records into the shard's primary engine
    /// (strict mode) and its followers; reply with
    /// `(shard, applied, skipped, first_error)`.
    Pump {
        max: usize,
        reply: Sender<(usize, usize, usize, Option<JanusError>)>,
    },
    /// Scan one fixed-size segment of `shard`'s archive under the
    /// shard's own read lock (the worker executing the job need not be
    /// the shard's home worker) and reply with the segment's partial,
    /// tagged with the gather slot so merge order stays segment order.
    Scan {
        slot: usize,
        shard: usize,
        seg: usize,
        segment_rows: usize,
        query: Arc<Query>,
        reply: Sender<(usize, ScanPartial)>,
    },
}

/// One long-lived worker thread per shard, fed by a channel.
pub(crate) struct ScatterPool {
    senders: Vec<Sender<(Priority, Job)>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-shard artificial serve delay in milliseconds — a test/demo
    /// hook that makes one shard a deterministic straggler so deadline
    /// paths can be exercised without relying on machine load.
    stall_ms: Arc<Vec<AtomicU64>>,
}

impl ScatterPool {
    /// Spawns one worker per shard of `set`.
    pub(crate) fn start(set: &Arc<ShardSet>) -> Self {
        let stall_ms: Arc<Vec<AtomicU64>> =
            Arc::new((0..set.shards.len()).map(|_| AtomicU64::new(0)).collect());
        let mut senders = Vec::with_capacity(set.shards.len());
        let mut handles = Vec::with_capacity(set.shards.len());
        for shard in 0..set.shards.len() {
            let (tx, rx) = std::sync::mpsc::channel();
            let set = Arc::clone(set);
            let stall = Arc::clone(&stall_ms);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("janus-scatter-{shard}"))
                    .spawn(move || worker_loop(&set, shard, &rx, &stall))
                    .expect("spawn scatter worker"),
            );
            senders.push(tx);
        }
        ScatterPool {
            senders,
            handles,
            stall_ms,
        }
    }

    /// Enqueues a job on `shard`'s worker in the bulk lane (the
    /// pre-priority behavior: strict arrival order).
    pub(crate) fn send(&self, shard: usize, job: Job) {
        self.send_with(shard, Priority::Bulk, job);
    }

    /// Enqueues a job on `shard`'s worker in the given lane.
    pub(crate) fn send_with(&self, shard: usize, priority: Priority, job: Job) {
        self.senders[shard]
            .send((priority, job))
            .expect("scatter worker outlives the engine");
    }

    /// Sets the artificial per-query serve delay for `shard`'s worker
    /// (0 clears it). Test/demo hook only.
    pub(crate) fn set_stall_ms(&self, shard: usize, ms: u64) {
        self.stall_ms[shard].store(ms, Ordering::Relaxed);
    }
}

impl Drop for ScatterPool {
    fn drop(&mut self) {
        // Closing the channels is the shutdown signal; workers drain any
        // queued jobs first, so in-flight scatters still complete.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(
    set: &ShardSet,
    shard: usize,
    jobs: &Receiver<(Priority, Job)>,
    stall_ms: &[AtomicU64],
) {
    let mut interactive: VecDeque<Job> = VecDeque::new();
    let mut bulk: VecDeque<Job> = VecDeque::new();
    let mut open = true;
    loop {
        // Block only when there is nothing local to run; once the channel
        // closes (engine drop), finish the queued backlog so in-flight
        // scatters still complete, then exit.
        if interactive.is_empty() && bulk.is_empty() {
            if !open {
                return;
            }
            match jobs.recv() {
                Ok((priority, job)) => enqueue(&mut interactive, &mut bulk, priority, job),
                Err(_) => {
                    open = false;
                    continue;
                }
            }
        }
        // Scoop everything already sent, so an interactive job that
        // arrived behind queued bulk work overtakes it here.
        loop {
            match jobs.try_recv() {
                Ok((priority, job)) => enqueue(&mut interactive, &mut bulk, priority, job),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let Some(job) = interactive.pop_front().or_else(|| bulk.pop_front()) else {
            continue;
        };
        run_job(set, shard, job, stall_ms);
    }
}

fn enqueue(interactive: &mut VecDeque<Job>, bulk: &mut VecDeque<Job>, p: Priority, job: Job) {
    match p {
        Priority::Interactive => interactive.push_back(job),
        Priority::Bulk => bulk.push_back(job),
    }
}

fn run_job(set: &ShardSet, shard: usize, job: Job, stall_ms: &[AtomicU64]) {
    match job {
        Job::Query { slot, query, reply } => {
            let stall = stall_ms[shard].load(Ordering::Relaxed);
            if stall > 0 {
                std::thread::sleep(std::time::Duration::from_millis(stall));
            }
            // A gather abandoned mid-retry (or one whose deadline
            // expired) may have dropped its receiver; that is not the
            // worker's problem.
            let _ = reply.send((slot, set.serve(shard, &query)));
        }
        Job::Pump { max, reply } => {
            let (applied, skipped, error) = set.pump_one(shard, max, false);
            let replica_applied = set.pump_replicas_mode(shard, max, false);
            let _ = reply.send((shard, applied + replica_applied, skipped, error));
        }
        Job::Scan {
            slot,
            shard: target,
            seg,
            segment_rows,
            query,
            reply,
        } => {
            let _ = reply.send((slot, set.scan_segment(target, seg, segment_rows, &query)));
        }
    }
}
