//! The one shard host: a [`JanusEngine`] under a `RwLock` plus the topic
//! offset it has applied. The in-process cluster's primaries and
//! followers ([`crate::ClusterEngine`], pumped by [`crate::LiveCluster`]'s
//! workers) and every shard a `janus-node` daemon serves are
//! [`ShardHost`]s, so the apply, the freshness-gated answer and the
//! checkpoint capture exist once.
//!
//! `applied` is stored (`Release`) only while the engine's write guard is
//! held, so a reader under the read guard sees the offset its engine
//! state corresponds to, and a progress probe ([`ShardHost::applied`]) is
//! one `Acquire` load that never waits on the engine lock.
//!
//! Lock order: primary host → replica set → one replica (a migration,
//! holding the set's write guard, may hold every replica). A host takes
//! no other lock while it holds its engine's.

use crate::checkpoint::ShardCheckpoint;
use crate::engine::ShardOp;
use janus_common::merge::SubAnswer;
use janus_common::{AggregateFunction, JanusError, Query, Result};
use janus_core::JanusEngine;
use janus_storage::TopicLog;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};

/// A shard's engine and the topic offset it has applied.
pub struct ShardHost {
    engine: RwLock<JanusEngine>,
    /// Global topic offset applied into `engine`; written only under the
    /// engine's write guard.
    applied: AtomicU64,
}

impl ShardHost {
    /// Hosts `engine`, which has applied its topic up to `applied`.
    pub fn new(engine: JanusEngine, applied: u64) -> Self {
        ShardHost {
            engine: RwLock::new(engine),
            applied: AtomicU64::new(applied),
        }
    }

    /// The topic offset applied so far — one atomic load, no lock.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// The engine's read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, JanusEngine> {
        self.engine.read()
    }

    /// The engine's write guard — for pumping, promotion and migration.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, JanusEngine> {
        self.engine.write()
    }

    /// The engine, through exclusive access to the host.
    pub(crate) fn get_mut(&mut self) -> &mut JanusEngine {
        self.engine.get_mut()
    }

    /// Applies `batch`, the records from the applied offset on, under the
    /// engine's write guard. Returns `(applied, skipped, first_error)`;
    /// strict (`skip_failed` unset), a failing record is neither, and
    /// the batch stops there.
    pub fn apply(
        &self,
        batch: Vec<ShardOp>,
        skip_failed: bool,
    ) -> (usize, usize, Option<JanusError>) {
        self.apply_locked(&mut self.engine.write(), batch, skip_failed)
    }

    /// Applies up to `max` records of `topic` from the applied offset
    /// on, under `engine`, this host's write guard, which the caller
    /// holds — so state it keeps in step with the offset changes under
    /// the same guard. Strict, a failing record stays at the head of
    /// `topic`.
    pub(crate) fn drain_locked(
        &self,
        engine: &mut JanusEngine,
        topic: &TopicLog<ShardOp>,
        max: usize,
        skip_failed: bool,
    ) -> (usize, usize, Option<JanusError>) {
        let batch = topic.poll(self.applied(), max);
        self.apply_locked(engine, batch, skip_failed)
    }

    /// The one apply body under [`ShardHost::apply`] and
    /// [`ShardHost::drain_locked`].
    fn apply_locked(
        &self,
        engine: &mut JanusEngine,
        batch: Vec<ShardOp>,
        skip_failed: bool,
    ) -> (usize, usize, Option<JanusError>) {
        if batch.is_empty() {
            return (0, 0, None);
        }
        let applied = self.applied();
        let (done, skipped, first_error) = engine.apply_update_batch(batch, skip_failed);
        self.applied
            .store(applied + (done + skipped) as u64, Ordering::Release);
        (done, skipped, first_error)
    }

    /// Answers one scattered sub-query in the shape the gather merges —
    /// AVG as its `(sum, count)` moments, everything else as the
    /// engine's estimate — if the host has applied at least
    /// `min_applied`; otherwise returns the applied offset. The check and
    /// the answer share one read guard.
    pub fn answer(
        &self,
        min_applied: u64,
        query: &Query,
    ) -> std::result::Result<Result<SubAnswer>, u64> {
        let engine = self.engine.read();
        let applied = self.applied();
        if applied < min_applied {
            return Err(applied);
        }
        Ok(if query.agg == AggregateFunction::Avg {
            engine
                .answer_sum_count(query)
                .map(|(sum, count)| SubAnswer::Moments { sum, count })
        } else {
            engine
                .query(query)
                .map(|answer| answer.map_or(SubAnswer::Empty, SubAnswer::Estimate))
        })
    }

    /// Captures the host as shard `shard`'s checkpoint: the engine's
    /// synopsis and archive and its applied offset, read under one read
    /// guard, with `published` as the published offset.
    pub fn capture(&self, shard: usize, published: u64) -> ShardCheckpoint {
        self.capture_locked(&self.engine.read(), shard, published)
    }

    /// [`ShardHost::capture`] under `engine`, this host's read guard,
    /// which the caller holds.
    pub(crate) fn capture_locked(
        &self,
        engine: &JanusEngine,
        shard: usize,
        published: u64,
    ) -> ShardCheckpoint {
        ShardCheckpoint {
            shard,
            applied_offset: self.applied(),
            published_offset: published,
            synopsis: engine.save_synopsis(),
            archive_rows: engine.export_rows(),
        }
    }

    /// Promotion: moves `follower`'s engine and offset into this host
    /// under `engine`, this host's write guard.
    pub(crate) fn take_over(&self, engine: &mut JanusEngine, follower: ShardHost) {
        *engine = follower.engine.into_inner();
        self.applied
            .store(follower.applied.into_inner(), Ordering::Release);
    }
}
