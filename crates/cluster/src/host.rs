//! The one shard host: a [`JanusEngine`] under a `RwLock` plus the topic
//! offset it has applied. The in-process cluster's primaries and
//! followers ([`crate::ClusterEngine`], pumped by [`crate::LiveCluster`]'s
//! workers) and every shard a `janus-node` daemon serves are
//! [`ShardHost`]s, so the apply, the freshness-gated answer and the
//! checkpoint capture exist once. So does the copy policy both
//! transports choose over a shard's copies with: [`promote`],
//! [`pick_read`] and [`retention_floor`].
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

/// A shard's retention pin while nothing holds one.
pub const UNPINNED: u64 = u64::MAX;

/// The follower a failover promotes, given each candidate's `(index,
/// applied offset)`: the freshest wins, and ties go to the lowest index.
/// `None` when there is no candidate.
pub fn promote(followers: impl IntoIterator<Item = (usize, u64)>) -> Option<usize> {
    followers
        .into_iter()
        .max_by_key(|&(index, applied)| (applied, usize::MAX - index))
        .map(|(index, _)| index)
}

/// A read [`pick_read`] sends to a follower: its `index`, the
/// `min_applied` gate its answer re-checks, and whether the primary's
/// open breaker sent it there (`degraded`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FollowerRead {
    pub index: usize,
    pub min_applied: u64,
    pub degraded: bool,
}

/// Picks the copy that answers one read of a shard whose topic ends at
/// `end`, given each follower's `(index, applied offset)`; `None` picks
/// the primary. A follower is fresh while it trails `end` by at most
/// `lag` records. Reads go round-robin over the primary and the fresh
/// followers, one `cursor` step each. While `primary_open()` (the
/// primary's breaker; asked only then, as asking may admit a half-open
/// probe) holds and a fresh follower exists, only those take turns.
/// After a `Stale` refusal (`stale`), the primary answers and the cursor
/// stays put.
pub fn pick_read(
    followers: impl IntoIterator<Item = (usize, u64)>,
    end: u64,
    lag: u64,
    cursor: &AtomicU64,
    stale: bool,
    primary_open: impl FnOnce() -> bool,
) -> Option<FollowerRead> {
    if stale {
        return None;
    }
    let min_applied = end.saturating_sub(lag);
    let fresh: Vec<usize> = followers
        .into_iter()
        .filter(|&(_, applied)| applied >= min_applied)
        .map(|(index, _)| index)
        .collect();
    let degraded = !fresh.is_empty() && primary_open();
    let turn = cursor.fetch_add(1, Ordering::Relaxed) as usize;
    let pick = if degraded {
        turn % fresh.len()
    } else {
        // Turn 0 of each round is the primary's.
        (turn % (fresh.len() + 1)).checked_sub(1)?
    };
    Some(FollowerRead {
        index: fresh[pick],
        min_applied,
        degraded,
    })
}

/// How far a shard's topic may be truncated: the lowest applied offset
/// over its alive copies, lowered further by the shard's `pin`. `None`
/// when no copy is alive, and the topic is then kept whole.
pub fn retention_floor(applied: impl IntoIterator<Item = u64>, pin: u64) -> Option<u64> {
    applied.into_iter().min().map(|floor| floor.min(pin))
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_takes_the_freshest_follower_and_ties_to_the_lowest_index() {
        assert_eq!(promote([(0, 5), (1, 9), (2, 7)]), Some(1));
        assert_eq!(promote([(4, 7), (2, 7), (3, 7)]), Some(2));
        assert_eq!(promote([(3, 0)]), Some(3));
        assert_eq!(promote([]), None);
    }

    /// Followers 10 and 11 are fresh at end 100 with lag 2; 12 trails.
    const FOLLOWERS: [(usize, u64); 3] = [(10, 100), (11, 98), (12, 97)];

    #[test]
    fn reads_go_round_robin_over_the_primary_and_the_fresh_followers() {
        let cursor = AtomicU64::new(41);
        let mut picks: Vec<Option<FollowerRead>> = (0..3)
            .map(|_| pick_read(FOLLOWERS, 100, 2, &cursor, false, || false))
            .collect();
        assert_eq!(cursor.load(Ordering::Relaxed), 44);
        picks.sort_by_key(|p| p.map(|read| read.index));
        let gate = |index| {
            Some(FollowerRead {
                index,
                min_applied: 98,
                degraded: false,
            })
        };
        assert_eq!(picks, [None, gate(10), gate(11)]);
        // A gate wider than the topic reaches down to offset 0.
        let far = pick_read([(7, 0)], 3, 5, &AtomicU64::new(1), false, || false);
        assert_eq!(far.map(|read| read.min_applied), Some(0));
    }

    #[test]
    fn an_open_breaker_keeps_reads_off_the_primary_while_a_follower_is_fresh() {
        let cursor = AtomicU64::new(0);
        for _ in 0..6 {
            let pick = pick_read(FOLLOWERS, 100, 2, &cursor, false, || true);
            assert!(pick.is_some_and(|read| read.degraded), "{pick:?}");
        }
        // With no fresh follower the breaker is not asked.
        let pick = pick_read([(12, 97)], 100, 2, &cursor, false, || unreachable!());
        assert_eq!(pick, None);
    }

    #[test]
    fn a_stale_refusal_returns_the_primary_without_advancing_the_cursor() {
        let cursor = AtomicU64::new(5);
        let pick = pick_read(FOLLOWERS, 100, 2, &cursor, true, || unreachable!());
        assert_eq!(pick, None);
        assert_eq!(cursor.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn the_floor_is_the_lowest_copy_lowered_by_the_pin() {
        assert_eq!(retention_floor([9, 4, 7], UNPINNED), Some(4));
        assert_eq!(retention_floor([9, 4, 7], 2), Some(2));
        assert_eq!(retention_floor([9], 12), Some(9));
        assert_eq!(retention_floor([], 3), None);
    }
}
