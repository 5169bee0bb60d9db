//! The striped row → shard directory.
//!
//! The cluster's authoritative placement map used to be one
//! `RwLock<DetHashMap<RowId, usize>>`, which made the directory write
//! lock the serialization point of every publish — ingest throughput
//! flattened from 4 to 8 shards. This module shards the map
//! into [`STRIPES`] independently locked stripes keyed by a SplitMix64
//! hash of the row id, so concurrent pre-routed publishers
//! ([`crate::ClusterEngine::publish_batch_routed`]) only contend when
//! their rows actually collide on a stripe.
//!
//! ## Lock order
//!
//! The engine-wide order is **router → ingest gate → directory stripes
//! (ascending stripe index) → shards (ascending) → replica sets**. Every
//! multi-stripe acquisition in this module ([`StripedDirectory::write_all`],
//! [`StripedDirectory::read_all`], [`StripedDirectory::reserve`]) locks
//! stripes in ascending index order. No code in this crate takes a router
//! or gate lock while holding a stripe.
//!
//! ## Reserved entries
//!
//! The routed fast path publishes *without* the classic path's "hold the
//! directory lock across the topic append" rule — holding 16 stripe locks
//! across an append would re-serialize everything. It reserves its rows'
//! entries stripe by stripe, releases the stripes, then appends to the
//! shard topic, so for a moment the directory names rows whose inserts
//! are not in their topic yet. That is safe because **every publisher
//! holds the router lock — read for routed, write for classic**:
//!
//! * a routed call holds the router read lock (plus the ingest gate,
//!   shared) from before its reserve until after its append, and every
//!   path that deletes, re-places, or snapshots entries is a classic
//!   publish or a rebalance (router write lock) or checkpoint/fail-shard
//!   (gate exclusive) — none of them can run inside that window;
//! * so a reserved entry is only ever seen by another routed publisher's
//!   duplicate check, which rejects the row exactly as it would once the
//!   insert has landed.

use crate::engine::ShardOp;
use crate::router::{mix, ShardRouter};
use janus_common::{DetHashMap, RowId};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of directory stripes. A power of two so stripe selection is a
/// mask; 16 comfortably exceeds any plausible loader-thread count while
/// keeping the all-stripes paths (rebalance, checkpoint) cheap.
pub(crate) const STRIPES: usize = 16;

/// A row → shard placement map held exclusively — the live striped
/// directory under all its stripe locks, or a plain map (the networked
/// coordinator's, or placement rebuilt offline in bootstrap, restore and
/// unit tests).
pub trait PlacementSink {
    /// Whether `id` is placed anywhere.
    fn contains(&self, id: RowId) -> bool;
    /// Records that `id` now lives on `shard` (insert or overwrite).
    fn place(&mut self, id: RowId, shard: usize);
    /// Removes `id`, returning the shard it lived on.
    fn remove(&mut self, id: RowId) -> Option<usize>;
}

impl PlacementSink for DetHashMap<RowId, usize> {
    fn contains(&self, id: RowId) -> bool {
        self.contains_key(&id)
    }
    fn place(&mut self, id: RowId, shard: usize) {
        self.insert(id, shard);
    }
    fn remove(&mut self, id: RowId) -> Option<usize> {
        DetHashMap::remove(self, &id)
    }
}

/// The publish path's resolve step, shared by both coordinators:
/// resolves `ops` against `directory` in arrival order and groups the
/// accepted ones per shard — an insert is routed and placed, a delete
/// goes to the shard holding the row; an insert of a placed id or a
/// delete of an unplaced one is rejected and skipped. Returns `(groups,
/// inserts, deletes, rejected)`; order inside a group is arrival order.
pub fn resolve_batch(
    ops: impl IntoIterator<Item = ShardOp>,
    directory: &mut impl PlacementSink,
    router: &mut ShardRouter,
) -> (Vec<Vec<ShardOp>>, u64, u64, usize) {
    let mut groups: Vec<Vec<ShardOp>> = (0..router.shards()).map(|_| Vec::new()).collect();
    let (mut inserts, mut deletes, mut rejected) = (0, 0, 0);
    for op in ops {
        match op {
            ShardOp::Insert(row) if !directory.contains(row.id) => {
                let shard = router.route(&row);
                directory.place(row.id, shard);
                groups[shard].push(ShardOp::Insert(row));
                inserts += 1;
            }
            ShardOp::Insert(_) => rejected += 1,
            ShardOp::Delete(id) => match directory.remove(id) {
                Some(shard) => {
                    groups[shard].push(ShardOp::Delete(id));
                    deletes += 1;
                }
                None => rejected += 1,
            },
        }
    }
    (groups, inserts, deletes, rejected)
}

/// The row → shard placement map, sharded over [`STRIPES`] locks.
pub(crate) struct StripedDirectory {
    stripes: Vec<RwLock<DetHashMap<RowId, usize>>>,
}

/// Stripe index of a row id. Uses the *high* half of the SplitMix64 mix —
/// hash routing consumes the low bits (`mix % shards`), so stripe choice
/// stays decorrelated from shard choice under `ShardPolicy::HashById`.
#[inline]
pub(crate) fn stripe_of(id: RowId) -> usize {
    ((mix(id) >> 32) as usize) & (STRIPES - 1)
}

impl StripedDirectory {
    /// An empty directory.
    pub(crate) fn new() -> Self {
        StripedDirectory {
            stripes: (0..STRIPES)
                .map(|_| RwLock::new(DetHashMap::default()))
                .collect(),
        }
    }

    /// Builds a directory from a flat placement map (bootstrap/restore).
    pub(crate) fn from_map(map: DetHashMap<RowId, usize>) -> Self {
        let dir = Self::new();
        {
            let mut all = dir.write_all();
            for (id, shard) in map {
                all.place(id, shard);
            }
        }
        dir
    }

    /// The shard `id` is placed on, under its stripe's read lock.
    #[cfg(test)]
    pub(crate) fn probe(&self, id: RowId) -> Option<usize> {
        self.stripes[stripe_of(id)].read().get(&id).copied()
    }

    /// Write-locks every stripe in ascending index order. Callers must
    /// hold the router write lock or the ingest gate exclusively first
    /// (see the module docs) so no routed publish can be mid-flight.
    pub(crate) fn write_all(&self) -> AllStripesWrite<'_> {
        AllStripesWrite {
            guards: self.stripes.iter().map(|s| s.write()).collect(),
        }
    }

    /// Read-locks every stripe in ascending index order (checkpoint cut).
    pub(crate) fn read_all(&self) -> Vec<RwLockReadGuard<'_, DetHashMap<RowId, usize>>> {
        self.stripes.iter().map(|s| s.read()).collect()
    }

    /// Entries across all stripes.
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// The routed publish's directory pass: places `rows`' ids on
    /// `shard`, bucketed by stripe and locked in ascending stripe order,
    /// one acquisition per touched stripe. `accepted[i]` is set for each
    /// row that was absent; rows already present are left untouched
    /// (duplicate inserts, rejected exactly like the classic path rejects
    /// them). Returns the number accepted.
    pub(crate) fn reserve(
        &self,
        shard: usize,
        rows: &[janus_common::Row],
        accepted: &mut [bool],
    ) -> usize {
        debug_assert_eq!(rows.len(), accepted.len());
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); STRIPES];
        for (i, row) in rows.iter().enumerate() {
            buckets[stripe_of(row.id)].push(i);
        }
        let mut ok = 0usize;
        for (stripe, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut guard = self.stripes[stripe].write();
            for &i in bucket {
                let id = rows[i].id;
                if guard.contains_key(&id) {
                    continue;
                }
                guard.insert(id, shard);
                accepted[i] = true;
                ok += 1;
            }
        }
        ok
    }
}

/// Exclusive guard over every stripe (acquired in ascending order by
/// [`StripedDirectory::write_all`]); the flat map the classic batch path
/// and rebalance see.
pub(crate) struct AllStripesWrite<'a> {
    guards: Vec<RwLockWriteGuard<'a, DetHashMap<RowId, usize>>>,
}

impl PlacementSink for AllStripesWrite<'_> {
    fn contains(&self, id: RowId) -> bool {
        self.guards[stripe_of(id)].contains_key(&id)
    }
    fn place(&mut self, id: RowId, shard: usize) {
        self.guards[stripe_of(id)].insert(id, shard);
    }
    fn remove(&mut self, id: RowId) -> Option<usize> {
        self.guards[stripe_of(id)].remove(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::Row;

    fn rows(ids: std::ops::Range<u64>) -> Vec<Row> {
        ids.map(|id| Row::new(id, vec![id as f64])).collect()
    }

    #[test]
    fn reserve_places_absent_ids_and_rejects_present_ones() {
        let dir = StripedDirectory::new();
        let batch = rows(0..100);
        let mut accepted = vec![false; batch.len()];
        assert_eq!(dir.reserve(3, &batch, &mut accepted), 100);
        assert!(accepted.iter().all(|&a| a));
        assert_eq!(dir.probe(7), Some(3));
        // A second reserve overlapping the same ids accepts only the new
        // ones and leaves the placed ones where they are.
        let overlap = rows(50..150);
        let mut again = vec![false; overlap.len()];
        assert_eq!(dir.reserve(5, &overlap, &mut again), 50);
        assert_eq!(again.iter().position(|&a| a), Some(50));
        assert_eq!(dir.probe(99), Some(3));
        assert_eq!(dir.probe(100), Some(5));
        assert_eq!(dir.len(), 150);
    }

    #[test]
    fn from_map_preserves_placement() {
        let mut map: DetHashMap<u64, usize> = DetHashMap::default();
        for id in 0..500u64 {
            map.insert(id, (id % 7) as usize);
        }
        let dir = StripedDirectory::from_map(map);
        assert_eq!(dir.len(), 500);
        for id in 0..500u64 {
            assert_eq!(dir.probe(id), Some((id % 7) as usize));
        }
    }

    #[test]
    fn stripes_spread_ids() {
        let dir = StripedDirectory::new();
        let batch = rows(0..16_000);
        let mut accepted = vec![false; batch.len()];
        dir.reserve(0, &batch, &mut accepted);
        for stripe in &dir.stripes {
            let n = stripe.read().len();
            assert!((500..1500).contains(&n), "skewed stripe population: {n}");
        }
    }
}
