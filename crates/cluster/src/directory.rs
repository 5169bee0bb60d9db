//! The striped row → shard directory.
//!
//! The cluster's authoritative placement map is sharded into [`STRIPES`]
//! independently locked maps keyed by a SplitMix64 hash of the row id.
//! Every publish holds all of them at once, so the stripes do not let
//! publishers run side by side; they stay because each stripe grows on
//! its own. One map resizes as a whole, holding its old and its new
//! table at once, ~17 MB at a 500k-row load; a stripe that doubles
//! holds one sixteenth of that.
//!
//! ## Per-shard counts
//!
//! Beside the map, the directory keeps how many rows it places on each
//! shard: bootstrap rows, plus accepted inserts, minus accepted deletes,
//! moved by migrations. A deadline-partial gather weighs the shards it
//! missed by these counts, on either transport, without taking a lock.
//! They change once per call and shard, never per row: an
//! [`AllStripesWrite`] nets what its placements moved and settles the
//! counts when it is released, still under every stripe.
//!
//! ## Lock order
//!
//! The engine-wide order is **router → directory stripes (ascending
//! stripe index) → shards (ascending) → replica sets**. Both multi-stripe
//! acquisitions in this module ([`StripedDirectory::write_all`],
//! [`StripedDirectory::read_all`]) lock stripes in ascending index order.
//! No code in this crate takes the router lock while holding a stripe.

use crate::engine::ShardOp;
use crate::router::ShardRouter;
use janus_common::faults::mix64;
use janus_common::{DetHashMap, RowId};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of directory stripes. A power of two so stripe selection is a
/// mask; 16 comfortably exceeds any plausible loader-thread count while
/// keeping the all-stripes paths (rebalance, checkpoint) cheap.
pub(crate) const STRIPES: usize = 16;

/// A row → shard placement map held exclusively — the live striped
/// directory under all its stripe locks (which bootstrap fills
/// directly), or a plain map (a unit test's).
pub(crate) trait PlacementSink {
    /// Places an absent `id` on the shard `route` picks and returns that
    /// shard; a present `id` is left where it is, `route` is not called,
    /// and the answer is `None`. One probe either way.
    fn place_vacant(&mut self, id: RowId, route: impl FnOnce() -> usize) -> Option<usize>
    where
        Self: Sized;
    /// Records that `id` now lives on `shard` (insert or overwrite),
    /// returning the shard it lived on before — one probe either way.
    fn place(&mut self, id: RowId, shard: usize) -> Option<usize>;
    /// Removes `id`, returning the shard it lived on.
    fn remove(&mut self, id: RowId) -> Option<usize>;
}

/// The publish path's resolve step: resolves `ops` against `directory` in arrival order and groups the
/// accepted ones per shard — an insert is routed and placed, a delete
/// goes to the shard holding the row; an insert of a placed id or a
/// delete of an unplaced one is rejected and skipped. Returns `(groups,
/// inserts, deletes, rejected)`; order inside a group is arrival order.
pub(crate) fn resolve_batch(
    ops: impl IntoIterator<Item = ShardOp>,
    directory: &mut impl PlacementSink,
    router: &ShardRouter,
) -> (Vec<Vec<ShardOp>>, u64, u64, usize) {
    let mut groups: Vec<Vec<ShardOp>> = (0..router.shards()).map(|_| Vec::new()).collect();
    let (mut inserts, mut deletes, mut rejected) = (0, 0, 0);
    for op in ops {
        match op {
            ShardOp::Insert(row) => match directory.place_vacant(row.id, || router.route(&row)) {
                Some(shard) => {
                    groups[shard].push(ShardOp::Insert(row));
                    inserts += 1;
                }
                None => rejected += 1,
            },
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

/// The row → shard placement map, sharded over [`STRIPES`] locks, and
/// the rows it places per shard.
pub(crate) struct StripedDirectory {
    stripes: Vec<RwLock<DetHashMap<RowId, usize>>>,
    /// Rows placed per shard, in shard order (see the module docs).
    counts: Vec<AtomicU64>,
}

/// Stripe index of a row id. Uses the *high* half of the SplitMix64 mix —
/// hash routing consumes the low bits (`mix64 % shards`), so stripe choice
/// stays decorrelated from shard choice under `ShardPolicy::HashById`.
/// (Each stripe's own map hashes the id with the salted
/// [`janus_common::det_hash::DetHasher`], not with this mix.)
#[inline]
pub(crate) fn stripe_of(id: RowId) -> usize {
    ((mix64(id) >> 32) as usize) & (STRIPES - 1)
}

impl StripedDirectory {
    /// An empty directory over `shards` shards whose stripes hold `rows`
    /// uniformly spread ids without growing: each stripe gets its share
    /// plus an eighth, which covers the binomial spread of any table large
    /// enough to matter.
    pub(crate) fn with_capacity(shards: usize, rows: usize) -> Self {
        let per_stripe = match rows.div_ceil(STRIPES) {
            0 => 0,
            share => share + share / 8 + 16,
        };
        StripedDirectory {
            stripes: (0..STRIPES)
                .map(|_| {
                    RwLock::new(DetHashMap::with_capacity_and_hasher(
                        per_stripe,
                        Default::default(),
                    ))
                })
                .collect(),
            counts: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Builds a directory over `shards` shards from a flat placement map
    /// (restore); the per-shard counts are recounted from it.
    pub(crate) fn from_map(shards: usize, map: DetHashMap<RowId, usize>) -> Self {
        let dir = Self::with_capacity(shards, map.len());
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

    /// Write-locks every stripe in ascending index order; a caller that
    /// takes the router lock takes it first (see the module docs).
    pub(crate) fn write_all(&self) -> AllStripesWrite<'_> {
        AllStripesWrite {
            guards: self.stripes.iter().map(|s| s.write()).collect(),
            counts: &self.counts,
            moved: vec![0; self.counts.len()],
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

    /// Rows placed on `shard`, read without a lock.
    pub(crate) fn count(&self, shard: usize) -> u64 {
        self.counts[shard].load(Ordering::Relaxed)
    }
}

/// Exclusive guard over every stripe (acquired in ascending order by
/// [`StripedDirectory::write_all`]); the flat map bootstrap, the publish
/// body and rebalance see.
pub(crate) struct AllStripesWrite<'a> {
    guards: Vec<RwLockWriteGuard<'a, DetHashMap<RowId, usize>>>,
    counts: &'a [AtomicU64],
    /// Net rows placed per shard through this guard, settled into
    /// `counts` when it drops.
    moved: Vec<i64>,
}

impl PlacementSink for AllStripesWrite<'_> {
    fn place_vacant(&mut self, id: RowId, route: impl FnOnce() -> usize) -> Option<usize> {
        let Entry::Vacant(slot) = self.guards[stripe_of(id)].entry(id) else {
            return None;
        };
        let shard = *slot.insert(route());
        self.moved[shard] += 1;
        Some(shard)
    }
    fn place(&mut self, id: RowId, shard: usize) -> Option<usize> {
        let before = self.guards[stripe_of(id)].insert(id, shard);
        self.moved[shard] += 1;
        if let Some(from) = before {
            self.moved[from] -= 1;
        }
        before
    }
    fn remove(&mut self, id: RowId) -> Option<usize> {
        let before = self.guards[stripe_of(id)].remove(&id);
        if let Some(from) = before {
            self.moved[from] -= 1;
        }
        before
    }
}

impl Drop for AllStripesWrite<'_> {
    /// Settles the counts before the stripe guards (dropped after this
    /// body) are released. A net removal wraps, which is the two's
    /// complement subtraction; a count itself never goes below zero.
    fn drop(&mut self) {
        for (count, &delta) in self.counts.iter().zip(&self.moved) {
            if delta != 0 {
                count.fetch_add(delta as u64, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PlacementSink for DetHashMap<RowId, usize> {
        fn place_vacant(&mut self, id: RowId, route: impl FnOnce() -> usize) -> Option<usize> {
            let Entry::Vacant(slot) = self.entry(id) else {
                return None;
            };
            Some(*slot.insert(route()))
        }
        fn place(&mut self, id: RowId, shard: usize) -> Option<usize> {
            self.insert(id, shard)
        }
        fn remove(&mut self, id: RowId) -> Option<usize> {
            DetHashMap::remove(self, &id)
        }
    }

    /// Places `ids` on `shard` through the one-probe insert of a guard
    /// over every stripe; returns, per id, whether it was absent.
    fn place_all(dir: &StripedDirectory, shard: usize, ids: std::ops::Range<u64>) -> Vec<bool> {
        let mut all = dir.write_all();
        ids.map(|id| all.place_vacant(id, || shard).is_some())
            .collect()
    }

    #[test]
    fn place_vacant_places_absent_ids_and_rejects_present_ones() {
        let dir = StripedDirectory::with_capacity(8, 0);
        let accepted = place_all(&dir, 3, 0..100);
        assert!(accepted.iter().all(|&a| a));
        assert_eq!(dir.probe(7), Some(3));
        // A second pass overlapping the same ids accepts only the new
        // ones and leaves the placed ones where they are.
        let again = place_all(&dir, 5, 50..150);
        assert_eq!(again.iter().filter(|&&a| a).count(), 50);
        assert_eq!(again.iter().position(|&a| a), Some(50));
        assert_eq!(dir.probe(99), Some(3));
        assert_eq!(dir.probe(100), Some(5));
        assert_eq!(dir.len(), 150);
        assert_eq!((dir.count(3), dir.count(5)), (100, 50));
    }

    #[test]
    fn counts_follow_placements_removals_and_moves() {
        let dir = StripedDirectory::with_capacity(3, 0);
        {
            let mut all = dir.write_all();
            for id in 0..30u64 {
                all.place(id, (id % 3) as usize);
            }
            all.remove(0);
            all.remove(1_000);
            all.place(1, 2);
            // Settled only once the guard drops.
            assert_eq!(dir.counts[0].load(Ordering::Relaxed), 0);
        }
        assert_eq!((dir.count(0), dir.count(1), dir.count(2)), (9, 9, 11));
        assert_eq!(dir.len(), 29);
    }

    #[test]
    fn from_map_preserves_placement() {
        let mut map: DetHashMap<u64, usize> = DetHashMap::default();
        for id in 0..500u64 {
            map.insert(id, (id % 7) as usize);
        }
        let dir = StripedDirectory::from_map(7, map);
        assert_eq!(dir.len(), 500);
        let counts: Vec<u64> = (0..7).map(|shard| dir.count(shard)).collect();
        assert_eq!(counts, [72, 72, 72, 71, 71, 71, 71]);
        for id in 0..500u64 {
            assert_eq!(dir.probe(id), Some((id % 7) as usize));
        }
    }

    #[test]
    fn stripes_spread_ids() {
        let dir = StripedDirectory::with_capacity(1, 0);
        place_all(&dir, 0, 0..16_000);
        for stripe in &dir.stripes {
            let n = stripe.read().len();
            assert!((500..1500).contains(&n), "skewed stripe population: {n}");
        }
    }
}
