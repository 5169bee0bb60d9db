//! Static-to-dynamic transformation (Bentley–Saxe logarithmic method) with
//! tombstoned deletions.
//!
//! The paper's dynamic range tree (§5.3.1, §D.1) cites the classic
//! static-to-dynamic transformations of Bentley–Saxe and
//! Overmars–van Leeuwen (\[5], \[13], \[34]); this module implements that
//! construction generically over any [`SpatialAggIndex`]:
//!
//! * the live set is kept as `O(log m)` static *levels*, level `j` holding
//!   exactly `2^j` points — an insertion rebuilds the smallest maximal run
//!   of full levels (amortized `O(log m)` rebuild work per point for
//!   linear-time-buildable structures);
//! * a deletion adds the point to a *tombstone* side structure maintained
//!   the same way; every decomposable query (moments) is answered as
//!   `query(live levels) − query(tombstone levels)`;
//! * when tombstones reach half of the stored points, the whole structure
//!   is compacted, bounding both space and query-time garbage.

use crate::{CanonicalBox, IndexPoint, SpatialAggIndex};
use janus_common::{Moments, Rect};
use std::collections::HashSet;

struct LevelData<I> {
    index: I,
    points: Vec<IndexPoint>,
}

fn build_levels<I: SpatialAggIndex>(
    dims: usize,
    mut points: Vec<IndexPoint>,
) -> Vec<Option<LevelData<I>>> {
    // Binary decomposition: one level per set bit of the point count.
    let mut levels: Vec<Option<LevelData<I>>> = Vec::new();
    let mut bit = 0;
    while (1usize << bit) <= points.len().max(1) {
        if points.len() & (1 << bit) != 0 {
            let at = points.len() - (1 << bit);
            let chunk = points.split_off(at);
            levels.push(Some(LevelData {
                index: I::build(dims, chunk.clone()),
                points: chunk,
            }));
        } else {
            levels.push(None);
        }
        bit += 1;
        if points.is_empty() {
            break;
        }
    }
    levels
}

/// Dynamized spatial aggregate index.
pub struct DynamicIndex<I: SpatialAggIndex> {
    dims: usize,
    levels: Vec<Option<LevelData<I>>>,
    dead_levels: Vec<Option<LevelData<I>>>,
    dead_ids: HashSet<u64>,
    live: usize,
}

impl<I: SpatialAggIndex> DynamicIndex<I> {
    /// Creates an empty dynamic index over `dims`-dimensional space.
    pub fn new(dims: usize) -> Self {
        DynamicIndex {
            dims,
            levels: Vec::new(),
            dead_levels: Vec::new(),
            dead_ids: HashSet::new(),
            live: 0,
        }
    }

    /// Bulk-loads the index (single static build, no carry chain).
    pub fn bulk_load(dims: usize, points: Vec<IndexPoint>) -> Self {
        let live = points.len();
        DynamicIndex {
            dims,
            levels: build_levels(dims, points),
            dead_levels: Vec::new(),
            dead_ids: HashSet::new(),
            live,
        }
    }

    /// Number of live (non-tombstoned) points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Inserts a point (amortized polylogarithmic). Tombstones are keyed
    /// by id, so an id that comes back while its tombstone is still stored
    /// would be filtered out as dead and could never be deleted again:
    /// that (rare) case compacts first, which drops the tombstone.
    pub fn insert(&mut self, point: IndexPoint) {
        debug_assert_eq!(point.coords.len(), self.dims);
        if self.dead_ids.contains(&point.id) {
            self.compact();
        }
        self.live += 1;
        Self::carry_insert(self.dims, &mut self.levels, point);
    }

    fn carry_insert(dims: usize, levels: &mut Vec<Option<LevelData<I>>>, point: IndexPoint) {
        let mut carry = vec![point];
        for level in levels.iter_mut() {
            match level.take() {
                None => {
                    *level = Some(LevelData {
                        index: I::build(dims, carry.clone()),
                        points: carry,
                    });
                    return;
                }
                Some(existing) => {
                    carry.extend(existing.points);
                }
            }
        }
        levels.push(Some(LevelData {
            index: I::build(dims, carry.clone()),
            points: carry,
        }));
    }

    /// Deletes the point with `point.id`. The caller supplies the full point
    /// (coordinates + weight) so the tombstone can cancel aggregate queries;
    /// returns `false` (and does nothing) if the id is already tombstoned.
    pub fn delete(&mut self, point: IndexPoint) -> bool {
        if !self.dead_ids.insert(point.id) {
            return false;
        }
        self.live = self.live.saturating_sub(1);
        Self::carry_insert(self.dims, &mut self.dead_levels, point);
        if self.dead_ids.len() >= 64 && 2 * self.dead_ids.len() >= self.stored() {
            self.compact();
        }
        true
    }

    fn stored(&self) -> usize {
        self.levels.iter().flatten().map(|l| l.points.len()).sum()
    }

    /// Rebuilds the whole structure from live points, dropping tombstones.
    pub fn compact(&mut self) {
        let dead = std::mem::take(&mut self.dead_ids);
        let mut points = Vec::with_capacity(self.live);
        for level in self.levels.drain(..).flatten() {
            points.extend(level.points.into_iter().filter(|p| !dead.contains(&p.id)));
        }
        self.dead_levels.clear();
        self.live = points.len();
        self.levels = build_levels(self.dims, points);
    }

    /// Moments of live points inside `rect` (exact: tombstones subtracted).
    pub fn moments_in(&self, rect: &Rect) -> Moments {
        let mut m = Moments::ZERO;
        for level in self.levels.iter().flatten() {
            m.merge_assign(&level.index.moments_in(rect));
        }
        for level in self.dead_levels.iter().flatten() {
            m = m.subtract(&level.index.moments_in(rect));
        }
        // Guard against floating-point cancellation producing tiny negatives.
        if m.count < 0.0 {
            m.count = 0.0;
        }
        if m.sumsq < 0.0 {
            m.sumsq = 0.0;
        }
        m
    }

    /// Count of live points inside `rect`.
    pub fn count_in(&self, rect: &Rect) -> usize {
        self.moments_in(rect).count.round().max(0.0) as usize
    }

    /// Best heavy canonical cell across levels (see
    /// [`SpatialAggIndex::heaviest_canonical`]). Tombstoned points may
    /// inflate a candidate between compactions; compaction bounds that
    /// garbage below 50%, matching the approximation-factor analysis.
    pub fn heaviest_canonical(&self, rect: &Rect, cap: usize) -> Option<CanonicalBox> {
        self.levels
            .iter()
            .flatten()
            .filter_map(|l| l.index.heaviest_canonical(rect, cap))
            .max_by(|a, b| a.moments.sumsq.total_cmp(&b.moments.sumsq))
    }

    /// Invokes `f` for every live point inside `rect`.
    pub fn for_each_in(&self, rect: &Rect, f: &mut dyn FnMut(&IndexPoint)) {
        for level in self.levels.iter().flatten() {
            level.index.for_each_in(rect, &mut |p| {
                if !self.dead_ids.contains(&p.id) {
                    f(p);
                }
            });
        }
    }

    /// Snapshot of all live points (used by re-partitioning).
    pub fn live_points(&self) -> Vec<IndexPoint> {
        let mut out = Vec::with_capacity(self.live);
        for level in self.levels.iter().flatten() {
            out.extend(
                level
                    .points
                    .iter()
                    .filter(|p| !self.dead_ids.contains(&p.id))
                    .cloned(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kd::StaticKdTree;
    use crate::range_tree::StaticRangeTree;
    use crate::test_util::random_points;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn brute(points: &[IndexPoint], rect: &Rect) -> Moments {
        Moments::from_values(
            points
                .iter()
                .filter(|p| rect.contains(&p.coords))
                .map(|p| p.weight),
        )
    }

    #[test]
    fn inserts_match_bruteforce() {
        let pts = random_points(2, 300, 41);
        let mut idx = DynamicIndex::<StaticKdTree>::new(2);
        for p in &pts {
            idx.insert(p.clone());
        }
        assert_eq!(idx.len(), 300);
        let r = Rect::new(vec![0.2, 0.1], vec![0.8, 0.7]).unwrap();
        let got = idx.moments_in(&r);
        let want = brute(&pts, &r);
        assert!((got.count - want.count).abs() < 1e-9);
        assert!((got.sum - want.sum).abs() < 1e-6);
    }

    #[test]
    fn deletes_are_subtracted_exactly() {
        let pts = random_points(1, 200, 43);
        let mut idx = DynamicIndex::<StaticRangeTree>::bulk_load(1, pts.clone());
        let r = Rect::new(vec![0.0], vec![0.5]).unwrap();
        let mut live = pts.clone();
        for victim in pts.iter().take(40) {
            assert!(idx.delete(victim.clone()));
            live.retain(|p| p.id != victim.id);
            let got = idx.moments_in(&r);
            let want = brute(&live, &r);
            assert!((got.count - want.count).abs() < 1e-9);
            assert!((got.sum - want.sum).abs() < 1e-6);
        }
        assert_eq!(idx.len(), 160);
    }

    #[test]
    fn double_delete_is_rejected() {
        let pts = random_points(1, 10, 1);
        let mut idx = DynamicIndex::<StaticRangeTree>::bulk_load(1, pts.clone());
        assert!(idx.delete(pts[0].clone()));
        assert!(!idx.delete(pts[0].clone()));
        assert_eq!(idx.len(), 9);
    }

    #[test]
    fn reinserting_a_tombstoned_id_is_live_and_deletable_again() {
        let pts = random_points(2, 100, 5);
        let mut idx = DynamicIndex::<StaticKdTree>::bulk_load(2, pts.clone());
        let whole = Rect::unbounded(2);
        let back = IndexPoint::new(vec![0.5, 0.5], pts[3].id, 7.0);
        assert!(idx.delete(pts[3].clone()));
        idx.insert(back.clone());
        assert_eq!(idx.len(), 100);
        assert_eq!(idx.live_points().len(), 100);
        assert_eq!(idx.count_in(&whole), 100);
        let mut seen = 0;
        idx.for_each_in(&whole, &mut |p| seen += usize::from(p.id == back.id));
        assert_eq!(seen, 1, "the re-inserted point is visible exactly once");
        assert!(idx.delete(back), "and can be deleted a second time");
        assert_eq!(idx.len(), 99);
        assert_eq!(idx.live_points().len(), 99);
        assert_eq!(idx.count_in(&whole), 99);
    }

    #[test]
    fn compaction_clears_garbage_and_preserves_answers() {
        let pts = random_points(2, 512, 47);
        let mut idx = DynamicIndex::<StaticKdTree>::bulk_load(2, pts.clone());
        // Delete enough to trigger automatic compaction.
        for p in pts.iter().take(300) {
            idx.delete(p.clone());
        }
        let (dead, stored) = (idx.dead_ids.len(), idx.stored());
        assert!(2 * dead < stored, "{dead} of {stored} stored points dead");
        let live: Vec<IndexPoint> = pts.iter().skip(300).cloned().collect();
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let got = idx.moments_in(&r);
        let want = brute(&live, &r);
        assert!((got.count - want.count).abs() < 1e-9);
        assert_eq!(idx.len(), 212);
        assert_eq!(idx.live_points().len(), 212);
    }

    #[test]
    fn interleaved_churn_matches_bruteforce() {
        let mut rng = SmallRng::seed_from_u64(101);
        let mut idx = DynamicIndex::<StaticKdTree>::new(2);
        let mut live: Vec<IndexPoint> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..800 {
            if rng.gen_bool(0.65) || live.is_empty() {
                let p =
                    IndexPoint::new(vec![rng.gen(), rng.gen()], next_id, rng.gen::<f64>() * 4.0);
                next_id += 1;
                idx.insert(p.clone());
                live.push(p);
            } else {
                let at = rng.gen_range(0..live.len());
                let victim = live.swap_remove(at);
                assert!(idx.delete(victim));
            }
            if step % 97 == 0 {
                let r = Rect::new(vec![0.1, 0.2], vec![0.9, 0.8]).unwrap();
                let got = idx.moments_in(&r);
                let want = brute(&live, &r);
                assert!((got.count - want.count).abs() < 1e-6, "step {step}");
                assert!((got.sum - want.sum).abs() < 1e-5, "step {step}");
            }
        }
        assert_eq!(idx.len(), live.len());
    }

    #[test]
    fn for_each_skips_tombstones() {
        let pts = random_points(1, 50, 3);
        let mut idx = DynamicIndex::<StaticRangeTree>::bulk_load(1, pts.clone());
        idx.delete(pts[7].clone());
        let mut seen = Vec::new();
        idx.for_each_in(&Rect::unbounded(1), &mut |p| seen.push(p.id));
        assert_eq!(seen.len(), 49);
        assert!(!seen.contains(&pts[7].id));
    }

    #[test]
    fn bulk_load_binary_decomposition() {
        let pts = random_points(1, 37, 9); // 37 = 0b100101
        let idx = DynamicIndex::<StaticRangeTree>::bulk_load(1, pts);
        assert_eq!(idx.len(), 37);
        let m = idx.moments_in(&Rect::unbounded(1));
        assert!((m.count - 37.0).abs() < 1e-9);
    }
}
