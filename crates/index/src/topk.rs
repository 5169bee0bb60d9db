//! Bounded top-k / bottom-k multisets for incremental MIN/MAX statistics.
//!
//! §4.1 of the paper: each DPT node stores the top-k and bottom-k
//! aggregation values in bounded heaps. The head of the bottom-k multiset is
//! the node's MIN, the head of the top-k multiset its MAX. Under deletions
//! the multiset may shrink; the paper's rule is to *stop removing when one
//! value is left*. A head that survived such a refused deletion is only an
//! outer approximation (`estimate <= true MIN` / `estimate >= true MAX`)
//! until the multiset is rebuilt; nothing records that it happened.
//!
//! Each multiset is a sorted `Vec<f64>` of at most `k` entries (duplicates
//! repeated), so the per-row cost on the update path — where a node holds
//! far more than `k` values and almost none belongs to either end — is one
//! comparison against the far end, with nothing written or allocated.

use std::cmp::Ordering;

/// Which end of the value order the multiset retains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Extreme {
    /// Keep the `k` smallest values; head is the MIN.
    Min,
    /// Keep the `k` largest values; head is the MAX.
    Max,
}

/// A multiset holding at most `capacity` values from one end of the order.
#[derive(Clone, Debug)]
pub struct BoundedExtremes {
    which: Extreme,
    capacity: usize,
    /// Retained values from the head outward (`f64::total_cmp` order,
    /// ascending for [`Extreme::Min`], descending for [`Extreme::Max`]):
    /// the first is the extremum, the last the next to be evicted.
    values: Vec<f64>,
}

impl BoundedExtremes {
    /// Creates an empty multiset retaining `capacity` values.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(which: Extreme, capacity: usize) -> Self {
        assert!(capacity > 0, "top-k capacity must be positive");
        BoundedExtremes {
            which,
            capacity,
            values: Vec::new(),
        }
    }

    /// Number of retained values (multiset cardinality).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current extremum estimate: MIN for [`Extreme::Min`], MAX for
    /// [`Extreme::Max`]. `None` when empty.
    pub fn head(&self) -> Option<f64> {
        self.values.first().copied()
    }

    /// How far `a` lies from the head relative to `b`: `Less` means `a`
    /// is the more extreme of the two.
    #[inline]
    fn rank(&self, a: f64, b: f64) -> Ordering {
        match self.which {
            Extreme::Min => a.total_cmp(&b),
            Extreme::Max => b.total_cmp(&a),
        }
    }

    /// Inserts a value, evicting from the far end if over capacity.
    #[inline]
    pub fn insert(&mut self, value: f64) {
        if self.values.len() == self.capacity {
            let far = self.values[self.capacity - 1];
            if self.rank(value, far) != Ordering::Less {
                // It would be the one evicted again (a tie is the same bits).
                return;
            }
            self.values.pop();
        }
        let at = self
            .values
            .partition_point(|&v| self.rank(v, value) != Ordering::Greater);
        self.values.insert(at, value);
    }

    /// Handles the deletion of `value` from the underlying data.
    ///
    /// If the value is tracked it is removed — unless only one value remains,
    /// in which case it is kept and the head degrades to an outer
    /// approximation. Untracked values are ignored (they were beyond the
    /// retained `k`).
    #[inline]
    pub fn delete(&mut self, value: f64) {
        let Some(&far) = self.values.last() else {
            return;
        };
        if self.rank(value, far) == Ordering::Greater {
            return;
        }
        let at = self
            .values
            .partition_point(|&v| self.rank(v, value) == Ordering::Less);
        if self.values.len() > 1 && self.rank(self.values[at], value) == Ordering::Equal {
            self.values.remove(at);
        }
    }

    /// Rebuilds from scratch over `values`.
    pub fn rebuild(&mut self, values: impl IntoIterator<Item = f64>) {
        self.values.clear();
        for v in values {
            self.insert(v);
        }
    }

    /// Iterates the retained values in ascending order (with multiplicity).
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let n = self.values.len();
        (0..n).map(move |i| match self.which {
            Extreme::Min => self.values[i],
            Extreme::Max => self.values[n - 1 - i],
        })
    }
}

/// The MIN/MAX statistic pair a DPT node maintains (§4.1).
#[derive(Clone, Debug)]
pub struct MinMaxTracker {
    min: BoundedExtremes,
    max: BoundedExtremes,
}

impl MinMaxTracker {
    /// Creates a tracker retaining `k` values at each end.
    pub fn new(k: usize) -> Self {
        MinMaxTracker {
            min: BoundedExtremes::new(Extreme::Min, k),
            max: BoundedExtremes::new(Extreme::Max, k),
        }
    }

    /// Observes an inserted aggregation value.
    #[inline]
    pub fn insert(&mut self, value: f64) {
        self.min.insert(value);
        self.max.insert(value);
    }

    /// Observes a deleted aggregation value.
    #[inline]
    pub fn delete(&mut self, value: f64) {
        self.min.delete(value);
        self.max.delete(value);
    }

    /// Current MIN estimate.
    pub fn min(&self) -> Option<f64> {
        self.min.head()
    }

    /// Current MAX estimate.
    pub fn max(&self) -> Option<f64> {
        self.max.head()
    }

    /// Values retained by the bottom-k (MIN) side, ascending.
    pub fn min_values(&self) -> Vec<f64> {
        self.min.iter().collect()
    }

    /// Values retained by the top-k (MAX) side, ascending.
    pub fn max_values(&self) -> Vec<f64> {
        self.max.iter().collect()
    }

    /// Restores both sides from previously exported value lists.
    pub fn restore(&mut self, min_values: &[f64], max_values: &[f64]) {
        self.min.rebuild(min_values.iter().copied());
        self.max.rebuild(max_values.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::F64;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The counted `BTreeMap` multiset the sorted `Vec` replaced, kept as
    /// the reference model: insert-then-evict, remove-if-tracked, never
    /// remove the last value.
    struct Model {
        which: Extreme,
        capacity: usize,
        values: BTreeMap<F64, usize>,
        len: usize,
    }

    impl Model {
        fn new(which: Extreme, capacity: usize) -> Self {
            Model {
                which,
                capacity,
                values: BTreeMap::new(),
                len: 0,
            }
        }

        fn head(&self) -> Option<f64> {
            match self.which {
                Extreme::Min => self.values.keys().next().map(|k| k.get()),
                Extreme::Max => self.values.keys().next_back().map(|k| k.get()),
            }
        }

        fn insert(&mut self, value: f64) {
            *self.values.entry(F64(value)).or_insert(0) += 1;
            self.len += 1;
            if self.len > self.capacity {
                let evict = match self.which {
                    Extreme::Min => *self.values.keys().next_back().unwrap(),
                    Extreme::Max => *self.values.keys().next().unwrap(),
                };
                self.remove_one(evict);
            }
        }

        fn delete(&mut self, value: f64) {
            if self.values.contains_key(&F64(value)) && self.len > 1 {
                self.remove_one(F64(value));
            }
        }

        fn remove_one(&mut self, key: F64) {
            let cnt = self.values.get_mut(&key).unwrap();
            *cnt -= 1;
            if *cnt == 0 {
                self.values.remove(&key);
            }
            self.len -= 1;
        }

        fn rebuild(&mut self, values: impl IntoIterator<Item = f64>) {
            self.values.clear();
            self.len = 0;
            for v in values {
                self.insert(v);
            }
        }

        fn iter(&self) -> impl Iterator<Item = f64> + '_ {
            self.values
                .iter()
                .flat_map(|(k, &c)| std::iter::repeat_n(k.get(), c))
        }
    }

    /// Few distinct values, so duplicates, evict-on-tie and deletes of
    /// tracked values are the common case; the signed zeros differ only
    /// under `total_cmp`.
    const GRID: [f64; 10] = [-7.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 9.0, 1e300];

    fn bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
        values.map(f64::to_bits).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// After every operation the sorted `Vec` and the `BTreeMap` model
        /// agree on `len`, `head` and `iter`, bit for bit.
        #[test]
        fn sorted_vec_matches_the_btreemap_multiset(
            max_side in any::<bool>(),
            capacity_pick in 0usize..21,
            ops in prop::collection::vec((0usize..40, 0usize..GRID.len()), 0..700),
        ) {
            let which = if max_side { Extreme::Max } else { Extreme::Min };
            let capacity = if capacity_pick == 0 { 256 } else { capacity_pick };
            let mut real = BoundedExtremes::new(which, capacity);
            let mut model = Model::new(which, capacity);
            let check = |real: &BoundedExtremes, model: &Model| {
                prop_assert_eq!(real.len(), model.len);
                prop_assert_eq!(real.is_empty(), model.len == 0);
                prop_assert_eq!(real.head().map(f64::to_bits), model.head().map(f64::to_bits));
                prop_assert_eq!(bits(real.iter()), bits(model.iter()));
                Ok(())
            };
            for &(kind, at) in &ops {
                match kind {
                    0..=24 => {
                        real.insert(GRID[at]);
                        model.insert(GRID[at]);
                    }
                    25..=37 => {
                        real.delete(GRID[at]);
                        model.delete(GRID[at]);
                    }
                    // The snapshot round trip: export, restore from the export.
                    38 => {
                        let exported: Vec<f64> = real.iter().collect();
                        real.rebuild(exported.iter().copied());
                        model.rebuild(exported);
                    }
                    // A rebuild over fresh values, more of them than some capacities.
                    _ => {
                        let fresh = || GRID.iter().cycle().skip(at).take(2 * at + 3).copied();
                        real.rebuild(fresh());
                        model.rebuild(fresh());
                    }
                }
                check(&real, &model)?;
            }
            // Delete down to the one value §4.1 never removes.
            for v in model.iter().collect::<Vec<_>>() {
                real.delete(v);
                model.delete(v);
                check(&real, &model)?;
            }
            prop_assert_eq!(real.len(), usize::from(model.len > 0));
        }
    }

    #[test]
    fn bottom_k_tracks_min() {
        let mut b = BoundedExtremes::new(Extreme::Min, 3);
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            b.insert(v);
        }
        assert_eq!(b.head(), Some(1.0));
        assert_eq!(b.len(), 3);
        let kept: Vec<f64> = b.iter().collect();
        assert_eq!(kept, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn top_k_tracks_max() {
        let mut b = BoundedExtremes::new(Extreme::Max, 2);
        for v in [5.0, 1.0, 4.0] {
            b.insert(v);
        }
        assert_eq!(b.head(), Some(5.0));
        let kept: Vec<f64> = b.iter().collect();
        assert_eq!(kept, vec![4.0, 5.0]);
    }

    #[test]
    fn delete_tracked_value_updates_head() {
        let mut b = BoundedExtremes::new(Extreme::Min, 3);
        for v in [1.0, 2.0, 3.0] {
            b.insert(v);
        }
        b.delete(1.0);
        assert_eq!(b.head(), Some(2.0));
    }

    #[test]
    fn delete_untracked_value_is_ignored() {
        let mut b = BoundedExtremes::new(Extreme::Min, 2);
        for v in [1.0, 2.0, 9.0] {
            b.insert(v); // 9.0 evicted
        }
        b.delete(9.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.head(), Some(1.0));
    }

    #[test]
    fn last_value_is_never_removed() {
        let mut b = BoundedExtremes::new(Extreme::Min, 4);
        b.insert(7.0);
        b.delete(7.0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.head(), Some(7.0));
    }

    #[test]
    fn duplicates_have_multiplicity() {
        let mut b = BoundedExtremes::new(Extreme::Min, 5);
        for _ in 0..3 {
            b.insert(2.0);
        }
        b.delete(2.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.head(), Some(2.0));
    }

    #[test]
    fn rebuild_replaces_a_pinned_head() {
        let mut b = BoundedExtremes::new(Extreme::Max, 2);
        for v in [1.0, 2.0, 3.0] {
            b.insert(v);
        }
        b.delete(3.0);
        b.delete(2.0); // refused: the last value stays
        assert_eq!(b.head(), Some(2.0));
        b.rebuild([4.0, 5.0]);
        assert_eq!(b.head(), Some(5.0));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn tracker_min_max_agree_with_bruteforce() {
        let mut t = MinMaxTracker::new(8);
        let values = [3.0, -1.0, 7.5, 0.0, 2.0];
        for v in values {
            t.insert(v);
        }
        assert_eq!(t.min(), Some(-1.0));
        assert_eq!(t.max(), Some(7.5));
        t.delete(-1.0);
        assert_eq!(t.min(), Some(0.0));
        t.delete(7.5);
        assert_eq!(t.max(), Some(3.0));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        BoundedExtremes::new(Extreme::Min, 0);
    }
}
