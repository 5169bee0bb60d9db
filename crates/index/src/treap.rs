//! A randomized balanced order-statistic tree (treap) with subtree moment
//! aggregates.
//!
//! This is the "simple dynamic search binary tree" the paper relies on for
//! 1-D sample maintenance (§4.2) and for the 1-D partitioning algorithms
//! (§5.2, §D.2): it keeps samples ordered on the real line under `O(log m)`
//! insertions/deletions and answers, for any *rank range*, the moments of
//! the aggregation values of the samples in that range.
//!
//! Entries are keyed by `(coordinate, id)` so duplicate coordinates are
//! supported; priorities are derived deterministically from the id via
//! SplitMix64 (`janus_common::faults::mix64`), making tree shape (and
//! therefore all downstream partitionings) reproducible.

use janus_common::faults::mix64;
use janus_common::Moments;

/// One entry of the treap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry {
    /// Sort coordinate (e.g. a predicate-attribute value).
    pub key: f64,
    /// Tie-breaking unique id.
    pub id: u64,
    /// Aggregation value contributing to subtree moments.
    pub weight: f64,
}

struct Node {
    entry: Entry,
    priority: u64,
    size: usize,
    agg: Moments,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn new(entry: Entry) -> Box<Node> {
        Box::new(Node {
            priority: mix64(entry.id ^ 0x9e3779b97f4a7c15),
            size: 1,
            agg: Moments::of(entry.weight),
            entry,
            left: None,
            right: None,
        })
    }

    fn refresh(&mut self) {
        let mut size = 1;
        let mut agg = Moments::of(self.entry.weight);
        if let Some(l) = &self.left {
            size += l.size;
            agg.merge_assign(&l.agg);
        }
        if let Some(r) = &self.right {
            size += r.size;
            agg.merge_assign(&r.agg);
        }
        self.size = size;
        self.agg = agg;
    }
}

/// Total order on `(key, id)` pairs; keys compared by `total_cmp`.
#[inline]
fn cmp_key(a_key: f64, a_id: u64, b_key: f64, b_id: u64) -> std::cmp::Ordering {
    a_key.total_cmp(&b_key).then(a_id.cmp(&b_id))
}

/// Order-statistic treap over `(key, id, weight)` entries.
#[derive(Default)]
pub struct Treap {
    root: Option<Box<Node>>,
}

impl Treap {
    /// An empty treap.
    pub fn new() -> Self {
        Treap { root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |n| n.size)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Inserts an entry. Duplicate `(key, id)` pairs are allowed but the
    /// usual usage keeps ids unique.
    pub fn insert(&mut self, entry: Entry) {
        let node = Node::new(entry);
        let root = self.root.take();
        self.root = Some(Self::insert_node(root, node));
    }

    fn insert_node(tree: Option<Box<Node>>, node: Box<Node>) -> Box<Node> {
        let Some(mut t) = tree else { return node };
        if node.priority > t.priority {
            let (l, r) = Self::split(Some(t), node.entry.key, node.entry.id);
            let mut n = node;
            n.left = l;
            n.right = r;
            n.refresh();
            n
        } else {
            if cmp_key(node.entry.key, node.entry.id, t.entry.key, t.entry.id).is_lt() {
                let l = t.left.take();
                t.left = Some(Self::insert_node(l, node));
            } else {
                let r = t.right.take();
                t.right = Some(Self::insert_node(r, node));
            }
            t.refresh();
            t
        }
    }

    /// Splits into (`< (key,id)`, `>= (key,id)`).
    fn split(tree: Option<Box<Node>>, key: f64, id: u64) -> (Option<Box<Node>>, Option<Box<Node>>) {
        let Some(mut t) = tree else {
            return (None, None);
        };
        if cmp_key(t.entry.key, t.entry.id, key, id).is_lt() {
            let (l, r) = Self::split(t.right.take(), key, id);
            t.right = l;
            t.refresh();
            (Some(t), r)
        } else {
            let (l, r) = Self::split(t.left.take(), key, id);
            t.left = r;
            t.refresh();
            (l, Some(t))
        }
    }

    /// Removes the entry with exactly `(key, id)`; returns it if found.
    pub fn remove(&mut self, key: f64, id: u64) -> Option<Entry> {
        let root = self.root.take();
        let (root, removed) = Self::remove_node(root, key, id);
        self.root = root;
        removed
    }

    fn remove_node(
        tree: Option<Box<Node>>,
        key: f64,
        id: u64,
    ) -> (Option<Box<Node>>, Option<Entry>) {
        let Some(mut t) = tree else {
            return (None, None);
        };
        match cmp_key(key, id, t.entry.key, t.entry.id) {
            std::cmp::Ordering::Less => {
                let (l, rem) = Self::remove_node(t.left.take(), key, id);
                t.left = l;
                t.refresh();
                (Some(t), rem)
            }
            std::cmp::Ordering::Greater => {
                let (r, rem) = Self::remove_node(t.right.take(), key, id);
                t.right = r;
                t.refresh();
                (Some(t), rem)
            }
            std::cmp::Ordering::Equal => {
                let entry = t.entry;
                let merged = Self::merge(t.left.take(), t.right.take());
                (merged, Some(entry))
            }
        }
    }

    fn merge(a: Option<Box<Node>>, b: Option<Box<Node>>) -> Option<Box<Node>> {
        match (a, b) {
            (None, b) => b,
            (a, None) => a,
            (Some(mut a), Some(mut b)) => {
                if a.priority > b.priority {
                    a.right = Self::merge(a.right.take(), Some(b));
                    a.refresh();
                    Some(a)
                } else {
                    b.left = Self::merge(Some(a), b.left.take());
                    b.refresh();
                    Some(b)
                }
            }
        }
    }

    /// Returns the entry of rank `k` (0-based, in key order).
    pub fn kth(&self, k: usize) -> Option<Entry> {
        let mut node = self.root.as_deref()?;
        let mut k = k;
        loop {
            let left_size = node.left.as_ref().map_or(0, |n| n.size);
            if k < left_size {
                node = node.left.as_deref()?;
            } else if k == left_size {
                return Some(node.entry);
            } else {
                k -= left_size + 1;
                node = node.right.as_deref()?;
            }
        }
    }

    /// Number of entries with key strictly less than `key` (any id).
    pub fn rank_of_key(&self, key: f64) -> usize {
        let mut node = self.root.as_deref();
        let mut rank = 0;
        while let Some(n) = node {
            if n.entry.key.total_cmp(&key).is_lt() {
                rank += n.left.as_ref().map_or(0, |l| l.size) + 1;
                node = n.right.as_deref();
            } else {
                node = n.left.as_deref();
            }
        }
        rank
    }

    /// Number of entries ordered at or before `(key, id)` — whether or not
    /// that entry is present.
    pub fn rank_through(&self, key: f64, id: u64) -> usize {
        let mut node = self.root.as_deref();
        let mut rank = 0;
        while let Some(n) = node {
            if cmp_key(n.entry.key, n.entry.id, key, id).is_le() {
                rank += n.left.as_ref().map_or(0, |l| l.size) + 1;
                node = n.right.as_deref();
            } else {
                node = n.left.as_deref();
            }
        }
        rank
    }

    /// Moments of the weights of entries with rank in `[lo, hi)`:
    /// `prefix(hi) − prefix(lo)`, so a caller holding one of the two
    /// prefixes gets the same bits from [`Treap::prefix`] alone.
    pub fn moments_by_rank(&self, lo: usize, hi: usize) -> Moments {
        if lo >= hi {
            return Moments::ZERO;
        }
        self.prefix(hi).subtract(&self.prefix(lo))
    }

    /// Moments of the first `k` entries in key order (one descent).
    pub fn prefix(&self, k: usize) -> Moments {
        Self::prefix_moments(self.root.as_deref(), k)
    }

    fn prefix_moments(node: Option<&Node>, k: usize) -> Moments {
        let Some(n) = node else { return Moments::ZERO };
        if k == 0 {
            return Moments::ZERO;
        }
        if k >= n.size {
            return n.agg;
        }
        let left_size = n.left.as_ref().map_or(0, |l| l.size);
        if k <= left_size {
            Self::prefix_moments(n.left.as_deref(), k)
        } else {
            let mut m = n.left.as_ref().map_or(Moments::ZERO, |l| l.agg);
            m.add(n.entry.weight);
            if k > left_size + 1 {
                m.merge_assign(&Self::prefix_moments(n.right.as_deref(), k - left_size - 1));
            }
            m
        }
    }

    /// Moments of entries with key in the half-open interval `[lo, hi)`.
    pub fn moments_by_key(&self, lo: f64, hi: f64) -> Moments {
        let lo_rank = self.rank_of_key(lo);
        let hi_rank = self.rank_of_key(hi);
        self.moments_by_rank(lo_rank, hi_rank)
    }

    /// In-order iteration over all entries (ascending key order).
    pub fn iter(&self) -> TreapIter<'_> {
        let mut stack = Vec::new();
        let mut node = self.root.as_deref();
        while let Some(n) = node {
            stack.push(n);
            node = n.left.as_deref();
        }
        TreapIter { stack }
    }
}

/// In-order iterator over treap entries.
pub struct TreapIter<'a> {
    stack: Vec<&'a Node>,
}

impl Iterator for TreapIter<'_> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        let node = self.stack.pop()?;
        let entry = node.entry;
        let mut cur = node.right.as_deref();
        while let Some(n) = cur {
            self.stack.push(n);
            cur = n.left.as_deref();
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn entry(key: f64, id: u64, w: f64) -> Entry {
        Entry { key, id, weight: w }
    }

    /// A treap of `entries`, inserted in order.
    fn treap(entries: impl IntoIterator<Item = Entry>) -> Treap {
        let mut t = Treap::new();
        for e in entries {
            t.insert(e);
        }
        t
    }

    #[test]
    fn insert_and_kth_are_sorted() {
        let mut t = Treap::new();
        for (i, k) in [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().enumerate() {
            t.insert(entry(k, i as u64, k));
        }
        let keys: Vec<f64> = (0..5).map(|i| t.kth(i).unwrap().key).collect();
        assert_eq!(keys, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(t.kth(5).is_none());
    }

    #[test]
    fn remove_keeps_order_and_aggregates() {
        let mut t = treap((0..100).map(|i| entry(i as f64, i, i as f64)));
        assert_eq!(t.len(), 100);
        let removed = t.remove(50.0, 50).unwrap();
        assert_eq!(removed.weight, 50.0);
        assert!(t.remove(50.0, 50).is_none());
        assert_eq!(t.len(), 99);
        let total = t.moments_by_rank(0, t.len());
        assert!((total.sum - (4950.0 - 50.0)).abs() < 1e-9);
    }

    #[test]
    fn rank_of_key_counts_strictly_smaller() {
        let t = treap(
            [1.0, 2.0, 2.0, 3.0]
                .into_iter()
                .enumerate()
                .map(|(i, k)| entry(k, i as u64, 1.0)),
        );
        assert_eq!(t.rank_of_key(0.5), 0);
        assert_eq!(t.rank_of_key(2.0), 1);
        assert_eq!(t.rank_of_key(2.5), 3);
        assert_eq!(t.rank_of_key(10.0), 4);
        // Ids break ties among equal keys; an absent entry still has a rank.
        assert_eq!(t.rank_through(2.0, 1), 2);
        assert_eq!(t.rank_through(2.0, 2), 3);
        assert_eq!(t.rank_through(2.0, 0), 1);
        assert_eq!(t.rank_through(0.5, 9), 0);
        assert_eq!(t.rank_through(3.0, 3), 4);
    }

    #[test]
    fn moments_by_rank_matches_bruteforce() {
        let mut rng = SmallRng::seed_from_u64(7);
        let entries: Vec<Entry> = (0..200)
            .map(|i| entry(rng.gen::<f64>() * 100.0, i, rng.gen::<f64>() * 5.0))
            .collect();
        let t = treap(entries.clone());
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| cmp_key(a.key, a.id, b.key, b.id));
        for &(lo, hi) in &[(0usize, 200usize), (10, 50), (0, 0), (199, 200), (50, 49)] {
            let m = t.moments_by_rank(lo, hi);
            let expect = Moments::from_values(
                sorted[lo.min(200)..hi.min(200).max(lo.min(200))]
                    .iter()
                    .map(|e| e.weight),
            );
            assert!((m.count - expect.count).abs() < 1e-9, "range {lo}..{hi}");
            assert!((m.sum - expect.sum).abs() < 1e-6, "range {lo}..{hi}");
            assert!((m.sumsq - expect.sumsq).abs() < 1e-6, "range {lo}..{hi}");
        }
    }

    #[test]
    fn moments_by_key_is_half_open() {
        let t = treap(
            [1.0, 2.0, 3.0]
                .into_iter()
                .enumerate()
                .map(|(i, k)| entry(k, i as u64, k)),
        );
        let m = t.moments_by_key(1.0, 3.0);
        assert_eq!(m.count, 2.0);
        assert_eq!(m.sum, 3.0);
    }

    #[test]
    fn iter_is_in_order_after_random_churn() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut t = Treap::new();
        let mut live: Vec<Entry> = Vec::new();
        for i in 0..500u64 {
            if rng.gen_bool(0.7) || live.is_empty() {
                let e = entry(rng.gen::<f64>(), i, rng.gen::<f64>());
                t.insert(e);
                live.push(e);
            } else {
                let idx = rng.gen_range(0..live.len());
                let e = live.swap_remove(idx);
                assert!(t.remove(e.key, e.id).is_some());
            }
        }
        let collected: Vec<Entry> = t.iter().collect();
        assert_eq!(collected.len(), live.len());
        assert!(collected
            .windows(2)
            .all(|w| cmp_key(w[0].key, w[0].id, w[1].key, w[1].id).is_lt()));
    }

    #[test]
    fn duplicate_keys_are_supported() {
        let mut t = Treap::new();
        for i in 0..10 {
            t.insert(entry(1.0, i, 2.0));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.moments_by_key(1.0, 1.1).count, 10.0);
        assert!(t.remove(1.0, 3).is_some());
        assert_eq!(t.len(), 9);
    }
}
