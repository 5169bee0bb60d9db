//! The archival (cold) store of §2.1, columnar and in memory.
//!
//! JanusAQP assumes "sufficient cold/archival storage to store the current
//! state of the table", accessible *offline* — for initialization,
//! re-sampling after reservoir exhaustion (§4.2), and the catch-up phase
//! (§4.3) — but never touched while answering queries. [`ArchiveStore`]
//! mirrors the live table under insertions/deletions with O(1) updates and
//! supports the uniform-sampling primitives those offline phases need.
//!
//! ## Representation
//!
//! A struct-of-arrays layout: one arity-strided `Vec<f64>` value buffer,
//! one `Vec<RowId>` id column, and the id→slot map. Scans hand out
//! zero-copy [`RowRef`] views over the value buffer instead of cloning a
//! heap `Vec` per row.
//!
//! Rows live in *slots* `0..len`, managed with `swap_remove` semantics:
//! an insert appends a slot, a delete moves the last slot into the hole.
//! Slot order is therefore a function of the insert/delete sequence only,
//! which is what keeps every seeded sampling stream
//! ([`ArchiveStore::sample_distinct`],
//! [`ArchiveStore::sample_with_replacement`], [`ArchiveStore::shuffled`],
//! [`ArchiveStore::shuffled_prefix`]) bit-identical to the seed's
//! `Vec<Row>` representation.
//!
//! **Bulk builds.** Every archive built from a whole table at once —
//! engine bootstrap and restore, each cluster shard's, each `janus-node`
//! shard's — goes through [`ArchiveStore::try_from_rows`], which builds in
//! two passes instead of inserting row by row: pass 1 moves the rows into
//! the id and value columns, pass 2 indexes the id column into a map sized
//! once for it. The result is the per-row build's, slot for slot and error
//! for error: a repeated id keeps its first slot (pass 2 closes the later
//! one's gap in place), and a row of another arity ends the bulk pass, so
//! it and every later row go through `insert`, which ignores it if its id
//! is live and rejects it otherwise.
//!
//! Only the index is pre-sized, never the columns: they grow by doubling
//! exactly as under inserts. Sizing them to the row count lowers
//! `peak_rss_mb` where the archive is all there is, but where a bulk load
//! follows (`ClusterEngine::reserve`) the exact-size columns are grown
//! again at once, and the process peaks higher than with doubled ones.
//!
//! [`Row`] stays the API boundary type: anything that crosses an ownership
//! boundary (checkpoints, sampling results) materializes, while scans
//! ([`ArchiveStore::for_each_row`], [`ArchiveStore::iter_refs`],
//! [`ArchiveStore::for_each_shuffled`]) borrow.

use janus_common::{DetHashMap, JanusError, Query, Result, Row, RowId, RowRef, ScanPartial};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{seq::index::sample as index_sample, Rng, SeedableRng};
use std::collections::hash_map::Entry;

/// A dense, zero-copy view of rows stored as columns — an archive's
/// storage, or a span of a catch-up queue: the id column plus the
/// arity-strided value buffer. Slot `i`'s values are
/// `values[i*arity..(i+1)*arity]`.
#[derive(Clone, Copy)]
pub struct ArchiveColumns<'a> {
    /// Row id of each slot.
    pub ids: &'a [RowId],
    /// Arity-strided value buffer.
    pub values: &'a [f64],
    /// Values per row.
    pub arity: usize,
}

impl<'a> ArchiveColumns<'a> {
    /// The value slice of one slot.
    #[inline]
    pub fn slot_values(&self, slot: usize) -> &'a [f64] {
        if self.arity == 0 {
            &[]
        } else {
            &self.values[slot * self.arity..(slot + 1) * self.arity]
        }
    }

    /// The [`RowRef`] view of one slot.
    #[inline]
    pub fn row_ref(&self, slot: usize) -> RowRef<'a> {
        RowRef::new(self.ids[slot], self.slot_values(slot))
    }

    /// Number of rows in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the view holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Every row of the view, in slot order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowRef<'a>> + 'a {
        let view = *self;
        (0..self.len()).map(move |slot| view.row_ref(slot))
    }
}

/// Full-table cold storage with O(1) insert/delete and uniform sampling.
#[derive(Default)]
pub struct ArchiveStore {
    ids: Vec<RowId>,
    /// Arity-strided value buffer; slot `i` owns
    /// `values[i*arity..(i+1)*arity]`.
    values: Vec<f64>,
    /// Fixed by the first insert for the store's lifetime, even across
    /// emptiness.
    arity: Option<usize>,
    index_of: DetHashMap<RowId, usize>,
}

/// Checks a row's arity against the one the store's first insert fixed
/// (fixing it on that first insert): a published row of the wrong width
/// is a typed error for the caller, not a panic in the shard thread.
fn check_arity(arity: &mut Option<usize>, id: RowId, values: &[f64]) -> Result<()> {
    match *arity {
        None => *arity = Some(values.len()),
        Some(a) if a != values.len() => {
            return Err(JanusError::InvalidConfig(format!(
                "row {id} has {} values; the archive holds rows of {a}",
                values.len()
            )))
        }
        Some(_) => {}
    }
    Ok(())
}

impl ArchiveStore {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an archive from initial rows that share one arity.
    pub fn from_rows(rows: impl IntoIterator<Item = Row>) -> Self {
        Self::try_from_rows(rows).expect("initial rows must share one arity")
    }

    /// Builds an archive from owned rows in bulk, with exactly the result
    /// — slots, index, arity, error — of inserting them one at a time in
    /// order (see the module doc's "Representation").
    ///
    /// Pass 1 moves rows into the columns while they keep the first row's
    /// arity; pass 2 indexes them into a map sized once. A row of another
    /// arity ends pass 1: it and every row after it go through
    /// [`ArchiveStore::insert`], which ignores it if its id is already
    /// live and rejects it otherwise.
    pub fn try_from_rows(rows: impl IntoIterator<Item = Row>) -> Result<Self> {
        let mut rows = rows.into_iter();
        let mut out = ArchiveStore::new();
        let mut odd = None;
        for row in rows.by_ref() {
            if *out.arity.get_or_insert(row.values.len()) != row.values.len() {
                odd = Some(row);
                break;
            }
            out.ids.push(row.id);
            out.values.extend_from_slice(&row.values);
        }
        out.index_columns();
        for row in odd.into_iter().chain(rows) {
            out.insert(row)?;
        }
        Ok(out)
    }

    /// Pass 2 of a bulk build: indexes the id column into a map sized once
    /// for it. A repeated id keeps its first slot and its later one is
    /// dropped, closing the gap in place — what per-row `insert` does
    /// when it returns `Ok(false)`.
    fn index_columns(&mut self) {
        let arity = self.arity();
        let mut index_of = DetHashMap::with_capacity_and_hasher(self.ids.len(), Default::default());
        let mut kept = 0;
        for slot in 0..self.ids.len() {
            let id = self.ids[slot];
            let Entry::Vacant(entry) = index_of.entry(id) else {
                continue;
            };
            entry.insert(kept);
            if kept < slot {
                self.ids[kept] = id;
                self.values
                    .copy_within(slot * arity..(slot + 1) * arity, kept * arity);
            }
            kept += 1;
        }
        self.ids.truncate(kept);
        self.values.truncate(kept * arity);
        self.index_of = index_of;
    }

    /// Current table size `|D|`.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Values per row (0 until the first insert fixes it).
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity.unwrap_or(0)
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Inserts a row. Returns `Ok(false)` (and ignores the row) if the id
    /// is already present; `Err` (storing nothing) when its values do not
    /// match the arity the first insert fixed.
    pub fn insert(&mut self, row: Row) -> Result<bool> {
        self.insert_values(row.id, &row.values)
    }

    /// [`ArchiveStore::insert`] from borrowed parts, for a caller that
    /// still needs its `Row` afterwards (the values are copied).
    pub fn insert_values(&mut self, id: RowId, values: &[f64]) -> Result<bool> {
        let Entry::Vacant(slot) = self.index_of.entry(id) else {
            return Ok(false);
        };
        check_arity(&mut self.arity, id, values)?;
        slot.insert(self.ids.len());
        self.ids.push(id);
        self.values.extend_from_slice(values);
        Ok(true)
    }

    /// Reserves room for at least `additional` more rows. Until the first
    /// insert fixes the arity the value buffer's share is unknown, so only
    /// the id column and the index grow.
    pub fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        self.values.reserve(additional * self.arity());
        self.index_of.reserve(additional);
    }

    /// Deletes a row by id with `swap_remove` slot semantics, returning
    /// it if it was live.
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        let at = self.index_of.remove(&id)?;
        let row = Row::new(id, self.columns().slot_values(at).to_vec());
        let last = self.ids.len() - 1;
        let arity = self.arity();
        self.ids.swap_remove(at);
        if arity > 0 {
            // Move the last stride into the hole, then truncate — the
            // value-buffer mirror of `Vec::swap_remove`.
            let (head, tail) = self.values.split_at_mut(last * arity);
            if at < last {
                head[at * arity..(at + 1) * arity].copy_from_slice(&tail[..arity]);
            }
            self.values.truncate(last * arity);
        }
        if at < self.ids.len() {
            self.index_of.insert(self.ids[at], at);
        }
        Some(row)
    }

    /// Materializes a row by id (one allocation; use
    /// [`ArchiveStore::with_row`] on hot paths).
    pub fn get(&self, id: RowId) -> Option<Row> {
        self.with_row(id, |r| r.to_row())
    }

    /// Runs `f` over the borrowed view of the row with this id.
    pub fn with_row<T>(&self, id: RowId, f: impl FnOnce(RowRef<'_>) -> T) -> Option<T> {
        let slot = self.slot_of(id)?;
        Some(f(self.columns().row_ref(slot)))
    }

    /// True if the id is live.
    pub fn contains(&self, id: RowId) -> bool {
        self.index_of.contains_key(&id)
    }

    /// The slot currently holding `id`, if live.
    pub fn slot_of(&self, id: RowId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    /// Scans all live rows in slot order, handing each to `f` as a
    /// borrowed view — the allocation-free full-table scan every offline
    /// phase (exact evaluation, rebalance rebuilds, snapshot export)
    /// drives.
    pub fn for_each_row(&self, f: impl FnMut(RowRef<'_>)) {
        self.columns().rows().for_each(f);
    }

    /// The dense column view of every slot.
    pub fn columns(&self) -> ArchiveColumns<'_> {
        ArchiveColumns {
            ids: &self.ids,
            values: &self.values,
            arity: self.arity(),
        }
    }

    /// Exact scan of the whole table into a mergeable partial, via the
    /// chunked [`janus_common::kernels`] — bit-identical to the per-row
    /// path (see the kernels bit-identity contract).
    pub fn scan_partial(&self, query: &Query) -> ScanPartial {
        let mut acc = query.exact_accumulator();
        acc.offer_columns(&self.values, self.arity());
        *acc.partial()
    }

    /// Evaluates a query exactly over the whole table (the archive-side
    /// ground-truth oracle). Bit-identical to streaming every row into
    /// [`Query::exact_accumulator`] in slot order.
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        self.scan_partial(query).finish(query.agg)
    }

    /// Borrow-based slot-order iteration.
    pub fn iter_refs(&self) -> impl Iterator<Item = RowRef<'_>> {
        self.columns().rows()
    }

    /// Iterates all live rows in slot order as owned [`Row`]s (one
    /// allocation per row — ownership-boundary use only).
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        self.iter_refs().map(|r| r.to_row())
    }

    /// Materializes the whole table in slot order — the archive side of a
    /// checkpoint or shard hand-off.
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter_rows().collect()
    }

    /// A working copy of this archive, slot order preserved exactly (so
    /// the copy's sampling streams are bit-identical to the source's): two
    /// buffer copies plus the index pass, no per-row allocation.
    pub fn fork(&self) -> ArchiveStore {
        let mut out = ArchiveStore {
            ids: self.ids.clone(),
            values: self.values.clone(),
            arity: self.arity,
            index_of: DetHashMap::default(),
        };
        out.index_columns();
        out
    }

    /// Uniform sample of `n` *distinct* rows (fewer if the table is
    /// smaller). Used to reset the pooled reservoir (§4.2 / §4.3 step 4).
    pub fn sample_distinct(&self, n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = n.min(self.len());
        if n == 0 {
            return Vec::new();
        }
        let picks = index_sample(&mut rng, self.len(), n);
        self.materialize(picks.into_iter())
    }

    /// Uniform sample of `n` rows *with replacement* (the catch-up stream of
    /// §4.3 step 5: "random samples of historical data ... propagated in a
    /// random order").
    pub fn sample_with_replacement(&self, n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        if self.is_empty() {
            return Vec::new();
        }
        let len = self.len();
        self.materialize((0..n).map(|_| rng.gen_range(0..len)))
    }

    /// A uniformly shuffled copy of all live rows.
    ///
    /// The shuffle permutes slot *indices* and materializes rows straight
    /// into their output positions: no intermediate whole-table `Vec<Row>`
    /// clone, and — because Fisher–Yates swaps depend only on the length
    /// and the RNG stream — the emitted order is bit-identical per seed to
    /// shuffling the materialized rows themselves.
    pub fn shuffled(&self, seed: u64) -> Vec<Row> {
        self.shuffled_prefix(seed, usize::MAX)
    }

    /// The first `n` rows of [`ArchiveStore::shuffled`] (all of them when
    /// `n` exceeds the table) — the randomized catch-up order of §4.3,
    /// which only ever reads up to its sample goal. Every slot index is
    /// still shuffled, so the prefix is row for row the full shuffle's,
    /// but only the rows returned are materialized.
    pub fn shuffled_prefix(&self, seed: u64, n: usize) -> Vec<Row> {
        self.materialize(self.shuffled_slots(seed, n).into_iter())
    }

    /// Hands the rows of [`ArchiveStore::shuffled_prefix`] to `f` in the
    /// same order as borrowed views, materializing none — what a flat
    /// catch-up queue copies its columns from.
    pub fn for_each_shuffled(&self, seed: u64, n: usize, f: impl FnMut(RowRef<'_>)) {
        self.visit(self.shuffled_slots(seed, n).into_iter(), f);
    }

    /// The first `n` slot indices of the seeded Fisher–Yates permutation.
    fn shuffled_slots(&self, seed: u64, n: usize) -> Vec<usize> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(&mut rng);
        order.truncate(n);
        order
    }

    /// Materializes the given slots, in the given order.
    fn materialize(&self, slots: impl Iterator<Item = usize>) -> Vec<Row> {
        let mut out = Vec::with_capacity(slots.size_hint().0);
        self.visit(slots, |r| out.push(r.to_row()));
        out
    }

    /// Hands the given slots to `f`, in the given order, as borrowed views
    /// straight from the value buffer.
    fn visit(&self, slots: impl Iterator<Item = usize>, mut f: impl FnMut(RowRef<'_>)) {
        let columns = self.columns();
        slots.for_each(|slot| f(columns.row_ref(slot)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64) -> Row {
        Row::new(id, vec![id as f64, (id * 2) as f64])
    }

    #[test]
    fn insert_get_delete_round_trip() {
        let mut a = ArchiveStore::new();
        assert!(a.insert(row(1)).unwrap());
        assert!(a.insert(row(2)).unwrap());
        assert!(!a.insert(row(1)).unwrap(), "duplicate id rejected");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1).unwrap().values[1], 2.0);
        let deleted = a.delete(1).unwrap();
        assert_eq!(deleted.id, 1);
        assert_eq!(deleted.values, vec![1.0, 2.0]);
        assert!(a.delete(1).is_none());
        assert!(!a.contains(1));
        assert!(a.contains(2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn swap_remove_keeps_lookup_consistent() {
        let mut a = ArchiveStore::from_rows((0..100).map(row));
        for id in [0u64, 50, 99, 3, 97] {
            a.delete(id).unwrap();
        }
        assert_eq!(a.len(), 95);
        a.for_each_row(|r| {
            assert_eq!(a.get(r.id).unwrap().id, r.id);
        });
    }

    /// The columnar slot order must be exactly the order the seed's
    /// `Vec<Row>` + `swap_remove` representation produced, for any
    /// insert/delete sequence — this is what keeps all seeded sampling
    /// streams bit-identical to the pre-columnar implementation.
    #[test]
    fn slot_order_matches_vec_swap_remove_model() {
        let mut model: Vec<Row> = Vec::new();
        let mut a = ArchiveStore::new();
        let ops: Vec<(bool, u64)> = (0..400u64).map(|i| (i % 7 != 3, i % 120)).collect();
        for (insert, id) in ops {
            if insert {
                if !model.iter().any(|r| r.id == id) {
                    model.push(row(id));
                }
                a.insert(row(id)).unwrap();
            } else if let Some(at) = model.iter().position(|r| r.id == id) {
                model.swap_remove(at);
                assert_eq!(a.delete(id).unwrap().id, id);
            } else {
                assert!(a.delete(id).is_none());
            }
        }
        let stored: Vec<Row> = a.to_rows();
        assert_eq!(stored, model, "slot order must mirror Vec::swap_remove");
    }

    #[test]
    fn sample_distinct_has_no_duplicates_and_is_clamped() {
        let a = ArchiveStore::from_rows((0..50).map(row));
        let s = a.sample_distinct(20, 7);
        assert_eq!(s.len(), 20);
        let mut ids: Vec<u64> = s.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        assert_eq!(a.sample_distinct(500, 7).len(), 50);
        assert!(ArchiveStore::new().sample_distinct(5, 7).is_empty());
    }

    #[test]
    fn sample_with_replacement_has_requested_size() {
        let a = ArchiveStore::from_rows((0..10).map(row));
        assert_eq!(a.sample_with_replacement(100, 3).len(), 100);
        assert!(ArchiveStore::new().sample_with_replacement(5, 3).is_empty());
    }

    #[test]
    fn shuffled_is_a_permutation() {
        let a = ArchiveStore::from_rows((0..30).map(row));
        let mut s: Vec<u64> = a.shuffled(11).iter().map(|r| r.id).collect();
        s.sort_unstable();
        assert_eq!(s, (0..30).collect::<Vec<_>>());
    }

    /// Index-permutation shuffling must emit the same order per seed as
    /// the seed implementation's row-vector shuffle.
    #[test]
    fn shuffled_matches_direct_row_shuffle() {
        let a = ArchiveStore::from_rows((0..64).map(row));
        let via_indices = a.shuffled(23);
        let mut direct: Vec<Row> = a.to_rows();
        let mut rng = SmallRng::seed_from_u64(23);
        direct.shuffle(&mut rng);
        assert_eq!(via_indices, direct);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = ArchiveStore::from_rows((0..100).map(row));
        let s1: Vec<u64> = a.sample_distinct(10, 42).iter().map(|r| r.id).collect();
        let s2: Vec<u64> = a.sample_distinct(10, 42).iter().map(|r| r.id).collect();
        let s3: Vec<u64> = a.sample_distinct(10, 43).iter().map(|r| r.id).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn zero_copy_scans_see_every_row() {
        let a = ArchiveStore::from_rows((0..20).map(row));
        let mut seen = 0usize;
        a.for_each_row(|r| {
            assert_eq!(r.values[0], r.id as f64);
            seen += 1;
        });
        assert_eq!(seen, 20);
        assert_eq!(a.iter_refs().count(), 20);
        assert_eq!(a.iter_rows().count(), 20);
        assert_eq!(a.with_row(5, |r| r.value(1)), Some(10.0));
        assert_eq!(a.with_row(999, |r| r.value(1)), None);
    }

    #[test]
    fn fork_preserves_slot_order_and_streams() {
        let mut a = ArchiveStore::from_rows((0..40).map(row));
        a.delete(7).unwrap();
        a.delete(31).unwrap();
        let b = a.fork();
        assert_eq!(a.to_rows(), b.to_rows());
        assert_eq!(a.sample_distinct(8, 5), b.sample_distinct(8, 5));
        assert_eq!(a.shuffled(5), b.shuffled(5));
    }

    #[test]
    fn shuffled_prefix_is_the_head_of_the_full_shuffle() {
        let mut a = ArchiveStore::from_rows((0..120).map(row));
        for id in [5u64, 77, 119, 0] {
            a.delete(id).unwrap();
        }
        let len = a.len();
        let full = a.shuffled(41);
        for n in [0, 1, len / 10, len, len + 5] {
            assert_eq!(a.shuffled_prefix(41, n), full[..n.min(len)], "prefix {n}");
        }
        assert!(ArchiveStore::new().shuffled_prefix(41, 3).is_empty());
    }

    #[test]
    fn arity_stays_locked_after_emptying() {
        let mut a = ArchiveStore::new();
        assert!(a.insert(Row::new(1, vec![1.0, 2.0])).unwrap());
        assert!(a.delete(1).is_some());
        let refit = a.insert(Row::new(2, vec![1.0, 2.0, 3.0]));
        assert!(
            matches!(refit, Err(JanusError::InvalidConfig(_))),
            "arity must stay locked after emptying"
        );
        assert!(!a.contains(2), "a rejected row is not stored");
        assert!(
            a.insert(Row::new(3, vec![4.0, 5.0])).unwrap(),
            "same arity ok"
        );
    }
}
