//! The archival (cold) store of §2.1, columnar and backend-pluggable.
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
//! Rows live in *slots* `0..len`, managed with `swap_remove` semantics:
//! an insert appends a slot, a delete moves the last slot into the hole.
//! Slot order is therefore a function of the insert/delete sequence only —
//! never of the storage representation — which is what keeps every seeded
//! sampling stream ([`ArchiveStore::sample_distinct`],
//! [`ArchiveStore::sample_with_replacement`], [`ArchiveStore::shuffled`],
//! [`ArchiveStore::shuffled_prefix`]) bit-identical across backends.
//!
//! Two backends implement [`ArchiveBackend`]:
//!
//! * [`ColumnarArchive`] (the default) — a struct-of-arrays layout: one
//!   arity-strided `Vec<f64>` value buffer, one `Vec<RowId>` id column,
//!   and the id→slot map. Scans hand out zero-copy [`RowRef`] views over
//!   the value buffer instead of cloning a heap `Vec` per row.
//! * [`crate::spill::SegmentedFileArchive`] — a crash-safe segmented file
//!   store (values on disk in sealed, tmp+rename-published segments; an
//!   in-memory slot index) for tables larger than RAM.
//!
//! [`Row`] stays the API boundary type: anything that crosses an ownership
//! boundary (checkpoints, catch-up queues, sampling results) materializes,
//! while scans ([`ArchiveStore::for_each_row`], [`ArchiveStore::iter_refs`])
//! borrow.

use crate::spill::{SegmentedFileArchive, SpillStats};
use janus_common::codec::{Dec, Decode, Enc, Encode};
use janus_common::{Query, Result, Row, RowId, RowRef, ScanPartial};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{seq::index::sample as index_sample, Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;

/// A dense, zero-copy view of an in-memory backend's storage: the id
/// column plus the arity-strided value buffer. Slot `i`'s values are
/// `values[i*arity..(i+1)*arity]`.
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
}

/// Physical storage behind an [`ArchiveStore`].
///
/// A backend stores rows in slots `0..len` and must implement
/// `swap_remove` deletion (move the last slot into the deleted one), so
/// slot order — and with it every seeded sampling stream the facade
/// derives from slot indices — depends only on the insert/delete
/// sequence.
///
/// Mutations (`insert`, `delete`, `compact`) are fallible: I/O-backed
/// implementations surface storage failures — including injected
/// [`janus_common::faults`] — as typed [`JanusError`]s so callers can
/// recover (re-fetch the shard, retry the publish) instead of crashing.
/// Reads (`read_slot`) stay infallible: scan paths only touch segments
/// whose integrity was CRC-verified at open, so a read failure there
/// means the media died mid-process and panicking beats silently
/// corrupting answers.
///
/// [`JanusError`]: janus_common::JanusError
pub trait ArchiveBackend: Send + Sync {
    /// Live row count.
    fn len(&self) -> usize;

    /// True when no rows are live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values per row (0 until the first insert fixes it).
    fn arity(&self) -> usize;

    /// The slot currently holding `id`, if live.
    fn slot_of(&self, id: RowId) -> Option<usize>;

    /// Appends a row at slot `len`. Returns `Ok(false)` (storing nothing)
    /// if the id is already live; `Err` on a storage failure (the row was
    /// not stored).
    fn insert(&mut self, id: RowId, values: &[f64]) -> Result<bool>;

    /// Deletes a row by id with `swap_remove` slot semantics, returning
    /// the materialized row if it was live; `Err` on a storage failure.
    fn delete(&mut self, id: RowId) -> Result<Option<Row>>;

    /// Copies slot `slot`'s values into `buf` (cleared first) and returns
    /// its row id.
    fn read_slot(&self, slot: usize, buf: &mut Vec<f64>) -> RowId;

    /// Dense zero-copy access, for backends that keep values in memory.
    fn columns(&self) -> Option<ArchiveColumns<'_>> {
        None
    }

    /// Reserves room for at least `additional` more rows. A capacity
    /// hint only; the default does nothing.
    fn reserve(&mut self, _additional: usize) {}

    /// Forces a maintenance compaction pass, returning `Ok(true)` if the
    /// backend rewrote storage. In-memory backends have nothing to
    /// compact (swap-remove deletion never leaves dead records).
    fn compact(&mut self) -> Result<bool> {
        Ok(false)
    }

    /// Segment/compaction counters, for backends that spill to disk.
    fn spill_stats(&self) -> Option<SpillStats> {
        None
    }

    /// Short human-readable backend name (diagnostics and benches).
    fn name(&self) -> &'static str;
}

/// Which [`ArchiveBackend`] an engine's archive runs on — the knob wired
/// through `SynopsisConfig`/`ClusterConfig` down to every shard engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ArchiveBackendKind {
    /// In-memory columnar storage (the default).
    #[default]
    Memory,
    /// A [`SegmentedFileArchive`] spill store: each opened archive gets a
    /// fresh unique directory under `root` (removed again when the
    /// archive drops), values live on disk in sealed segments of
    /// `seg_rows` records, and only the slot index stays in memory — so
    /// the table may exceed RAM.
    FileSpill {
        /// Parent directory the per-archive spill directories live in.
        root: PathBuf,
        /// Records per sealed segment file.
        seg_rows: usize,
    },
}

impl ArchiveBackendKind {
    /// Opens an empty backend of this kind.
    pub fn open_backend(&self) -> Result<Box<dyn ArchiveBackend>> {
        match self {
            ArchiveBackendKind::Memory => Ok(Box::new(ColumnarArchive::new())),
            ArchiveBackendKind::FileSpill { root, seg_rows } => Ok(Box::new(
                SegmentedFileArchive::create_ephemeral(root, *seg_rows)?,
            )),
        }
    }
}

impl Encode for ArchiveBackendKind {
    fn encode(&self, e: &mut Enc) {
        match self {
            ArchiveBackendKind::Memory => e.u8(0),
            ArchiveBackendKind::FileSpill { root, seg_rows } => {
                e.u8(1);
                e.str(&root.to_string_lossy());
                e.usize(*seg_rows);
            }
        }
    }
}

impl Decode for ArchiveBackendKind {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(match d.u8()? {
            0 => ArchiveBackendKind::Memory,
            1 => ArchiveBackendKind::FileSpill {
                root: PathBuf::from(d.str()?),
                seg_rows: d.usize()?,
            },
            other => return Err(d.error(format!("invalid archive-backend tag {other}"))),
        })
    }
}

/// The in-memory columnar backend: struct-of-arrays row storage.
#[derive(Default)]
pub struct ColumnarArchive {
    ids: Vec<RowId>,
    /// Arity-strided value buffer; slot `i` owns
    /// `values[i*arity..(i+1)*arity]`.
    values: Vec<f64>,
    /// Fixed by the first insert for the store's lifetime (even across
    /// emptiness), exactly like the file-backed backend — the two must
    /// accept and reject the same update sequences.
    arity: Option<usize>,
    index_of: HashMap<RowId, usize>,
}

impl ColumnarArchive {
    /// Creates an empty columnar archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a columnar archive by copying a dense column view (the
    /// fast-path fork: two buffer memcpys plus the index rebuild, no
    /// per-row allocation). Slot order is preserved exactly.
    pub fn from_columns(columns: ArchiveColumns<'_>) -> Self {
        let index_of = columns
            .ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| (id, slot))
            .collect();
        ColumnarArchive {
            // An empty view carries no arity information; leave it
            // underived so the copy accepts the same first insert the
            // source would have.
            arity: (!columns.ids.is_empty()).then_some(columns.arity),
            ids: columns.ids.to_vec(),
            values: columns.values.to_vec(),
            index_of,
        }
    }

    #[inline]
    fn stride(&self) -> usize {
        self.arity.unwrap_or(0)
    }

    #[inline]
    fn slot_values(&self, slot: usize) -> &[f64] {
        let arity = self.stride();
        if arity == 0 {
            &[]
        } else {
            &self.values[slot * arity..(slot + 1) * arity]
        }
    }
}

impl ArchiveBackend for ColumnarArchive {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn arity(&self) -> usize {
        self.stride()
    }

    fn slot_of(&self, id: RowId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    fn insert(&mut self, id: RowId, values: &[f64]) -> Result<bool> {
        if self.index_of.contains_key(&id) {
            return Ok(false);
        }
        match self.arity {
            None => self.arity = Some(values.len()),
            Some(a) => assert_eq!(
                values.len(),
                a,
                "columnar archive requires uniform row arity"
            ),
        }
        self.index_of.insert(id, self.ids.len());
        self.ids.push(id);
        self.values.extend_from_slice(values);
        Ok(true)
    }

    fn delete(&mut self, id: RowId) -> Result<Option<Row>> {
        let Some(at) = self.index_of.remove(&id) else {
            return Ok(None);
        };
        let row = Row::new(id, self.slot_values(at).to_vec());
        let last = self.ids.len() - 1;
        let arity = self.stride();
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
        Ok(Some(row))
    }

    fn read_slot(&self, slot: usize, buf: &mut Vec<f64>) -> RowId {
        buf.clear();
        buf.extend_from_slice(self.slot_values(slot));
        self.ids[slot]
    }

    /// Until the first insert fixes the arity the value buffer's share
    /// is unknown, so only the id column and the index grow.
    fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        self.values.reserve(additional * self.stride());
        self.index_of.reserve(additional);
    }

    fn columns(&self) -> Option<ArchiveColumns<'_>> {
        Some(ArchiveColumns {
            ids: &self.ids,
            values: &self.values,
            arity: self.stride(),
        })
    }

    fn name(&self) -> &'static str {
        "memory-columnar"
    }
}

/// Full-table cold storage with O(1) insert/delete and uniform sampling,
/// over a pluggable [`ArchiveBackend`] (in-memory columnar by default).
pub struct ArchiveStore {
    backend: Box<dyn ArchiveBackend>,
}

impl Default for ArchiveStore {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl ArchiveStore {
    /// Creates an empty archive on the default in-memory columnar backend.
    pub fn new() -> Self {
        Self::in_memory()
    }

    /// Creates an empty in-memory columnar archive.
    pub fn in_memory() -> Self {
        ArchiveStore {
            backend: Box::new(ColumnarArchive::new()),
        }
    }

    /// Wraps an existing backend.
    pub fn with_backend(backend: Box<dyn ArchiveBackend>) -> Self {
        ArchiveStore { backend }
    }

    /// Opens an empty archive on the configured backend kind.
    pub fn open(kind: &ArchiveBackendKind) -> Result<Self> {
        Ok(ArchiveStore {
            backend: kind.open_backend()?,
        })
    }

    /// Builds an in-memory archive from initial rows.
    pub fn from_rows(rows: impl IntoIterator<Item = Row>) -> Self {
        let mut a = Self::new();
        for r in rows {
            a.insert(r).expect("in-memory archive insert cannot fail");
        }
        a
    }

    /// Builds an archive from initial rows on the configured backend.
    pub fn from_rows_in(
        kind: &ArchiveBackendKind,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<Self> {
        let mut a = Self::open(kind)?;
        for r in rows {
            a.insert(r)?;
        }
        Ok(a)
    }

    /// Short name of the active backend.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Current table size `|D|`.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Inserts a row. Returns `Ok(false)` (and ignores the row) if the id
    /// is already present; `Err` on a backend storage failure.
    pub fn insert(&mut self, row: Row) -> Result<bool> {
        self.insert_values(row.id, &row.values)
    }

    /// [`ArchiveStore::insert`] from borrowed parts, for a caller that
    /// still needs its `Row` afterwards (every backend copies the values).
    pub fn insert_values(&mut self, id: RowId, values: &[f64]) -> Result<bool> {
        self.backend.insert(id, values)
    }

    /// Reserves room for at least `additional` more rows on backends that
    /// keep them in memory (a no-op elsewhere).
    pub fn reserve(&mut self, additional: usize) {
        self.backend.reserve(additional);
    }

    /// Deletes a row by id, returning it if it existed; `Err` on a
    /// backend storage failure.
    pub fn delete(&mut self, id: RowId) -> Result<Option<Row>> {
        self.backend.delete(id)
    }

    /// Materializes a row by id (one allocation; use
    /// [`ArchiveStore::with_row`] on hot paths).
    pub fn get(&self, id: RowId) -> Option<Row> {
        self.with_row(id, |r| r.to_row())
    }

    /// Runs `f` over the borrowed view of the row with this id —
    /// zero-copy on in-memory backends, one buffered read on file-backed
    /// ones.
    pub fn with_row<T>(&self, id: RowId, f: impl FnOnce(RowRef<'_>) -> T) -> Option<T> {
        let slot = self.backend.slot_of(id)?;
        Some(match self.backend.columns() {
            Some(c) => f(c.row_ref(slot)),
            None => {
                let mut buf = Vec::with_capacity(self.backend.arity());
                let id = self.backend.read_slot(slot, &mut buf);
                f(RowRef::new(id, &buf))
            }
        })
    }

    /// True if the id is live.
    pub fn contains(&self, id: RowId) -> bool {
        self.backend.slot_of(id).is_some()
    }

    /// Scans all live rows in slot order, handing each to `f` as a
    /// borrowed view — the allocation-free full-table scan every offline
    /// phase (exact evaluation, rebalance rebuilds, snapshot export)
    /// drives. In-memory backends borrow straight from the value buffer;
    /// file-backed ones reuse one scratch buffer for the whole scan.
    pub fn for_each_row(&self, mut f: impl FnMut(RowRef<'_>)) {
        if let Some(c) = self.backend.columns() {
            for slot in 0..c.ids.len() {
                f(c.row_ref(slot));
            }
        } else {
            let mut buf = Vec::with_capacity(self.backend.arity());
            for slot in 0..self.backend.len() {
                let id = self.backend.read_slot(slot, &mut buf);
                f(RowRef::new(id, &buf));
            }
        }
    }

    /// The dense column view, when the backend keeps values in memory
    /// (`None` on file-backed stores).
    pub fn columns(&self) -> Option<ArchiveColumns<'_>> {
        self.backend.columns()
    }

    /// Exact scan of the whole table into a mergeable partial, via the
    /// chunked [`janus_common::kernels`] on dense backends and the per-row
    /// path on file-backed ones — bit-identical either way (see the
    /// kernels bit-identity contract).
    pub fn scan_partial(&self, query: &Query) -> ScanPartial {
        let mut acc = query.exact_accumulator();
        match self.backend.columns() {
            Some(c) => acc.offer_columns(c.values, c.arity),
            None => self.for_each_row(|r| acc.offer(r.values)),
        }
        *acc.partial()
    }

    /// Evaluates a query exactly over the whole table (the archive-side
    /// ground-truth oracle). Bit-identical to streaming every row into
    /// [`Query::exact_accumulator`] in slot order.
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        self.scan_partial(query).finish(query.agg)
    }

    /// Forces a maintenance compaction on the backend (no-op and
    /// `Ok(false)` on backends with nothing to compact).
    pub fn compact(&mut self) -> Result<bool> {
        self.backend.compact()
    }

    /// Segment/compaction counters of a spill backend (`None` in memory).
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.backend.spill_stats()
    }

    /// Borrow-based slot-order iteration, available when the backend
    /// keeps values in memory (`None` on file-backed stores — use
    /// [`ArchiveStore::for_each_row`] for backend-agnostic scans).
    pub fn iter_refs(&self) -> Option<impl Iterator<Item = RowRef<'_>>> {
        self.backend
            .columns()
            .map(|c| (0..c.ids.len()).map(move |slot| c.row_ref(slot)))
    }

    /// Iterates all live rows in slot order as owned [`Row`]s (one
    /// allocation per row — ownership-boundary use only).
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        let mut buf = Vec::new();
        (0..self.backend.len()).map(move |slot| match self.backend.columns() {
            Some(c) => c.row_ref(slot).to_row(),
            None => {
                let id = self.backend.read_slot(slot, &mut buf);
                Row::new(id, buf.clone())
            }
        })
    }

    /// Materializes the whole table in slot order — the archive side of a
    /// checkpoint or shard hand-off.
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_row(|r| out.push(r.to_row()));
        out
    }

    /// A *transient* working copy of this archive on the in-memory
    /// columnar backend, slot order preserved exactly (so the copy's
    /// sampling streams are bit-identical to the source's). On in-memory
    /// sources this is two buffer copies; file-backed sources stream
    /// through one scratch buffer. Long-lived copies — replica engines,
    /// forked engines — should use [`ArchiveStore::fork_in`] so a
    /// configured spill backend is honored.
    pub fn fork(&self) -> ArchiveStore {
        if let Some(c) = self.backend.columns() {
            return ArchiveStore::with_backend(Box::new(ColumnarArchive::from_columns(c)));
        }
        let mut out = ColumnarArchive::new();
        self.for_each_row(|r| {
            out.insert(r.id, r.values)
                .expect("in-memory archive insert cannot fail");
        });
        ArchiveStore::with_backend(Box::new(out))
    }

    /// [`ArchiveStore::fork`] onto the configured backend kind: the copy
    /// preserves slot order exactly (rows stream in slot order into a
    /// fresh store), so its sampling streams stay bit-identical to the
    /// source's, but a `FileSpill` configuration keeps spilling — a
    /// replica of a larger-than-RAM shard must not silently become an
    /// in-memory table.
    pub fn fork_in(&self, kind: &ArchiveBackendKind) -> Result<ArchiveStore> {
        if matches!(kind, ArchiveBackendKind::Memory) {
            return Ok(self.fork());
        }
        let mut backend = kind.open_backend()?;
        let mut failed = None;
        self.for_each_row(|r| {
            if failed.is_none() {
                if let Err(e) = backend.insert(r.id, r.values) {
                    failed = Some(e);
                }
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(ArchiveStore { backend }),
        }
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
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(&mut rng);
        order.truncate(n);
        self.materialize(order.into_iter())
    }

    /// Materializes the given slots, in the given order.
    fn materialize(&self, slots: impl Iterator<Item = usize>) -> Vec<Row> {
        match self.backend.columns() {
            Some(c) => slots.map(|slot| c.row_ref(slot).to_row()).collect(),
            None => {
                let mut buf = Vec::with_capacity(self.backend.arity());
                slots
                    .map(|slot| {
                        let id = self.backend.read_slot(slot, &mut buf);
                        Row::new(id, buf.clone())
                    })
                    .collect()
            }
        }
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
        let deleted = a.delete(1).unwrap().unwrap();
        assert_eq!(deleted.id, 1);
        assert_eq!(deleted.values, vec![1.0, 2.0]);
        assert!(a.delete(1).unwrap().is_none());
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
                assert_eq!(a.delete(id).unwrap().unwrap().id, id);
            } else {
                assert!(a.delete(id).unwrap().is_none());
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
        let refs = a.iter_refs().expect("in-memory backend is dense");
        assert_eq!(refs.count(), 20);
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
        assert_eq!(b.backend_name(), "memory-columnar");
    }
}
