//! A crash-safe, segmented file-backed [`ArchiveBackend`] — cold storage
//! for tables larger than RAM.
//!
//! ## Design
//!
//! The store is a log of fixed-size operation records (inserts carry the
//! row values, deletes are tombstones), cut into *segments* of a
//! configurable record count:
//!
//! * The **tail segment** is an in-memory buffer of not-yet-sealed
//!   operations (inserted values included). When it reaches `seg_rows`
//!   records it is **sealed**: serialized into `seg-NNNNNN.bin` via the
//!   same temp-file + rename discipline as
//!   [`crate::checkpoint::FileCheckpointStore`], so a crash mid-seal
//!   leaves only an invisible `.tmp` — a reopened directory never sees a
//!   torn segment.
//! * **Sealed segments** are immutable. Row values are read back with
//!   positioned reads (`pread`); deletions never rewrite a segment — they
//!   only drop the row from the in-memory index (and append a tombstone
//!   so a reopen replays the exact same live set and slot order).
//!
//! Only the **slot index** stays in memory: per live row an id and a disk
//! (or tail) location — a few dozen bytes per row regardless of arity —
//! which is what makes tables larger than RAM workable. Slot order uses
//! the same `swap_remove` discipline as the in-memory columnar backend,
//! so every seeded sampling stream is bit-identical across backends.
//!
//! [`SegmentedFileArchive::open`] reopens a directory and replays the
//! sealed segments in order (unsealed tail operations die with the
//! process — by construction they were never acknowledged as durable;
//! durability of *engine* state goes through the checkpoint machinery).
//!
//! ## End-to-end integrity
//!
//! Every sealed segment and the MANIFEST carry a CRC32 trailer over
//! their full contents (a segment is a [`janus_common::codec`]-sealed
//! buffer, the same layout as a wire frame or a stored checkpoint).
//! Reopen verifies each listed segment before replaying a single
//! record: a mismatch — bit rot, a torn in-place overwrite, an injected
//! [`janus_common::faults`] corruption — **quarantines** the file
//! (renamed to `<name>.quarantine`, counted in
//! [`SpillStats::quarantined`]) and fails the open with a typed
//! [`JanusError::Storage`], so the caller re-fetches the shard from a
//! healthy replica or checkpoint instead of silently replaying garbage.
//! A corrupt MANIFEST is quarantined the same way.
//!
//! ## Compaction
//!
//! Deletes never rewrite sealed segments, so a delete-heavy workload
//! accumulates dead records (overwritten inserts + tombstones) without
//! bound. [`SegmentedFileArchive::compact`] fixes that: it seals the
//! tail, rewrites the **live rows in slot order** as pure insert records
//! into fresh segment files (tmp + rename, monotonically increasing file
//! numbers), atomically swaps the segment list by rewriting the
//! `MANIFEST` file (tmp + rename — the single commit point), and then
//! deletes the old files. Because replaying a pure-insert record
//! sequence appends slots in record order, a compacted directory reopens
//! to the **identical live set and slot order** as the uncompacted one —
//! seeded sampling streams continue bit-identically across compaction
//! and reopen. A crash at any point leaves a consistent state: before
//! the manifest rename the old manifest + old files are intact (the new
//! files are unlisted and swept on the next open); after it, the new
//! manifest + new files are (stale old files are likewise swept).
//!
//! Compaction also runs automatically: after each seal, if the
//! dead-record ratio (`1 − live/sealed_records`) crosses the configured
//! threshold (default 0.5) past a minimum sealed-record floor, the store
//! compacts in place. [`SpillStats`] exposes segment/compaction counters
//! so callers can watch the live-record ratio stay bounded.
//!
//! [`ArchiveBackend`]: crate::archive::ArchiveBackend

use crate::archive::{check_arity, ArchiveBackend};
use janus_common::codec::{self, Dec, Enc, TRAILER};
use janus_common::{crc32, faults, DetHashMap, JanusError, Result, Row, RowId};
use std::collections::hash_map::Entry;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Segment header magic ("JANUSSEG", little-endian).
const MAGIC: u64 = 0x4745_5353_554e_414a;
/// Bytes of the per-segment header: magic + arity.
const HEADER: usize = 16;
/// Record kind tags.
const KIND_INSERT: u64 = 0;
const KIND_DELETE: u64 = 1;
/// The atomically swapped segment listing (see the module docs).
const MANIFEST: &str = "MANIFEST";
/// First line of a valid manifest (v2 added the closing `crc` line).
const MANIFEST_HEADER: &str = "janus-spill-manifest v2";
/// Suffix a corrupt file is renamed to when quarantined.
const QUARANTINE_SUFFIX: &str = ".quarantine";
/// Default dead-record ratio that triggers auto-compaction.
const DEFAULT_COMPACT_THRESHOLD: f64 = 0.5;
/// Default minimum sealed segments' worth of records before the
/// auto-trigger is considered (avoids churning tiny stores).
const DEFAULT_COMPACT_MIN_SEGMENTS: u64 = 4;

/// Where a live row's values currently are.
#[derive(Clone, Copy, Debug)]
enum Loc {
    /// Record `rec` of sealed segment `seg`.
    Sealed { seg: u32, rec: u32 },
    /// Tail operation `op` (values at stride `val` of the tail buffer).
    Tail { op: u32, val: u32 },
}

/// One live slot: the row id plus its storage location.
#[derive(Clone, Copy, Debug)]
struct Slot {
    id: RowId,
    loc: Loc,
}

/// A not-yet-sealed operation.
enum TailOp {
    /// Insert; values at stride `val` of the tail value buffer.
    Insert { id: RowId, val: u32 },
    /// Tombstone.
    Delete { id: RowId },
}

/// An open sealed segment.
struct Segment {
    file: File,
}

/// Segment/compaction counters of a [`SegmentedFileArchive`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpillStats {
    /// Sealed segment files currently open.
    pub sealed_segments: usize,
    /// Records across all sealed segments (live + dead + tombstones).
    pub sealed_records: u64,
    /// Operations buffered in the unsealed tail.
    pub tail_records: usize,
    /// Live rows.
    pub live_rows: usize,
    /// Compaction passes performed by this store instance.
    pub compactions: u64,
    /// Dead records dropped by those passes.
    pub records_dropped: u64,
    /// Corrupt files quarantined in this directory (`.quarantine`
    /// renames observed at open) — nonzero means a CRC check failed and
    /// the shard had to be re-fetched from a healthy copy.
    pub quarantined: u64,
}

impl SpillStats {
    /// Live rows over total records currently held (sealed + tail);
    /// `1.0` for an empty store. Compaction exists to keep this bounded
    /// away from zero under sustained churn.
    pub fn live_record_ratio(&self) -> f64 {
        let total = self.sealed_records + self.tail_records as u64;
        if total == 0 {
            1.0
        } else {
            self.live_rows as f64 / total as f64
        }
    }
}

/// Uniquifies ephemeral spill directories within the process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The segmented file-backed archive backend (see the module docs).
pub struct SegmentedFileArchive {
    dir: PathBuf,
    seg_rows: usize,
    /// Values per row; `None` until the first insert (or reopen) fixes it.
    arity: Option<usize>,
    slots: Vec<Slot>,
    index_of: DetHashMap<RowId, usize>,
    segments: Vec<Segment>,
    /// File name of each open segment, in logical (replay) order. The
    /// manifest is this list, published atomically.
    seg_files: Vec<String>,
    /// Next segment *file number* — monotonic for the directory's
    /// lifetime, never reused, so compacted files always sort and list
    /// after the files they replace.
    next_seg_no: u64,
    /// Records across all sealed segments (live + dead + tombstones).
    sealed_records: u64,
    tail_ops: Vec<TailOp>,
    /// Arity-strided values of the tail's insert operations.
    tail_values: Vec<f64>,
    tail_inserts: u32,
    /// Dead-record ratio that triggers auto-compaction after a seal
    /// (`None` disables the trigger; explicit `compact` still works).
    auto_compact_threshold: Option<f64>,
    /// Minimum sealed records before the auto-trigger is considered.
    compact_min_records: u64,
    /// Compaction passes performed by this instance.
    compactions: u64,
    /// Dead records dropped by those passes.
    records_dropped: u64,
    /// `.quarantine` files present in the directory (counted at open).
    quarantined: u64,
    /// Ephemeral stores delete their directory on drop (they are spill
    /// caches, not the durability story).
    ephemeral: bool,
}

impl SegmentedFileArchive {
    /// Opens (creating if needed) a persistent spill directory and
    /// replays its sealed segments. Torn `.tmp` files from a crashed seal
    /// are ignored; trailing partial records are ignored.
    pub fn open(dir: impl AsRef<Path>, seg_rows: usize) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| storage_err("create spill dir", &e))?;
        let seg_rows = seg_rows.max(1);
        let mut store = SegmentedFileArchive {
            dir,
            seg_rows,
            arity: None,
            slots: Vec::new(),
            index_of: DetHashMap::default(),
            segments: Vec::new(),
            seg_files: Vec::new(),
            next_seg_no: 0,
            sealed_records: 0,
            tail_ops: Vec::new(),
            tail_values: Vec::new(),
            tail_inserts: 0,
            auto_compact_threshold: Some(DEFAULT_COMPACT_THRESHOLD),
            compact_min_records: DEFAULT_COMPACT_MIN_SEGMENTS * seg_rows as u64,
            compactions: 0,
            records_dropped: 0,
            quarantined: 0,
            ephemeral: false,
        };
        store.replay_existing()?;
        Ok(store)
    }

    /// Creates a fresh spill store in a unique subdirectory of `root`,
    /// removed again when the store drops — the shape engine configs use
    /// ([`crate::archive::ArchiveBackendKind::FileSpill`]): the spill
    /// data is a working set, while durability goes through checkpoints.
    pub fn create_ephemeral(root: impl AsRef<Path>, seg_rows: usize) -> Result<Self> {
        let unique = format!(
            "spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let dir = root.as_ref().join(unique);
        // A leftover directory from a recycled pid would replay foreign
        // rows into a store the caller expects empty.
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Self::open(dir, seg_rows)?;
        store.ephemeral = true;
        Ok(store)
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of sealed segment files.
    pub fn sealed_segments(&self) -> usize {
        self.segments.len()
    }

    /// Operations buffered in the unsealed tail.
    pub fn tail_len(&self) -> usize {
        self.tail_ops.len()
    }

    /// Segment/compaction counters.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            sealed_segments: self.segments.len(),
            sealed_records: self.sealed_records,
            tail_records: self.tail_ops.len(),
            live_rows: self.slots.len(),
            compactions: self.compactions,
            records_dropped: self.records_dropped,
            quarantined: self.quarantined,
        }
    }

    /// Configures the auto-compaction trigger: after a seal, if at
    /// least `min_records` records are sealed and the dead-record ratio
    /// reaches `threshold`, the store compacts in place. `None`
    /// disables the trigger (explicit [`SegmentedFileArchive::compact`]
    /// still works) — e.g. for a bit-compare twin that must keep its
    /// tombstones.
    pub fn set_auto_compaction(&mut self, threshold: Option<f64>, min_records: u64) {
        self.auto_compact_threshold = threshold;
        self.compact_min_records = min_records;
    }

    /// Seals the tail (if non-empty) so everything ingested so far is on
    /// disk — the durability barrier a clean shutdown or a pre-crash
    /// flush wants.
    pub fn flush(&mut self) -> Result<()> {
        self.seal_tail()
    }

    fn seg_name(seg_no: u64) -> String {
        format!("seg-{seg_no:06}.bin")
    }

    fn record_size(arity: usize) -> usize {
        16 + 8 * arity
    }

    /// Atomically publishes the current segment list (+ the arity lock)
    /// as the directory's manifest — tmp + rename, the same discipline
    /// as segment seals and checkpoints. The final `crc` line checksums
    /// everything above it.
    fn write_manifest(&self) -> Result<()> {
        faults::check_storage("spill.manifest")?;
        let mut text =
            String::with_capacity(80 + self.seg_files.iter().map(|n| n.len() + 1).sum::<usize>());
        text.push_str(MANIFEST_HEADER);
        text.push('\n');
        match self.arity {
            Some(a) => text.push_str(&format!("arity {a}\n")),
            None => text.push_str("arity -\n"),
        }
        for name in &self.seg_files {
            text.push_str(name);
            text.push('\n');
        }
        let crc = crc32::crc32(text.as_bytes());
        text.push_str(&format!("crc {crc:08x}\n"));
        let mut bytes = text.into_bytes();
        faults::maybe_corrupt("spill.manifest.bytes", &mut bytes);
        let tmp = self.dir.join(".MANIFEST.tmp");
        std::fs::write(&tmp, &bytes).map_err(|e| storage_err("write manifest", &e))?;
        std::fs::rename(&tmp, self.dir.join(MANIFEST))
            .map_err(|e| storage_err("publish manifest", &e))
    }

    /// Parses and CRC-verifies the manifest into `(arity, segment names)`.
    fn parse_manifest(text: &str, path: &Path) -> Result<(Option<usize>, Vec<String>)> {
        // The closing `crc` line checksums everything before it; verify
        // first so a flipped bit anywhere — header, arity, a segment
        // name — is rejected before any of it is trusted.
        let body = text.strip_suffix('\n').unwrap_or(text);
        let (covered, crc_line) = match body.rfind('\n') {
            Some(at) => (&text[..at + 1], &body[at + 1..]),
            None => ("", body),
        };
        // The trailer line is the one part of the file its own CRC cannot
        // cover, so its encoding must be canonical: exactly 8 lowercase
        // hex digits. Accepting uppercase too would let a case-flipping
        // bit flip (0x20) corrupt the line yet parse to the same value.
        let stated = crc_line
            .strip_prefix("crc ")
            .filter(|h| h.len() == 8 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| {
                JanusError::Storage(format!("{}: missing crc trailer line", path.display()))
            })?;
        let actual = crc32::crc32(covered.as_bytes());
        if stated != actual {
            return Err(JanusError::Storage(format!(
                "{}: crc mismatch (stated {stated:08x}, computed {actual:08x})",
                path.display()
            )));
        }
        let mut lines = covered.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(JanusError::Storage(format!(
                "{} is not a janus spill manifest",
                path.display()
            )));
        }
        let arity =
            match lines.next().and_then(|l| l.strip_prefix("arity ")) {
                Some("-") => None,
                Some(n) => Some(n.parse::<usize>().map_err(|_| {
                    JanusError::Storage(format!("{}: bad arity line", path.display()))
                })?),
                None => {
                    return Err(JanusError::Storage(format!(
                        "{}: missing arity line",
                        path.display()
                    )))
                }
            };
        Ok((
            arity,
            lines
                .filter(|l| !l.is_empty())
                .map(str::to_string)
                .collect(),
        ))
    }

    /// Renames a corrupt file aside (`<name>.quarantine`) and returns the
    /// typed error the caller propagates: the store must not be opened
    /// over corrupt data, and the shard should be re-fetched from its
    /// freshest healthy replica or checkpoint.
    fn quarantine(&mut self, name: &str, why: &str) -> JanusError {
        let from = self.dir.join(name);
        let to = self.dir.join(format!("{name}{QUARANTINE_SUFFIX}"));
        let _ = std::fs::rename(&from, &to);
        self.quarantined += 1;
        JanusError::Storage(format!(
            "{} quarantined ({why}); re-fetch this shard from a healthy replica or checkpoint",
            from.display()
        ))
    }

    /// Replays sealed segments into the in-memory index. When a manifest
    /// exists its listing is authoritative: unlisted segment files are
    /// leftovers of a crashed seal or compaction and are swept. Without
    /// a manifest (fresh dir) the name-sorted file set is adopted as the
    /// listing. Every listed segment is CRC-verified in full before any
    /// of its records are trusted; a mismatch quarantines the file and
    /// fails the open.
    fn replay_existing(&mut self) -> Result<()> {
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| storage_err("list spill dir", &e))?;
        let mut on_disk: Vec<String> = Vec::new();
        for e in entries.flatten() {
            let Some(name) = e.file_name().to_str().map(str::to_string) else {
                continue;
            };
            if name.starts_with("seg-") && name.ends_with(".bin") {
                on_disk.push(name);
            } else if name.ends_with(QUARANTINE_SUFFIX) {
                self.quarantined += 1;
            }
        }
        on_disk.sort_unstable();
        let manifest_path = self.dir.join(MANIFEST);
        let names = match std::fs::read(&manifest_path) {
            // Corruption can land anywhere, including inside a UTF-8
            // sequence — that is still manifest damage and quarantines
            // like a failed CRC, not like a missing file.
            Ok(bytes) => match String::from_utf8(bytes)
                .map_err(|_| "not valid UTF-8".to_string())
                .and_then(|text| {
                    Self::parse_manifest(&text, &manifest_path).map_err(|e| e.to_string())
                }) {
                Ok((arity, names)) => {
                    self.arity = arity;
                    for stale in on_disk.iter().filter(|n| !names.contains(n)) {
                        let _ = std::fs::remove_file(self.dir.join(stale));
                    }
                    names
                }
                Err(why) => return Err(self.quarantine(MANIFEST, &why)),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => on_disk,
            Err(e) => return Err(storage_err("read manifest", &e)),
        };
        for (seg_no, name) in names.iter().enumerate() {
            let path = self.dir.join(name);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => return Err(storage_err("read segment", &e)),
            };
            // Integrity first: nothing in the file is trusted until the
            // trailer checks out over everything before it.
            if bytes.len() < HEADER + TRAILER {
                return Err(self.quarantine(name, "shorter than header + crc trailer"));
            }
            let body = codec::unseal(&bytes, |why| self.quarantine(name, &why))?;
            let mut d = Dec::new(body, JanusError::Storage);
            if d.u64()? != MAGIC {
                return Err(self.quarantine(name, "not a janus spill segment"));
            }
            let arity = d.usize()?;
            match self.arity {
                None => self.arity = Some(arity),
                Some(a) if a == arity => {}
                Some(a) => {
                    return Err(JanusError::Storage(format!(
                        "segment {} has arity {arity}, store has {a}",
                        path.display()
                    )));
                }
            }
            let rec_size = Self::record_size(arity);
            if !d.remaining().is_multiple_of(rec_size) {
                return Err(self.quarantine(name, "record area is not whole records"));
            }
            let records = d.remaining() / rec_size;
            for rec_no in 0..records {
                let kind = d.u64()?;
                let id = d.u64()?;
                d.take(8 * arity)?;
                match kind {
                    KIND_INSERT => {
                        if let Entry::Vacant(slot) = self.index_of.entry(id) {
                            slot.insert(self.slots.len());
                            self.slots.push(Slot {
                                id,
                                loc: Loc::Sealed {
                                    seg: seg_no as u32,
                                    rec: rec_no as u32,
                                },
                            });
                        }
                    }
                    KIND_DELETE => {
                        self.remove_slot(id);
                    }
                    other => {
                        return Err(JanusError::Storage(format!(
                            "segment {} record {rec_no} has unknown kind {other}",
                            path.display()
                        )));
                    }
                }
            }
            self.sealed_records += records as u64;
            let file = File::open(&path).map_err(|e| storage_err("open segment", &e))?;
            self.segments.push(Segment { file });
        }
        // File numbering continues past everything seen (parsed from the
        // `seg-NNNNNN.bin` names so compaction-era gaps are respected).
        self.next_seg_no = names
            .iter()
            .filter_map(|n| {
                n.strip_prefix("seg-")?
                    .strip_suffix(".bin")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .map_or(0, |m| m + 1)
            .max(names.len() as u64);
        self.seg_files = names;
        Ok(())
    }

    /// Drops `id` from the slot index with `swap_remove` semantics.
    /// Returns the removed slot.
    fn remove_slot(&mut self, id: RowId) -> Option<Slot> {
        let at = self.index_of.remove(&id)?;
        let slot = self.slots.swap_remove(at);
        if at < self.slots.len() {
            self.index_of.insert(self.slots[at].id, at);
        }
        Some(slot)
    }

    /// An encoder holding a segment header (magic + arity) with room for
    /// `records` records and the trailer.
    fn segment(arity: usize, records: usize) -> Enc {
        let mut e = Enc {
            buf: Vec::with_capacity(HEADER + records * Self::record_size(arity) + TRAILER),
        };
        e.u64(MAGIC);
        e.usize(arity);
        e
    }

    /// Appends one insert record.
    fn insert_record(e: &mut Enc, id: RowId, values: &[f64]) {
        e.u64(KIND_INSERT);
        e.u64(id);
        for &v in values {
            e.f64(v);
        }
    }

    /// Seals a segment (CRC32 trailer), writes the file via tmp + rename
    /// and reopens it for positioned reads. The `spill.segment.bytes`
    /// failpoint flips a bit *after* the checksum is computed — modeling
    /// media corruption that the next open's CRC verification must
    /// catch.
    fn publish_segment(&self, seg_no: u64, segment: Enc) -> Result<(String, File)> {
        let mut bytes = segment.buf;
        codec::seal(&mut bytes, 0);
        faults::maybe_corrupt("spill.segment.bytes", &mut bytes);
        let name = Self::seg_name(seg_no);
        let target = self.dir.join(&name);
        let tmp = self.dir.join(format!(".seg-{seg_no:06}.tmp"));
        std::fs::write(&tmp, &bytes).map_err(|e| storage_err("write segment", &e))?;
        std::fs::rename(&tmp, &target).map_err(|e| storage_err("publish segment", &e))?;
        let file = File::open(&target).map_err(|e| storage_err("reopen sealed segment", &e))?;
        Ok((name, file))
    }

    /// Seals the tail into the next segment file (tmp + rename), remaps
    /// tail locations to sealed ones, and republishes the manifest.
    fn seal_tail(&mut self) -> Result<()> {
        if self.tail_ops.is_empty() {
            return Ok(());
        }
        faults::check_storage("spill.seal")?;
        let arity = self.arity.expect("tail operations imply a known arity");
        let mut e = Self::segment(arity, self.tail_ops.len());
        for op in &self.tail_ops {
            match op {
                TailOp::Insert { id, val } => {
                    let start = *val as usize * arity;
                    Self::insert_record(&mut e, *id, &self.tail_values[start..start + arity]);
                }
                TailOp::Delete { id } => {
                    e.u64(KIND_DELETE);
                    e.u64(*id);
                    for _ in 0..arity {
                        e.u64(0);
                    }
                }
            }
        }
        let seg_no = self.next_seg_no;
        let (name, file) = self.publish_segment(seg_no, e)?;
        self.next_seg_no = seg_no + 1;
        // Position index of the new segment in the logical order.
        let seg_pos = self.segments.len();
        self.segments.push(Segment { file });
        self.seg_files.push(name);
        self.sealed_records += self.tail_ops.len() as u64;
        self.write_manifest()?;
        // Tail op `k` became record `k` of the sealed segment.
        for slot in &mut self.slots {
            if let Loc::Tail { op, .. } = slot.loc {
                slot.loc = Loc::Sealed {
                    seg: seg_pos as u32,
                    rec: op,
                };
            }
        }
        self.tail_ops.clear();
        self.tail_values.clear();
        self.tail_inserts = 0;
        Ok(())
    }

    /// Compacts the store: seals the tail, rewrites the live rows **in
    /// slot order** as pure insert records into fresh segment files,
    /// atomically swaps the manifest to the new listing, and deletes
    /// the replaced files. Slot order (and with it every seeded
    /// sampling stream) is untouched, and a reopened directory replays
    /// the pure-insert segments back to the identical live set and slot
    /// order. Returns `false` if there was nothing to drop.
    pub fn compact(&mut self) -> Result<bool> {
        self.seal_tail()?;
        let live = self.slots.len() as u64;
        // No deletes ever happened: every sealed record is a live
        // insert, already in canonical slot order.
        if self.sealed_records == live {
            return Ok(false);
        }
        faults::check_storage("spill.compact")?;
        let arity = self
            .arity
            .expect("dead records imply sealed segments and a known arity");
        let mut new_files = Vec::new();
        let mut new_names = Vec::new();
        let mut buf = Vec::with_capacity(arity);
        let mut start = 0usize;
        while start < self.slots.len() {
            let end = (start + self.seg_rows).min(self.slots.len());
            let mut e = Self::segment(arity, end - start);
            for k in start..end {
                let slot = self.slots[k];
                self.read_values_into(slot.loc, &mut buf)?;
                Self::insert_record(&mut e, slot.id, &buf);
            }
            let seg_no = self.next_seg_no;
            let (name, file) = self.publish_segment(seg_no, e)?;
            self.next_seg_no = seg_no + 1;
            new_files.push(Segment { file });
            new_names.push(name);
            start = end;
        }
        // Switch in memory, then commit on disk: the manifest rename is
        // the single atomic commit point. A crash before it reopens the
        // old listing (the new files are unlisted and swept); a crash
        // after it reopens the new listing (stale old files are swept).
        let old_names = std::mem::replace(&mut self.seg_files, new_names);
        self.segments = new_files;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.loc = Loc::Sealed {
                seg: (i / self.seg_rows) as u32,
                rec: (i % self.seg_rows) as u32,
            };
        }
        self.write_manifest()?;
        for name in old_names {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        self.records_dropped += self.sealed_records - live;
        self.sealed_records = live;
        self.compactions += 1;
        Ok(true)
    }

    /// Runs the auto-compaction trigger; call only when the tail is
    /// empty (right after a seal), so the dead-record ratio is exact.
    fn maybe_auto_compact(&mut self) -> Result<()> {
        debug_assert!(self.tail_ops.is_empty());
        let Some(threshold) = self.auto_compact_threshold else {
            return Ok(());
        };
        if self.sealed_records < self.compact_min_records.max(1) {
            return Ok(());
        }
        let dead = self.sealed_records - self.slots.len() as u64;
        if dead as f64 >= threshold * self.sealed_records as f64 {
            self.compact()?;
        }
        Ok(())
    }

    fn read_values_into(&self, loc: Loc, buf: &mut Vec<f64>) -> Result<()> {
        let arity = self.arity.expect("live slots imply a known arity");
        buf.clear();
        match loc {
            Loc::Tail { val, .. } => {
                let start = val as usize * arity;
                buf.extend_from_slice(&self.tail_values[start..start + arity]);
            }
            Loc::Sealed { seg, rec } => {
                faults::check_storage("spill.pread")?;
                let mut bytes = vec![0u8; 8 * arity];
                let offset = (HEADER + rec as usize * Self::record_size(arity) + 16) as u64;
                self.segments[seg as usize]
                    .file
                    .read_exact_at(&mut bytes, offset)
                    .map_err(|e| storage_err("read sealed segment record", &e))?;
                buf.extend(
                    bytes
                        .chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))),
                );
            }
        }
        Ok(())
    }
}

impl ArchiveBackend for SegmentedFileArchive {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn arity(&self) -> usize {
        self.arity.unwrap_or(0)
    }

    fn slot_of(&self, id: RowId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    fn insert(&mut self, id: RowId, values: &[f64]) -> Result<bool> {
        let Entry::Vacant(slot) = self.index_of.entry(id) else {
            return Ok(false);
        };
        check_arity(&mut self.arity, id, values)?;
        slot.insert(self.slots.len());
        let op = self.tail_ops.len() as u32;
        let val = self.tail_inserts;
        self.tail_values.extend_from_slice(values);
        self.tail_ops.push(TailOp::Insert { id, val });
        self.tail_inserts += 1;
        self.slots.push(Slot {
            id,
            loc: Loc::Tail { op, val },
        });
        if self.tail_ops.len() >= self.seg_rows {
            self.seal_tail()?;
            self.maybe_auto_compact()?;
        }
        Ok(true)
    }

    fn delete(&mut self, id: RowId) -> Result<Option<Row>> {
        let Some(slot) = self.remove_slot(id) else {
            return Ok(None);
        };
        let mut values = Vec::new();
        self.read_values_into(slot.loc, &mut values)?;
        self.tail_ops.push(TailOp::Delete { id });
        if self.tail_ops.len() >= self.seg_rows {
            self.seal_tail()?;
            self.maybe_auto_compact()?;
        }
        Ok(Some(Row::new(id, values)))
    }

    fn read_slot(&self, slot: usize, buf: &mut Vec<f64>) -> RowId {
        let s = self.slots[slot];
        // Scan paths are infallible by contract (see [`ArchiveBackend`]):
        // this segment passed CRC verification at open, so a failed read
        // here is the media dying mid-process.
        self.read_values_into(s.loc, buf)
            .expect("spill segment read failed; archive state is unrecoverable");
        s.id
    }

    fn compact(&mut self) -> Result<bool> {
        SegmentedFileArchive::compact(self)
    }

    fn spill_stats(&self) -> Option<SpillStats> {
        Some(self.stats())
    }

    fn name(&self) -> &'static str {
        "file-segmented"
    }
}

impl Drop for SegmentedFileArchive {
    fn drop(&mut self) {
        if self.ephemeral {
            // Spill caches clean up after themselves; close handles first.
            self.segments.clear();
            let _ = std::fs::remove_dir_all(&self.dir);
        } else {
            // A clean close loses nothing: best-effort seal of the tail.
            let _ = self.seal_tail();
        }
    }
}

fn storage_err(what: &str, e: &std::io::Error) -> JanusError {
    JanusError::Storage(format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveStore;
    use janus_common::Row;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "janus-spill-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn row(id: u64) -> Row {
        Row::new(id, vec![id as f64, (id * 3) as f64])
    }

    fn file_store(tag: &str, seg_rows: usize) -> (ArchiveStore, PathBuf) {
        let dir = scratch_dir(tag);
        let store = ArchiveStore::with_backend(Box::new(
            SegmentedFileArchive::open(&dir, seg_rows).unwrap(),
        ));
        (store, dir)
    }

    /// The catch-up prefix is row for row the head of the full shuffle,
    /// on both backends, whether it is empty, partial, whole or overlong.
    #[test]
    fn shuffled_prefix_is_the_head_of_the_full_shuffle() {
        let (mut file, dir) = file_store("prefix", 16);
        let mut mem = ArchiveStore::new();
        for i in 0..120u64 {
            mem.insert(row(i)).unwrap();
            file.insert(row(i)).unwrap();
        }
        for id in [5u64, 77, 119, 0] {
            mem.delete(id).unwrap();
            file.delete(id).unwrap();
        }
        for store in [&mem, &file] {
            let len = store.len();
            let full = store.shuffled(41);
            assert_eq!(full, mem.shuffled(41));
            for n in [0, 1, len / 10, len, len + 5] {
                assert_eq!(
                    store.shuffled_prefix(41, n),
                    full[..n.min(len)],
                    "{} prefix {n}",
                    store.backend_name()
                );
            }
        }
        assert!(ArchiveStore::new().shuffled_prefix(41, 3).is_empty());
        drop(file);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn file_backend_matches_memory_backend_exactly() {
        let (mut file, dir) = file_store("equiv", 16);
        let mut mem = ArchiveStore::new();
        for i in 0..200u64 {
            assert_eq!(mem.insert(row(i)), file.insert(row(i)));
        }
        for id in [3u64, 150, 7, 199, 0, 42] {
            assert_eq!(mem.delete(id), file.delete(id));
        }
        assert_eq!(mem.len(), file.len());
        assert_eq!(mem.to_rows(), file.to_rows(), "slot order identical");
        assert_eq!(mem.sample_distinct(25, 9), file.sample_distinct(25, 9));
        assert_eq!(
            mem.sample_with_replacement(40, 9),
            file.sample_with_replacement(40, 9)
        );
        assert_eq!(mem.shuffled(9), file.shuffled(9));
        assert_eq!(mem.get(11), file.get(11));
        assert_eq!(file.backend_name(), "file-segmented");
        drop(file);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sealed_rows_survive_reopen() {
        let dir = scratch_dir("reopen");
        {
            let mut store = SegmentedFileArchive::open(&dir, 8).unwrap();
            for i in 0..30u64 {
                assert!(ArchiveBackend::insert(&mut store, i, &[i as f64]).unwrap());
            }
            ArchiveBackend::delete(&mut store, 5).unwrap().unwrap();
            store.flush().unwrap();
            assert!(store.sealed_segments() >= 3);
        } // dropped cleanly: Drop seals any tail remainder

        let reopened =
            ArchiveStore::with_backend(Box::new(SegmentedFileArchive::open(&dir, 8).unwrap()));
        assert_eq!(reopened.len(), 29);
        assert!(!reopened.contains(5));
        assert_eq!(reopened.get(29).unwrap().values, vec![29.0]);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Replayed slot order equals the original's: a reopened store's
    /// seeded sampling streams continue bit-identically.
    #[test]
    fn reopen_preserves_slot_order_and_sampling_streams() {
        let dir = scratch_dir("order");
        let (rows_before, sample_before, shuffle_before) = {
            let mut store =
                ArchiveStore::with_backend(Box::new(SegmentedFileArchive::open(&dir, 4).unwrap()));
            for i in 0..50u64 {
                store.insert(row(i)).unwrap();
            }
            for id in [9u64, 0, 49, 20] {
                store.delete(id).unwrap();
            }
            (
                store.to_rows(),
                store.sample_distinct(10, 77),
                store.shuffled(78),
            )
            // drop seals the tail
        };
        let reopened =
            ArchiveStore::with_backend(Box::new(SegmentedFileArchive::open(&dir, 4).unwrap()));
        assert_eq!(reopened.to_rows(), rows_before);
        assert_eq!(reopened.sample_distinct(10, 77), sample_before);
        assert_eq!(reopened.shuffled(78), shuffle_before);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The crash-safety contract: a torn `.tmp` the crashed process
    /// never renamed is invisible after reopen (the sealed prefix is
    /// intact), while *in-place* damage to a sealed segment — appended
    /// garbage, a flipped bit — fails the CRC check and quarantines the
    /// file with a typed error instead of mis-parsing it.
    #[test]
    fn torn_tmp_is_invisible_and_sealed_damage_is_quarantined() {
        let dir = scratch_dir("torn");
        {
            let mut store = SegmentedFileArchive::open(&dir, 8).unwrap();
            for i in 0..16u64 {
                ArchiveBackend::insert(&mut store, i, &[i as f64, 1.0]).unwrap();
            }
            assert_eq!(store.sealed_segments(), 2);
            // Crash mid-seal: a torn tmp that was never renamed…
            std::fs::write(dir.join(".seg-000002.tmp"), b"torn-partial-write").unwrap();
            std::mem::forget(store); // …and no clean shutdown.
        }
        {
            let reopened = SegmentedFileArchive::open(&dir, 8).unwrap();
            assert_eq!(ArchiveBackend::len(&reopened), 16, "sealed prefix intact");
            assert!(reopened.slot_of(15).is_some());
        }
        // Damage a sealed file in place: the reopen must reject it with
        // a typed error and move it aside, never replay garbage.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("seg-000001.bin"))
                .unwrap();
            f.write_all(&[0xAB; 9]).unwrap();
        }
        match SegmentedFileArchive::open(&dir, 8) {
            Err(JanusError::Storage(msg)) => {
                assert!(msg.contains("quarantined"), "loud quarantine, got: {msg}")
            }
            Ok(_) => panic!("damaged segment must fail open"),
            Err(other) => panic!("damaged segment must quarantine, got {other:?}"),
        }
        assert!(
            dir.join("seg-000001.bin.quarantine").exists(),
            "corrupt segment renamed aside"
        );
        assert!(!dir.join("seg-000001.bin").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A flipped bit in the MANIFEST is rejected by its CRC line and the
    /// manifest is quarantined; the *next* open falls back to the intact
    /// name-sorted segment files and reports the quarantine in stats.
    #[test]
    fn corrupt_manifest_is_quarantined_and_counted() {
        let dir = scratch_dir("manifest-crc");
        {
            let mut store = SegmentedFileArchive::open(&dir, 8).unwrap();
            for i in 0..16u64 {
                ArchiveBackend::insert(&mut store, i, &[i as f64]).unwrap();
            }
            std::mem::forget(store);
        }
        let mut bytes = std::fs::read(dir.join(MANIFEST)).unwrap();
        bytes[10] ^= 0x04; // flip one bit mid-header
        std::fs::write(dir.join(MANIFEST), &bytes).unwrap();

        match SegmentedFileArchive::open(&dir, 8) {
            Err(JanusError::Storage(msg)) => {
                assert!(msg.contains("quarantined"), "loud quarantine, got: {msg}")
            }
            Ok(_) => panic!("corrupt manifest must fail open"),
            Err(other) => panic!("corrupt manifest must quarantine, got {other:?}"),
        }
        assert!(dir.join("MANIFEST.quarantine").exists());

        // Recovery path: without a manifest the CRC-valid segments are
        // adopted, and the quarantine stays loudly visible in stats.
        let store = SegmentedFileArchive::open(&dir, 8).unwrap();
        assert_eq!(ArchiveBackend::len(&store), 16);
        assert_eq!(store.stats().quarantined, 1);
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }

    // NOTE: tests that *install* a fault plan live in `tests/chaos.rs`,
    // serialized behind a mutex — the registry is process-global, so
    // installing one here would race with the parallel unit tests.

    #[test]
    fn ephemeral_store_cleans_its_directory() {
        let root = scratch_dir("ephemeral-root");
        std::fs::create_dir_all(&root).unwrap();
        let spill_dir;
        {
            let mut store = SegmentedFileArchive::create_ephemeral(&root, 4).unwrap();
            for i in 0..10u64 {
                ArchiveBackend::insert(&mut store, i, &[i as f64]).unwrap();
            }
            spill_dir = store.dir().to_path_buf();
            assert!(spill_dir.exists());
        }
        assert!(!spill_dir.exists(), "ephemeral spill dir removed on drop");
        let _ = std::fs::remove_dir_all(root);
    }

    /// Arity is fixed by the first insert for a store's lifetime — even
    /// across emptiness — on *both* backends: the same update sequence
    /// must be accepted or rejected identically regardless of
    /// representation.
    #[test]
    fn arity_stays_locked_after_emptying_on_both_backends() {
        let (mut file, dir) = file_store("arity", 8);
        let mut mem = ArchiveStore::new();
        for store in [&mut mem, &mut file] {
            assert!(store.insert(Row::new(1, vec![1.0, 2.0])).unwrap());
            assert!(store.delete(1).unwrap().is_some());
            let refit = store.insert(Row::new(2, vec![1.0, 2.0, 3.0]));
            assert!(
                matches!(refit, Err(JanusError::InvalidConfig(_))),
                "{}: arity must stay locked after emptying",
                store.backend_name()
            );
            assert!(!store.contains(2), "a rejected row is not stored");
            assert!(
                store.insert(Row::new(3, vec![4.0, 5.0])).unwrap(),
                "same arity ok"
            );
        }
        drop(file);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Compaction drops dead records and tombstones without moving a
    /// single slot: the live set, slot order, seeded sampling streams,
    /// and exact query scans are bit-identical before/after — and a
    /// *reopened* compacted directory replays to the same state as a
    /// never-compacted twin.
    #[test]
    fn compaction_preserves_slot_order_and_reopen_matches_uncompacted_twin() {
        let dir_a = scratch_dir("compact-a");
        let dir_b = scratch_dir("compact-b");
        let drive = |store: &mut SegmentedFileArchive| {
            for i in 0..300u64 {
                ArchiveBackend::insert(store, i, &[i as f64, (i * 3) as f64]).unwrap();
            }
            for i in (0..300u64).filter(|i| i % 3 != 0) {
                ArchiveBackend::delete(store, i).unwrap().unwrap();
            }
        };
        let mut compacted = SegmentedFileArchive::open(&dir_a, 16).unwrap();
        compacted.set_auto_compaction(None, 0);
        let mut twin = SegmentedFileArchive::open(&dir_b, 16).unwrap();
        twin.set_auto_compaction(None, 0);
        drive(&mut compacted);
        drive(&mut twin);

        let segments_before = compacted.sealed_segments();
        let stats_before = compacted.stats();
        assert!(
            stats_before.live_record_ratio() < 0.5,
            "churn left dead records"
        );
        assert!(compacted.compact().unwrap());
        let stats_after = compacted.stats();
        assert!(
            compacted.sealed_segments() < segments_before,
            "segment count shrinks"
        );
        assert_eq!(stats_after.sealed_records, 100);
        assert_eq!(stats_after.compactions, 1);
        assert!(stats_after.records_dropped >= 200);
        assert!(stats_after.live_record_ratio() == 1.0);

        // In-place state is untouched…
        let store_a = ArchiveStore::with_backend(Box::new(compacted));
        let store_b = ArchiveStore::with_backend(Box::new(twin));
        assert_eq!(store_a.to_rows(), store_b.to_rows());
        assert_eq!(
            store_a.sample_distinct(40, 31),
            store_b.sample_distinct(40, 31)
        );
        assert_eq!(store_a.shuffled(32), store_b.shuffled(32));
        drop(store_a);
        drop(store_b);

        // …and so is the state a *reopen* replays from the compacted
        // pure-insert segments, bit-compared against the never-compacted
        // twin's replay.
        let re_a =
            ArchiveStore::with_backend(Box::new(SegmentedFileArchive::open(&dir_a, 16).unwrap()));
        let re_b =
            ArchiveStore::with_backend(Box::new(SegmentedFileArchive::open(&dir_b, 16).unwrap()));
        assert_eq!(re_a.len(), 100);
        assert_eq!(re_a.to_rows(), re_b.to_rows());
        assert_eq!(re_a.sample_distinct(40, 33), re_b.sample_distinct(40, 33));
        assert_eq!(
            re_a.sample_with_replacement(64, 34),
            re_b.sample_with_replacement(64, 34)
        );
        assert_eq!(re_a.shuffled(35), re_b.shuffled(35));
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }

    /// The auto-trigger compacts once the dead-record ratio crosses the
    /// threshold, keeping the live-record ratio bounded under sustained
    /// insert+delete churn.
    #[test]
    fn auto_compaction_bounds_live_record_ratio_under_churn() {
        let dir = scratch_dir("auto-compact");
        let mut store = SegmentedFileArchive::open(&dir, 32).unwrap();
        // Steady-state churn: every insert is eventually deleted.
        for i in 0..4_000u64 {
            ArchiveBackend::insert(&mut store, i, &[i as f64]).unwrap();
            if i >= 200 {
                ArchiveBackend::delete(&mut store, i - 200)
                    .unwrap()
                    .unwrap();
            }
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "churn must trigger compaction");
        assert!(
            stats.live_record_ratio() > 0.2,
            "live-record ratio must stay bounded, got {}",
            stats.live_record_ratio()
        );
        // And the live set is exactly the last 200 inserts, in order.
        let s = ArchiveStore::with_backend(Box::new(store));
        let ids: Vec<u64> = s.to_rows().iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 200);
        assert!(ids.iter().all(|&id| id >= 3_800));
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Unlisted segment files — leftovers of a compaction that crashed
    /// before its manifest rename — are ignored and swept on reopen.
    #[test]
    fn stale_unlisted_segments_are_swept_on_reopen() {
        let dir = scratch_dir("stale");
        {
            let mut store = SegmentedFileArchive::open(&dir, 8).unwrap();
            for i in 0..16u64 {
                ArchiveBackend::insert(&mut store, i, &[i as f64]).unwrap();
            }
            std::mem::forget(store);
        }
        // Forge an unlisted (crashed-compaction) segment with a bogus id.
        let mut forged = Vec::new();
        forged.extend_from_slice(&MAGIC.to_le_bytes());
        forged.extend_from_slice(&1u64.to_le_bytes());
        forged.extend_from_slice(&KIND_INSERT.to_le_bytes());
        forged.extend_from_slice(&999u64.to_le_bytes());
        forged.extend_from_slice(&0.0f64.to_le_bytes());
        let stale = dir.join("seg-000077.bin");
        std::fs::write(&stale, &forged).unwrap();
        let store = SegmentedFileArchive::open(&dir, 8).unwrap();
        assert_eq!(ArchiveBackend::len(&store), 16, "forged segment ignored");
        assert!(store.slot_of(999).is_none());
        assert!(!stale.exists(), "stale segment swept");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn values_larger_than_the_tail_live_on_disk() {
        let (mut store, dir) = file_store("large", 32);
        // 10k rows with a 32-record tail: ≥ 99% of values are on disk.
        for i in 0..10_000u64 {
            store.insert(row(i)).unwrap();
        }
        let mut sum = 0.0;
        store.for_each_row(|r| sum += r.value(0));
        assert_eq!(sum, (0..10_000u64).map(|i| i as f64).sum::<f64>());
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }
}
