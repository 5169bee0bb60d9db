//! Durable checkpoint storage — the recovery substrate of a sharded
//! deployment.
//!
//! A crashed cluster loses every in-memory synopsis; what survives is
//! whatever was written *outside* the process: the request topics (the
//! Kafka side of §3.2) and the checkpoints saved here. This module keeps
//! the store deliberately payload-agnostic — a [`CheckpointStore`] maps a
//! monotonically-increasing checkpoint id to an opaque byte payload
//! (`janus-cluster` stores its [`ClusterCheckpoint`] as a CRC-sealed
//! [`janus_common::codec`] blob) — so the same trait-shaped API can grow
//! further backends (object storage, mmap) without the cluster layer
//! changing, mirroring how [`crate::archive`] seeds the multi-backend
//! direction for cold data.
//!
//! Two backends ship in-tree:
//!
//! * [`MemoryCheckpointStore`] — a lock-protected map; the unit-test and
//!   single-process default.
//! * [`FileCheckpointStore`] — one file per checkpoint in a directory, written via temp-file + rename so a crash mid-write never
//!   leaves a torn latest checkpoint; reopening the directory from a new
//!   process recovers everything.
//!
//! [`ClusterCheckpoint`]: https://docs.rs/janus-cluster

use janus_common::{JanusError, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Keyed, durable storage for encoded checkpoints.
///
/// Ids are chosen by the writer and expected to increase over time;
/// [`CheckpointStore::latest_id`] is what recovery starts from. A `put`
/// to an existing id overwrites it (checkpointing is idempotent per id).
pub trait CheckpointStore: Send + Sync {
    /// Persists `payload` under `id`, overwriting any previous payload
    /// with the same id.
    fn put(&self, id: u64, payload: &[u8]) -> Result<()>;

    /// The payload stored under `id`, if any.
    fn get(&self, id: u64) -> Option<Vec<u8>>;

    /// All stored checkpoint ids, ascending.
    fn ids(&self) -> Vec<u64>;

    /// Deletes the checkpoint stored under `id` (absent ids are fine).
    fn remove(&self, id: u64) -> Result<()>;

    /// The newest checkpoint id — where recovery starts.
    fn latest_id(&self) -> Option<u64> {
        self.ids().last().copied()
    }

    /// Deletes all but the newest `keep` checkpoints — the retention
    /// sweep a periodic checkpointer runs after each successful save.
    fn prune(&self, keep: usize) -> Result<()> {
        let ids = self.ids();
        let drop_count = ids.len().saturating_sub(keep);
        for id in ids.into_iter().take(drop_count) {
            self.remove(id)?;
        }
        Ok(())
    }
}

/// In-memory [`CheckpointStore`]: a `BTreeMap` behind a lock. Durable
/// only for the process lifetime — which is exactly what tests and
/// single-process "crash" simulations (drop the cluster, keep the store)
/// need.
#[derive(Default)]
pub struct MemoryCheckpointStore {
    slots: RwLock<BTreeMap<u64, Vec<u8>>>,
}

impl MemoryCheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn put(&self, id: u64, payload: &[u8]) -> Result<()> {
        self.slots.write().insert(id, payload.to_vec());
        Ok(())
    }

    fn get(&self, id: u64) -> Option<Vec<u8>> {
        self.slots.read().get(&id).cloned()
    }

    fn ids(&self) -> Vec<u64> {
        self.slots.read().keys().copied().collect()
    }

    fn remove(&self, id: u64) -> Result<()> {
        self.slots.write().remove(&id);
        Ok(())
    }
}

/// File-backed [`CheckpointStore`]: `checkpoint-<id>.bin` files in one
/// directory. Writes go to a temp file first and are renamed into place,
/// so concurrent readers (and a crash mid-write) only ever see complete
/// checkpoints. The id space is recovered from the directory listing, so
/// reopening the same path in a fresh process resumes where the last one
/// stopped.
pub struct FileCheckpointStore {
    dir: PathBuf,
}

impl FileCheckpointStore {
    /// Opens (creating if needed) a checkpoint directory. Sweeps any
    /// `.checkpoint-*.tmp` orphans a previous process left behind by
    /// crashing between the temp write and the rename — they were never
    /// published, so deleting them is always safe, and it stops torn
    /// payloads from accumulating across crash/recover cycles.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| storage_err("create checkpoint dir", &e))?;
        let store = FileCheckpointStore { dir };
        store.sweep_orphans()?;
        Ok(store)
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, id: u64) -> PathBuf {
        self.dir.join(format!("checkpoint-{id:020}.bin"))
    }

    fn id_of(name: &str) -> Option<u64> {
        name.strip_prefix("checkpoint-")?
            .strip_suffix(".bin")?
            .parse()
            .ok()
    }

    /// Deletes every unpublished `.checkpoint-*.tmp` file in the
    /// directory. A temp file is only ever an in-flight [`Self::put`];
    /// one that outlives its put is a crash leftover.
    fn sweep_orphans(&self) -> Result<()> {
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| storage_err("list checkpoint dir", &e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".checkpoint-") && name.ends_with(".tmp") {
                match std::fs::remove_file(entry.path()) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(storage_err("sweep orphaned checkpoint temp", &e)),
                }
            }
        }
        Ok(())
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn put(&self, id: u64, payload: &[u8]) -> Result<()> {
        let target = self.path_of(id);
        let tmp = self.dir.join(format!(".checkpoint-{id:020}.tmp"));
        janus_common::faults::check_storage("checkpoint.write")?;
        std::fs::write(&tmp, payload).map_err(|e| storage_err("write checkpoint", &e))?;
        // A fault here models a crash between the temp write and the
        // rename: the torn temp file stays on disk for the orphan sweep,
        // exactly like a real kill would leave it.
        janus_common::faults::check_storage("checkpoint.rename")?;
        std::fs::rename(&tmp, &target).map_err(|e| storage_err("publish checkpoint", &e))
    }

    fn get(&self, id: u64) -> Option<Vec<u8>> {
        std::fs::read(self.path_of(id)).ok()
    }

    fn ids(&self) -> Vec<u64> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut ids: Vec<u64> = entries
            .flatten()
            .filter_map(|e| Self::id_of(e.file_name().to_str()?))
            .collect();
        ids.sort_unstable();
        ids
    }

    fn remove(&self, id: u64) -> Result<()> {
        match std::fs::remove_file(self.path_of(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(storage_err("remove checkpoint", &e)),
        }
    }

    /// The default retention sweep, plus deletion of orphaned temp
    /// files: `prune` runs right after each successful save — the one
    /// moment no put is in flight — so any `.tmp` present then is a
    /// leftover from an earlier failed put and gets collected here
    /// instead of surviving until the next process restart.
    fn prune(&self, keep: usize) -> Result<()> {
        let ids = self.ids();
        let drop_count = ids.len().saturating_sub(keep);
        for id in ids.into_iter().take(drop_count) {
            self.remove(id)?;
        }
        self.sweep_orphans()
    }
}

fn storage_err(what: &str, e: &std::io::Error) -> JanusError {
    JanusError::Storage(format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "janus-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn exercise(store: &dyn CheckpointStore) {
        assert!(store.latest_id().is_none());
        store.put(0, b"zero").unwrap();
        store.put(2, b"two").unwrap();
        store.put(1, b"one").unwrap();
        assert_eq!(store.ids(), vec![0, 1, 2]);
        assert_eq!(store.latest_id(), Some(2));
        assert_eq!(store.get(1).as_deref(), Some(&b"one"[..]));
        assert!(store.get(9).is_none());
        store.put(1, b"one-v2").unwrap();
        assert_eq!(
            store.get(1).as_deref(),
            Some(&b"one-v2"[..]),
            "put overwrites"
        );
        store.remove(0).unwrap();
        store.remove(0).unwrap(); // absent id is fine
        assert_eq!(store.ids(), vec![1, 2]);
    }

    #[test]
    fn memory_store_contract() {
        exercise(&MemoryCheckpointStore::new());
    }

    #[test]
    fn file_store_contract() {
        let dir = scratch_dir("contract");
        exercise(&FileCheckpointStore::open(&dir).unwrap());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The property recovery depends on: drop the store handle (process
    /// "exit"), reopen the same directory from a fresh handle (process
    /// "start"), and everything — ids, ordering, payloads — is still
    /// there.
    #[test]
    fn file_store_survives_simulated_process_reopen() {
        let dir = scratch_dir("reopen");
        {
            let store = FileCheckpointStore::open(&dir).unwrap();
            store.put(7, b"gen 7").unwrap();
            store.put(12, b"gen 12").unwrap();
        } // handle dropped: nothing of the store survives in memory

        let reopened = FileCheckpointStore::open(&dir).unwrap();
        assert_eq!(reopened.ids(), vec![7, 12]);
        assert_eq!(reopened.latest_id(), Some(12));
        assert_eq!(reopened.get(12).as_deref(), Some(&b"gen 12"[..]));
        assert_eq!(reopened.get(7).as_deref(), Some(&b"gen 7"[..]));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prune_keeps_only_the_newest() {
        let store = MemoryCheckpointStore::new();
        for id in 0..6 {
            store.put(id, b"x").unwrap();
        }
        store.prune(2).unwrap();
        assert_eq!(store.ids(), vec![4, 5]);
        store.prune(5).unwrap(); // keeping more than exist is a no-op
        assert_eq!(store.ids(), vec![4, 5]);
    }

    #[test]
    fn torn_writes_are_invisible() {
        let dir = scratch_dir("torn");
        let store = FileCheckpointStore::open(&dir).unwrap();
        store.put(3, b"good").unwrap();
        // A crash mid-write leaves a temp file behind; it must not be
        // listed as a checkpoint.
        std::fs::write(store.dir().join(".checkpoint-004.tmp"), "partial").unwrap();
        std::fs::write(store.dir().join("unrelated.txt"), "noise").unwrap();
        assert_eq!(store.ids(), vec![3]);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Crash between temp-write and rename, then recover: reopening the
    /// directory collects the orphaned temp file while published
    /// checkpoints and unrelated files survive untouched.
    #[test]
    fn reopen_sweeps_orphaned_temp_files() {
        let dir = scratch_dir("sweep-open");
        {
            let store = FileCheckpointStore::open(&dir).unwrap();
            store.put(3, b"good").unwrap();
            std::fs::write(store.dir().join(".checkpoint-004.tmp"), "torn").unwrap();
            std::fs::write(store.dir().join("unrelated.txt"), "noise").unwrap();
        } // "crash"

        let reopened = FileCheckpointStore::open(&dir).unwrap();
        assert!(
            !reopened.dir().join(".checkpoint-004.tmp").exists(),
            "orphaned temp must be swept on open"
        );
        assert_eq!(reopened.get(3).as_deref(), Some(&b"good"[..]));
        assert!(
            reopened.dir().join("unrelated.txt").exists(),
            "sweep must only touch checkpoint temp files"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The retention sweep collects orphaned temp files too, so a failed
    /// put inside a long-lived process doesn't leak its temp until the
    /// next restart.
    #[test]
    fn prune_collects_orphaned_temp_files() {
        let dir = scratch_dir("sweep-prune");
        let store = FileCheckpointStore::open(&dir).unwrap();
        for id in 0..4 {
            store.put(id, b"x").unwrap();
        }
        std::fs::write(store.dir().join(".checkpoint-009.tmp"), "torn").unwrap();
        store.prune(2).unwrap();
        assert_eq!(store.ids(), vec![2, 3]);
        assert!(
            !store.dir().join(".checkpoint-009.tmp").exists(),
            "prune must collect orphaned temps"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
