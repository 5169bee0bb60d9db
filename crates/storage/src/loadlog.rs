//! The bulk-load progress journal — exactly-once restart for killed
//! loads.
//!
//! A bulk loader streams chunk files into shard topics; if the process
//! dies mid-load, a naive restart would re-publish every row (duplicates
//! rejected, but millions of wasted appends attempts) or skip files whose
//! tail was never published. [`LoadProgress`] records, per input file,
//! how many rows the loader has *attempted to publish per shard* —
//! counts are recorded only after the publish call returns, so a crash
//! between publish and journal flush can only under-count, and the
//! resumed load's re-publishes are rejected as duplicates by the
//! cluster's directory. The journal also pins the routing snapshot
//! (generation plus the opaque encoded policy) the claims were made
//! under: a resumed load re-partitions with the *journal's* snapshot, so
//! per-file skip counts stay aligned with the original claim boundaries
//! even if the live cluster has rebalanced since.
//!
//! Journals travel through the payload-agnostic [`CheckpointStore`] as
//! CRC-sealed [`janus_common::codec`] blobs, like cluster checkpoints do
//! — a file-backed store makes a load resumable across processes.

use crate::checkpoint::CheckpointStore;
use janus_common::codec::{self, Dec, Decode, Enc, Encode};
use janus_common::{JanusError, Result};

/// Blob tag of a stored [`LoadProgress`].
const TAG: &[u8; 4] = b"JLOG";

/// Publish progress of one input file: rows attempted per shard.
#[derive(Clone, Debug, PartialEq)]
pub struct FileLoadProgress {
    /// File name (relative to the dataset directory).
    pub file: String,
    /// Rows this loader has attempted to publish from this file, per
    /// shard in shard order. "Attempted" = the publish call returned,
    /// whether the row was appended or rejected as a duplicate — either
    /// way it must not be re-claimed on resume.
    pub published: Vec<u64>,
}

/// The whole journal: routing pin plus per-file progress.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadProgress {
    /// Rebalance generation of the routing snapshot the file claims were
    /// computed under.
    pub generation: u64,
    /// Opaque encoded routing policy (the cluster layer's `ShardPolicy`
    /// blob). Storage carries it without interpreting it.
    pub policy: Vec<u8>,
    /// Per-file progress, in first-touch order.
    pub files: Vec<FileLoadProgress>,
}

impl LoadProgress {
    /// An empty journal pinned to a routing snapshot.
    pub fn new(generation: u64, policy: Vec<u8>) -> Self {
        LoadProgress {
            generation,
            policy,
            files: Vec::new(),
        }
    }

    /// Adds `rows` attempted publishes of `file` toward `shard` (journal
    /// grows `file`'s entry on first touch; `shards` sizes it).
    pub fn record(&mut self, file: &str, shard: usize, shards: usize, rows: u64) {
        let entry = match self.files.iter_mut().find(|f| f.file == file) {
            Some(entry) => entry,
            None => {
                self.files.push(FileLoadProgress {
                    file: file.to_string(),
                    published: vec![0; shards],
                });
                self.files.last_mut().expect("just pushed")
            }
        };
        entry.published[shard] += rows;
    }

    /// Per-shard attempted counts for `file`, if the journal has seen it.
    pub fn progress(&self, file: &str) -> Option<&[u64]> {
        self.files
            .iter()
            .find(|f| f.file == file)
            .map(|f| f.published.as_slice())
    }

    /// Total rows attempted across all files and shards.
    pub fn total_published(&self) -> u64 {
        self.files
            .iter()
            .map(|f| f.published.iter().sum::<u64>())
            .sum()
    }

    /// Encodes to the sealed blob a [`CheckpointStore`] carries.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_blob(TAG, self)
    }

    /// Decodes a stored blob; any corruption is [`JanusError::Storage`].
    pub fn from_bytes(payload: &[u8]) -> Result<Self> {
        codec::from_blob(TAG, payload, "load journal")
    }

    /// Persists this journal under `id`.
    pub fn save(&self, store: &dyn CheckpointStore, id: u64) -> Result<()> {
        store.put(id, &self.to_bytes())
    }

    /// Loads the newest journal in `store`, returning its id too.
    /// `Ok(None)` when the store is empty (a fresh load).
    pub fn load_latest(store: &dyn CheckpointStore) -> Result<Option<(u64, Self)>> {
        let Some(id) = store.latest_id() else {
            return Ok(None);
        };
        let payload = store
            .get(id)
            .ok_or_else(|| JanusError::Storage(format!("load journal {id} vanished")))?;
        Ok(Some((id, Self::from_bytes(&payload)?)))
    }
}

impl Encode for FileLoadProgress {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.file);
        self.published.encode(e);
    }
}

impl Decode for FileLoadProgress {
    const MIN_LEN: usize = 8;
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(FileLoadProgress {
            file: d.str()?,
            published: d.get()?,
        })
    }
}

impl Encode for LoadProgress {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.generation);
        e.bytes(&self.policy);
        self.files.encode(e);
    }
}

impl Decode for LoadProgress {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(LoadProgress {
            generation: d.u64()?,
            policy: d.bytes()?,
            files: d.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemoryCheckpointStore;

    #[test]
    fn record_and_query_round_trip() {
        let mut journal = LoadProgress::new(3, b"range".to_vec());
        journal.record("chunk-00000.jrc", 1, 4, 100);
        journal.record("chunk-00000.jrc", 1, 4, 28);
        journal.record("chunk-00001.jrc", 0, 4, 7);
        assert_eq!(
            journal.progress("chunk-00000.jrc"),
            Some(&[0, 128, 0, 0][..])
        );
        assert_eq!(journal.progress("chunk-00001.jrc"), Some(&[7, 0, 0, 0][..]));
        assert_eq!(journal.progress("chunk-00002.jrc"), None);
        assert_eq!(journal.total_published(), 135);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut journal = LoadProgress::new(9, b"policy-blob".to_vec());
        journal.record("a", 2, 3, 41);
        journal.record("b", 0, 3, 1);
        let parsed = LoadProgress::from_bytes(&journal.to_bytes()).unwrap();
        assert_eq!(parsed, journal);
        assert!(matches!(
            LoadProgress::from_bytes(b"{nope"),
            Err(JanusError::Storage(_))
        ));
    }

    #[test]
    fn store_round_trip_and_empty_store() {
        let store = MemoryCheckpointStore::new();
        assert!(LoadProgress::load_latest(&store).unwrap().is_none());
        let mut journal = LoadProgress::new(0, Vec::new());
        journal.record("a", 0, 2, 10);
        journal.save(&store, 1).unwrap();
        journal.record("a", 1, 2, 5);
        journal.save(&store, 2).unwrap();
        let (id, latest) = LoadProgress::load_latest(&store).unwrap().unwrap();
        assert_eq!(id, 2);
        assert_eq!(latest, journal);
    }
}
