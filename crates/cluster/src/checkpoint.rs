//! The persisted form of a whole-cluster checkpoint.
//!
//! A [`ClusterCheckpoint`] is everything a dead cluster needs to come
//! back *exactly* as it was: the routing policy (range bounds as the
//! last rebalance drew them), the rebalance generation, the front-end request offset a
//! [`crate::live::LiveCluster`] had fully processed, and one
//! [`ShardCheckpoint`] per shard pairing the engine's bit-faithful
//! [`SynopsisSnapshot`] with its archival rows (in archive order — order
//! is state, see [`janus_core::JanusEngine::restore`]) and its topic
//! offsets. Restoration then has two modes, both on
//! [`crate::ClusterEngine`]:
//!
//! * [`restore`](crate::ClusterEngine::restore) — the shard topics
//!   survived (they are durable infrastructure in the paper's Kafka
//!   deployment, and `Arc`-shared here): reattach them and replay each
//!   shard's tail from its checkpointed offset. The topics retain that
//!   tail for the newest checkpoint only; an older one whose tail was
//!   truncated fails with a typed [`JanusError::Storage`].
//! * [`restore_detached`](crate::ClusterEngine::restore_detached) — the
//!   topics died with the process: rebuild on fresh topics, which is
//!   exact when the checkpoint was *tail-free* (applied == published,
//!   the invariant the live checkpointer enforces before saving).
//!
//! Checkpoints travel through the payload-agnostic
//! [`janus_storage::CheckpointStore`] as CRC-sealed
//! [`janus_common::codec`] blobs, so any backend (memory, files, and
//! whatever the trait grows next) can carry them and a flipped bit is a
//! typed [`JanusError::Storage`], never a different synopsis.

use crate::router::ShardPolicy;
use janus_common::codec::{self, Dec, Decode, Enc, Encode};
use janus_common::{JanusError, Result, Row};
use janus_core::snapshot::SynopsisSnapshot;
use janus_storage::CheckpointStore;

/// Blob tags: a blob of the wrong kind fails to decode. A tag changes
/// with its body's layout, so a blob of an older layout is refused
/// rather than misread.
const POLICY_TAG: &[u8; 4] = b"JPOL";
const SHARD_TAG: &[u8; 4] = b"JSHD";
const CLUSTER_TAG: &[u8; 4] = b"JCK2";

impl ShardPolicy {
    /// Encodes to a CRC-sealed blob — what the bulk loader pins into its
    /// resume journal.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_blob(POLICY_TAG, self)
    }

    /// Decodes a blob written by [`ShardPolicy::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        codec::from_blob(POLICY_TAG, bytes, "shard policy")
    }
}

/// One shard's checkpoint: synopsis + archive + topic offsets, built by
/// [`crate::host::ShardHost::capture`].
#[derive(Clone, Debug)]
pub struct ShardCheckpoint {
    /// Shard index.
    pub shard: usize,
    /// Topic offset the shard engine had applied.
    pub applied_offset: u64,
    /// Topic end offset at checkpoint time (applied == published means
    /// the checkpoint is tail-free and valid for detached restore).
    pub published_offset: u64,
    /// Bit-faithful engine snapshot (tree, sample, RNG words, catch-up).
    pub synopsis: SynopsisSnapshot,
    /// The shard's archival rows, in archive order.
    pub archive_rows: Vec<Row>,
}

impl ShardCheckpoint {
    /// Encodes to a CRC-sealed blob — the payload of a shipped
    /// `Frame::Checkpoint`.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_blob(SHARD_TAG, self)
    }

    /// Decodes a blob written by [`ShardCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        codec::from_blob(SHARD_TAG, bytes, "shard checkpoint")
    }
}

/// A consistent whole-cluster checkpoint.
#[derive(Clone, Debug)]
pub struct ClusterCheckpoint {
    /// Routing policy at checkpoint time.
    pub policy: ShardPolicy,
    /// Rebalance generation at checkpoint time. A checkpoint is only
    /// valid for topic replay while no later rebalance has redrawn the
    /// bounds (migrations move rows engine-to-engine without topic
    /// records); take a fresh checkpoint after every rebalance.
    pub rebalance_generation: u64,
    /// The unified request-log offset a live front end had fully
    /// processed when this checkpoint was cut; recovery resumes request
    /// consumption here. Zero for checkpoints of synchronous engines.
    pub request_offset: u64,
    /// Per-shard checkpoints, in shard order.
    pub shards: Vec<ShardCheckpoint>,
}

impl ClusterCheckpoint {
    /// Rows held across all shard archives.
    pub fn population(&self) -> usize {
        self.shards.iter().map(|s| s.archive_rows.len()).sum()
    }

    /// True when every shard's topic was fully applied at checkpoint
    /// time — the precondition for restoring without the original topics.
    pub fn is_tail_free(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.applied_offset == s.published_offset)
    }

    /// Encodes to the sealed blob a [`CheckpointStore`] carries.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_blob(CLUSTER_TAG, self)
    }

    /// Decodes a stored blob; any corruption is [`JanusError::Storage`].
    pub fn from_bytes(payload: &[u8]) -> Result<Self> {
        codec::from_blob(CLUSTER_TAG, payload, "checkpoint")
    }

    /// Persists this checkpoint under `id`.
    pub fn save(&self, store: &dyn CheckpointStore, id: u64) -> Result<()> {
        store.put(id, &self.to_bytes())
    }

    /// Loads the newest checkpoint in `store`, returning its id too.
    pub fn load_latest(store: &dyn CheckpointStore) -> Result<(u64, Self)> {
        let id = store
            .latest_id()
            .ok_or_else(|| JanusError::Storage("no checkpoint to recover from".into()))?;
        let payload = store
            .get(id)
            .ok_or_else(|| JanusError::Storage(format!("checkpoint {id} vanished")))?;
        Ok((id, Self::from_bytes(&payload)?))
    }
}

impl Encode for ShardPolicy {
    fn encode(&self, e: &mut Enc) {
        match self {
            ShardPolicy::HashById => e.u8(0),
            ShardPolicy::Range { column, bounds } => {
                e.u8(2);
                e.usize(*column);
                bounds.encode(e);
            }
        }
    }
}

impl Decode for ShardPolicy {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(match d.u8()? {
            0 => ShardPolicy::HashById,
            2 => ShardPolicy::Range {
                column: d.usize()?,
                bounds: d.get()?,
            },
            other => return Err(d.error(format!("invalid shard-policy tag {other}"))),
        })
    }
}

impl Encode for ShardCheckpoint {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.shard);
        e.u64(self.applied_offset);
        e.u64(self.published_offset);
        self.synopsis.encode(e);
        self.archive_rows.encode(e);
    }
}

impl Decode for ShardCheckpoint {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(ShardCheckpoint {
            shard: d.usize()?,
            applied_offset: d.u64()?,
            published_offset: d.u64()?,
            synopsis: d.get()?,
            archive_rows: d.get()?,
        })
    }
}

impl Encode for ClusterCheckpoint {
    fn encode(&self, e: &mut Enc) {
        self.policy.encode(e);
        e.u64(self.rebalance_generation);
        e.u64(self.request_offset);
        self.shards.encode(e);
    }
}

impl Decode for ClusterCheckpoint {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(ClusterCheckpoint {
            policy: d.get()?,
            rebalance_generation: d.u64()?,
            request_offset: d.u64()?,
            shards: d.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_policy_round_trips_every_variant() {
        for policy in [
            ShardPolicy::HashById,
            ShardPolicy::Range {
                column: 1,
                bounds: vec![10.5, 20.25, 30.125],
            },
        ] {
            assert_eq!(ShardPolicy::from_bytes(&policy.to_bytes()).unwrap(), policy);
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        for payload in [
            &b""[..],
            b"not a checkpoint",
            &ShardPolicy::HashById.to_bytes(),
        ] {
            assert!(matches!(
                ClusterCheckpoint::from_bytes(payload),
                Err(JanusError::Storage(_))
            ));
        }
    }

    /// `tag ‖ body` sealed by hand, for layouts no type encodes any more.
    fn blob(tag: &[u8; 4], body: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::default();
        e.buf.extend_from_slice(tag);
        body(&mut e);
        codec::seal(&mut e.buf, 0);
        e.buf
    }

    #[test]
    fn blobs_of_the_cursor_layout_fail_typed() {
        // The old cluster checkpoint: policy, rotation cursor, then the
        // fields that remain.
        let old_checkpoint = blob(b"JCKP", |e| {
            ShardPolicy::HashById.encode(e);
            e.usize(3);
            e.u64(0);
            e.u64(0);
            Vec::<ShardCheckpoint>::new().encode(e);
        });
        // The old journal policy blob: policy plus rotation cursor.
        let old_policy = blob(b"JRTR", |e| {
            ShardPolicy::HashById.encode(e);
            e.usize(3);
        });
        // A policy body naming round-robin's retired tag 1.
        let retired_tag = blob(POLICY_TAG, |e| e.u8(1));
        assert!(matches!(
            ClusterCheckpoint::from_bytes(&old_checkpoint),
            Err(JanusError::Storage(_))
        ));
        for bytes in [old_policy, retired_tag] {
            assert!(matches!(
                ShardPolicy::from_bytes(&bytes),
                Err(JanusError::Storage(_))
            ));
        }
    }
}
