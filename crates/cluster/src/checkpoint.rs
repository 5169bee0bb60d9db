//! The serialized form of a whole-cluster checkpoint.
//!
//! A [`ClusterCheckpoint`] is everything a dead cluster needs to come
//! back *exactly* as it was: the router (policy, range bounds, rotation
//! cursor), the rebalance generation, the front-end request offset a
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
//!   shard's tail from its checkpointed offset.
//! * [`restore_detached`](crate::ClusterEngine::restore_detached) — the
//!   topics died with the process: rebuild on fresh topics, which is
//!   exact when the checkpoint was *tail-free* (applied == published,
//!   the invariant the live checkpointer enforces before saving).
//!
//! Checkpoints travel through the payload-agnostic
//! [`janus_storage::CheckpointStore`] as JSON, so any backend (memory,
//! files, and whatever the trait grows next) can carry them.

use crate::router::{ShardPolicy, ShardRouter};
use janus_common::{JanusError, Result, Row};
use janus_core::snapshot::SynopsisSnapshot;
use janus_core::JanusEngine;
use janus_storage::CheckpointStore;
use serde::{Deserialize, Serialize};

/// Which routing policy a [`RouterSnapshot`] captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// [`ShardPolicy::HashById`].
    HashById,
    /// [`ShardPolicy::RoundRobin`].
    RoundRobin,
    /// [`ShardPolicy::Range`].
    Range,
}

/// Serialized router state: the policy plus the routing state that is
/// not derivable from it (current range bounds after rebalances, the
/// round-robin rotation cursor).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouterSnapshot {
    /// Routing policy discriminant.
    pub kind: PolicyKind,
    /// Routing column (`Range` only; 0 otherwise).
    pub column: usize,
    /// Ascending inner slab boundaries (`Range` only; empty otherwise).
    /// Bounds are always finite, so they survive JSON exactly.
    pub bounds: Vec<f64>,
    /// Round-robin rotation cursor (0 under other policies).
    pub cursor: usize,
}

impl RouterSnapshot {
    /// Captures a router's full routing state.
    pub fn capture(router: &ShardRouter) -> Self {
        Self::from_policy(router.policy(), router.rotation_cursor())
    }

    /// Encodes a bare policy (plus rotation cursor) without a live
    /// router — what the bulk loader pins into its resume journal from a
    /// [`crate::RoutingSnapshot`].
    pub fn from_policy(policy: &ShardPolicy, cursor: usize) -> Self {
        let (kind, column, bounds) = match policy {
            ShardPolicy::HashById => (PolicyKind::HashById, 0, Vec::new()),
            ShardPolicy::RoundRobin => (PolicyKind::RoundRobin, 0, Vec::new()),
            ShardPolicy::Range { column, bounds } => (PolicyKind::Range, *column, bounds.clone()),
        };
        RouterSnapshot {
            kind,
            column,
            bounds,
            cursor,
        }
    }

    /// The policy this snapshot encodes.
    pub fn to_policy(&self) -> ShardPolicy {
        match self.kind {
            PolicyKind::HashById => ShardPolicy::HashById,
            PolicyKind::RoundRobin => ShardPolicy::RoundRobin,
            PolicyKind::Range => ShardPolicy::Range {
                column: self.column,
                bounds: self.bounds.clone(),
            },
        }
    }

    /// Rebuilds a router mid-rotation for `shards` shards.
    pub fn rebuild(&self, shards: usize) -> Result<ShardRouter> {
        let mut router = ShardRouter::new(self.to_policy(), shards)?;
        router.restore_cursor(self.cursor);
        Ok(router)
    }
}

/// One shard's checkpoint: synopsis + archive + topic offsets.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// Captures `engine`'s state as shard `shard`'s checkpoint. The caller
    /// holds the engine's lock and reads both offsets under it.
    pub fn capture(shard: usize, engine: &JanusEngine, applied: u64, published: u64) -> Self {
        ShardCheckpoint {
            shard,
            applied_offset: applied,
            published_offset: published,
            synopsis: engine.save_synopsis(),
            archive_rows: engine.export_rows(),
        }
    }
}

/// A consistent whole-cluster checkpoint.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterCheckpoint {
    /// Router state at checkpoint time.
    pub router: RouterSnapshot,
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

    /// Serializes to the JSON payload a [`CheckpointStore`] carries.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization is infallible")
    }

    /// Parses a stored payload.
    pub fn from_json(payload: &str) -> Result<Self> {
        serde_json::from_str(payload)
            .map_err(|e| JanusError::Storage(format!("corrupt checkpoint: {e}")))
    }

    /// Persists this checkpoint under `id`.
    pub fn save(&self, store: &dyn CheckpointStore, id: u64) -> Result<()> {
        store.put(id, &self.to_json())
    }

    /// Loads the newest checkpoint in `store`, returning its id too.
    pub fn load_latest(store: &dyn CheckpointStore) -> Result<(u64, Self)> {
        let id = store
            .latest_id()
            .ok_or_else(|| JanusError::Storage("no checkpoint to recover from".into()))?;
        let payload = store
            .get(id)
            .ok_or_else(|| JanusError::Storage(format!("checkpoint {id} vanished")))?;
        Ok((id, Self::from_json(&payload)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_snapshot_round_trips_every_policy() {
        for (policy, shards) in [
            (ShardPolicy::HashById, 4),
            (ShardPolicy::RoundRobin, 3),
            (
                ShardPolicy::Range {
                    column: 1,
                    bounds: vec![10.5, 20.25, 30.125],
                },
                4,
            ),
        ] {
            let mut router = ShardRouter::new(policy.clone(), shards).unwrap();
            // Advance the rotation so the cursor is non-trivial.
            for i in 0..5u64 {
                router.route(&Row::new(i, vec![15.0, 15.0]));
            }
            let snap = RouterSnapshot::capture(&router);
            let rebuilt = snap.rebuild(shards).unwrap();
            assert_eq!(rebuilt.policy(), &policy);
            assert_eq!(rebuilt.rotation_cursor(), router.rotation_cursor());
            // And the snapshot itself survives JSON.
            let json = serde_json::to_string(&snap).unwrap();
            let back: RouterSnapshot = serde_json::from_str(&json).unwrap();
            assert_eq!(back.bounds, snap.bounds);
            assert_eq!(back.cursor, snap.cursor);
            assert_eq!(back.kind, snap.kind);
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        assert!(ClusterCheckpoint::from_json("not json").is_err());
        assert!(ClusterCheckpoint::from_json("{\"router\": 3}").is_err());
    }
}
