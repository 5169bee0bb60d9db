//! # janus-net
//!
//! The networked deployment of the JanusAQP cluster: shard engines
//! hosted in separate node processes, coordinated over a length-prefixed
//! binary TCP protocol.
//!
//! | module | contents |
//! |---|---|
//! | [`wire`] | the versioned wire protocol: [`wire::Frame`] (publish / scatter-query / checkpoint / heartbeat / host frames), the byte-level codec (LE integers, `f64::to_bits` so estimates cross the wire bit-exactly), [`wire::FrameDecoder`] for split reads, and blocking [`wire::read_frame`] / [`wire::write_frame`] / [`wire::write_encoded`] helpers with an allocation-guarded length check |
//! | [`node`] | [`node::NodeServer`]: the shard-hosting daemon — one `ShardHost` per shard; the connection thread that decodes a publish batch (flat, into a reused [`wire::FlatBatch`]) applies it by reference (`ShardHost::apply_from`, idempotent by offset, a gap refused) and acks the applied offset; queries behind the replica freshness gate, and checkpoint export/install |
//! | [`directory`] | [`directory::Directory`]: shard → node placement with followers pinned to distinct failure domains, freshest-follower promotion on node failure (`janus_cluster::host::promote`, the rule `fail_shard` calls too), loud lost-shard tracking, and a CRC-sealed snapshot blob (not persisted yet) |
//! | [`remote`] | [`remote::RemoteCluster`]: the coordinator front end presenting the in-process cluster's API (publish / query / drain / backpressure / move_shard) over per-node shipper threads, which encode each batch straight from the topic's in-place read, and a heartbeat failure detector |
//!
//! ## Deployment shape
//!
//! ```text
//!   publishers ──▶ RemoteCluster (coordinator)
//!                  ├─ router + row directory   (placement identical to ClusterEngine)
//!                  ├─ per-shard topics          (durable source of truth, truncated below every copy's apply)
//!                  ├─ directory                 (placement + liveness, in memory)
//!                  └─ shipper threads ──TCP──▶ janus-node daemons
//!                                               └─ shard engines, applied on the connection threads
//! ```
//!
//! Acknowledged publishes are durable in the coordinator topics before
//! any node applies them, so killing a node loses nothing while a copy
//! of each shard survives: the directory promotes the freshest follower
//! and the shippers re-ship its tail, converging to the same bit-exact
//! state the in-process cluster reaches — the equivalence
//! `tests/remote_cluster.rs` and `examples/cluster_nodes.rs` pin down.
//! A shard whose every copy died is lost, and queries over it fail.

pub mod directory;
pub mod node;
pub mod remote;
pub mod wire;

pub use directory::{Directory, DirectorySnapshot, NodeDesc, ShardHosts};
pub use node::{NodeConfig, NodeServer};
pub use remote::{local_fleet, RemoteCluster, RemoteConfig, RemoteStats, RetryPolicy};
pub use wire::{Frame, FrameDecoder, QueryOutcome, MAX_FRAME_LEN, WIRE_VERSION};
