//! # janus-storage
//!
//! Storage substrate for JanusAQP. The paper implements JanusAQP on Apache
//! Kafka (§3.2, Appendix A); this crate reproduces the abstractions the
//! system actually depends on, in-process:
//!
//! * [`streamlog`] — append-only topic logs with offset-based batched
//!   `poll()` access and *no random access to individual records without a
//!   poll*, exactly the constraint that makes sampling from Kafka
//!   non-trivial (Appendix A). The three request kinds of §3.2 —
//!   `insert(tuple)`, `delete(tuple)`, `execute(query)` — share one
//!   arrival-ordered topic in [`streamlog::RequestLog`], and
//!   [`streamlog::ShardedLog`] gives a sharded deployment one independent
//!   topic (and offset space) per shard. Topics are block lists that
//!   their owners truncate below what every consumer has applied.
//! * [`archive`] — the cold/archival store of §2.1: holds the full current
//!   table state, accessible offline for initialization, re-sampling, and
//!   catch-up, but never consulted at query time. Columnar, in memory, in
//!   fixed-size blocks ([`ARCHIVE_BLOCK_ROWS`] slots) that an insert
//!   never copies.
//! * [`samplers`] — the singleton and sequential stream samplers of
//!   Appendix A, with a configurable poll cost model so Table 4's
//!   poll-size trade-off reproduces in simulation.
//! * [`checkpoint`] — durable, payload-agnostic checkpoint storage (an
//!   in-memory store plus a crash-safe file-backed one): what a sharded
//!   deployment recovers from after losing its in-memory synopses.
//! * [`loadlog`] — the bulk-load progress journal ([`LoadProgress`]): per
//!   input file, per shard, how many rows a bulk loader has attempted to
//!   publish, pinned to the routing snapshot the claims were made under —
//!   what makes a killed load resumable exactly-once.

pub mod archive;
pub mod checkpoint;
pub mod loadlog;
pub mod samplers;
pub mod streamlog;

pub use archive::{ArchiveColumns, ArchiveStore, ARCHIVE_BLOCK_ROWS};
pub use checkpoint::{CheckpointStore, FileCheckpointStore, MemoryCheckpointStore};
pub use loadlog::{FileLoadProgress, LoadProgress};
pub use samplers::{PollCostModel, SampleRun, SequentialSampler, SingletonSampler};
pub use streamlog::{QueryResponse, Request, RequestLog, ShardedLog, TopicLog, BLOCK_RECORDS};
