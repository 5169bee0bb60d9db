//! # janus-common
//!
//! Core data model shared by every crate in the JanusAQP workspace:
//!
//! * [`Row`] / [`Schema`] — the relational tuple model (§3.1 of the paper);
//! * [`Rect`] / [`RangePredicate`] — half-open partition rectangles and
//!   closed rectangular query predicates;
//! * [`Query`] / [`QueryTemplate`] / [`AggregateFunction`] — the
//!   `SELECT agg(A) FROM D WHERE Rectangle(c1..cd)` query templates that a
//!   synopsis answers;
//! * [`Moments`] — count/sum/sum-of-squares accumulators used for both exact
//!   node statistics and sample-based estimators;
//! * [`kernels`] — chunked, branch-light columnar scan kernels (and the
//!   mergeable [`ScanPartial`]) with a bit-identity contract against the
//!   per-row scan paths;
//! * [`Estimate`] — an AQP answer with its variance and confidence interval;
//! * [`merge`] — composition of per-shard estimates (additive COUNT/SUM
//!   merge, delta-method AVG ratio, MIN/MAX extremes) for scatter-gather
//!   deployments;
//! * [`faults`] — the seeded, zero-cost-when-disabled failpoint registry
//!   every durability and network boundary checks;
//! * [`codec`] — the one binary encoding (LE integers, `f64` bits,
//!   count-prefixed collections, CRC32-sealed blobs) of wire frames,
//!   checkpoints, journals and directory snapshots;
//! * [`mod@crc32`] — the end-to-end integrity checksum [`codec`] seals
//!   with.
//!
//! The crate is dependency-light by design: every other crate in the
//! workspace builds on these types.

pub mod codec;
pub mod crc32;
pub mod det_hash;
pub mod error;
pub mod faults;
pub mod float;
pub mod kernels;
pub mod merge;
pub mod query;
pub mod rect;
pub mod row;
pub mod stats;

pub use crc32::{crc32, Crc32};
pub use det_hash::{DetHashMap, DetHashSet};
pub use error::{JanusError, Result};
pub use faults::{FaultKind, FaultPlan, FaultRule, TriggerMode};
pub use float::F64;
pub use kernels::ScanPartial;
pub use query::{AggregateFunction, Estimate, ExactAccumulator, Query, QueryTemplate, TenantId};
pub use rect::{RangePredicate, Rect};
pub use row::{ColumnDef, Row, RowId, RowRef, Schema};
pub use stats::Moments;

/// Normal scaling factor for a 95% confidence interval (`z` in §4.4.1).
pub const Z_95: f64 = 1.959963984540054;
