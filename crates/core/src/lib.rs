//! # janus-core
//!
//! The JanusAQP system (§3–§5 of the paper): Dynamic Partition Trees and
//! their continuous online optimization.
//!
//! * [`config`] — synopsis construction knobs (§3.1): aggregation attribute
//!   and function, predicate attributes, leaf count `k`, sample rate `α`,
//!   catch-up ratio, drift threshold `β`, AVG query floor `δ`, error-ladder
//!   base `ρ`.
//! * [`node`] / [`tree`] — the DPT itself (§4): per-node SUM/COUNT moments
//!   split into catch-up estimates and exact insert/delete deltas, bounded
//!   MIN/MAX heaps, pooled-sample strata at the leaves, query answering with
//!   two-source confidence intervals (§4.4). Every answer path — the tree,
//!   the §5.5 sampling-only and uniform ([`uniform_estimate`]) fallbacks,
//!   the scatter-gather `(SUM, COUNT)` pair — is one gather plus one
//!   finisher per aggregate in the private `estimator` module.
//! * [`maxvar`] — the dynamic max-variance index **M** (§5.3.1/§D.1):
//!   median-split for COUNT/SUM, heaviest-canonical-cell for AVG, over a
//!   Bentley–Saxe dynamized range tree (`d <= 2`) or kd-tree (`d > 2`).
//! * [`partition`] — partitioning optimizers: the 1-D binary-search
//!   algorithm over a discretized error ladder (§5.2), the equal-count
//!   COUNT fast path (§D.2), the k-d construction for higher dimensions
//!   (§5.3.2), and the PASS-style dynamic program used as the Table 3
//!   baseline.
//! * [`trigger`] — re-partitioning triggers (§5.4/§E): under-represented
//!   strata and β-factor variance drift, with full and partial (ψ-level)
//!   re-partitioning.
//! * [`catchup`] — catch-up processing (§4.3): epoch bookkeeping and the
//!   randomized archival sample queue that refines node statistics online.
//! * `synopsis` (private) — the body the engine is built from (§4.2,
//!   §4.3, §5.5): the archive and the pooled reservoir, and per template a
//!   tree, its strata and **M**; the one place a reservoir outcome is
//!   mirrored into them and a floor breach re-samples.
//! * [`engine`] — the synchronous, deterministic DAQP engine (one synopsis
//!   per registered template, §5.5) with triggers, re-partitioning and
//!   snapshots; [`concurrent`] — the multi-threaded wrapper used for the
//!   throughput and re-initialization experiments (§6.3).

pub mod catchup;
pub mod concurrent;
pub mod config;
pub mod engine;
mod estimator;
pub mod formulas;
pub mod live;
pub mod maxvar;
pub mod node;
pub mod partition;
pub mod snapshot;
mod synopsis;
pub mod tree;
pub mod trigger;

pub use config::SynopsisConfig;
pub use engine::{EngineStats, JanusEngine};
pub use estimator::uniform_estimate;
pub use live::LiveEngine;
pub use maxvar::MaxVarianceIndex;
pub use partition::{PartitionSpec, Partitioner, PartitionerKind};
pub use tree::Dpt;
pub use trigger::{TriggerConfig, TriggerDecision};
