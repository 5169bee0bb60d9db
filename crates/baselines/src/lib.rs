//! # janus-baselines
//!
//! Every baseline the paper evaluates JanusAQP against (§6.1.3):
//!
//! * [`rs::ReservoirBaseline`] — uniform Reservoir Sampling (the AQUA
//!   variant that supports deletions);
//! * [`srs::StratifiedReservoirBaseline`] — Stratified Reservoir Sampling
//!   over an equal-depth partitioning;
//! * [`dpt_only`] — a single DPT synopsis with online optimization turned
//!   off (constructed once, never re-partitioned);
//! * [`spn::MiniSpn`] — the DeepDB substitute: a sum-product-network
//!   learned synopsis with expensive (re)training, fixed resolution, and
//!   fast queries (the module docs argue the substitution: the same
//!   construction at reproduction scale, and Figs. 5/9 penalize exactly
//!   the fixed resolution and the retrain cost);
//! * [`pass::PassSynopsis`] — the static partition tree (SPT) of the PASS
//!   system \[30], with exact node statistics from a full scan.

pub mod dpt_only;
pub mod pass;
pub mod rs;
pub mod spn;
pub mod srs;

pub use pass::PassSynopsis;
pub use rs::ReservoirBaseline;
pub use spn::MiniSpn;
pub use srs::StratifiedReservoirBaseline;
