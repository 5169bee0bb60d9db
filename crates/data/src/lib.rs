//! # janus-data
//!
//! Synthetic equivalents of the paper's three evaluation datasets (§6.1.1)
//! and the uniform rectangular query workloads of §6.1.
//!
//! The real datasets (Intel Wireless sensor logs, NYC Taxi January-2019 trip
//! records, NASDAQ ETF prices) are not redistributable here; each generator
//! reproduces the *statistical structure the experiments depend on* —
//! distribution shapes of the predicate and aggregate attributes, their
//! correlations, and the orderings that drive the skewed-insert scenarios.
//! Each generator's rustdoc in [`datasets`] names the structure it keeps;
//! `REPRODUCTION.md` records where a synthetic table changes a result.
//!
//! All generators are deterministic in their seed.

pub mod datasets;
pub mod partitioned;
pub mod workload;

pub use datasets::{intel_wireless, nasdaq_etf, nyc_taxi, Dataset};
pub use partitioned::{
    generate_partitioned, list_chunks, read_chunk, read_chunk_header, write_rows_chunked,
    ChunkHeader, PartitionedSpec, ValueDistribution,
};
pub use workload::{QueryWorkload, WorkloadSpec};
