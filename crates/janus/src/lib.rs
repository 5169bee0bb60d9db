//! # JanusAQP
//!
//! A from-scratch Rust implementation of **JanusAQP** (Liang, Sintos,
//! Krishnan — ICDE 2023): approximate query processing over *dynamic*
//! databases using Dynamic Partition Trees with online re-optimization.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`common`] | rows, schemas, rectangles, queries, estimates |
//! | [`index`] | treaps, range trees, kd-trees, Bentley–Saxe dynamization |
//! | [`sampling`] | deletion-capable reservoirs, stratification math |
//! | [`storage`] | Kafka-like stream log, archival store, stream samplers |
//! | [`data`] | synthetic Intel/NYC-Taxi/ETF datasets, query workloads |
//! | [`core`] | DPT, max-variance indexes, partitioners, triggers, engine |
//! | [`cluster`] | sharded scatter-gather service over multiple engines |
//! | [`load`] | shard-affine parallel bulk loader with exactly-once resume |
//! | [`net`] | networked deployment: TCP wire protocol, node daemons, replicated directory |
//! | [`baselines`] | RS, SRS, DPT-only, mini-SPN (DeepDB), PASS |
//!
//! ## Quickstart
//!
//! ```
//! use janus::prelude::*;
//!
//! // A small table: (time, value) pairs.
//! let rows: Vec<Row> = (0..5_000)
//!     .map(|i| Row::new(i, vec![i as f64, (i % 100) as f64]))
//!     .collect();
//!
//! // A synopsis for `SELECT SUM(value) WHERE time IN [lo, hi]`.
//! let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
//! let mut config = SynopsisConfig::paper_default(template, 42);
//! config.leaf_count = 32;
//! config.sample_rate = 0.05;
//! config.catchup_ratio = 0.2;
//!
//! let mut engine = JanusEngine::bootstrap(config, rows).unwrap();
//!
//! // Stream in an update and ask a query.
//! engine.insert(Row::new(10_000, vec![2_500.0, 77.0])).unwrap();
//! let q = Query::new(
//!     AggregateFunction::Sum,
//!     1,
//!     vec![0],
//!     RangePredicate::new(vec![1_000.0], vec![3_000.0]).unwrap(),
//! )
//! .unwrap();
//! let est = engine.query(&q).unwrap().unwrap();
//! let truth = engine.evaluate_exact(&q).unwrap();
//! assert!((est.value - truth).abs() / truth < 0.2);
//! // 95% confidence interval half-width:
//! let _ci = est.ci_half_width(janus::common::Z_95);
//! ```

pub use janus_baselines as baselines;
pub use janus_cluster as cluster;
pub use janus_common as common;
pub use janus_core as core;
pub use janus_data as data;
pub use janus_index as index;
pub use janus_load as load;
pub use janus_net as net;
pub use janus_sampling as sampling;
pub use janus_storage as storage;

/// The working set of types most applications need.
pub mod prelude {
    pub use janus_cluster::{
        ClusterCheckpoint, ClusterConfig, ClusterEngine, ClusterStats, LiveCluster, LiveConfig,
        LiveStats, Priority, PublishReport, QueryOptions, ShardOp, ShardPolicy, TenantStats,
    };
    pub use janus_common::{
        AggregateFunction, Estimate, Query, QueryTemplate, RangePredicate, Rect, Row, RowId,
        RowRef, Schema, TenantId, Z_95,
    };
    pub use janus_core::concurrent::{apply_batch, Update};
    pub use janus_core::{EngineStats, JanusEngine, LiveEngine, PartitionerKind, SynopsisConfig};
    pub use janus_data::{
        generate_partitioned, intel_wireless, nasdaq_etf, nyc_taxi, Dataset, PartitionedSpec,
        QueryWorkload, WorkloadSpec,
    };
    pub use janus_load::{BulkLoader, LoadConfig, LoadReport};
    pub use janus_net::{NodeConfig, NodeServer, RemoteCluster, RemoteConfig, RemoteStats};
    pub use janus_storage::{
        ArchiveStore, CheckpointStore, FileCheckpointStore, MemoryCheckpointStore, Request,
        RequestLog,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let t = QueryTemplate::new(AggregateFunction::Count, 0, vec![0]);
        let cfg = SynopsisConfig::paper_default(t, 1);
        assert_eq!(cfg.leaf_count, 128);
    }
}
