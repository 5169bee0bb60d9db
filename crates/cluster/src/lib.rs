//! # janus-cluster
//!
//! Horizontal scale-out for JanusAQP: N [`JanusEngine`] shards behind one
//! scatter-gather façade, with partitioned ingest over per-shard topic
//! logs and variance-correct answer merging.
//!
//! | module | contents |
//! |---|---|
//! | [`router`] | [`ShardPolicy`] (hash-by-id, round-robin, range on a predicate attribute) and the [`ShardRouter`] that applies it: row placement, per-shard slabs as [`janus_common::Rect`]s, query overlap pruning |
//! | [`bootstrap`] | the shared shard-placement helpers: seed derivation, value→slab placement, partition-then-build |
//! | `directory` (internal) | the striped row→shard placement map: 16 independently locked stripes keyed by a SplitMix64 hash of the row id, with the one-pass reserve the pre-routed publish path lands batches under, and [`resolve_batch`], the publish path's resolve step both coordinators call |
//! | [`engine`] | [`ClusterEngine`]: lock-sharded state (`&self` everywhere — one `RwLock` per shard, router lock, striped directory, atomic counters), batch-first publish/pump ingest over [`janus_storage::ShardedLog`] (one Kafka-like topic + offset per shard, deterministic replay; [`ClusterEngine::publish_batch`] routes a whole batch under one lock acquisition, [`ClusterEngine::publish_batch_routed`] lands pre-grouped batches under a router *read* lock against a [`RoutingSnapshot`] generation check), parallel scatter-gather queries merged via [`janus_common::merge`] |
//! | `scatter` (internal) | [`ScatterPool`]: N long-lived named workers running boxed closures off two-lane ([`Priority`]) queues, and [`ScatterPool::fan_out`], the one gather (submission-order slots, single job inline, deadline-bounded) under both this crate's queries and `pump` and the networked coordinator's scatter |
//! | `cache` (internal) | the answer cache behind [`ClusterConfig::with_answer_cache`]: exact-shape query keys, entries pinned to (rebalance generation, per-shard applied offsets), lazily self-invalidating |
//! | [`live`] | [`LiveCluster`]: the engine as a long-running service — one background pump worker per shard plus a request/response front end over [`janus_storage::RequestLog`] (data runs republished through the batched path), with per-shard backpressure, a `drain()` barrier, graceful shutdown, and a multi-tenant submit path ([`LiveCluster::submit_query`]: admission quotas, deadlines, priority lanes) |
//! | [`rebalance`] | the cluster-level skew trigger (largest shard ≥ `skew_factor` × median, with cooldown + minimum-gain hysteresis) and the snapshot-shipping migration built on the `janus-core` snapshot path |
//!
//! ## Answer semantics
//!
//! Shards hold disjoint rows and sample independently, so per-shard
//! estimates compose exactly like the paper's per-partition estimates
//! compose inside one tree (§4.4): COUNT/SUM answers and their ν_c/ν_s
//! variance components add; AVG is re-derived as the ratio of merged
//! SUM/COUNT moment estimates (delta-method variance, two-source split
//! preserved); MIN/MAX take the extreme shard answer. Whole-domain
//! COUNT/SUM answers over exact-base shards are *exactly* the
//! single-engine answers on the same rows — the equivalence the
//! `cluster_equivalence` integration tests pin down.
//!
//! ## Quickstart
//!
//! ```
//! use janus_cluster::{ClusterConfig, ClusterEngine, ShardPolicy};
//! use janus_common::{AggregateFunction, Query, QueryTemplate, RangePredicate, Row};
//! use janus_core::SynopsisConfig;
//!
//! let rows: Vec<Row> = (0..8_000)
//!     .map(|i| Row::new(i, vec![(i % 100) as f64, (i % 7) as f64]))
//!     .collect();
//! let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
//! let mut base = SynopsisConfig::paper_default(template, 42);
//! base.leaf_count = 16;
//! base.sample_rate = 0.05;
//!
//! // Four shards, range-partitioned on the predicate attribute.
//! let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
//! let cluster =
//!     ClusterEngine::bootstrap(ClusterConfig::new(base, 4, policy), rows).unwrap();
//!
//! // Ingest goes to per-shard topics; `pump` applies it.
//! cluster.publish_insert(Row::new(10_000, vec![55.0, 3.0])).unwrap();
//! cluster.pump_all().unwrap();
//!
//! let q = Query::new(
//!     AggregateFunction::Sum,
//!     1,
//!     vec![0],
//!     RangePredicate::new(vec![20.0], vec![80.0]).unwrap(),
//! )
//! .unwrap();
//! let est = cluster.query(&q).unwrap().unwrap();
//! let truth = cluster.evaluate_exact(&q).unwrap();
//! assert!((est.value - truth).abs() / truth < 0.2);
//! ```

pub mod bootstrap;
pub(crate) mod cache;
pub mod checkpoint;
pub(crate) mod directory;
pub mod engine;
pub mod live;
pub mod notify;
pub mod rebalance;
pub mod router;
pub(crate) mod scatter;

pub use checkpoint::{ClusterCheckpoint, PolicyKind, RouterSnapshot, ShardCheckpoint};
pub use directory::{resolve_batch, PlacementSink};
pub use engine::{
    ClusterConfig, ClusterEngine, ClusterStats, PublishReport, QueryOptions, ShardOp,
};
pub use live::{LiveCluster, LiveConfig, LiveStats, TenantStats};
pub use notify::Progress;
pub use rebalance::RebalanceReport;
pub use router::{RoutingSnapshot, ShardPolicy, ShardRouter};
pub use scatter::{Priority, ScatterPool};

#[allow(unused_imports)]
use janus_core::JanusEngine; // rustdoc link target
