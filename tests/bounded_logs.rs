//! Bounded logs: a long-running cluster holds what its copies (or a
//! restore) still need, not the whole stream. Each coordinator streams
//! `N` records, drains, streams `3N` more and drains again; after each
//! drain every shard topic and the request log hold fewer than two
//! blocks, whatever `N` is.

use janus::net::local_fleet;
use janus::prelude::*;
use janus::storage::{RequestLog, BLOCK_RECORDS};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Two blocks per shard: `N` alone already fills whole blocks.
const N: u64 = (2 * BLOCK_RECORDS * SHARDS) as u64;

fn config(seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = 8;
    c.sample_rate = 0.01;
    c.auto_repartition = false;
    c
}

fn rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|i| Row::new(i, vec![(i % 100) as f64, i as f64]))
        .collect()
}

/// Inserts of ids `from..to`, spread over every shard.
fn inserts(from: u64, to: u64) -> Vec<ShardOp> {
    (from..to)
        .map(|id| ShardOp::Insert(Row::new(id, vec![(id % 100) as f64, id as f64])))
        .collect()
}

/// `held` must drop under two blocks: at once for a synchronous drain,
/// within a few seconds for a service whose workers truncate right
/// after the applies a drain barrier waits on.
fn assert_bounded(what: &str, held: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while held() >= 2 * BLOCK_RECORDS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let held = held();
    assert!(
        held < 2 * BLOCK_RECORDS,
        "{what} holds {held} records after the drain"
    );
}

#[test]
fn a_replicated_cluster_engine_keeps_under_two_blocks_per_topic() {
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(config(1), SHARDS, ShardPolicy::HashById).with_replicas(1),
        rows(1_000),
    )
    .unwrap();
    let topics = cluster.topics();
    for (from, to) in [(1_000, 1_000 + N), (1_000 + N, 1_000 + 4 * N)] {
        assert_eq!(
            cluster.publish_batch(inserts(from, to)).published as u64,
            to - from
        );
        cluster.pump_all().unwrap();
        assert_eq!(cluster.replica_pending(), 0);
        for shard in 0..SHARDS {
            let held = topics.topic(shard).resident_len();
            assert!(held < 2 * BLOCK_RECORDS, "shard {shard} holds {held}");
        }
    }
    assert_eq!(cluster.population() as u64, 1_000 + 4 * N);
}

#[test]
fn a_live_cluster_without_a_store_keeps_under_two_blocks_per_log() {
    let requests = RequestLog::shared();
    let live = LiveCluster::start(
        ClusterConfig::new(config(2), SHARDS, ShardPolicy::HashById),
        rows(1_000),
        Arc::clone(&requests),
    )
    .unwrap();
    let topics = live.engine().topics();
    for (from, to) in [(1_000, 1_000 + N), (1_000 + N, 1_000 + 4 * N)] {
        for id in from..to {
            requests.publish_insert(Row::new(id, vec![(id % 100) as f64, id as f64]));
        }
        live.drain();
        assert_bounded("the request log", || requests.requests.resident_len());
        for shard in 0..SHARDS {
            assert_bounded(&format!("shard {shard}"), || {
                topics.topic(shard).resident_len()
            });
        }
    }
    assert_eq!(requests.end_offset(), 4 * N);
    assert_eq!(live.engine().population() as u64, 1_000 + 4 * N);
}

#[test]
fn a_drained_remote_cluster_keeps_under_two_blocks_per_topic() {
    let fleet = local_fleet(2).expect("start fleet");
    let addrs: Vec<SocketAddr> = fleet.iter().map(|s| s.addr()).collect();
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(3), SHARDS, ShardPolicy::HashById).with_replicas(1, 0),
        rows(1_000),
        &addrs,
    )
    .expect("bootstrap");
    for (from, to) in [(1_000, 1_000 + N), (1_000 + N, 1_000 + 4 * N)] {
        for chunk in inserts(from, to).chunks(1_024) {
            assert_eq!(remote.publish_batch(chunk.to_vec()).published, chunk.len());
        }
        remote.drain();
        for shard in 0..SHARDS {
            assert_bounded(&format!("shard {shard}"), || {
                remote.topic_resident_len(shard)
            });
        }
    }
    assert_eq!(remote.population().unwrap(), 1_000 + 4 * N);
    remote.shutdown_nodes();
    remote.shutdown();
}
