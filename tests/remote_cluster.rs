//! Networked-cluster integration tests against in-process node servers:
//! bit-exact equivalence with the synchronous `ClusterEngine`, the drain
//! barrier, replica freshness + failover promotion, checkpoint-shipped
//! shard migration, publish error parity, backpressure bounds, and loud
//! failure once a shard loses every copy.
//!
//! `examples/cluster_nodes.rs` covers the same guarantees across real
//! process boundaries (spawned daemons, SIGKILL); these tests keep the
//! nodes in-process so every policy/topology variant stays fast.

use janus::common::JanusError;
use janus::net::local_fleet;
use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;

fn config(seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = 16;
    c.sample_rate = 0.05;
    c.catchup_ratio = 1.0;
    c.auto_repartition = false;
    c
}

fn rows(n: u64, seed: u64) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let x = rng.gen::<f64>() * 100.0;
            Row::new(i, vec![x, x * 2.0 + rng.gen::<f64>()])
        })
        .collect()
}

fn probes() -> Vec<Query> {
    [
        (AggregateFunction::Count, f64::NEG_INFINITY, f64::INFINITY),
        (AggregateFunction::Sum, f64::NEG_INFINITY, f64::INFINITY),
        (AggregateFunction::Avg, 10.0, 90.0),
        (AggregateFunction::Sum, 25.0, 75.0),
        (AggregateFunction::Min, 0.0, 100.0),
        (AggregateFunction::Max, 0.0, 100.0),
    ]
    .into_iter()
    .map(|(agg, lo, hi)| {
        Query::new(
            agg,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    })
    .collect()
}

fn assert_bit_identical(remote: &RemoteCluster, twin: &ClusterEngine, when: &str) {
    for q in probes() {
        let a = remote.query(&q).expect("remote query").expect("answer");
        let b = twin.query(&q).expect("twin query").expect("answer");
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "{when}: {} diverged: {} vs {}",
            q.agg,
            a.value,
            b.value
        );
        assert_eq!(
            a.variance().to_bits(),
            b.variance().to_bits(),
            "{when}: {} variance diverged",
            q.agg
        );
    }
}

fn addrs_of(fleet: &[NodeServer]) -> Vec<SocketAddr> {
    fleet.iter().map(|s| s.addr()).collect()
}

/// A deterministic insert/delete stream applied identically to both
/// clusters; carries its live-id set across phases so deletes always
/// target rows that still exist.
struct Feed {
    rng: SmallRng,
    live: Vec<u64>,
    next: u64,
}

impl Feed {
    fn new(seed: u64, bootstrap: u64) -> Self {
        Feed {
            rng: SmallRng::seed_from_u64(seed),
            live: (0..bootstrap).collect(),
            next: 5_000_000,
        }
    }

    fn publish(&mut self, remote: &RemoteCluster, twin: &ClusterEngine, steps: u64) {
        for _ in 0..steps {
            if self.rng.gen_bool(0.85) || self.live.len() < 64 {
                let x = self.rng.gen::<f64>() * 100.0;
                remote
                    .publish_insert(Row::new(self.next, vec![x, x * 2.0]))
                    .expect("remote insert");
                twin.publish_insert(Row::new(self.next, vec![x, x * 2.0]))
                    .expect("twin insert");
                self.live.push(self.next);
                self.next += 1;
            } else {
                let at = self.rng.gen_range(0..self.live.len());
                let id = self.live.swap_remove(at);
                remote.publish_delete(id).expect("remote delete");
                twin.publish_delete(id).expect("twin delete");
            }
        }
    }
}

#[test]
fn networked_cluster_matches_sync_engine_bit_for_bit() {
    for policy in [
        ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
        ShardPolicy::HashById,
    ] {
        let fleet = local_fleet(3).expect("start fleet");
        let remote = RemoteCluster::bootstrap(
            RemoteConfig::new(config(3), 4, policy.clone()),
            rows(4_000, 9),
            &addrs_of(&fleet),
        )
        .expect("bootstrap remote");
        let twin =
            ClusterEngine::bootstrap(ClusterConfig::new(config(3), 4, policy), rows(4_000, 9))
                .expect("bootstrap twin");

        let mut feed = Feed::new(21, 4_000);
        feed.publish(&remote, &twin, 2_000);
        remote.drain();
        twin.pump_all().expect("pump");

        assert_eq!(
            remote.population().unwrap(),
            twin.population() as u64,
            "population diverged"
        );
        assert_bit_identical(&remote, &twin, "steady state");
        remote.shutdown_nodes();
        remote.shutdown();
        for s in fleet {
            s.wait(); // Shutdown frame already sent; reap the daemons
        }
    }
}

#[test]
fn drain_is_a_barrier_for_every_copy() {
    let fleet = local_fleet(3).expect("start fleet");
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(
            config(5),
            4,
            ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
        )
        .with_replicas(1, 0),
        rows(4_000, 5),
        &addrs_of(&fleet),
    )
    .expect("bootstrap");

    for i in 0..3_000u64 {
        let x = (i % 100) as f64;
        remote
            .publish_insert(Row::new(1_000_000 + i, vec![x, x]))
            .unwrap();
    }
    remote.drain();

    // After the barrier, a whole-domain COUNT must see every publish no
    // matter which copy serves it: ask repeatedly so the round-robin
    // replica pick cycles through followers too.
    let q = Query::new(
        AggregateFunction::Count,
        1,
        vec![0],
        RangePredicate::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).unwrap(),
    )
    .unwrap();
    for _ in 0..8 {
        let est = remote.query(&q).unwrap().unwrap();
        assert_eq!(est.value as u64, 7_000, "a copy answered before converging");
    }
    assert!(
        remote.stats().replica_queries > 0,
        "round-robin must route some reads to followers"
    );
    remote.shutdown_nodes();
    remote.shutdown();
}

#[test]
fn killing_a_node_promotes_followers_and_stays_bit_exact() {
    let mut fleet = local_fleet(3).expect("start fleet");
    let addrs = addrs_of(&fleet);
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(7), 4, policy.clone()).with_replicas(1, 0),
        rows(4_000, 7),
        &addrs,
    )
    .expect("bootstrap");
    let twin = ClusterEngine::bootstrap(ClusterConfig::new(config(7), 4, policy), rows(4_000, 7))
        .expect("twin");

    let mut feed = Feed::new(31, 4_000);
    feed.publish(&remote, &twin, 1_000);

    // Kill node 0 mid-stream: its connections drop, shippers error, the
    // directory promotes the freshest follower per shard it led.
    fleet.remove(0).stop();

    feed.publish(&remote, &twin, 1_000);
    remote.drain();
    twin.pump_all().expect("pump");

    let stats = remote.stats();
    assert!(stats.failovers >= 1, "kill must register a failover");
    assert!(
        remote.lost_shards().is_empty(),
        "one replica per shard must survive a single-node kill"
    );
    assert_eq!(remote.population().unwrap(), twin.population() as u64);
    assert_bit_identical(&remote, &twin, "after failover");

    // The directory no longer routes anything at the dead node.
    let snapshot = remote.directory_snapshot();
    assert!(
        snapshot.primaries.iter().all(|&p| p != 0)
            && snapshot.followers.iter().flatten().all(|&f| f != 0),
        "dead node still referenced: {snapshot:?}"
    );
    remote.shutdown_nodes();
    remote.shutdown();
}

#[test]
fn move_shard_ships_a_bit_identical_checkpoint() {
    let fleet = local_fleet(3).expect("start fleet");
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(11), 4, policy.clone()),
        rows(4_000, 11),
        &addrs_of(&fleet),
    )
    .expect("bootstrap");
    let twin = ClusterEngine::bootstrap(ClusterConfig::new(config(11), 4, policy), rows(4_000, 11))
        .expect("twin");

    let mut feed = Feed::new(41, 4_000);
    feed.publish(&remote, &twin, 800);
    remote.drain();

    // Move shard 0 away from its primary; publishes continue afterwards
    // and must land on the new host.
    let before = remote.directory_snapshot();
    let target = (before.primaries[0] + 1) % 3;
    remote.move_shard(0, target).expect("move shard");
    assert_eq!(remote.directory_snapshot().primaries[0], target);
    assert_eq!(remote.stats().migrations, 1);

    feed.publish(&remote, &twin, 800);
    remote.drain();
    twin.pump_all().expect("pump");

    assert_eq!(remote.population().unwrap(), twin.population() as u64);
    assert_bit_identical(&remote, &twin, "after migration");
    remote.shutdown_nodes();
    remote.shutdown();
}

#[test]
fn publish_errors_match_the_sync_engine() {
    let fleet = local_fleet(2).expect("start fleet");
    let policy = ShardPolicy::HashById;
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(13), 2, policy.clone()),
        rows(500, 13),
        &addrs_of(&fleet),
    )
    .expect("bootstrap");
    let twin = ClusterEngine::bootstrap(ClusterConfig::new(config(13), 2, policy), rows(500, 13))
        .expect("twin");

    // Duplicate insert: rejected by the coordinator's row directory,
    // same category the in-process cluster raises.
    let dup = Row::new(7, vec![1.0, 1.0]);
    assert!(matches!(
        remote.publish_insert(dup.clone()),
        Err(JanusError::InvalidConfig(_))
    ));
    assert!(matches!(
        twin.publish_insert(dup),
        Err(JanusError::InvalidConfig(_))
    ));

    // Unknown delete.
    assert!(matches!(
        remote.publish_delete(999_999),
        Err(JanusError::RowNotFound(999_999))
    ));
    assert!(matches!(
        twin.publish_delete(999_999),
        Err(JanusError::RowNotFound(999_999))
    ));

    // A mixed batch reports the same accept/reject split.
    let batch = vec![
        ShardOp::Insert(Row::new(10_001, vec![1.0, 2.0])),
        ShardOp::Insert(Row::new(3, vec![0.0, 0.0])), // duplicate
        ShardOp::Delete(10_001),
        ShardOp::Delete(77_777), // unknown
    ];
    let a = remote.publish_batch(batch.clone());
    let b = twin.publish_batch(batch);
    assert_eq!((a.published, a.rejected), (b.published, b.rejected));
    assert_eq!(remote.stats().rejected, 4);
    remote.shutdown_nodes();
    remote.shutdown();
}

#[test]
fn backpressure_bounds_the_publish_ahead_window() {
    let fleet = local_fleet(2).expect("start fleet");
    let mut cfg = RemoteConfig::new(config(17), 2, ShardPolicy::HashById);
    cfg.max_backlog = 256;
    cfg.ship_chunk = 64;
    let remote =
        RemoteCluster::bootstrap(cfg, rows(500, 17), &addrs_of(&fleet)).expect("bootstrap");

    // A tight producer loop cannot run away: after every stalled
    // publish the worst-shard backlog stays within the bound plus the
    // in-flight slack of concurrent appends (none here — one producer).
    for i in 0..5_000u64 {
        remote
            .publish_insert(Row::new(1_000_000 + i, vec![i as f64, 0.0]))
            .unwrap();
        if i % 512 == 0 {
            assert!(
                !remote.backlog_exceeds(256 + 64),
                "backlog ran past the bound at publish {i}"
            );
        }
    }
    remote.drain();
    assert!(!remote.backlog_exceeds(0), "drain leaves zero backlog");
    remote.shutdown_nodes();
    remote.shutdown();
}

#[test]
fn unreplicated_shards_fail_loudly_when_their_node_dies() {
    let mut fleet = local_fleet(2).expect("start fleet");
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(19), 2, ShardPolicy::HashById),
        rows(500, 19),
        &addrs_of(&fleet),
    )
    .expect("bootstrap");
    remote.drain();

    // No replicas: killing a node orphans the shards it led.
    let victim_primary = remote.directory_snapshot().primaries[0];
    fleet.remove(victim_primary).stop();

    // Queries touching the lost shard must error, not silently
    // under-count.
    let q = Query::new(
        AggregateFunction::Count,
        1,
        vec![0],
        RangePredicate::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).unwrap(),
    )
    .unwrap();
    let mut saw_lost = false;
    for _ in 0..50 {
        match remote.query(&q) {
            Err(_) => {
                saw_lost = true;
                break;
            }
            Ok(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    assert!(saw_lost, "query over a lost shard must fail loudly");
    assert!(!remote.lost_shards().is_empty());
    remote.shutdown_nodes();
    remote.shutdown();
}

#[test]
fn directory_places_followers_in_distinct_failure_domains() {
    let fleet = local_fleet(3).expect("start fleet");
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(
            config(23),
            4,
            ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
        )
        .with_replicas(1, 0),
        rows(1_000, 23),
        &addrs_of(&fleet),
    )
    .expect("bootstrap");

    let snap = remote.directory_snapshot();
    for (shard, followers) in snap.followers.iter().enumerate() {
        assert_eq!(followers.len(), 1, "shard {shard} wants one follower");
        let primary = snap.primaries[shard];
        assert_ne!(
            snap.nodes[primary].domain, snap.nodes[followers[0]].domain,
            "shard {shard}: follower shares the primary's failure domain"
        );
    }
    remote.shutdown_nodes();
    remote.shutdown();
}

#[test]
fn one_batch_seven_op_slices_and_row_by_row_publish_identically() {
    const SHARDS: usize = 4;
    // One fixed op sequence with every reject kind mixed in: duplicate
    // inserts (of a bootstrap row, of a row inserted earlier in the
    // sequence), unknown deletes, double deletes, and a delete of a row
    // inserted a few ops earlier (same batch or the previous slice).
    let mut rng = SmallRng::seed_from_u64(77);
    let mut live: Vec<u64> = (0..2_000).collect();
    let mut next = 5_000_000u64;
    let mut ops = Vec::new();
    for step in 0..1_500u64 {
        let x = rng.gen::<f64>() * 100.0;
        match step % 25 {
            3 => ops.push(ShardOp::Insert(Row::new(live[0], vec![x, x]))),
            9 => ops.push(ShardOp::Delete(9_000_000 + step)),
            14 => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                ops.push(ShardOp::Delete(id));
                ops.push(ShardOp::Delete(id));
            }
            20 => {
                ops.push(ShardOp::Insert(Row::new(next, vec![x, x * 2.0])));
                ops.push(ShardOp::Insert(Row::new(next, vec![x, x * 3.0])));
                ops.push(ShardOp::Delete(next));
                next += 1;
            }
            _ if rng.gen_bool(0.8) => {
                ops.push(ShardOp::Insert(Row::new(next, vec![x, x * 2.0])));
                live.push(next);
                next += 1;
            }
            _ => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                ops.push(ShardOp::Delete(id));
            }
        }
    }

    type Answers = Vec<(u64, u64)>;
    let answers = |query: &dyn Fn(&Query) -> Estimate| -> Answers {
        probes()
            .iter()
            .map(|q| {
                let e = query(q);
                (e.value.to_bits(), e.variance().to_bits())
            })
            .collect()
    };

    // RoundRobin makes placement depend on the router's cursor, so any
    // change in routing order between the variants would show.
    for policy in [
        ShardPolicy::RoundRobin,
        ShardPolicy::range_equal_width(0, 0.0, 100.0, SHARDS).unwrap(),
    ] {
        let twin = ClusterEngine::bootstrap(
            ClusterConfig::new(config(29), SHARDS, policy.clone()),
            rows(2_000, 29),
        )
        .expect("twin");
        let twin_report = twin.publish_batch(ops.clone());
        assert!(twin_report.published > 0 && twin_report.rejected > 0);
        twin.pump_all().expect("pump");
        let twin_topics: Vec<Vec<ShardOp>> = (0..SHARDS)
            .map(|s| twin.topics().poll(s, 0, usize::MAX))
            .collect();
        let twin_answers = answers(&|q| twin.query(q).expect("twin query").expect("answer"));

        // `None` publishes row by row through the one-element wrappers.
        for slice in [Some(ops.len()), Some(7), None] {
            let fleet = local_fleet(2).expect("start fleet");
            let remote = RemoteCluster::bootstrap(
                RemoteConfig::new(config(29), SHARDS, policy.clone()),
                rows(2_000, 29),
                &addrs_of(&fleet),
            )
            .expect("bootstrap");
            let mut report = PublishReport::default();
            match slice {
                Some(len) => {
                    for chunk in ops.chunks(len) {
                        let r = remote.publish_batch(chunk.to_vec());
                        report.published += r.published;
                        report.rejected += r.rejected;
                    }
                }
                None => {
                    for op in ops.clone() {
                        let outcome = match op {
                            ShardOp::Insert(row) => remote.publish_insert(row),
                            ShardOp::Delete(id) => remote.publish_delete(id),
                        };
                        match outcome {
                            Ok(()) => report.published += 1,
                            Err(_) => report.rejected += 1,
                        }
                    }
                }
            }
            let when = format!("{policy:?} sliced {slice:?}");
            assert_eq!(report, twin_report, "{when}: publish report");
            let stats = remote.stats();
            assert_eq!(
                (stats.published, stats.rejected),
                (report.published as u64, report.rejected as u64),
                "{when}: counters"
            );
            for (shard, expected) in twin_topics.iter().enumerate() {
                assert_eq!(
                    &remote.topic_records(shard),
                    expected,
                    "{when}: shard {shard} topic"
                );
            }
            remote.drain();
            assert_eq!(remote.population().unwrap(), twin.population() as u64);
            assert_eq!(
                answers(&|q| remote.query(q).expect("remote query").expect("answer")),
                twin_answers,
                "{when}: drained answers"
            );
            remote.shutdown_nodes();
            remote.shutdown();
            for s in fleet {
                s.wait();
            }
        }
    }
}

/// `query_with`'s deadline path: a node that is healthy but slow costs the
/// gather that node's shard — a flagged k-of-n answer — and nothing else.
#[test]
fn a_slow_node_yields_a_flagged_partial_not_a_failover() {
    use janus::common::faults::{self, FaultKind, FaultPlan, TriggerMode};
    use std::time::Duration;
    const SHARDS: usize = 4;
    // The failpoint registry is process-global and this binary's other
    // cases run beside this one: the faulted body runs in a child process.
    if std::env::var_os("JANUS_ISOLATED").is_none() {
        let name = "a_slow_node_yields_a_flagged_partial_not_a_failover";
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", name, "--nocapture"])
            .env("JANUS_ISOLATED", "1")
            .output()
            .expect("re-run isolated");
        let output = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "isolated run failed:\n{output}");
        return;
    }

    let fleet = local_fleet(2).expect("start fleet");
    // No heartbeat during the test: the fault below counts socket writes.
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(31), SHARDS, ShardPolicy::HashById)
            .with_heartbeat_every(Duration::from_secs(3600)),
        rows(4_000, 31),
        &addrs_of(&fleet),
    )
    .expect("bootstrap remote");
    let twin = ClusterEngine::bootstrap(
        ClusterConfig::new(config(31), SHARDS, ShardPolicy::HashById),
        rows(4_000, 31),
    )
    .expect("bootstrap twin");
    // Every shard applies some records. A partial merge weighs each shard
    // by the rows the coordinator's directory places on it.
    Feed::new(37, 4_000).publish(&remote, &twin, 600);
    remote.drain();
    twin.pump_all().expect("pump twin");

    let everything = &probes()[0];
    // A 4-target scatter is eight socket writes — four requests, four
    // replies — and each request precedes its reply, so the eighth is a
    // node's reply: that node sits on an answer for 800 ms.
    let eighth = TriggerMode::Nth(2 * SHARDS as u64);
    faults::install(FaultPlan::new(31).rule("net.write", eighth, FaultKind::Stall(800)));
    let answer = remote
        .query_with(
            everything,
            QueryOptions::default().with_deadline(Duration::from_millis(200)),
        )
        .expect("one slow node does not fail the gather")
        .expect("COUNT always answers");
    assert_eq!(faults::fired("net.write"), 1, "the stall must have fired");
    faults::reset();
    assert!(answer.partial, "a missed shard flags the answer");
    let stats = remote.stats();
    assert_eq!((stats.partial_answers, stats.failovers), (1, 0));
    assert!(remote.lost_shards().is_empty());

    // Still a member: undeadlined, the same query matches the twin's bits.
    assert_bit_identical(&remote, &twin, "after the stall");
    remote.shutdown_nodes();
    remote.shutdown();
}

/// A publisher stalled by the publish-ahead window wakes when the nodes
/// apply, not at the next heartbeat: the shippers ask each node for its
/// apply on the ship link. Twenty stalled batches under a one-second
/// heartbeat would take twenty seconds on a heartbeat wakeup.
#[test]
fn a_stalled_publisher_wakes_on_the_apply() {
    use std::time::{Duration, Instant};
    let fleet = local_fleet(2).expect("start fleet");
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(41), 4, ShardPolicy::HashById)
            .with_publish_window(64)
            .with_heartbeat_every(Duration::from_secs(1)),
        rows(2_000, 41),
        &addrs_of(&fleet),
    )
    .expect("bootstrap");

    let start = Instant::now();
    for batch in 0..20u64 {
        let ops = (0..1_024u64).map(|i| {
            let id = 1_000_000 + batch * 1_024 + i;
            ShardOp::Insert(Row::new(id, vec![(i % 100) as f64, i as f64]))
        });
        assert_eq!(remote.publish_batch(ops).published, 1_024);
    }
    remote.drain();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(10),
        "20 stalled batches took {took:?}: the publisher waited on heartbeats"
    );
    assert!(!remote.backlog_exceeds(0), "drain leaves zero backlog");
    remote.shutdown_nodes();
    remote.shutdown();
}

/// Sends one frame to node `addr` on a fresh connection, outside any
/// coordinator.
fn raw_request(addr: SocketAddr, frame: &janus::net::wire::Frame) -> janus::net::wire::Frame {
    let mut stream = std::net::TcpStream::connect(addr).expect("dial node");
    janus::net::wire::roundtrip(&mut stream, frame).expect("raw exchange")
}

/// A bootstrap that fails on one node releases what it hosted on every
/// node, so the same fleet can be bootstrapped again.
#[test]
fn a_failed_bootstrap_releases_its_shards_and_the_retry_matches_the_twin() {
    use janus::net::wire::Frame;
    let fleet = local_fleet(2).expect("start fleet");
    let addrs = addrs_of(&fleet);
    let policy = ShardPolicy::HashById;
    // Round-robin placement puts shard 3 on node 1; host it there first.
    let squat = Frame::Host {
        shard: 3,
        config: config(1),
        rows: rows(200, 1),
    };
    assert_eq!(raw_request(addrs[1], &squat), Frame::Ok);

    let bootstrap = || {
        RemoteCluster::bootstrap(
            RemoteConfig::new(config(43), 4, policy.clone()),
            rows(3_000, 43),
            &addrs,
        )
    };
    match bootstrap() {
        Err(e) => assert!(
            e.to_string().contains("shard 3 already hosted"),
            "unexpected bootstrap error: {e}"
        ),
        Ok(_) => panic!("bootstrap over a hosted shard must fail"),
    }
    assert_eq!(
        raw_request(addrs[1], &Frame::Release { shard: 3 }),
        Frame::Ok
    );

    let remote = bootstrap().expect("the retry hosts every shard");
    let twin = ClusterEngine::bootstrap(ClusterConfig::new(config(43), 4, policy), rows(3_000, 43))
        .expect("twin");
    let mut feed = Feed::new(81, 3_000);
    feed.publish(&remote, &twin, 600);
    remote.drain();
    twin.pump_all().expect("pump");
    assert_bit_identical(&remote, &twin, "after the retried bootstrap");
    remote.shutdown_nodes();
    remote.shutdown();
}

/// Partitioning comes before shipping: a duplicate bootstrap id fails
/// before any node hosts a shard, so the fleet stays free to bootstrap.
#[test]
fn a_duplicate_bootstrap_id_fails_before_any_node_hosts_a_shard() {
    let fleet = local_fleet(2).expect("start fleet");
    let addrs = addrs_of(&fleet);
    let config_of = || RemoteConfig::new(config(47), 4, ShardPolicy::HashById);
    let mut duplicated = rows(2_000, 47);
    duplicated.push(Row::new(7, vec![1.0, 2.0]));
    match RemoteCluster::bootstrap(config_of(), duplicated, &addrs) {
        Err(JanusError::InvalidConfig(message)) => {
            assert!(message.contains("duplicate row id 7"), "{message}")
        }
        Err(e) => panic!("a duplicate id must be InvalidConfig, got {e}"),
        Ok(_) => panic!("a duplicate id must fail the bootstrap"),
    }
    let remote = RemoteCluster::bootstrap(config_of(), rows(2_000, 47), &addrs)
        .expect("nothing was hosted, so a clean bootstrap succeeds");
    assert_eq!(remote.population().unwrap(), 2_000);
    remote.shutdown_nodes();
    remote.shutdown();
}

/// `move_shard` while another thread pushes more than two topic blocks
/// into the moving shard: the shippers keep truncating the topic behind
/// the copies' applies, and heartbeats keep raising the source's applied
/// offset, yet the move pins the floor at the checkpoint it ships, so the
/// target catches up from there and the fleet stays bit-identical to the
/// in-process twin.
#[test]
fn move_shard_under_a_concurrent_publisher_keeps_the_tail_it_ships() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;
    const BLOCK: u64 = janus::storage::BLOCK_RECORDS as u64;
    let fleet = local_fleet(3).expect("start fleet");
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(13), 4, policy.clone())
            .with_heartbeat_every(Duration::from_millis(2)),
        rows(2_000, 13),
        &addrs_of(&fleet),
    )
    .expect("bootstrap");
    let twin = ClusterEngine::bootstrap(ClusterConfig::new(config(13), 4, policy), rows(2_000, 13))
        .expect("twin");

    // Every insert lands in shard 0 (x < 25).
    let total = 3 * BLOCK;
    let published = AtomicU64::new(0);
    let target = (remote.directory_snapshot().primaries[0] + 1) % 3;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for batch in 0..total / 256 {
                let ops: Vec<ShardOp> = (0..256u64)
                    .map(|i| {
                        let id = 7_000_000 + batch * 256 + i;
                        let x = (id % 2_500) as f64 / 100.0;
                        ShardOp::Insert(Row::new(id, vec![x, x * 2.0]))
                    })
                    .collect();
                assert_eq!(remote.publish_batch(ops.clone()).published, 256);
                assert_eq!(twin.publish_batch(ops).published, 256);
                published.fetch_add(256, Ordering::Release);
            }
        });
        while published.load(Ordering::Acquire) < BLOCK {
            std::thread::yield_now();
        }
        remote.move_shard(0, target).expect("move shard");
    });
    assert!(published.load(Ordering::Acquire) == total);
    assert_eq!(remote.directory_snapshot().primaries[0], target);
    remote.drain();
    twin.pump_all().expect("pump");
    assert_eq!(remote.population().unwrap(), twin.population() as u64);
    assert_bit_identical(&remote, &twin, "after a move under load");
    remote.shutdown_nodes();
    remote.shutdown();
}

/// A deadline-partial gather extrapolates the shards it missed by the same
/// weights on both transports: the rows the coordinator's directory places
/// on each shard. The fleet misses one node's shard to a stalled reply, as
/// in `a_slow_node_yields_a_flagged_partial_not_a_failover`; the twin
/// misses each shard in turn to an injected delay. The fleet's partial
/// answer is, bit for bit, one of the twin's.
#[test]
fn a_partial_answer_weighs_missing_shards_alike_on_both_transports() {
    use janus::cluster::QueryOptions;
    use janus::common::faults::{self, FaultKind, FaultPlan, TriggerMode};
    use janus::common::Estimate;
    use std::time::Duration;
    const SHARDS: usize = 4;
    // The failpoint registry is process-global and this binary's other
    // cases run beside this one: the faulted body runs in a child process.
    if std::env::var_os("JANUS_ISOLATED").is_none() {
        let name = "a_partial_answer_weighs_missing_shards_alike_on_both_transports";
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", name, "--nocapture"])
            .env("JANUS_ISOLATED", "1")
            .output()
            .expect("re-run isolated");
        let output = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "isolated run failed:\n{output}");
        return;
    }

    let fleet = local_fleet(2).expect("start fleet");
    // No heartbeat during the test: the fault below counts socket writes.
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(47), SHARDS, ShardPolicy::HashById)
            .with_heartbeat_every(Duration::from_secs(3600)),
        rows(4_000, 47),
        &addrs_of(&fleet),
    )
    .expect("bootstrap remote");
    let twin = ClusterEngine::bootstrap(
        ClusterConfig::new(config(47), SHARDS, ShardPolicy::HashById),
        rows(4_000, 47),
    )
    .expect("bootstrap twin");
    // Inserts and deletes since bootstrap: a shard's row count is neither
    // its bootstrap size nor the number of records it applied.
    Feed::new(53, 4_000).publish(&remote, &twin, 600);
    remote.drain();
    twin.pump_all().expect("pump twin");

    let bits = |e: &Estimate| {
        (
            e.value.to_bits(),
            e.catchup_variance.to_bits(),
            e.sample_variance.to_bits(),
            e.samples_used,
            e.partial,
        )
    };
    let sum = &probes()[1];
    let budget = Duration::from_millis(200);
    let twin_partials: Vec<Estimate> = (0..SHARDS)
        .map(|straggler| {
            twin.inject_scatter_delay(straggler, Duration::from_millis(800));
            let partial = twin
                .query_with(sum, QueryOptions::default().with_deadline(budget))
                .expect("twin partial")
                .expect("SUM always answers");
            twin.inject_scatter_delay(straggler, Duration::ZERO);
            // An undeadlined query queues behind the straggler's job.
            twin.query(sum).expect("wait out the straggler");
            assert!(partial.partial, "shard {straggler} missed the gather");
            partial
        })
        .collect();

    // A 4-target scatter is eight socket writes, and the eighth is a
    // node's reply: that node sits on an answer for 800 ms.
    let eighth = TriggerMode::Nth(2 * SHARDS as u64);
    faults::install(FaultPlan::new(47).rule("net.write", eighth, FaultKind::Stall(800)));
    let partial = remote
        .query_with(sum, QueryOptions::default().with_deadline(budget))
        .expect("one slow node does not fail the gather")
        .expect("SUM always answers");
    assert_eq!(faults::fired("net.write"), 1, "the stall must have fired");
    faults::reset();
    assert!(partial.partial, "a missed shard flags the answer");
    assert!(
        twin_partials.iter().any(|t| bits(t) == bits(&partial)),
        "the fleet's partial {partial:?} is none of the twin's single-shard misses \
         {twin_partials:?}"
    );
    remote.shutdown_nodes();
    remote.shutdown();
}

/// A node that already holds a follower copy of a shard is no target for
/// that shard's move: installing a second copy there is refused, so the
/// move must fail before it pins, repoints or counts anything, and the
/// fleet keeps converging to its twin.
#[test]
fn move_shard_refuses_a_node_that_already_holds_a_copy() {
    let fleet = local_fleet(3).expect("start fleet");
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let remote = RemoteCluster::bootstrap(
        RemoteConfig::new(config(59), 4, policy.clone()).with_replicas(1, 0),
        rows(4_000, 59),
        &addrs_of(&fleet),
    )
    .expect("bootstrap");
    let twin = ClusterEngine::bootstrap(ClusterConfig::new(config(59), 4, policy), rows(4_000, 59))
        .expect("twin");

    let mut feed = Feed::new(61, 4_000);
    feed.publish(&remote, &twin, 600);
    remote.drain();

    let before = remote.directory_snapshot();
    let follower = before.followers[0][0];
    assert!(
        remote.move_shard(0, follower).is_err(),
        "node {follower} already holds a copy of shard 0"
    );
    assert_eq!(remote.directory_snapshot(), before);
    let stats = remote.stats();
    assert_eq!((stats.failovers, stats.migrations), (0, 0));

    feed.publish(&remote, &twin, 600);
    remote.drain();
    twin.pump_all().expect("pump");
    assert_eq!(remote.population().unwrap(), twin.population() as u64);
    assert_bit_identical(&remote, &twin, "after a refused move");
    remote.shutdown_nodes();
    remote.shutdown();
}
