//! Cluster crash recovery: checkpoint → drop → restore → replay must be
//! *observationally invisible* — bit-identical answers to an
//! uninterrupted cluster — and replica promotion must lose no
//! acknowledged write.
//!
//! The machinery under test composes three exactness guarantees:
//! `JanusEngine::restore` is bit-faithful (snapshot carries RNG words,
//! catch-up state, archive order), shard topics replay deterministically
//! in offset order, and the checkpoint persists the routing state
//! (range bounds, rotation cursor) that decides where replayed traffic
//! lands. Every comparison here is to the bit — no tolerances.

use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn rows(n: usize, seed: u64) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|i| {
            let x = rng.gen::<f64>() * 100.0;
            Row::new(i, vec![x, x * 3.0 + rng.gen::<f64>() * 5.0])
        })
        .collect()
}

fn exact_config(seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = 16;
    c.sample_rate = 0.03;
    c.catchup_ratio = 1.0;
    c.auto_repartition = false;
    c
}

fn query(agg: AggregateFunction, lo: f64, hi: f64) -> Query {
    Query::new(
        agg,
        1,
        vec![0],
        RangePredicate::new(vec![lo], vec![hi]).unwrap(),
    )
    .unwrap()
}

fn policies() -> Vec<ShardPolicy> {
    vec![
        ShardPolicy::HashById,
        ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
    ]
}

fn estimate_bits(est: &Estimate) -> (u64, u64, u64, usize) {
    (
        est.value.to_bits(),
        est.catchup_variance.to_bits(),
        est.sample_variance.to_bits(),
        est.samples_used,
    )
}

fn probe_queries() -> Vec<Query> {
    vec![
        query(AggregateFunction::Count, f64::NEG_INFINITY, f64::INFINITY),
        query(AggregateFunction::Sum, f64::NEG_INFINITY, f64::INFINITY),
        query(AggregateFunction::Avg, f64::NEG_INFINITY, f64::INFINITY),
        query(AggregateFunction::Min, 0.0, 100.0),
        query(AggregateFunction::Max, 0.0, 100.0),
        query(AggregateFunction::Sum, 12.5, 77.5),
        query(AggregateFunction::Avg, 20.0, 60.0),
        query(AggregateFunction::Count, 35.0, 45.0),
    ]
}

fn assert_same_answers(a: &ClusterEngine, b: &ClusterEngine, context: &str) {
    assert_eq!(a.population(), b.population(), "{context}: population");
    for q in probe_queries() {
        let ea = a.query(&q).unwrap();
        let eb = b.query(&q).unwrap();
        match (ea, eb) {
            (Some(x), Some(y)) => assert_eq!(
                estimate_bits(&x),
                estimate_bits(&y),
                "{context}: {} [{:?}] diverged: {} vs {}",
                q.agg,
                q.range,
                x.value,
                y.value
            ),
            (x, y) => assert_eq!(x.is_none(), y.is_none(), "{context}: {}", q.agg),
        }
    }
}

/// A deterministic mixed insert/delete workload that can be published to
/// any number of clusters in lockstep, in phases, without ever deleting
/// an id twice.
struct Stream {
    rng: SmallRng,
    live: Vec<u64>,
    next: u64,
}

impl Stream {
    fn new(seed: u64, bootstrap_rows: u64, base_id: u64) -> Self {
        Stream {
            rng: SmallRng::seed_from_u64(seed),
            live: (0..bootstrap_rows).collect(),
            next: base_id,
        }
    }

    fn publish(&mut self, clusters: &[&ClusterEngine], steps: u64) {
        for _ in 0..steps {
            if self.rng.gen_bool(0.8) || self.live.len() < 64 {
                let x = self.rng.gen::<f64>() * 100.0;
                for c in clusters {
                    c.publish_insert(Row::new(self.next, vec![x, x * 3.0]))
                        .unwrap();
                }
                self.live.push(self.next);
                self.next += 1;
            } else {
                let at = self.rng.gen_range(0..self.live.len());
                let id = self.live.swap_remove(at);
                for c in clusters {
                    c.publish_delete(id).unwrap();
                }
            }
        }
    }
}

/// Acceptance (a), synchronous path: checkpoint mid-stream (with a
/// *pump lag* — unapplied topic records — still outstanding), keep
/// publishing, "crash" by dropping the engine, restore from checkpoint +
/// surviving topics, replay, and compare against the uninterrupted twin
/// across all three routing policies — to the bit.
#[test]
fn checkpointed_restore_replays_to_bit_identical_answers() {
    let data = rows(10_000, 91);
    for policy in policies() {
        let make = || {
            ClusterEngine::bootstrap(
                ClusterConfig::new(exact_config(91), 4, policy.clone()),
                data.clone(),
            )
            .unwrap()
        };
        let uninterrupted = make();
        let crashing = make();

        // Phase 1: identical traffic, partially pumped, then checkpoint.
        let mut stream = Stream::new(92, 10_000, 1_000_000);
        stream.publish(&[&uninterrupted, &crashing], 3_000);
        crashing.pump(256).unwrap(); // deliberately partial: leave a tail
        let checkpoint = crashing.checkpoint();
        assert!(
            !checkpoint.is_tail_free(),
            "{policy:?}: the scenario should exercise tail replay"
        );

        // The checkpoint itself must survive serialization: recovery
        // always reads it back from a store.
        let checkpoint = ClusterCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();

        // Phase 2: more identical traffic after the checkpoint.
        stream.publish(&[&uninterrupted, &crashing], 2_000);

        // Crash: the engine dies, the topics (durable fabric) survive.
        let topics = crashing.topics();
        drop(crashing);

        let restored = ClusterEngine::restore(
            ClusterConfig::new(exact_config(91), 4, policy.clone()),
            checkpoint,
            topics,
        )
        .unwrap();
        restored.pump_all().unwrap();
        uninterrupted.pump_all().unwrap();
        assert_same_answers(&uninterrupted, &restored, &format!("{policy:?}"));

        // The restored cluster is fully operational, not a read-only
        // artifact: further identical traffic keeps the twins in
        // lockstep (routing state — bounds, rotation cursor — was
        // restored too).
        stream.publish(&[&uninterrupted, &restored], 1_000);
        uninterrupted.pump_all().unwrap();
        restored.pump_all().unwrap();
        assert_same_answers(
            &uninterrupted,
            &restored,
            &format!("{policy:?} post-restore"),
        );
    }
}

/// Acceptance (a), live path: a `LiveCluster` checkpoints, crashes
/// mid-stream (dropped without drain, losing all post-checkpoint
/// in-memory state), and `recover()` resumes from the durable pair
/// (checkpoint store, request log) — converging to answers bit-identical
/// to an uninterrupted live run of the same request sequence.
#[test]
fn live_recover_matches_uninterrupted_run() {
    let data = rows(10_000, 81);
    for policy in policies() {
        let store: Arc<MemoryCheckpointStore> = Arc::new(MemoryCheckpointStore::new());
        let uninterrupted_log = RequestLog::shared();
        let crashing_log = RequestLog::shared();

        let uninterrupted = LiveCluster::start(
            ClusterConfig::new(exact_config(81), 4, policy.clone()),
            data.clone(),
            Arc::clone(&uninterrupted_log),
        )
        .unwrap();
        let crashing = LiveCluster::start_checkpointed(
            ClusterConfig::new(exact_config(81), 4, policy.clone()),
            data.clone(),
            Arc::clone(&crashing_log),
            LiveConfig::default(),
            Arc::clone(&store) as Arc<dyn CheckpointStore>,
        )
        .unwrap();

        // Identical request sequences on both logs.
        let mut rng = SmallRng::seed_from_u64(82);
        let mut live_ids: Vec<u64> = (0..10_000).collect();
        let mut next = 5_000_000u64;
        let mut publish_phase = |n: u64| {
            for _ in 0..n {
                if rng.gen_bool(0.8) || live_ids.len() < 64 {
                    let x = rng.gen::<f64>() * 100.0;
                    uninterrupted_log.publish_insert(Row::new(next, vec![x, x * 3.0]));
                    crashing_log.publish_insert(Row::new(next, vec![x, x * 3.0]));
                    live_ids.push(next);
                    next += 1;
                } else {
                    let at = rng.gen_range(0..live_ids.len());
                    let id = live_ids.swap_remove(at);
                    uninterrupted_log.publish_delete(id);
                    crashing_log.publish_delete(id);
                }
            }
        };

        publish_phase(3_000);
        crashing.drain();
        assert!(crashing.checkpoint_now(), "{policy:?}: checkpoint failed");
        assert_eq!(crashing.live_stats().checkpoints, 1, "{policy:?}");

        // Post-checkpoint traffic, then crash without draining: every
        // in-memory effect of this phase is lost with the process.
        publish_phase(2_000);
        drop(crashing);

        let recovered = LiveCluster::recover(
            ClusterConfig::new(exact_config(81), 4, policy.clone()),
            Arc::clone(&store) as Arc<dyn CheckpointStore>,
            Arc::clone(&crashing_log),
            LiveConfig::default(),
        )
        .unwrap();
        recovered.drain();
        uninterrupted.drain();
        assert_same_answers(
            uninterrupted.engine(),
            recovered.engine(),
            &format!("{policy:?} live"),
        );

        // And the recovered service still serves the request/response
        // front end.
        let q = query(AggregateFunction::Count, f64::NEG_INFINITY, f64::INFINITY);
        let offset = crashing_log.publish_query(q);
        recovered.drain();
        let answer = crashing_log.find_response(offset).unwrap().unwrap();
        assert_eq!(
            answer.value,
            recovered.engine().population() as f64,
            "{policy:?}"
        );
        drop(recovered);
        drop(uninterrupted);
    }
}

/// The automatic cadence: with a small `checkpoint_every`, a
/// checkpointed `LiveCluster` cuts checkpoints while it streams, without
/// a `checkpoint_now`, and `recover` from the newest one — wherever in
/// the stream the cadence put it — matches the uninterrupted twin.
#[test]
fn live_checkpoint_cadence_cuts_recoverable_checkpoints_unasked() {
    let data = rows(10_000, 85);
    let cadence = LiveConfig {
        checkpoint_every: 1_000,
        ..LiveConfig::default()
    };
    for policy in policies() {
        let config = || ClusterConfig::new(exact_config(85), 4, policy.clone());
        let store: Arc<MemoryCheckpointStore> = Arc::new(MemoryCheckpointStore::new());
        let uninterrupted_log = RequestLog::shared();
        let crashing_log = RequestLog::shared();
        let uninterrupted =
            LiveCluster::start(config(), data.clone(), Arc::clone(&uninterrupted_log)).unwrap();
        let crashing = LiveCluster::start_checkpointed(
            config(),
            data.clone(),
            Arc::clone(&crashing_log),
            cadence.clone(),
            Arc::clone(&store) as Arc<dyn CheckpointStore>,
        )
        .unwrap();

        let mut rng = SmallRng::seed_from_u64(86);
        let mut live_ids: Vec<u64> = (0..10_000).collect();
        let mut next = 6_000_000u64;
        let mut publish_phase = |n: u64| {
            for _ in 0..n {
                if rng.gen_bool(0.8) || live_ids.len() < 64 {
                    let x = rng.gen::<f64>() * 100.0;
                    uninterrupted_log.publish_insert(Row::new(next, vec![x, x * 3.0]));
                    crashing_log.publish_insert(Row::new(next, vec![x, x * 3.0]));
                    live_ids.push(next);
                    next += 1;
                } else {
                    let at = rng.gen_range(0..live_ids.len());
                    let id = live_ids.swap_remove(at);
                    uninterrupted_log.publish_delete(id);
                    crashing_log.publish_delete(id);
                }
            }
        };

        // 3,000 pumped records pass the 1,000-record cadence: the front
        // end cuts a checkpoint between batches, no call asks for one.
        publish_phase(3_000);
        let started = std::time::Instant::now();
        while crashing.live_stats().checkpoints == 0 {
            assert!(
                started.elapsed() < std::time::Duration::from_secs(60),
                "{policy:?}: the cadence never cut a checkpoint"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (_, cut) = ClusterCheckpoint::load_latest(store.as_ref()).unwrap();
        assert!(
            cut.request_offset > 0,
            "{policy:?}: the cut follows consumed requests"
        );

        // Crash mid-stream, without a drain; the cadence may cut again
        // while this phase streams.
        publish_phase(2_000);
        drop(crashing);

        let recovered = LiveCluster::recover(
            config(),
            Arc::clone(&store) as Arc<dyn CheckpointStore>,
            Arc::clone(&crashing_log),
            cadence.clone(),
        )
        .unwrap();
        recovered.drain();
        uninterrupted.drain();
        assert_same_answers(
            uninterrupted.engine(),
            recovered.engine(),
            &format!("{policy:?} cadence"),
        );
    }
}

/// Acceptance (b): every write acknowledged by the cluster (published to
/// a shard topic) survives a primary failure, because the promoted
/// follower tails the same durable topic — even when it lagged the
/// primary at promotion time. With the replica fully caught up, the
/// promoted cluster is bit-identical to an unfailed replica-free twin.
#[test]
fn replica_promotion_loses_no_acknowledged_writes() {
    let data = rows(10_000, 71);
    let plain = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(71), 4, ShardPolicy::HashById),
        data.clone(),
    )
    .unwrap();
    let replicated = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(71), 4, ShardPolicy::HashById).with_replicas(1),
        data,
    )
    .unwrap();

    Stream::new(72, 10_000, 7_000_000).publish(&[&plain, &replicated], 4_000);
    // Pump primaries generously but replicas only a little: the failover
    // happens while the follower is *behind*.
    for shard in 0..4 {
        replicated.pump_shard(shard, 10_000).unwrap();
        replicated.pump_replicas(shard, 100);
    }
    let acknowledged = replicated.stats().inserts - replicated.stats().deletes;
    assert!(
        replicated.replica_offsets(2)[0] < replicated.topics().topic(2).len() as u64,
        "scenario should promote a lagging replica"
    );

    replicated.fail_shard(2).unwrap();
    assert_eq!(replicated.replica_count(2), 0, "promotion consumed it");
    assert_eq!(replicated.stats().promotions, 1);

    // The promoted follower resumes the topic from its own offset: after
    // a full pump nothing acknowledged is missing.
    replicated.pump_all().unwrap();
    plain.pump_all().unwrap();
    assert_eq!(
        replicated.population() as u64,
        10_000 + acknowledged,
        "acknowledged writes lost across promotion"
    );
    assert_same_answers(&plain, &replicated, "promoted vs unfailed");

    // A second failure on the same shard has no replica left to promote.
    assert!(replicated.fail_shard(2).is_err());
}

/// Replica-served reads are exact and actually load-balanced: with fresh
/// followers, scatter sub-queries alternate primary/replica and answers
/// stay bit-identical to a replica-free cluster.
#[test]
fn fresh_replicas_serve_exact_reads() {
    let data = rows(8_000, 61);
    let plain = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(61), 2, ShardPolicy::HashById),
        data.clone(),
    )
    .unwrap();
    let replicated = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(61), 2, ShardPolicy::HashById).with_replicas(2),
        data,
    )
    .unwrap();
    Stream::new(62, 8_000, 8_000_000).publish(&[&plain, &replicated], 2_000);
    plain.pump_all().unwrap();
    replicated.pump_all().unwrap();

    assert_same_answers(&plain, &replicated, "replicated reads");
    let stats = replicated.stats();
    assert!(
        stats.replica_queries > 0,
        "no sub-query was served by a replica"
    );
    assert!(
        stats.replica_queries < stats.subqueries,
        "primaries must keep serving too (round-robin)"
    );
}

/// Regression: a row deleted on one shard and re-inserted onto a
/// *different* shard within the un-checkpointed tail must resolve to its
/// final placement in the restored directory. Shard topics carry no
/// global order, so a naive shard-by-shard replay can process the
/// re-insert (lower-indexed shard) before the delete (higher-indexed
/// shard) and conclude the row is gone — after which deleting it errors
/// with RowNotFound and re-inserting its id poisons the shard topic.
#[test]
fn restore_resolves_cross_shard_delete_then_reinsert_in_the_tail() {
    // One range bound at 2.5 makes the routing exact: a row at 2.0 goes
    // to shard 0, a row at 3.0 to shard 1.
    let config = || {
        let policy = ShardPolicy::Range {
            column: 0,
            bounds: vec![2.5],
        };
        ClusterConfig::new(exact_config(41), 2, policy)
    };
    let data = rows(1_000, 41);
    let cluster = ClusterEngine::bootstrap(config(), data).unwrap();
    cluster.pump_all().unwrap();
    let checkpoint = cluster.checkpoint(); // tail starts empty here

    // Tail: filler -> shard 0, X -> shard 1, delete X (routed to shard
    // 1), X again -> shard 0, the lower-indexed shard.
    let x = 9_500_000u64;
    cluster
        .publish_insert(Row::new(9_400_000, vec![1.0, 1.0]))
        .unwrap();
    cluster.publish_insert(Row::new(x, vec![3.0, 3.0])).unwrap();
    cluster.publish_delete(x).unwrap();
    cluster.publish_insert(Row::new(x, vec![2.0, 2.0])).unwrap();

    let topics = cluster.topics();
    drop(cluster);
    let restored = ClusterEngine::restore(config(), checkpoint, topics).unwrap();
    restored.pump_all().unwrap();
    assert_eq!(restored.population(), 1_002);

    // X must be deletable (it is live, on shard 0) — a stale directory
    // would answer RowNotFound here...
    restored.publish_delete(x).expect("X is live after restore");
    // ...and its id must be re-insertable afterwards without poisoning
    // any topic.
    restored
        .publish_insert(Row::new(x, vec![4.0, 4.0]))
        .unwrap();
    restored.pump_all().unwrap();
    assert_eq!(restored.population(), 1_002);
    // 4 replayed tail records + the post-restore delete and re-insert.
    assert_eq!(restored.stats().pumped, 6, "delete + reinsert applied");
}

/// A tail-bearing checkpoint cannot be restored without the original
/// topics — detached restore must refuse rather than lose data.
#[test]
fn detached_restore_refuses_tail_bearing_checkpoints() {
    let data = rows(2_000, 51);
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(51), 2, ShardPolicy::HashById),
        data,
    )
    .unwrap();
    cluster
        .publish_insert(Row::new(9_000_000, vec![1.0, 2.0]))
        .unwrap();
    let checkpoint = cluster.checkpoint(); // unpumped record -> tail
    assert!(!checkpoint.is_tail_free());
    let config = ClusterConfig::new(exact_config(51), 2, ShardPolicy::HashById);
    assert!(ClusterEngine::restore_detached(config.clone(), checkpoint.clone()).is_err());

    // With the surviving topics the same checkpoint restores fine.
    let restored = ClusterEngine::restore(config, checkpoint, cluster.topics()).unwrap();
    restored.pump_all().unwrap();
    assert_eq!(restored.population(), 2_001);
}

/// Records per shard topic block: streams below cross more than two
/// blocks per shard, so retention really drops some.
const BLOCK: u64 = janus::storage::BLOCK_RECORDS as u64;

/// A crash after the cluster kept pumping past its checkpoint — the
/// normal case: checkpoint, publish, pump everything, publish across
/// more than two blocks per shard, crash, restore. The topics kept the
/// checkpoint's tail however far the pumps ran, so the restore replays
/// it bit for bit.
#[test]
fn restore_after_pumping_past_the_checkpoint_is_bit_identical() {
    const SHARDS: usize = 2;
    let data = rows(4_000, 93);
    let make = || {
        ClusterEngine::bootstrap(
            ClusterConfig::new(exact_config(93), SHARDS, ShardPolicy::HashById),
            data.clone(),
        )
        .unwrap()
    };
    let uninterrupted = make();
    let crashing = make();
    let mut stream = Stream::new(94, 4_000, 2_000_000);
    stream.publish(&[&uninterrupted, &crashing], 1_500);
    crashing.pump(256).unwrap();
    let checkpoint = crashing.checkpoint();
    let checkpoint = ClusterCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();

    stream.publish(&[&uninterrupted, &crashing], 3 * BLOCK * SHARDS as u64);
    crashing.pump_all().unwrap();
    stream.publish(&[&uninterrupted, &crashing], 3 * BLOCK * SHARDS as u64);
    let topics = crashing.topics();
    for (shard, sc) in checkpoint.shards.iter().enumerate() {
        assert!(topics.topic(shard).len() as u64 > sc.applied_offset + 2 * BLOCK);
        assert!(topics.topic(shard).first_offset() <= sc.applied_offset);
    }
    drop(crashing);

    let config = ClusterConfig::new(exact_config(93), SHARDS, ShardPolicy::HashById);
    let restored = ClusterEngine::restore(config, checkpoint, topics).unwrap();
    restored.pump_all().unwrap();
    uninterrupted.pump_all().unwrap();
    assert_same_answers(&uninterrupted, &restored, "restored after pumping past");

    // Restored, the checkpoint still pins the floor: pumping drops only
    // what lies below its offsets, and the twins stay in lockstep.
    stream.publish(&[&uninterrupted, &restored], 1_000);
    uninterrupted.pump_all().unwrap();
    restored.pump_all().unwrap();
    assert_same_answers(&uninterrupted, &restored, "post-restore traffic");
}

/// A newer checkpoint moves the floor: once the pumps have dropped the
/// blocks below it, restoring from an older checkpoint fails typed
/// instead of replaying a partial tail, and the newest one restores bit
/// for bit.
#[test]
fn restoring_a_checkpoint_older_than_the_floor_fails_typed() {
    const SHARDS: usize = 2;
    let data = rows(2_000, 95);
    let config = || ClusterConfig::new(exact_config(95), SHARDS, ShardPolicy::HashById);
    let uninterrupted = ClusterEngine::bootstrap(config(), data.clone()).unwrap();
    let crashing = ClusterEngine::bootstrap(config(), data).unwrap();
    let mut stream = Stream::new(96, 2_000, 3_000_000);
    stream.publish(&[&uninterrupted, &crashing], 500);
    crashing.pump_all().unwrap();
    let older = crashing.checkpoint();

    stream.publish(&[&uninterrupted, &crashing], 3 * BLOCK * SHARDS as u64);
    crashing.pump_all().unwrap();
    let newest = crashing.checkpoint();
    stream.publish(&[&uninterrupted, &crashing], 500);
    crashing.pump_all().unwrap();

    let topics = crashing.topics();
    for (shard, (old, new)) in older.shards.iter().zip(&newest.shards).enumerate() {
        let first = topics.topic(shard).first_offset();
        assert!(
            old.applied_offset < first,
            "shard {shard}: blocks not dropped"
        );
        assert!(
            first <= new.applied_offset,
            "shard {shard}: floor passed the newest"
        );
    }
    drop(crashing);

    match ClusterEngine::restore(config(), older, Arc::clone(&topics)) {
        Err(janus::common::JanusError::Storage(message)) => {
            assert!(message.contains("newer checkpoint"))
        }
        Err(other) => panic!("expected a storage error, got {other}"),
        Ok(_) => panic!("an older-than-floor checkpoint restored"),
    }
    let restored = ClusterEngine::restore(config(), newest, topics).unwrap();
    restored.pump_all().unwrap();
    uninterrupted.pump_all().unwrap();
    assert_same_answers(&uninterrupted, &restored, "newest checkpoint");
}

/// A follower more than a block behind its primary pins the floor, so
/// promoting it — while another thread keeps pumping the shard — loses
/// nothing: the promoted copy resumes from its own offset.
#[test]
fn promoting_a_follower_more_than_a_block_behind_loses_nothing() {
    const SHARDS: usize = 2;
    let data = rows(2_000, 97);
    let plain = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(97), SHARDS, ShardPolicy::HashById),
        data.clone(),
    )
    .unwrap();
    let replicated = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(97), SHARDS, ShardPolicy::HashById).with_replicas(1),
        data,
    )
    .unwrap();
    let mut stream = Stream::new(98, 2_000, 4_000_000);
    stream.publish(&[&plain, &replicated], 3 * BLOCK * SHARDS as u64);
    for shard in 0..SHARDS {
        replicated.pump_replicas(shard, 100);
        replicated.pump_shard(shard, usize::MAX).unwrap();
    }
    let topic = replicated.topics();
    let lag = topic.topic(1).len() as u64 - replicated.replica_offsets(1)[0];
    assert!(
        lag > BLOCK,
        "the follower should trail by more than a block"
    );
    assert!(topic.topic(1).first_offset() <= replicated.replica_offsets(1)[0]);

    // More traffic, pumped on another thread while the shard fails over.
    stream.publish(&[&plain, &replicated], BLOCK);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..64 {
                replicated.pump_shard(1, 64).unwrap();
            }
        });
        replicated.fail_shard(1).unwrap();
    });
    replicated.pump_all().unwrap();
    plain.pump_all().unwrap();
    assert_same_answers(&plain, &replicated, "promoted a lagging follower");
}

/// Checkpoints cut while routed publishers run restore to the state of
/// the uninterrupted cluster. Three threads publish disjoint ids through
/// `publish_batch_routed` while the main thread cuts twenty checkpoints;
/// nothing pumps meanwhile, so every topic keeps its whole history. Each
/// cut must fall between two whole publish calls, so the records it
/// counts across the shards are a whole number of calls. The first, a
/// middle and the last checkpoint, restored over the same topics and
/// drained, answer bit for bit like the original and place the same rows.
#[test]
fn checkpoints_cut_during_routed_publishes_restore_bit_identically() {
    const SHARDS: usize = 4;
    const THREADS: u64 = 3;
    const PER_THREAD: u64 = 1_500;
    const CUTS: usize = 20;
    const CALL: usize = 50;
    const CALLS: usize = PER_THREAD as usize / CALL;
    let config = ClusterConfig::new(exact_config(61), SHARDS, ShardPolicy::HashById);
    let cluster = ClusterEngine::bootstrap(config.clone(), rows(2_000, 61)).unwrap();
    let inserted = THREADS * PER_THREAD;
    // The two sides pace each other, so that cuts and calls interleave
    // however the threads are scheduled: a thread's call `k` waits for
    // cut `k * CUTS / CALLS`, and cut `i` for `4 * i` calls in all.
    let cut = AtomicUsize::new(0);
    let checkpoints = std::thread::scope(|scope| {
        let publishers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cluster, cut) = (&cluster, &cut);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(62 + t);
                    let base = 1_000_000 + t * PER_THREAD;
                    let rows: Vec<Row> = (base..base + PER_THREAD)
                        .map(|id| {
                            let x = rng.gen::<f64>() * 100.0;
                            Row::new(id, vec![x, x * 3.0])
                        })
                        .collect();
                    for (k, chunk) in rows.chunks(CALL).enumerate() {
                        while cut.load(Ordering::Acquire) < k * CUTS / CALLS {
                            std::thread::yield_now();
                        }
                        let snapshot = cluster.routing_snapshot();
                        let mut groups: Vec<(usize, Vec<Row>)> =
                            (0..snapshot.shards).map(|s| (s, Vec::new())).collect();
                        for row in chunk {
                            groups[snapshot.route(row).unwrap()].1.push(row.clone());
                        }
                        let report = cluster
                            .publish_batch_routed(snapshot.generation, groups)
                            .unwrap();
                        assert_eq!(report.rejected, 0, "ids are disjoint per thread");
                    }
                })
            })
            .collect();
        (0..CUTS)
            .map(|i| {
                let due = ((4 * i * CALL) as u64).min(inserted);
                while cluster.pending() < due && !publishers.iter().any(|p| p.is_finished()) {
                    std::thread::yield_now();
                }
                let checkpoint = cluster.checkpoint();
                cut.fetch_add(1, Ordering::Release);
                checkpoint
            })
            .collect::<Vec<_>>()
    });
    let published =
        |c: &ClusterCheckpoint| -> u64 { c.shards.iter().map(|s| s.published_offset).sum() };
    for (i, checkpoint) in checkpoints.iter().enumerate() {
        assert_eq!(
            published(checkpoint) % CALL as u64,
            0,
            "cut {i} tore a call"
        );
    }
    assert!(checkpoints
        .windows(2)
        .all(|w| published(&w[0]) <= published(&w[1])));
    cluster.pump_all().unwrap();
    assert_eq!(cluster.population(), 2_000 + inserted as usize);
    let mut checkpoints = checkpoints;
    let last = checkpoints.pop().unwrap();
    let middle = checkpoints.swap_remove(CUTS / 2);
    let first = checkpoints.swap_remove(0);
    for (name, checkpoint) in [("first", first), ("middle", middle), ("last", last)] {
        let restored =
            ClusterEngine::restore(config.clone(), checkpoint, cluster.topics()).unwrap();
        restored.pump_all().unwrap();
        let context = format!("restored from the {name} checkpoint");
        assert_same_answers(&cluster, &restored, &context);
        assert_eq!(cluster.population(), restored.population(), "{context}");
        assert_eq!(
            cluster.directory_len(),
            restored.directory_len(),
            "{context}"
        );
    }
}
