//! LiveCluster integration: the long-running service (background pump
//! workers + request/response front end) must be *observationally
//! identical* to the synchronous `ClusterEngine` once drained.
//!
//! Per-shard application order is topic offset order in both worlds, and
//! shard engines are deterministic, so after `drain()` every synopsis is
//! bit-identical to the synchronous engine fed the same request sequence
//! — estimates are compared to the bit, not within tolerances.

use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Exact-base configuration: whole-domain COUNT/SUM become sharp and the
/// engines are fully deterministic in their input sequence.
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

/// The acceptance test of the live refactor: a LiveCluster fed a mixed
/// insert/delete stream through its request log — with queries arriving
/// *while ingest is in flight* — must, after `drain()`, answer every
/// query bit-identically to a synchronous `ClusterEngine` given the same
/// sequence, and a clean shutdown must return an engine holding the full
/// population.
#[test]
fn live_cluster_matches_synchronous_cluster_after_drain() {
    let data = rows(10_000, 21);
    for policy in policies() {
        let sync = ClusterEngine::bootstrap(
            ClusterConfig::new(exact_config(21), 4, policy.clone()),
            data.clone(),
        )
        .unwrap();
        let requests = RequestLog::shared();
        let live = LiveCluster::start(
            ClusterConfig::new(exact_config(21), 4, policy.clone()),
            data.clone(),
            Arc::clone(&requests),
        )
        .unwrap();

        // Mixed workload, identical sequence on both sides; the live side
        // additionally sees queries interleaved mid-stream.
        let mut rng = SmallRng::seed_from_u64(22);
        let mut live_ids: Vec<u64> = (0..10_000).collect();
        let mut next_id = 1_000_000u64;
        let mut inflight_queries = Vec::new();
        for step in 0..8_000 {
            if rng.gen_bool(0.8) || live_ids.len() < 64 {
                let x = rng.gen::<f64>() * 100.0;
                let row = Row::new(next_id, vec![x, x * 3.0]);
                sync.publish_insert(row.clone()).unwrap();
                requests.publish_insert(row);
                live_ids.push(next_id);
                next_id += 1;
            } else {
                let at = rng.gen_range(0..live_ids.len());
                let id = live_ids.swap_remove(at);
                sync.publish_delete(id).unwrap();
                requests.publish_delete(id);
            }
            if step % 1_000 == 500 {
                let offset = requests.publish_query(query(AggregateFunction::Count, 0.0, 100.0));
                inflight_queries.push(offset);
            }
        }
        sync.pump_all().unwrap();
        live.drain();

        assert_eq!(live.engine().population(), live_ids.len(), "{policy:?}");
        assert_eq!(
            live.engine().population(),
            sync.population(),
            "{policy:?}: populations diverged"
        );

        // Every aggregate, whole-domain and partial, to the bit.
        for (agg, lo, hi) in [
            (AggregateFunction::Count, f64::NEG_INFINITY, f64::INFINITY),
            (AggregateFunction::Sum, f64::NEG_INFINITY, f64::INFINITY),
            (AggregateFunction::Avg, f64::NEG_INFINITY, f64::INFINITY),
            (AggregateFunction::Min, 0.0, 100.0),
            (AggregateFunction::Max, 0.0, 100.0),
            (AggregateFunction::Sum, 12.5, 77.5),
            (AggregateFunction::Avg, 20.0, 60.0),
            (AggregateFunction::Count, 35.0, 45.0),
        ] {
            let q = query(agg, lo, hi);
            let live_ans = live.engine().query(&q).unwrap();
            let sync_ans = sync.query(&q).unwrap();
            match (live_ans, sync_ans) {
                (Some(a), Some(b)) => assert_eq!(
                    estimate_bits(&a),
                    estimate_bits(&b),
                    "{policy:?} {agg} [{lo},{hi}]: live {} vs sync {}",
                    a.value,
                    b.value
                ),
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "{policy:?} {agg}"),
            }
        }

        // The request/response path answered every in-flight query.
        for offset in &inflight_queries {
            assert!(
                requests.find_response(*offset).is_some(),
                "{policy:?}: query at offset {offset} was never answered"
            );
        }
        let live_stats = live.live_stats();
        assert_eq!(
            live_stats.responses_published,
            inflight_queries.len() as u64,
            "{policy:?}"
        );
        assert_eq!(live_stats.rejected_requests, 0, "{policy:?}");
        assert_eq!(live_stats.records_skipped, 0, "{policy:?}");
        assert_eq!(
            live_stats.requests_consumed,
            requests.end_offset(),
            "{policy:?}: drain means fully consumed"
        );

        // A final query through the front end matches the direct answer.
        let qc = query(AggregateFunction::Count, f64::NEG_INFINITY, f64::INFINITY);
        let offset = requests.publish_query(qc.clone());
        live.drain();
        let via_log = requests.find_response(offset).unwrap().unwrap();
        assert_eq!(via_log.value, sync.population() as f64, "{policy:?}");

        // Clean shutdown hands back the full, still-working engine.
        let engine = live.shutdown();
        assert_eq!(engine.population(), sync.population(), "{policy:?}");
        let after = engine.query(&qc).unwrap().unwrap();
        assert_eq!(after.value, sync.population() as f64, "{policy:?}");
    }
}

/// Queries served while producers keep the request log hot: answers must
/// track ground truth (CI-based — mid-stream state is a moving target),
/// the service must stay responsive, and nothing may be lost by the time
/// the stream quiesces.
#[test]
fn queries_are_served_during_concurrent_ingest() {
    let data = rows(12_000, 31);
    let requests = RequestLog::shared();
    let live = Arc::new(
        LiveCluster::start(
            ClusterConfig::new(exact_config(31), 4, ShardPolicy::HashById),
            data,
            Arc::clone(&requests),
        )
        .unwrap(),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let requests = Arc::clone(&requests);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(32);
            let mut produced = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let x = rng.gen::<f64>() * 100.0;
                requests.publish_insert(Row::new(2_000_000 + produced, vec![x, x * 3.0]));
                produced += 1;
            }
            produced
        })
    };

    // Query the live read path while the producer floods the log, once
    // its first record is in (on a busy machine the producer thread may
    // not have run before fifty queries are done). The population is a
    // moving target, so mid-stream answers are checked for liveness and
    // sanity; accuracy is asserted after the barrier.
    let start = requests.end_offset();
    while requests.end_offset() == start {
        std::thread::yield_now();
    }
    let q = query(AggregateFunction::Sum, 10.0, 90.0);
    for _ in 0..50 {
        let est = live.engine().query(&q).unwrap().expect("SUM answers");
        assert!(est.value.is_finite());
        assert!(est.variance() >= 0.0);
    }
    stop.store(true, Ordering::Relaxed);
    let produced = producer.join().unwrap();
    assert!(produced > 0);
    live.drain();
    assert_eq!(live.engine().population(), 12_000 + produced as usize);

    // Quiesced: the answer must track ground truth within its own CI.
    let est = live.engine().query(&q).unwrap().unwrap();
    let truth = live.engine().evaluate_exact(&q).unwrap();
    assert!(
        (est.value - truth).abs() <= est.ci_half_width(Z_95) * 4.0 + 1e-6 * truth.abs(),
        "post-drain answer off: est {} truth {truth}",
        est.value
    );

    let live = Arc::try_unwrap(live).ok().expect("sole owner");
    let engine = live.shutdown();
    assert_eq!(engine.population(), 12_000 + produced as usize);
}

/// The front end must stall rather than let any shard's publish-ahead
/// backlog exceed `max_backlog`. Sampling the backlog concurrently can
/// only under-report (offsets are read after end offsets), so observing
/// a value over the limit is a genuine violation.
#[test]
fn backpressure_bounds_per_shard_backlog() {
    let data = rows(4_000, 41);
    let requests = RequestLog::shared();
    let live_config = LiveConfig {
        pump_chunk: 64,
        frontend_chunk: 512,
        max_backlog: 256,
        ..LiveConfig::default()
    };
    let live = LiveCluster::start_with(
        ClusterConfig::new(exact_config(41), 2, ShardPolicy::HashById),
        data,
        Arc::clone(&requests),
        live_config,
    )
    .unwrap();

    let mut rng = SmallRng::seed_from_u64(42);
    for i in 0..30_000u64 {
        let x = rng.gen::<f64>() * 100.0;
        requests.publish_insert(Row::new(3_000_000 + i, vec![x, x * 3.0]));
    }
    let mut max_seen = 0u64;
    while live.frontend_lag() > 0 || live.engine().pending() > 0 {
        max_seen = max_seen.max(live.engine().stats().backlog_max());
    }
    assert!(
        max_seen <= 256,
        "backpressure failed: a shard fell {max_seen} records behind"
    );
    assert!(max_seen > 0, "the workload never built any backlog");
    live.drain();
    let engine = live.shutdown();
    assert_eq!(engine.population(), 34_000);
}

/// An `Execute` whose selection is empty still yields a response record
/// (carrying `None`), so a client polling by request offset can always
/// distinguish "empty answer" from "not yet processed".
#[test]
fn empty_query_answers_still_publish_a_response() {
    let data = rows(1_000, 61);
    let requests = RequestLog::shared();
    let live = LiveCluster::start(
        ClusterConfig::new(exact_config(61), 2, ShardPolicy::HashById),
        data,
        Arc::clone(&requests),
    )
    .unwrap();
    // Generator values live in [0, 100]; this selection is empty.
    let offset = requests.publish_query(query(AggregateFunction::Min, 200.0, 300.0));
    live.drain();
    assert_eq!(requests.find_response(offset), Some(None));
    let stats = live.live_stats();
    assert_eq!(stats.responses_published, 1);
    assert_eq!(stats.empty_answers, 1);
    assert_eq!(stats.rejected_requests, 0);
}

/// `LiveCluster::wrap` takes over a synchronous engine mid-life: topic
/// backlog published before the wrap is drained by the workers, and the
/// request log only carries post-wrap traffic.
#[test]
fn wrapping_a_synchronous_engine_resumes_its_backlog() {
    let data = rows(5_000, 51);
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(51), 3, ShardPolicy::HashById),
        data,
    )
    .unwrap();
    // Publish without pumping: the wrap inherits a 2k-record backlog.
    let mut rng = SmallRng::seed_from_u64(52);
    for i in 0..2_000u64 {
        let x = rng.gen::<f64>() * 100.0;
        cluster
            .publish_insert(Row::new(4_000_000 + i, vec![x, x * 3.0]))
            .unwrap();
    }
    assert_eq!(cluster.pending(), 2_000);

    let requests = RequestLog::shared();
    let live = LiveCluster::wrap(cluster, Arc::clone(&requests), LiveConfig::default()).unwrap();
    for i in 0..1_000u64 {
        let x = rng.gen::<f64>() * 100.0;
        requests.publish_insert(Row::new(5_000_000 + i, vec![x, x * 3.0]));
    }
    live.drain();
    assert_eq!(live.engine().pending(), 0);
    assert_eq!(live.engine().population(), 8_000);
    let engine = live.shutdown();
    assert_eq!(engine.population(), 8_000);
    assert_eq!(engine.stats().pumped, 3_000);
}

/// Readers read: while one reader sits inside shard 0's engine (under the
/// shard's read guard, having answered there), a full scatter-gather
/// query that also lands on shard 0 must complete. A sub-query that took
/// the shard exclusively would wait for the first reader to leave — the
/// `recv_timeout` turns that into a failure instead of a hang.
#[test]
fn a_cluster_query_completes_while_another_reader_is_inside_the_same_shard() {
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(71), 4, ShardPolicy::HashById),
        rows(4_000, 71),
    )
    .unwrap();
    let q = query(AggregateFunction::Sum, 0.0, 100.0);
    let (inside_tx, inside_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let (cluster, q) = (&cluster, &q);
        s.spawn(move || {
            inside_rx.recv().unwrap();
            done_tx.send(cluster.query(q).unwrap().unwrap()).unwrap();
        });
        cluster.with_shard_engine(0, |engine| {
            engine.query(q).unwrap().unwrap();
            inside_tx.send(()).unwrap();
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("the scatter waited for a reader of shard 0 to leave")
        });
    });
    // The reader inside the guard and the scatter's sub-query both counted.
    assert_eq!(cluster.with_shard_engine(0, |e| e.stats().queries), 2);
}

/// The query counter is bumped through `&self` by concurrent readers and
/// must not lose an increment: N threads × M whole-domain queries over
/// hash shards land N·M sub-queries on every shard.
#[test]
fn query_counter_is_exact_under_contention() {
    const THREADS: u64 = 4;
    const QUERIES: u64 = 200;
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(72), 4, ShardPolicy::HashById),
        rows(4_000, 72),
    )
    .unwrap();
    let q = query(AggregateFunction::Count, 0.0, 100.0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..QUERIES {
                    cluster.query(&q).unwrap().unwrap();
                }
            });
        }
    });
    let per_shard: Vec<u64> = (0..4)
        .map(|shard| cluster.with_shard_engine(shard, |e| e.stats().queries))
        .collect();
    assert_eq!(per_shard, vec![THREADS * QUERIES; 4]);
    assert_eq!(cluster.stats().subqueries, 4 * THREADS * QUERIES);
    assert_eq!(cluster.stats().queries, THREADS * QUERIES);
}

/// A service's stop flag belongs to that one start: the engine
/// `shutdown` hands back wraps again, and the new start's workers pump
/// it. Two starts fed one mixed stream end bit-identical to a
/// synchronous twin fed the same operations.
#[test]
fn a_shut_down_engine_wraps_again_and_matches_its_twin() {
    let data = rows(6_000, 81);
    let config = || ClusterConfig::new(exact_config(81), 4, ShardPolicy::HashById);
    let sync = ClusterEngine::bootstrap(config(), data.clone()).unwrap();
    let mut engine = ClusterEngine::bootstrap(config(), data).unwrap();
    let mut rng = SmallRng::seed_from_u64(82);
    let mut live_ids: Vec<u64> = (0..6_000).collect();
    let mut next_id = 7_000_000u64;
    for start in 0..2 {
        // The front end consumes its log from offset 0, so every start
        // gets a fresh one.
        let requests = RequestLog::shared();
        let live = LiveCluster::wrap(engine, Arc::clone(&requests), LiveConfig::default())
            .unwrap_or_else(|e| panic!("start {start}: {e}"));
        for _ in 0..3_000 {
            if rng.gen_bool(0.8) {
                let x = rng.gen::<f64>() * 100.0;
                let row = Row::new(next_id, vec![x, x * 3.0]);
                sync.publish_insert(row.clone()).unwrap();
                requests.publish_insert(row);
                live_ids.push(next_id);
                next_id += 1;
            } else {
                let id = live_ids.swap_remove(rng.gen_range(0..live_ids.len()));
                sync.publish_delete(id).unwrap();
                requests.publish_delete(id);
            }
        }
        live.drain();
        assert_eq!(live.engine().pending(), 0, "start {start}: drained");
        assert_eq!(live.live_stats().rejected_requests, 0, "start {start}");
        engine = live.shutdown();
    }
    sync.pump_all().unwrap();
    assert_eq!(engine.population(), live_ids.len());
    assert_eq!(engine.population(), sync.population());
    for (agg, lo, hi) in [
        (AggregateFunction::Count, f64::NEG_INFINITY, f64::INFINITY),
        (AggregateFunction::Sum, f64::NEG_INFINITY, f64::INFINITY),
        (AggregateFunction::Avg, 20.0, 60.0),
        (AggregateFunction::Sum, 12.5, 77.5),
        (AggregateFunction::Min, 0.0, 100.0),
        (AggregateFunction::Max, 0.0, 100.0),
    ] {
        let q = query(agg, lo, hi);
        let rewrapped = engine.query(&q).unwrap().expect("answer");
        let twin = sync.query(&q).unwrap().expect("answer");
        assert_eq!(
            estimate_bits(&rewrapped),
            estimate_bits(&twin),
            "{agg} [{lo},{hi}]: re-wrapped {} vs sync {}",
            rewrapped.value,
            twin.value
        );
    }
}
