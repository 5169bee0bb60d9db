//! The batch-first hot paths pinned against the per-row seed paths:
//! `publish_batch` ingest, pooled scatter-gather, and snapshot-shipping
//! rebalance must all be *observationally invisible* — bit-identical
//! answers to the same traffic published one record at a time — across
//! all three routing policies, including a checkpoint/restore cut taken
//! mid-batch (with an unreplayed topic tail outstanding). The per-row
//! entry points are one-element `publish_batch` calls, so the
//! batch-vs-per-row cases pin grouping invariance: N one-element batches
//! land the same topics as one N-element batch.

use janus::common::JanusError;
use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
        ShardPolicy::RoundRobin,
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
    assert_eq!(
        a.shard_populations(),
        b.shard_populations(),
        "{context}: per-shard placement"
    );
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

/// A deterministic mixed op stream producible as per-row publishes or as
/// `ShardOp` batches — the two ingest paths under comparison.
fn mixed_ops(n: usize, bootstrap_rows: u64, base_id: u64, seed: u64) -> Vec<ShardOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<u64> = (0..bootstrap_rows).collect();
    let mut next = base_id;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen_bool(0.8) || live.len() < 64 {
            let x = rng.gen::<f64>() * 100.0;
            ops.push(ShardOp::Insert(Row::new(next, vec![x, x * 3.0])));
            live.push(next);
            next += 1;
        } else {
            let at = rng.gen_range(0..live.len());
            ops.push(ShardOp::Delete(live.swap_remove(at)));
        }
    }
    ops
}

fn publish_per_row(cluster: &ClusterEngine, ops: &[ShardOp]) {
    for op in ops {
        match op {
            ShardOp::Insert(row) => cluster.publish_insert(row.clone()).unwrap(),
            ShardOp::Delete(id) => cluster.publish_delete(*id).unwrap(),
        }
    }
}

/// Batched publishing lands the same per-shard topic contents as per-row
/// publishing, so after a full pump the two clusters are bit-identical —
/// across all three policies, with odd batch sizes that split runs across
/// router-cursor and directory state.
#[test]
fn publish_batch_matches_per_row_publish_bit_for_bit() {
    let data = rows(8_000, 21);
    for policy in policies() {
        let make = || {
            ClusterEngine::bootstrap(
                ClusterConfig::new(exact_config(21), 4, policy.clone()),
                data.clone(),
            )
            .unwrap()
        };
        let per_row = make();
        let batched = make();
        let ops = mixed_ops(6_000, 8_000, 2_000_000, 22);

        publish_per_row(&per_row, &ops);
        let mut published = 0;
        for chunk in ops.chunks(97) {
            let report = batched.publish_batch(chunk.iter().cloned());
            assert_eq!(report.rejected, 0, "{policy:?}: clean stream");
            published += report.published;
        }
        assert_eq!(published, ops.len(), "{policy:?}");

        // Interleave pump progress differently on the two sides: final
        // drained state must not depend on pump cadence.
        per_row.pump_all().unwrap();
        for shard in 0..4 {
            batched.pump_shard(shard, 128).unwrap();
        }
        batched.pump_all().unwrap();
        assert_same_answers(&per_row, &batched, &format!("{policy:?}"));

        // Publish/op counters agree too.
        let (a, b) = (per_row.stats(), batched.stats());
        assert_eq!(a.inserts, b.inserts, "{policy:?}");
        assert_eq!(a.deletes, b.deletes, "{policy:?}");
        assert_eq!(a.pumped, b.pumped, "{policy:?}");
    }
}

/// Operations the per-row path rejects one by one (duplicate insert,
/// delete of an unknown row) are rejected within a batch without
/// poisoning the rest of it — and an insert+delete pair of a brand-new id
/// inside one batch resolves in order.
#[test]
fn publish_batch_rejects_bad_ops_without_poisoning_the_batch() {
    let data = rows(2_000, 31);
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(31), 2, ShardPolicy::HashById),
        data,
    )
    .unwrap();
    let report = cluster.publish_batch([
        ShardOp::Insert(Row::new(0, vec![1.0, 2.0])), // duplicate of bootstrap row
        ShardOp::Delete(999_999_999),                 // unknown row
        ShardOp::Insert(Row::new(50_000, vec![1.0, 2.0])),
        ShardOp::Insert(Row::new(50_001, vec![2.0, 4.0])),
        ShardOp::Delete(50_001), // insert + delete of the same id, in order
    ]);
    assert_eq!(report.rejected, 2);
    assert_eq!(report.published, 3);
    cluster.pump_all().unwrap();
    assert_eq!(cluster.population(), 2_001, "one net new row");
    let stats = cluster.stats();
    assert_eq!(stats.inserts, 2);
    assert_eq!(stats.deletes, 1);
}

/// The per-shard backlog gauge (the atomics the backpressure probe reads)
/// advances once per published batch and always equals
/// `published - applied` in quiesced states.
#[test]
fn backlog_gauge_tracks_published_minus_applied() {
    let data = rows(4_000, 41);
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(41), 4, ShardPolicy::RoundRobin),
        data,
    )
    .unwrap();
    assert_eq!(cluster.backlog_gauges(), vec![0; 4]);

    let ops = mixed_ops(3_000, 4_000, 3_000_000, 42);
    for chunk in ops.chunks(500) {
        cluster.publish_batch(chunk.iter().cloned());
    }
    // Nothing pumped yet: gauge == published per shard == log-derived lag.
    let gauges = cluster.backlog_gauges();
    assert_eq!(gauges, cluster.shard_backlogs());
    assert_eq!(gauges.iter().sum::<u64>() as usize, ops.len());

    // Partial pump on one shard: its gauge drops by exactly the applied
    // count; the others are untouched.
    let applied = cluster.pump_shard(1, 100).unwrap();
    assert_eq!(applied, 100);
    let after = cluster.backlog_gauges();
    assert_eq!(after[1], gauges[1] - 100);
    assert_eq!(after[0], gauges[0]);
    assert_eq!(after, cluster.shard_backlogs());

    cluster.pump_all().unwrap();
    assert_eq!(cluster.backlog_gauges(), vec![0; 4]);
    assert_eq!(cluster.pending(), 0);
}

/// The pooled scatter serves concurrent callers the same bit-identical
/// answers a sequential caller gets — the worker pool changes *where*
/// sub-queries run, never what they compute.
#[test]
fn pooled_scatter_is_bit_stable_under_concurrent_callers() {
    let data = rows(10_000, 51);
    let cluster = Arc::new(
        ClusterEngine::bootstrap(
            ClusterConfig::new(
                exact_config(51),
                4,
                ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
            ),
            data,
        )
        .unwrap(),
    );
    let expected: Vec<Option<(u64, u64, u64, usize)>> = probe_queries()
        .iter()
        .map(|q| cluster.query(q).unwrap().map(|e| estimate_bits(&e)))
        .collect();
    let mut handles = Vec::new();
    for _ in 0..8 {
        let cluster = Arc::clone(&cluster);
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..20 {
                for (q, want) in probe_queries().iter().zip(&expected) {
                    let got = cluster.query(q).unwrap().map(|e| estimate_bits(&e));
                    assert_eq!(got, *want, "{}", q.agg);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = cluster.stats();
    assert_eq!(stats.queries, 8 * 20 * 8 + 8, "every scatter counted once");
}

/// A checkpoint cut *mid-batch* — after a partial pump, with an
/// unreplayed topic tail from batched publishes outstanding — restores
/// and replays to answers bit-identical to an uninterrupted twin fed the
/// same batches.
#[test]
fn checkpoint_cut_mid_batch_restores_bit_identically() {
    let data = rows(6_000, 61);
    for policy in policies() {
        let make = || {
            ClusterEngine::bootstrap(
                ClusterConfig::new(exact_config(61), 4, policy.clone()),
                data.clone(),
            )
            .unwrap()
        };
        let uninterrupted = make();
        let crashing = make();

        // Phase 1: identical batched traffic, partially pumped on the
        // crashing side, then a tail-bearing checkpoint.
        let phase1 = mixed_ops(3_000, 6_000, 4_000_000, 62);
        for chunk in phase1.chunks(250) {
            uninterrupted.publish_batch(chunk.iter().cloned());
            crashing.publish_batch(chunk.iter().cloned());
        }
        crashing.pump(300).unwrap();
        let checkpoint = crashing.checkpoint();
        assert!(
            !checkpoint.is_tail_free(),
            "{policy:?}: the cut must land mid-batch, with a tail"
        );

        // Phase 2: more identical batched traffic after the cut.
        let phase2 = mixed_ops(1_500, 0, 5_000_000, 63);
        for chunk in phase2.chunks(333) {
            uninterrupted.publish_batch(chunk.iter().cloned());
            crashing.publish_batch(chunk.iter().cloned());
        }

        let topics = crashing.topics();
        drop(crashing);
        let restored = ClusterEngine::restore(
            ClusterConfig::new(exact_config(61), 4, policy.clone()),
            checkpoint,
            topics,
        )
        .unwrap();
        restored.pump_all().unwrap();
        uninterrupted.pump_all().unwrap();
        assert_same_answers(&uninterrupted, &restored, &format!("{policy:?} mid-batch"));

        // The restored cluster keeps accepting batched traffic in
        // lockstep with the twin (rotation cursor and bounds survived).
        let phase3 = mixed_ops(1_000, 0, 6_000_000, 64);
        uninterrupted.publish_batch(phase3.iter().cloned());
        restored.publish_batch(phase3.iter().cloned());
        uninterrupted.pump_all().unwrap();
        restored.pump_all().unwrap();
        assert_same_answers(
            &uninterrupted,
            &restored,
            &format!("{policy:?} post-restore"),
        );
    }
}

/// The snapshot-shipping rebalance is deterministic across ingest paths:
/// a per-row-fed cluster and a batch-fed cluster that hit the same skew
/// migrate identically and stay bit-identical afterwards — and follower
/// engines shipped the post-migration snapshots serve reads that match a
/// replica-free twin to the bit.
#[test]
fn snapshot_shipping_rebalance_is_ingest_path_invariant() {
    let data = rows(6_000, 71);
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let make = |replicas: usize| {
        ClusterEngine::bootstrap(
            ClusterConfig::new(exact_config(71), 4, policy.clone()).with_replicas(replicas),
            data.clone(),
        )
        .unwrap()
    };
    let per_row = make(0);
    let batched = make(0);
    let replicated = make(1);

    // Hammer the top slab: all new rows land in shard 3.
    let mut rng = SmallRng::seed_from_u64(72);
    let skew_ops: Vec<ShardOp> = (0..15_000u64)
        .map(|i| {
            let x = 90.0 + rng.gen::<f64>() * 10.0;
            ShardOp::Insert(Row::new(7_000_000 + i, vec![x, x]))
        })
        .collect();
    publish_per_row(&per_row, &skew_ops);
    for chunk in skew_ops.chunks(512) {
        batched.publish_batch(chunk.iter().cloned());
        replicated.publish_batch(chunk.iter().cloned());
    }
    per_row.pump_all().unwrap();
    batched.pump_all().unwrap();
    replicated.pump_all().unwrap();

    let a = per_row.maybe_rebalance().unwrap().expect("skew triggers");
    let b = batched.maybe_rebalance().unwrap().expect("skew triggers");
    let c = replicated
        .maybe_rebalance()
        .unwrap()
        .expect("skew triggers");
    assert_eq!(a, b, "identical migrations on identical state");
    assert_eq!(a.rows_moved, c.rows_moved);
    assert!(a.rows_moved > 0);

    assert_same_answers(&per_row, &batched, "rebalanced twins");
    // Replica-served reads after the shipped migration stay exact: the
    // followers *are* the post-migration primaries, bit for bit.
    assert_same_answers(&per_row, &replicated, "rebalanced replicated");
    assert!(replicated.stats().replica_queries > 0);

    // Promotion of a shipped follower loses nothing.
    replicated.fail_shard(3).unwrap();
    replicated.pump_all().unwrap();
    assert_same_answers(&per_row, &replicated, "promoted shipped follower");

    // And deletes of migrated rows still route through the directory.
    for id in 7_000_000..7_000_200u64 {
        per_row.publish_delete(id).unwrap();
        let report = batched.publish_batch([ShardOp::Delete(id)]);
        assert_eq!(report.rejected, 0);
    }
    per_row.pump_all().unwrap();
    batched.pump_all().unwrap();
    assert_same_answers(&per_row, &batched, "post-rebalance deletes");
}

/// Hysteresis: the cooldown (in pumped records) and the minimum
/// skew-ratio gain both block an immediate re-trigger that would thrash,
/// while a control cluster without hysteresis migrates again.
#[test]
fn rebalance_hysteresis_blocks_immediate_retriggers() {
    let policy = || ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let data = rows(4_000, 81);
    let build = |cooldown: u64, min_gain: f64| {
        ClusterEngine::bootstrap(
            ClusterConfig::new(exact_config(81), 4, policy())
                .with_rebalance_hysteresis(cooldown, min_gain),
            data.clone(),
        )
        .unwrap()
    };
    // Constant-valued skews: every row lands on the last slab, so the
    // raw trigger condition holds on every check — only hysteresis can
    // hold a migration back.
    let skew = |cluster: &ClusterEngine, base_id: u64, n: u64, x: f64| {
        let ops: Vec<ShardOp> = (0..n)
            .map(|i| ShardOp::Insert(Row::new(base_id + i, vec![x, x])))
            .collect();
        cluster.publish_batch(ops);
        cluster.pump_all().unwrap();
    };

    // Cooldown: after one migration, a fresh skew within the cooldown
    // window is ignored; once enough records have been pumped, it fires.
    let guarded = build(20_000, 0.0);
    skew(&guarded, 8_000_000, 10_000, 99.0);
    assert!(guarded.maybe_rebalance().unwrap().is_some(), "first fires");
    skew(&guarded, 8_100_000, 10_000, 99.5);
    assert!(
        guarded.maybe_rebalance().unwrap().is_none(),
        "re-trigger inside the cooldown window must be ignored"
    );
    assert_eq!(guarded.stats().rebalances, 1);
    skew(&guarded, 8_200_000, 12_000, 99.9); // pushes pumped past the cooldown
    assert!(
        guarded.maybe_rebalance().unwrap().is_some(),
        "cooldown elapsed (in pumped records) — the trigger works again"
    );

    // Minimum gain: a skew no worse (relative to the threshold) than
    // what the last migration left behind does not re-trigger.
    let gained = build(0, 1_000_000.0); // unreachable gain ⇒ at most one migration
    skew(&gained, 9_000_000, 10_000, 99.0);
    assert!(gained.maybe_rebalance().unwrap().is_some(), "first fires");
    skew(&gained, 9_100_000, 10_000, 99.5);
    assert!(
        gained.maybe_rebalance().unwrap().is_none(),
        "skew gain below the threshold must not re-trigger"
    );
    assert_eq!(gained.stats().rebalances, 1);

    // Control: no hysteresis — the same second skew migrates again.
    let control = build(0, 0.0);
    skew(&control, 9_500_000, 10_000, 99.0);
    assert!(control.maybe_rebalance().unwrap().is_some());
    skew(&control, 9_600_000, 10_000, 99.5);
    assert!(
        control.maybe_rebalance().unwrap().is_some(),
        "without hysteresis the second skew migrates immediately"
    );
    assert_eq!(control.stats().rebalances, 2);
}

/// The `LiveCluster` front end republishes data runs through the batched
/// path; after a drain, the served state is bit-identical to a
/// synchronous cluster fed the same requests per-row — queries
/// interleaved in the stream act as batch barriers and still get exactly
/// one response each.
#[test]
fn live_front_end_batches_match_synchronous_per_row_cluster() {
    let data = rows(6_000, 91);
    for policy in policies() {
        let sync = ClusterEngine::bootstrap(
            ClusterConfig::new(exact_config(91), 4, policy.clone()),
            data.clone(),
        )
        .unwrap();
        let requests = RequestLog::shared();
        let live = LiveCluster::start(
            ClusterConfig::new(exact_config(91), 4, policy.clone()),
            data.clone(),
            Arc::clone(&requests),
        )
        .unwrap();

        let ops = mixed_ops(5_000, 6_000, 3_000_000, 92);
        let mut query_offsets = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                ShardOp::Insert(row) => {
                    sync.publish_insert(row.clone()).unwrap();
                    requests.publish_insert(row.clone());
                }
                ShardOp::Delete(id) => {
                    sync.publish_delete(*id).unwrap();
                    requests.publish_delete(*id);
                }
            }
            if i % 1_000 == 500 {
                // A query mid-stream forces the front end to flush its
                // pending run before answering.
                query_offsets.push(requests.publish_query(query(
                    AggregateFunction::Count,
                    0.0,
                    100.0,
                )));
            }
        }
        live.drain();
        sync.pump_all().unwrap();
        assert_same_answers(&sync, live.engine(), &format!("{policy:?} live batched"));
        for offset in query_offsets {
            assert!(
                requests.find_response(offset).is_some(),
                "{policy:?}: every Execute got exactly one response"
            );
        }
        let stats = live.live_stats();
        assert_eq!(stats.rejected_requests, 0, "{policy:?}");
        drop(live);
    }
}

/// The per-row entry points are one-element batches; a rejection still
/// surfaces as the same typed error, and only accepted operations count.
#[test]
fn per_row_wrappers_map_rejections_to_typed_errors() {
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(37), 2, ShardPolicy::HashById),
        rows(2_000, 37),
    )
    .unwrap();
    match cluster.publish_insert(Row::new(0, vec![1.0, 2.0])) {
        Err(JanusError::InvalidConfig(msg)) => assert_eq!(msg, "duplicate row id 0"),
        other => panic!("duplicate insert: {other:?}"),
    }
    match cluster.publish_delete(999_999_999) {
        Err(JanusError::RowNotFound(id)) => assert_eq!(id, 999_999_999),
        other => panic!("unknown delete: {other:?}"),
    }
    assert_eq!(cluster.pending(), 0, "rejections publish nothing");
    cluster
        .publish_insert(Row::new(50_000, vec![1.0, 2.0]))
        .unwrap();
    cluster.publish_delete(50_000).unwrap();
    cluster.publish_delete(0).unwrap();
    let stats = cluster.stats();
    assert_eq!((stats.inserts, stats.deletes), (1, 2));
    assert_eq!(cluster.backlog_gauges().iter().sum::<u64>(), 3);
    cluster.pump_all().unwrap();
    assert_eq!(cluster.population(), 1_999);
}
