//! Cluster scatter-gather equivalence: a sharded `ClusterEngine` must
//! answer like one `JanusEngine` over the same rows.
//!
//! With exact-base shards (`catchup_ratio = 1`) and local re-partitioning
//! disabled, whole-domain COUNT/SUM answers are *exact* in both systems,
//! so the merged cluster answer must equal the single-engine answer —
//! COUNT to the bit, SUM to summation-order ULPs. Partial-coverage
//! queries are sampling-based, so they are compared through confidence
//! intervals and relative error instead.

use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rows(n: usize, seed: u64) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|i| {
            let x = rng.gen::<f64>() * 100.0;
            Row::new(i, vec![x, x * 3.0 + rng.gen::<f64>() * 5.0])
        })
        .collect()
}

/// Exact-base configuration: whole-domain COUNT/SUM become sharp.
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

fn whole_domain(agg: AggregateFunction) -> Query {
    query(agg, f64::NEG_INFINITY, f64::INFINITY)
}

/// The policies under test; range over the generator's [0, 100] domain.
fn policies() -> Vec<ShardPolicy> {
    vec![
        ShardPolicy::HashById,
        ShardPolicy::RoundRobin,
        ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
    ]
}

/// Acceptance workload: 30k bootstrap rows + 20k mixed updates = 50k rows
/// streamed through the cluster topics (and applied directly to the
/// reference engine).
fn mixed_workload(
    cluster: &ClusterEngine,
    single: &mut janus::core::JanusEngine,
    n_updates: usize,
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<u64> = (0..30_000).collect();
    let mut next_id = 1_000_000u64;
    for _ in 0..n_updates {
        if rng.gen_bool(0.8) || live.len() < 64 {
            let x = rng.gen::<f64>() * 100.0;
            let row = Row::new(next_id, vec![x, x * 3.0]);
            cluster.publish_insert(row.clone()).unwrap();
            single.insert(row).unwrap();
            live.push(next_id);
            next_id += 1;
        } else {
            let at = rng.gen_range(0..live.len());
            let id = live.swap_remove(at);
            cluster.publish_delete(id).unwrap();
            single.delete(id).unwrap();
        }
    }
    cluster.pump_all().unwrap();
}

#[test]
fn four_shard_cluster_matches_single_engine_on_50k_mixed_workload() {
    let data = rows(30_000, 1);
    for policy in policies() {
        let cluster = ClusterEngine::bootstrap(
            ClusterConfig::new(exact_config(1), 4, policy.clone()),
            data.clone(),
        )
        .unwrap();
        let mut single =
            janus::core::JanusEngine::bootstrap(exact_config(1), data.clone()).unwrap();
        mixed_workload(&cluster, &mut single, 20_000, 2);
        assert_eq!(cluster.population(), single.population(), "{policy:?}");

        // Whole-domain COUNT: exact on both sides, so equal to the bit.
        let qc = whole_domain(AggregateFunction::Count);
        let cluster_count = cluster.query(&qc).unwrap().unwrap();
        let single_count = single.query(&qc).unwrap().unwrap();
        assert_eq!(cluster_count.value, single_count.value, "{policy:?}");
        assert_eq!(
            cluster_count.value,
            single.population() as f64,
            "{policy:?}"
        );

        // Whole-domain SUM: same moments, summed in a different order.
        let qs = whole_domain(AggregateFunction::Sum);
        let cluster_sum = cluster.query(&qs).unwrap().unwrap();
        let single_sum = single.query(&qs).unwrap().unwrap();
        let scale = single_sum.value.abs().max(1.0);
        assert!(
            (cluster_sum.value - single_sum.value).abs() <= 1e-9 * scale,
            "{policy:?}: cluster {} vs single {}",
            cluster_sum.value,
            single_sum.value
        );

        // Whole-domain AVG: ratio of the exact moments on both sides.
        let qa = whole_domain(AggregateFunction::Avg);
        let cluster_avg = cluster.query(&qa).unwrap().unwrap();
        let single_avg = single.query(&qa).unwrap().unwrap();
        assert!(
            (cluster_avg.value - single_avg.value).abs() <= 1e-9 * single_avg.value.abs(),
            "{policy:?}"
        );

        // Whole-domain MIN/MAX: the extreme shard answer is the answer.
        for agg in [AggregateFunction::Min, AggregateFunction::Max] {
            let q = whole_domain(agg);
            let a = cluster.query(&q).unwrap().unwrap();
            let b = single.query(&q).unwrap().unwrap();
            assert_eq!(a.value, b.value, "{policy:?} {agg}");
        }

        // Partial-coverage queries are sampling-based: the cluster answer
        // must track ground truth within its own (merged) 95% CI, padded
        // for the CI being itself an estimate.
        for (lo, hi) in [(10.0, 60.0), (35.0, 45.0), (0.0, 90.0)] {
            let q = query(AggregateFunction::Sum, lo, hi);
            let est = cluster.query(&q).unwrap().unwrap();
            let truth = cluster.evaluate_exact(&q).unwrap();
            assert!(
                (est.value - truth).abs() <= est.ci_half_width(Z_95) * 3.0 + 1e-6 * truth.abs(),
                "{policy:?} [{lo},{hi}]: est {} truth {truth} ci {}",
                est.value,
                est.ci_half_width(Z_95)
            );
        }
    }
}

#[test]
fn merged_estimates_are_bit_deterministic_across_runs() {
    let build = || {
        let data = rows(8_000, 7);
        let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
        let cluster =
            ClusterEngine::bootstrap(ClusterConfig::new(exact_config(7), 4, policy), data).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let mut inserted: Vec<u64> = Vec::new();
        for i in 0..2_000u64 {
            if rng.gen_bool(0.85) || inserted.is_empty() {
                let x = rng.gen::<f64>() * 100.0;
                cluster
                    .publish_insert(Row::new(100_000 + i, vec![x, x]))
                    .unwrap();
                inserted.push(100_000 + i);
            } else {
                let at = rng.gen_range(0..inserted.len());
                cluster.publish_delete(inserted.swap_remove(at)).unwrap();
            }
        }
        cluster.pump_all().unwrap();
        let mut observed = Vec::new();
        for (agg, lo, hi) in [
            (AggregateFunction::Count, f64::NEG_INFINITY, f64::INFINITY),
            (AggregateFunction::Sum, 12.5, 77.5),
            (AggregateFunction::Avg, 20.0, 60.0),
            (AggregateFunction::Min, 0.0, 100.0),
        ] {
            let est = cluster.query(&query(agg, lo, hi)).unwrap().unwrap();
            observed.push((
                est.value.to_bits(),
                est.catchup_variance.to_bits(),
                est.sample_variance.to_bits(),
                est.samples_used,
            ));
        }
        observed
    };
    assert_eq!(
        build(),
        build(),
        "same seed must give bit-identical merged estimates"
    );
}

#[test]
fn range_policy_prunes_non_overlapping_shards() {
    let data = rows(12_000, 11);
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let cluster =
        ClusterEngine::bootstrap(ClusterConfig::new(exact_config(11), 4, policy), data).unwrap();

    // A query inside one slab touches exactly one shard...
    let narrow = query(AggregateFunction::Sum, 5.0, 20.0);
    let before = cluster.stats().subqueries;
    let est = cluster.query(&narrow).unwrap().unwrap();
    assert_eq!(cluster.stats().subqueries - before, 1);
    let truth = cluster.evaluate_exact(&narrow).unwrap();
    assert!((est.value - truth).abs() / truth < 0.2);

    // ...while a whole-domain query fans out to all four shards.
    let wide = whole_domain(AggregateFunction::Sum);
    let before = cluster.stats().subqueries;
    cluster.query(&wide).unwrap().unwrap();
    assert_eq!(cluster.stats().subqueries - before, 4);
}

#[test]
fn skewed_ingest_triggers_range_split_rebalance() {
    let data = rows(12_000, 13);
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let mut config = ClusterConfig::new(exact_config(13), 4, policy);
    config.skew_factor = Some(2.0);
    let cluster = ClusterEngine::bootstrap(config, data).unwrap();

    // Hammer the last slab (the §6.8 skewed-insert scenario at cluster
    // level): all new rows land in shard 3.
    let mut rng = SmallRng::seed_from_u64(14);
    for i in 0..30_000u64 {
        let x = 90.0 + rng.gen::<f64>() * 10.0;
        cluster
            .publish_insert(Row::new(500_000 + i, vec![x, x]))
            .unwrap();
    }
    cluster.pump_all().unwrap();
    let before = cluster.shard_populations();
    let skew_before =
        *before.iter().max().unwrap() as f64 / *before.iter().min().unwrap().max(&1) as f64;

    let report = cluster
        .maybe_rebalance()
        .unwrap()
        .expect("skew must trigger");
    assert!(report.rows_moved > 0);
    assert!(report.new_bounds.is_some(), "range policy redraws bounds");
    assert_eq!(cluster.stats().rebalances, 1);

    let after = cluster.shard_populations();
    let skew_after =
        *after.iter().max().unwrap() as f64 / *after.iter().min().unwrap().max(&1) as f64;
    assert!(
        skew_after < skew_before / 2.0,
        "skew {skew_before:.2} -> {skew_after:.2} should drop substantially"
    );
    assert_eq!(
        cluster.population(),
        42_000,
        "migration moves rows, never loses them"
    );

    // The cluster keeps answering correctly after the migration...
    let q = whole_domain(AggregateFunction::Count);
    assert_eq!(cluster.query(&q).unwrap().unwrap().value, 42_000.0);
    let qs = query(AggregateFunction::Sum, 92.0, 98.0);
    let est = cluster.query(&qs).unwrap().unwrap();
    let truth = cluster.evaluate_exact(&qs).unwrap();
    assert!((est.value - truth).abs() / truth < 0.2);

    // ...and deletes of migrated rows still route correctly.
    for id in 500_000..500_500u64 {
        cluster.publish_delete(id).unwrap();
    }
    cluster.pump_all().unwrap();
    assert_eq!(cluster.population(), 41_500);
}

#[test]
fn duplicate_inserts_and_missing_deletes_error_at_publish() {
    let data = rows(2_000, 17);
    let cluster = ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(17), 2, ShardPolicy::HashById),
        data,
    )
    .unwrap();
    assert!(cluster.publish_insert(Row::new(0, vec![1.0, 2.0])).is_err());
    assert!(cluster.publish_delete(999_999_999).is_err());
    // Valid traffic still flows afterwards.
    cluster
        .publish_insert(Row::new(50_000, vec![1.0, 2.0]))
        .unwrap();
    cluster.publish_delete(50_000).unwrap();
    cluster.pump_all().unwrap();
    assert_eq!(cluster.population(), 2_000);
}
