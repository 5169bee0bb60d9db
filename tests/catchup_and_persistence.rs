//! Cross-crate scenarios for the §4.3 machinery: catch-up convergence from
//! cold starts, the multi-threaded live engine, and synopsis persistence
//! across a simulated restart.

use janus::core::snapshot::SynopsisSnapshot;
use janus::prelude::*;

fn dataset() -> Dataset {
    intel_wireless(30_000, 60)
}

fn config(d: &Dataset, catchup: f64, seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, d.col("light"), vec![d.col("time")]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = 32;
    c.sample_rate = 0.02;
    c.catchup_ratio = catchup;
    c
}

fn workload(d: &Dataset, seed: u64) -> Vec<Query> {
    let template = QueryTemplate::new(AggregateFunction::Sum, d.col("light"), vec![d.col("time")]);
    QueryWorkload::generate(
        d,
        &WorkloadSpec {
            template,
            count: 100,
            min_width_fraction: 0.05,
            seed,
            domain_quantile: 1.0,
        },
    )
    .queries
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

#[test]
fn catchup_error_is_monotone_in_expectation() {
    // Median error across a workload must improve from 2% to 40% catch-up.
    let d = dataset();
    let queries = workload(&d, 1);
    let med_at = |ratio: f64| {
        let engine = JanusEngine::bootstrap(config(&d, ratio, 61), d.rows.clone()).unwrap();
        let errs: Vec<f64> = queries
            .iter()
            .filter_map(|q| {
                let truth = engine.evaluate_exact(q)?;
                if truth.abs() < 1e-9 {
                    return None;
                }
                Some(engine.query(q).unwrap()?.relative_error(truth))
            })
            .collect();
        median(errs)
    };
    let coarse = med_at(0.02);
    let fine = med_at(0.40);
    assert!(
        fine < coarse,
        "catch-up 40% ({fine:.4}) should beat 2% ({coarse:.4})"
    );
}

#[test]
fn live_engine_matches_sync_engine_accuracy() {
    let d = dataset();
    let queries = workload(&d, 2);
    let sync_engine = JanusEngine::bootstrap(config(&d, 0.3, 62), d.rows.clone()).unwrap();
    let live = LiveEngine::start(config(&d, 0.3, 62), d.rows.clone()).unwrap();
    live.wait_for_catchup();
    for q in queries.iter().take(30) {
        let truth = sync_engine.evaluate_exact(q).unwrap();
        if truth.abs() < 1e-9 {
            continue;
        }
        let a = sync_engine.query(q).unwrap().unwrap().relative_error(truth);
        let b = live.query(q).unwrap().unwrap().relative_error(truth);
        // Same seed, same catch-up content: identical synopsis state.
        assert!((a - b).abs() < 1e-9, "sync {a} vs live {b}");
    }
    live.shutdown();
}

#[test]
fn snapshot_survives_simulated_restart_with_replay() {
    let d = dataset();
    let mut engine = JanusEngine::bootstrap(config(&d, 0.3, 63), d.rows.clone()).unwrap();
    // Pre-restart activity.
    for i in 0..2_000u64 {
        let t = 1e9 + i as f64;
        engine
            .insert(Row::new(900_000 + i, vec![t, 100.0, 0.0, 0.0, 0.0]))
            .unwrap();
    }
    let snap: SynopsisSnapshot = engine.save_synopsis();
    let bytes = snap.to_bytes();

    // "Restart": rebuild from the durable archive + deserialized synopsis.
    let archive: Vec<Row> = engine.export_rows();
    let snap2 = SynopsisSnapshot::from_bytes(&bytes).unwrap();
    let mut restored = JanusEngine::restore(engine.config().clone(), archive, &snap2).unwrap();

    // Post-restart updates replay cleanly.
    for i in 0..1_000u64 {
        let t = 2e9 + i as f64;
        restored
            .insert(Row::new(950_000 + i, vec![t, 50.0, 0.0, 0.0, 0.0]))
            .unwrap();
    }
    let q = Query::new(
        AggregateFunction::Sum,
        d.col("light"),
        vec![d.col("time")],
        RangePredicate::new(vec![1e9 - 1.0], vec![3e9]).unwrap(),
    )
    .unwrap();
    let est = restored.query(&q).unwrap().unwrap();
    let truth = restored.evaluate_exact(&q).unwrap();
    assert!(
        est.relative_error(truth) < 0.05,
        "est {} truth {truth}",
        est.value
    );
    assert!((truth - (2_000.0 * 100.0 + 1_000.0 * 50.0)).abs() < 1e-6);
}

#[test]
fn reoptimize_loop_under_live_load_preserves_consistency() {
    let d = dataset();
    let live = LiveEngine::start(config(&d, 0.2, 64), d.rows[..20_000].to_vec()).unwrap();
    for (step, chunk) in d.rows[20_000..30_000].chunks(2_500).enumerate() {
        for row in chunk {
            live.insert(row.clone()).unwrap();
        }
        let blocked = live.reoptimize().unwrap();
        assert!(
            blocked.as_secs() < 10,
            "swap blocked too long at step {step}"
        );
    }
    assert_eq!(live.population(), 30_000);
    live.wait_for_catchup();
    let q = Query::new(
        AggregateFunction::Count,
        d.col("light"),
        vec![d.col("time")],
        RangePredicate::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).unwrap(),
    )
    .unwrap();
    let est = live.query(&q).unwrap().unwrap();
    assert!((est.value - 30_000.0).abs() < 600.0, "count {}", est.value);
    let engine = live.shutdown();
    assert_eq!(engine.stats().repartitions, 4);
}
