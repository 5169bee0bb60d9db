//! §5.5 multi-template behaviour across crates: shared pooled sample,
//! per-template trees, heuristic fallbacks (Fig. 8 scenarios).

use janus::prelude::*;

fn taxi_engine(n: usize, seed: u64) -> (Dataset, JanusEngine) {
    let d = nyc_taxi(n, seed);
    let pickup = d.col("pickup_time");
    let dropoff = d.col("dropoff_time");
    let dist = d.col("trip_distance");
    let mk = |pred: usize| {
        let mut c = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, dist, vec![pred]),
            seed,
        );
        c.leaf_count = 32;
        c.sample_rate = 0.03;
        c.catchup_ratio = 0.3;
        c
    };
    let mut engine =
        JanusEngine::bootstrap_templates(vec![mk(pickup), mk(dropoff)], d.rows.clone()).unwrap();
    engine.run_catchup_to_goal();
    (d, engine)
}

fn range_query(
    d: &Dataset,
    agg: AggregateFunction,
    agg_col: usize,
    pred: usize,
    f: (f64, f64),
) -> Query {
    let lo = d
        .rows
        .iter()
        .map(|r| r.value(pred))
        .fold(f64::INFINITY, f64::min);
    let hi = d
        .rows
        .iter()
        .map(|r| r.value(pred))
        .fold(f64::NEG_INFINITY, f64::max);
    let w = hi - lo;
    Query::new(
        agg,
        agg_col,
        vec![pred],
        RangePredicate::new(vec![lo + f.0 * w], vec![lo + f.1 * w]).unwrap(),
    )
    .unwrap()
}

#[test]
fn both_predicate_templates_answer_accurately() {
    let (d, engine) = taxi_engine(20_000, 40);
    let dist = d.col("trip_distance");
    for pred in [d.col("pickup_time"), d.col("dropoff_time")] {
        let q = range_query(&d, AggregateFunction::Sum, dist, pred, (0.2, 0.7));
        let est = engine.query(&q).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q).unwrap();
        assert!(
            est.relative_error(truth) < 0.08,
            "pred {pred}: {}",
            est.relative_error(truth)
        );
    }
}

#[test]
fn aggregate_function_change_is_free() {
    // SUM/COUNT/AVG on the same tree (Fig. 8 right panel).
    let (d, engine) = taxi_engine(20_000, 41);
    let dist = d.col("trip_distance");
    let pickup = d.col("pickup_time");
    for agg in [
        AggregateFunction::Sum,
        AggregateFunction::Count,
        AggregateFunction::Avg,
    ] {
        let q = range_query(&d, agg, dist, pickup, (0.1, 0.6));
        let est = engine.query(&q).unwrap().unwrap();
        let truth = engine.evaluate_exact(&q).unwrap();
        assert!(
            est.relative_error(truth) < 0.08,
            "{agg}: est {} truth {truth}",
            est.value
        );
    }
}

#[test]
fn aggregate_attribute_change_uses_sampling_fallback() {
    // Fig. 8 middle panel: querying passenger_count through a tree built
    // for trip_distance stays accurate (samples carry full rows).
    let (d, engine) = taxi_engine(20_000, 42);
    let pax = d.col("passenger_count");
    let pickup = d.col("pickup_time");
    let q = range_query(&d, AggregateFunction::Sum, pax, pickup, (0.2, 0.8));
    let est = engine.query(&q).unwrap().unwrap();
    let truth = engine.evaluate_exact(&q).unwrap();
    assert!(
        est.relative_error(truth) < 0.1,
        "rel {}",
        est.relative_error(truth)
    );
}

#[test]
fn unknown_predicate_attribute_uses_uniform_fallback() {
    // Fig. 8 left panel DropoffOverPickup analogue: a predicate attribute
    // no tree was built over.
    let (d, engine) = taxi_engine(20_000, 43);
    let dist = d.col("trip_distance");
    let tod = d.col("pickup_time_of_day");
    let q = range_query(&d, AggregateFunction::Sum, dist, tod, (0.25, 0.75));
    let est = engine.query(&q).unwrap().unwrap();
    let truth = engine.evaluate_exact(&q).unwrap();
    assert!(
        est.relative_error(truth) < 0.2,
        "rel {}",
        est.relative_error(truth)
    );
}

#[test]
fn runtime_template_registration_improves_new_predicate() {
    let (d, mut engine) = taxi_engine(20_000, 44);
    let dist = d.col("trip_distance");
    let tod = d.col("pickup_time_of_day");
    let q = range_query(&d, AggregateFunction::Sum, dist, tod, (0.25, 0.75));
    let truth = engine.evaluate_exact(&q).unwrap();
    let before = engine.query(&q).unwrap().unwrap().relative_error(truth);

    let mut c = SynopsisConfig::paper_default(
        QueryTemplate::new(AggregateFunction::Sum, dist, vec![tod]),
        45,
    );
    c.leaf_count = 32;
    c.sample_rate = 0.03;
    c.catchup_ratio = 0.3;
    engine.add_template(c).unwrap();
    let after = engine.query(&q).unwrap().unwrap().relative_error(truth);
    // A dedicated tree should not be (meaningfully) worse, and usually
    // better; both must be accurate.
    assert!(after < 0.08, "after re-partitioning: {after}");
    assert!(after <= before + 0.02, "before {before} after {after}");
}
