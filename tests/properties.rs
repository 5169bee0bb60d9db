//! Property-based tests over the cross-crate invariants: estimator
//! consistency, partition-tree invariants under arbitrary update sequences,
//! and reservoir/stratum bookkeeping.

use janus::prelude::*;
use proptest::prelude::*;

fn arb_row(id_base: u64) -> impl Strategy<Value = Row> {
    (0.0f64..1000.0, 0.0f64..100.0, 0u64..1_000_000)
        .prop_map(move |(x, a, salt)| Row::new(id_base + salt, vec![x, a]))
}

fn small_config(seed: u64, k: usize) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = k;
    c.sample_rate = 0.2;
    c.catchup_ratio = 1.0; // exact base: estimator checks become sharp
    c.auto_repartition = false;
    c
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// With an exact base and the whole domain covered, COUNT/SUM answers
    /// are exact no matter what update sequence was applied.
    #[test]
    fn whole_domain_count_sum_exact_under_updates(
        rows in prop::collection::vec(arb_row(0), 50..200),
        extra in prop::collection::vec(arb_row(10_000_000), 0..60),
        delete_mask in prop::collection::vec(any::<bool>(), 60),
    ) {
        // De-duplicate ids.
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<Row> = rows.into_iter().filter(|r| seen.insert(r.id)).collect();
        let extra: Vec<Row> = extra.into_iter().filter(|r| seen.insert(r.id)).collect();
        prop_assume!(rows.len() >= 32);

        let mut engine = JanusEngine::bootstrap(small_config(7, 8), rows.clone()).unwrap();
        let mut live: Vec<u64> = rows.iter().map(|r| r.id).collect();
        for (i, row) in extra.into_iter().enumerate() {
            let id = row.id;
            engine.insert(row).unwrap();
            live.push(id);
            if delete_mask[i % delete_mask.len()] && live.len() > 16 {
                let victim = live.swap_remove(i % live.len());
                engine.delete(victim).unwrap();
            }
        }
        let q = Query::new(
            AggregateFunction::Count, 1, vec![0],
            RangePredicate::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).unwrap(),
        ).unwrap();
        let est = engine.query(&q).unwrap().unwrap();
        prop_assert!((est.value - live.len() as f64).abs() < 1e-6,
            "count {} vs {}", est.value, live.len());

        let qs = Query::new(
            AggregateFunction::Sum, 1, vec![0],
            RangePredicate::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).unwrap(),
        ).unwrap();
        let est = engine.query(&qs).unwrap().unwrap();
        let truth = engine.evaluate_exact(&qs).unwrap();
        prop_assert!((est.value - truth).abs() <= 1e-6 * truth.abs().max(1.0));
    }

    /// MIN estimates are outer approximations: estimate <= true MIN + ε,
    /// and MAX >= true MAX - ε, whenever an answer is produced for a
    /// whole-domain query with an exact base.
    #[test]
    fn min_max_outer_approximation(
        rows in prop::collection::vec(arb_row(0), 40..150),
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<Row> = rows.into_iter().filter(|r| seen.insert(r.id)).collect();
        prop_assume!(rows.len() >= 32);
        let engine = JanusEngine::bootstrap(small_config(9, 4), rows.clone()).unwrap();
        let q = |agg| Query::new(
            agg, 1, vec![0],
            RangePredicate::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY]).unwrap(),
        ).unwrap();
        let qmin = q(AggregateFunction::Min);
        let truth_min = engine.evaluate_exact(&qmin).unwrap();
        let est_min = engine.query(&qmin).unwrap().unwrap();
        prop_assert!(est_min.value <= truth_min + 1e-9);
        let qmax = q(AggregateFunction::Max);
        let truth_max = engine.evaluate_exact(&qmax).unwrap();
        let est_max = engine.query(&qmax).unwrap().unwrap();
        prop_assert!(est_max.value >= truth_max - 1e-9);
    }

    /// Every leaf rectangle of a bootstrapped engine is disjoint from its
    /// siblings and together the leaves tile the whole line: each point
    /// lands in exactly one leaf.
    #[test]
    fn leaves_tile_the_domain(
        rows in prop::collection::vec(arb_row(0), 40..200),
        probes in prop::collection::vec(-2000.0f64..3000.0, 20),
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<Row> = rows.into_iter().filter(|r| seen.insert(r.id)).collect();
        prop_assume!(rows.len() >= 32);
        let engine = JanusEngine::bootstrap(small_config(11, 8), rows).unwrap();
        let dpt = engine.dpt();
        let leaves = dpt.leaf_indices();
        for p in probes {
            let hits = leaves.iter()
                .filter(|&&l| dpt.node(l).rect.contains(&[p]))
                .count();
            prop_assert_eq!(hits, 1, "point {} in {} leaves", p, hits);
        }
    }

    /// The pooled reservoir never exceeds its target, never drops below its
    /// floor while the table is large enough, and every sampled id is live.
    #[test]
    fn reservoir_envelope_and_liveness(
        n_del in 0usize..120,
    ) {
        let rows: Vec<Row> = (0..400u64)
            .map(|i| Row::new(i, vec![(i % 97) as f64, (i % 13) as f64]))
            .collect();
        let mut engine = JanusEngine::bootstrap(small_config(13, 4), rows).unwrap();
        let target = engine.reservoir().target();
        for id in 0..n_del as u64 {
            engine.delete(id).unwrap();
        }
        prop_assert!(engine.reservoir().len() <= target);
        prop_assert!(engine.reservoir().len() >= engine.reservoir().floor().min(engine.population()));
        for s in engine.reservoir().iter() {
            prop_assert!(engine.archive().contains(s.id));
        }
    }

    /// AVG answers always lie within [true MIN, true MAX] of the selection
    /// when the base is exact — a ratio estimator sanity invariant.
    #[test]
    fn avg_within_extrema(
        rows in prop::collection::vec(arb_row(0), 60..200),
        lo in 0.0f64..500.0,
        width in 50.0f64..500.0,
    ) {
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<Row> = rows.into_iter().filter(|r| seen.insert(r.id)).collect();
        prop_assume!(rows.len() >= 40);
        let engine = JanusEngine::bootstrap(small_config(17, 8), rows).unwrap();
        let q = Query::new(
            AggregateFunction::Avg, 1, vec![0],
            RangePredicate::new(vec![lo], vec![lo + width]).unwrap(),
        ).unwrap();
        let truth_min = engine.evaluate_exact(&Query::new(
            AggregateFunction::Min, 1, vec![0], q.range.clone()).unwrap());
        let truth_max = engine.evaluate_exact(&Query::new(
            AggregateFunction::Max, 1, vec![0], q.range.clone()).unwrap());
        if let (Some(est), Some(mn), Some(mx)) =
            (engine.query(&q).unwrap(), truth_min, truth_max)
        {
            // Sampling error can push the ratio slightly out; allow a small
            // margin proportional to the value range.
            let slack = (mx - mn) * 0.5 + 1e-9;
            prop_assert!(est.value >= mn - slack && est.value <= mx + slack,
                "avg {} outside [{}, {}]", est.value, mn, mx);
        }
    }
}
