//! Absolute pins on the §4.4 / §5.5 estimator: every `Estimate` field of
//! a fixed query list over two seeded engines, bit for bit.
//!
//! The twin-vs-twin suites (`cluster_equivalence`, `remote_cluster`, …)
//! prove layers agree with *each other*; a refactor that moves both twins
//! moves them together. These constants do not move: a change to any
//! sampling, partitioning or estimation decision, or to a floating-point
//! accumulation order, fails here first. On a mismatch the assertion
//! prints the whole actual table — re-pin from it only when the change
//! *means* to move answers, and say so in CHANGES.md.
//!
//! Pinned metadata quirks (deliberate): sampling-only and uniform
//! MIN/MAX answers are `Estimate::exact` (no node counts), the
//! two-layer MIN/MAX answer reports `samples_used = 0`, and a uniform
//! answer reports `partial_nodes = 0`.

use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Column layout of the pinned table.
const X: usize = 0; // template predicate, uniform on [0, 100)
const Y: usize = 1; // the "other" column, uniform on [0, 10)
const A: usize = 2; // template aggregate

fn row(id: u64, rng: &mut SmallRng) -> Row {
    let x = rng.gen::<f64>() * 100.0;
    let y = rng.gen::<f64>() * 10.0;
    Row::new(id, vec![x, y, 3.0 * x - 7.0 * y + rng.gen::<f64>() * 20.0])
}

fn config(pred: usize, seed: u64) -> SynopsisConfig {
    let mut c = SynopsisConfig::paper_default(
        QueryTemplate::new(AggregateFunction::Sum, A, vec![pred]),
        seed,
    );
    c.leaf_count = 16;
    c.sample_rate = 0.05;
    c.catchup_ratio = 0.3;
    c.catchup_per_update = 1;
    c
}

/// ~20k rows, a third of the catch-up goal applied up front, then ~2k
/// mixed updates (each pumping one more catch-up row): queried with the
/// catch-up still partial, so covered nodes carry `ν_c > 0`.
fn pinned_engine() -> JanusEngine {
    let mut rng = SmallRng::seed_from_u64(0x9195);
    let rows: Vec<Row> = (0..20_000).map(|i| row(i, &mut rng)).collect();
    let mut engine = JanusEngine::bootstrap_without_catchup(config(X, 18), rows).unwrap();
    engine.advance_catchup(2_000);
    let mut live: Vec<u64> = (0..20_000).collect();
    for next_id in 20_000..22_000u64 {
        if rng.gen_bool(0.7) {
            engine.insert(row(next_id, &mut rng)).unwrap();
            live.push(next_id);
        } else {
            let at = rng.gen_range(0..live.len());
            engine.delete(live.swap_remove(at)).unwrap();
        }
    }
    assert!(
        engine.catchup_progress() < 1.0,
        "catch-up must stay partial"
    );
    engine
}

fn pinned_multi() -> JanusEngine {
    let mut rng = SmallRng::seed_from_u64(0x3171);
    let rows: Vec<Row> = (0..8_000).map(|i| row(i, &mut rng)).collect();
    let mut engine =
        JanusEngine::bootstrap_templates(vec![config(X, 19), config(Y, 19)], rows).unwrap();
    engine.run_catchup_to_goal();
    for id in 8_000..8_600u64 {
        engine.insert(row(id, &mut rng)).unwrap();
    }
    for id in (0..900u64).step_by(3) {
        engine.delete(id).unwrap();
    }
    engine
}

const AGGS: [AggregateFunction; 5] = [
    AggregateFunction::Sum,
    AggregateFunction::Count,
    AggregateFunction::Avg,
    AggregateFunction::Min,
    AggregateFunction::Max,
];

/// Ranges as fractions of a predicate column's `[0, scale)` domain; the
/// empty one lies wholly above it (inside the unbounded last leaf).
const RANGES: [(&str, f64, f64); 4] = [
    ("narrow", 0.40, 0.41),
    ("wide", 0.105, 0.773),
    ("empty", 2.0, 3.0),
    ("whole", f64::NEG_INFINITY, f64::INFINITY),
];

/// `(path, aggregation column, predicate column, predicate scale)` on the
/// single-template engine (tree over `X`, aggregate `A`).
const PATHS: [(&str, usize, usize, f64); 3] = [
    ("match", A, X, 100.0),
    ("sampling", Y, X, 100.0),
    ("uniform", A, Y, 10.0),
];

fn query(agg: AggregateFunction, agg_col: usize, pred: usize, lo: f64, hi: f64) -> Query {
    Query::new(
        agg,
        agg_col,
        vec![pred],
        RangePredicate::new(vec![lo], vec![hi]).unwrap(),
    )
    .unwrap()
}

fn line(label: String, est: Option<Estimate>) -> String {
    match est {
        None => format!("{label} None"),
        Some(e) => {
            assert!(
                !e.partial,
                "{label}: a single engine never answers partially"
            );
            format!(
                "{label} {:016x} {:016x} {:016x} {} {} {}",
                e.value.to_bits(),
                e.catchup_variance.to_bits(),
                e.sample_variance.to_bits(),
                e.covered_nodes,
                e.partial_nodes,
                e.samples_used
            )
        }
    }
}

fn assert_pinned(actual: &[String], pins: &str) {
    let expected: Vec<&str> = pins
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert!(
        actual
            .iter()
            .map(String::as_str)
            .eq(expected.iter().copied()),
        "estimator answers moved; actual table:\n{}",
        actual.join("\n")
    );
}

#[test]
fn single_engine_answers_are_pinned() {
    let engine = pinned_engine();
    let mut actual = Vec::new();
    for (path, agg_col, pred, scale) in PATHS {
        for (range, lo, hi) in RANGES {
            for agg in AGGS {
                let q = query(agg, agg_col, pred, lo * scale, hi * scale);
                actual.push(line(
                    format!("{agg}/{path}/{range}"),
                    engine.query(&q).unwrap(),
                ));
            }
        }
    }
    assert_pinned(&actual, ENGINE_PINS);
}

/// `answer_sum_count` is the scatter-gather hook: its halves must be the
/// SUM and COUNT answers pinned above, field for field, on every path.
#[test]
fn sum_count_pair_equals_the_two_pinned_queries() {
    let engine = pinned_engine();
    for (path, agg_col, pred, scale) in PATHS {
        for (range, lo, hi) in RANGES {
            let q = query(
                AggregateFunction::Avg,
                agg_col,
                pred,
                lo * scale,
                hi * scale,
            );
            let (sum, count) = engine.answer_sum_count(&q).unwrap();
            for (agg, half) in [
                (AggregateFunction::Sum, sum),
                (AggregateFunction::Count, count),
            ] {
                let direct = engine.query(&Query { agg, ..q.clone() }).unwrap();
                assert_eq!(Some(half), direct, "{agg}/{path}/{range}");
            }
        }
    }
}

#[test]
fn multi_template_answers_are_pinned() {
    let engine = pinned_multi();
    let mut actual = Vec::new();
    // Both trees, the sampling-only fallback (tree over X, aggregate Y)
    // and the uniform fallback (no tree over A as a predicate).
    for (path, agg_col, pred, lo, hi) in [
        ("tree-x", A, X, 10.5, 77.3),
        ("tree-y", A, Y, 1.05, 7.73),
        ("sampling", Y, X, 10.5, 77.3),
        ("uniform", Y, A, 0.0, 150.0),
    ] {
        for agg in AGGS {
            let q = query(agg, agg_col, pred, lo, hi);
            actual.push(line(format!("{agg}/{path}"), engine.query(&q).unwrap()));
        }
    }
    assert_pinned(&actual, MULTI_PINS);
}

const ENGINE_PINS: &str = "\
    SUM/match/narrow 40d1bb05f2fe0d0a 0000000000000000 4170c65fd9f119b8 0 1 18
    COUNT/match/narrow 4068600000000000 0000000000000000 409ea66db6db6db7 0 1 18
    AVG/match/narrow 405746ec3db14c32 0000000000000000 407ce9582c8c8eb3 0 1 18
    MIN/match/narrow 404f9af8163d13b8 0000000000000000 0000000000000000 0 1 0
    MAX/match/narrow 405fe4a544836eaa 0000000000000000 0000000000000000 0 1 0
    SUM/match/wide 4136cc886a687767 417748b2b6a6d80e 419f402d636d5082 4 2 547
    COUNT/match/wide 40cbc4dcf233249a 0000000000000000 40cf9a4811e64863 4 2 547
    AVG/match/wide 405a45cfe62ea331 3fb669f0e2a83679 400eed3300374d68 4 2 547
    MIN/match/wide c03c3f3b1a659804 0000000000000000 0000000000000000 4 2 0
    MAX/match/wide 406e171c65eac04f 0000000000000000 0000000000000000 4 2 0
    SUM/match/empty 0000000000000000 0000000000000000 0000000000000000 0 1 0
    COUNT/match/empty 0000000000000000 0000000000000000 0000000000000000 0 1 0
    AVG/match/empty None
    MIN/match/empty None
    MAX/match/empty None
    SUM/match/whole 4143c63a825950b2 41c96fa155704756 0000000000000000 1 0 0
    COUNT/match/whole 40d45e0000000000 0000000000000000 0000000000000000 1 0 0
    AVG/match/whole 405f118b28e83d95 3fff65110cd92eed 0000000000000000 1 0 0
    MIN/match/whole c0509a13b80e0829 0000000000000000 0000000000000000 1 0 0
    MAX/match/whole 4073a63e6e2f7255 0000000000000000 0000000000000000 1 0 0
    SUM/sampling/narrow 4090eb6671577f0b 0000000000000000 40f1791a1e649e4b 0 1 18
    COUNT/sampling/narrow 4068600000000000 0000000000000000 409ea66db6db6db7 0 1 18
    AVG/sampling/narrow 40163659da607cc6 0000000000000000 3ffe1d618c6f8113 0 1 18
    MIN/sampling/narrow 3ffef98f4d026233 0000000000000000 0000000000000000 0 0 0
    MAX/sampling/narrow 4023915e2c5de43c 0000000000000000 0000000000000000 0 0 0
    SUM/sampling/wide 40f156efef7fee65 0000000000000000 4138bc608617a72a 0 8 1364
    COUNT/sampling/wide 40cbc4dcf233249a 0000000000000000 40cf9a4811e64863 0 8 1364
    AVG/sampling/wide 4013fb45d686ae62 0000000000000000 3f83dbe588ecb095 0 8 1364
    MIN/sampling/wide 3f649d3f8432f800 0000000000000000 0000000000000000 0 0 0
    MAX/sampling/wide 4023f5ceec22561c 0000000000000000 0000000000000000 0 0 0
    SUM/sampling/empty 0000000000000000 0000000000000000 0000000000000000 0 1 0
    COUNT/sampling/empty 0000000000000000 0000000000000000 0000000000000000 0 1 0
    AVG/sampling/empty None
    MIN/sampling/empty None
    MAX/sampling/empty None
    SUM/sampling/whole 40f969395b53cd34 0000000000000000 413b5bd3a78731be 0 16 2000
    COUNT/sampling/whole 40d45e0000000000 0000000000000000 0000000000000000 0 16 2000
    AVG/sampling/whole 4013f65b35f893d9 0000000000000000 3f70e2488c9375ac 0 16 2000
    MIN/sampling/whole 3f649d3f8432f800 0000000000000000 0000000000000000 0 0 0
    MAX/sampling/whole 4023f5ceec22561c 0000000000000000 0000000000000000 0 0 0
    SUM/uniform/narrow 40db0afd0199887e 0000000000000000 4186a3d737c173a9 0 0 24
    COUNT/uniform/narrow 406f48b439581063 0000000000000000 40a4250968f92c96 0 0 24
    AVG/uniform/narrow 405ba96f77e601f1 0000000000000000 4087b02d37512ad0 0 0 24
    MIN/uniform/narrow c02869751b493c82 0000000000000000 0000000000000000 0 0 0
    MAX/uniform/narrow 406d7771f4781fab 0000000000000000 0000000000000000 0 0 0
    SUM/uniform/wide 413b68cc37500b6f 0000000000000000 41dc8cf18f0dc986 0 0 1334
    COUNT/uniform/wide 40cb2b79db22d0e6 0000000000000000 40e79643ab7b5d33 0 0 1334
    AVG/uniform/wide 4060241c958779f5 0000000000000000 4023cd552724b127 0 0 1334
    MIN/uniform/wide c04836520850b246 0000000000000000 0000000000000000 0 0 0
    MAX/uniform/wide 40732643e9b5c027 0000000000000000 0000000000000000 0 0 0
    SUM/uniform/empty 0000000000000000 0000000000000000 0000000000000000 0 0 0
    COUNT/uniform/empty 0000000000000000 0000000000000000 0000000000000000 0 0 0
    AVG/uniform/empty None
    MIN/uniform/empty None
    MAX/uniform/empty None
    SUM/uniform/whole 4143b107a58ac957 0000000000000000 41d94b90f70c324d 0 0 2000
    COUNT/uniform/whole 40d45e0000000000 0000000000000000 0000000000000000 0 0 2000
    AVG/uniform/whole 405ef03cb848b924 0000000000000000 400f388de02fd21a 0 0 2000
    MIN/uniform/whole c04bfc47c3dc40b0 0000000000000000 0000000000000000 0 0 0
    MAX/uniform/whole 4073707d47c026aa 0000000000000000 0000000000000000 0 0 0
";

const MULTI_PINS: &str = "\
    SUM/tree-x 41223bf20e17848f 4159a3f41ca4501e 418700d46318ef57 4 2 221
    COUNT/tree-x 40b5e565928dd2ea 0000000000000000 40b938259b03290c 4 2 221
    AVG/tree-x 405aa5f68c003eb1 3fc3ba9ff16a8cdf 401f7c36dce1bfee 4 2 221
    MIN/tree-x c0313705c9111dc7 0000000000000000 0000000000000000 4 2 0
    MAX/tree-x 406e635110805b3a 0000000000000000 0000000000000000 4 2 0
    SUM/tree-y 4125d4e3a2b2c053 419e9edd449aabb2 419406b7f2419a9d 3 2 57
    COUNT/tree-y 40b5b69a8b35166b 0000000000000000 4081062bbbd7f77f 3 2 57
    AVG/tree-y 4060165110a01a3a 400cb3ee2e84547a 404bd3d98150b8b7 3 2 57
    MIN/tree-y c0435fb5cc386324 0000000000000000 0000000000000000 3 2 0
    MAX/tree-y 407334f83b49fdee 0000000000000000 0000000000000000 3 2 0
    SUM/sampling 40db47a3d8d9ae52 0000000000000000 41250597ed6e4703 0 8 509
    COUNT/sampling 40b5e565928dd2e8 0000000000000000 40b938259b03290c 0 8 509
    AVG/sampling 4013ef1dadc39653 0000000000000000 3f9c81cbc3d17e4c 0 8 509
    MIN/sampling 3f4775aded9e4800 0000000000000000 0000000000000000 0 0 0
    MAX/sampling 4023fc60b8fa2cfb 0000000000000000 0000000000000000 0 0 0
    SUM/uniform 40d3f15de637e59f 0000000000000000 412c4fa35e7bd1c7 0 0 381
    COUNT/uniform 40b0205438256e4a 0000000000000000 40d5f4c460142e4c 0 0 381
    AVG/uniform 4013c962f98e06e6 0000000000000000 3fabde91ea29b0df 0 0 381
    MIN/uniform 3f4775aded9e4800 0000000000000000 0000000000000000 0 0 0
    MAX/uniform 4023fc60b8fa2cfb 0000000000000000 0000000000000000 0 0 0
";

/// `pinned_engine` evicts ~60 samples against a floor of 1,000 and never
/// re-samples. This one deletes sampled rows until the floor is breached
/// (§4.2: re-sample `2m` rows, clear the strata, rebuild **M**), then
/// inserts into the full reservoir so replacements evict residents.
#[test]
fn single_engine_answers_past_a_resample_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(0x7e5a);
    let rows: Vec<Row> = (0..4_000).map(|i| row(i, &mut rng)).collect();
    let mut engine = JanusEngine::bootstrap_without_catchup(config(X, 24), rows).unwrap();
    engine.advance_catchup(400);
    let target = engine.reservoir().target();
    let sampled: Vec<u64> = engine.reservoir().iter().map(|r| r.id).collect();
    assert_eq!(sampled.len(), target);
    // Floor `m` is half the target: the (m + 1)-th sampled delete breaches it.
    for &id in &sampled[..target / 2 + 1] {
        engine.delete(id).unwrap();
    }
    assert_eq!(engine.stats().resamples, 1);
    assert_eq!(engine.reservoir().len(), target);
    let mut replaced = 0;
    for id in 4_000..4_600u64 {
        engine.insert(row(id, &mut rng)).unwrap();
        replaced += usize::from(engine.reservoir().contains(id));
    }
    assert!(replaced >= 10, "only {replaced} inserts evicted a resident");
    let mut actual = Vec::new();
    for (path, agg_col, pred, scale) in PATHS {
        for (range, lo, hi) in [RANGES[1], RANGES[3]] {
            for agg in AGGS {
                let q = query(agg, agg_col, pred, lo * scale, hi * scale);
                actual.push(line(
                    format!("{agg}/{path}/{range}"),
                    engine.query(&q).unwrap(),
                ));
            }
        }
    }
    assert_pinned(&actual, ENGINE_RESAMPLE_PINS);
}

/// `pinned_multi` evicts ~30 samples against a floor of 400. The engine
/// exposes neither its reservoir nor counters, so the breach is forced by
/// volume: deleting 4,400 of 8,000 rows takes the 800 samples to the floor
/// at about the 4,000th delete — the next sampled delete re-samples 800
/// rows — and the last ~400 deletes open ~80 slots again. The 600 inserts
/// refill those and then replace ~100 residents at `|S|/|D|` ≈ 0.2; the
/// whole-table sampling answer reports `samples_used` = 800, a full
/// reservoir.
#[test]
fn multi_template_answers_past_a_resample_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(0x51ab);
    let rows: Vec<Row> = (0..8_000).map(|i| row(i, &mut rng)).collect();
    let mut engine =
        JanusEngine::bootstrap_templates(vec![config(X, 25), config(Y, 25)], rows).unwrap();
    engine.run_catchup_to_goal();
    for id in 0..4_400u64 {
        engine.delete(id).unwrap();
    }
    for id in 8_000..8_600u64 {
        engine.insert(row(id, &mut rng)).unwrap();
    }
    let mut actual = Vec::new();
    for (path, agg_col, pred, lo, hi) in [
        ("tree-x", A, X, 10.5, 77.3),
        ("tree-y", A, Y, 1.05, 7.73),
        ("sampling", Y, X, 10.5, 77.3),
        ("uniform", Y, A, 0.0, 150.0),
        ("sampling-whole", Y, X, f64::NEG_INFINITY, f64::INFINITY),
    ] {
        for agg in AGGS {
            let q = query(agg, agg_col, pred, lo, hi);
            actual.push(line(format!("{agg}/{path}"), engine.query(&q).unwrap()));
        }
    }
    assert_pinned(&actual, MULTI_RESAMPLE_PINS);
}

const ENGINE_RESAMPLE_PINS: &str = "\
    SUM/match/wide 4113b2269f5eb2de 414ae560611b0ace 4181695c897e2a2b 3 2 125
    COUNT/match/wide 40a7ae3d4538800e 0000000000000000 40ac94d47ea95543 3 2 125
    AVG/match/wide 405a9d89ce2774de 3fd2285b0c37452b 40247487a4e20f0e 3 2 125
    MIN/match/wide c0365623ca4f27e9 0000000000000000 0000000000000000 3 2 0
    MAX/match/wide 406e1777c0485f01 0000000000000000 0000000000000000 3 2 0
    SUM/match/whole 4120ae7303abdad0 419dffd05fb505cf 0000000000000000 1 0 0
    COUNT/match/whole 40b12f0000000000 0000000000000000 0000000000000000 1 0 0
    AVG/match/whole 405f109b861c0324 401a024a1a09ce52 0000000000000000 1 0 0
    MIN/match/whole c04fecc10fac0bed 0000000000000000 0000000000000000 1 0 0
    MAX/match/whole 40736174faa0a6e1 0000000000000000 0000000000000000 1 0 0
    SUM/sampling/wide 40ccb4836ded8386 0000000000000000 411762005c785463 0 7 272
    COUNT/sampling/wide 40a7ae3d4538800e 0000000000000000 40ac94d47ea95543 0 7 272
    AVG/sampling/wide 40136514ccd50d30 0000000000000000 3fabce224f0322b6 0 7 272
    MIN/sampling/wide 3fa03a5666b93780 0000000000000000 0000000000000000 0 0 0
    MAX/sampling/wide 4023cade51d41db6 0000000000000000 0000000000000000 0 0 0
    SUM/sampling/whole 40d5095d788de122 0000000000000000 411662a206bd9a5c 0 16 400
    COUNT/sampling/whole 40b12f0000000001 0000000000000000 0000000000000000 0 16 400
    AVG/sampling/whole 4013966ccc32ddd8 0000000000000000 3f9368609185b59c 0 16 400
    MIN/sampling/whole 3f6fcf2c0d422200 0000000000000000 0000000000000000 0 0 0
    MAX/sampling/whole 4023f15c37af9404 0000000000000000 0000000000000000 0 0 0
    SUM/uniform/wide 4117bc6b0d98902c 0000000000000000 41b9709152b4387c 0 0 275
    COUNT/uniform/wide 40a7a0a000000000 0000000000000000 40c44cdb11999999 0 0 275
    AVG/uniform/wide 406012d22992ebf9 0000000000000000 404754f2fdebaca5 0 0 275
    MIN/uniform/wide c04426c9f830818c 0000000000000000 0000000000000000 0 0 0
    MAX/uniform/wide 4072292beb7a7709 0000000000000000 0000000000000000 0 0 0
    SUM/uniform/whole 412094df92f1247e 0000000000000000 41b5f69370ca76e9 0 0 400
    COUNT/uniform/whole 40b12f0000000000 0000000000000000 0000000000000000 0 0 400
    AVG/uniform/whole 405ee0fa9bf8956e 0000000000000000 40330ab18006caa9 0 0 400
    MIN/uniform/whole c0495db713378635 0000000000000000 0000000000000000 0 0 0
    MAX/uniform/whole 407231ca835a28bf 0000000000000000 0000000000000000 0 0 0
";

const MULTI_RESAMPLE_PINS: &str = "\
    SUM/tree-x 411221d2f7018a94 4136baccc8a61aae 41659945f90eabab 3 2 234
    COUNT/tree-x 40a5795d63edd431 0000000000000000 4098fdf895f7510d 3 2 234
    AVG/tree-x 405b0519a2d9661a 3fc290e361b04d36 40000cc5458772c4 3 2 234
    MIN/tree-x c03d982e2e683d85 0000000000000000 0000000000000000 3 2 0
    MAX/tree-x 406e5bbff63a8aca 0000000000000000 0000000000000000 3 2 0
    SUM/tree-y 41162f8ab86513dd 417e873d34023d69 4175219b89baf1b8 3 2 76
    COUNT/tree-y 40a5d8c45d4b4717 0000000000000000 4072f81dc05c4722 3 2 76
    AVG/tree-y 40603f8d3a569368 400e88e8b0bbe7af 4012f4ed46f7c464 3 2 76
    MIN/tree-y c0420092b45455db 0000000000000000 0000000000000000 3 2 0
    MAX/tree-y 4072b0a1fff1a34a 0000000000000000 0000000000000000 3 2 0
    SUM/sampling 40cc31372f797d6c 0000000000000000 410324c00dd53db8 0 7 527
    COUNT/sampling 40a5795d63edd430 0000000000000000 4098fdf895f7510d 0 7 527
    AVG/sampling 4015016f0952a71b 0000000000000000 3f9848b7fc87f493 0 7 527
    MIN/sampling 3f81f6c09fd34380 0000000000000000 0000000000000000 0 0 0
    MAX/sampling 4023df72e8978bc9 0000000000000000 0000000000000000 0 0 0
    SUM/uniform 40c562fe46189e0a 0000000000000000 410c161244c71798 0 0 399
    COUNT/uniform 40a05d8000000000 0000000000000000 40b588772e147ae1 0 0 399
    AVG/uniform 4014e8cdd34dcf57 0000000000000000 3faad8b88c79155d 0 0 399
    MIN/uniform 3f81f6c09fd34380 0000000000000000 0000000000000000 0 0 0
    MAX/uniform 4023df72e8978bc9 0000000000000000 0000000000000000 0 0 0
    SUM/sampling-whole 40d51c5ded515d2a 0000000000000000 4105f9cc24c1da51 0 16 800
    COUNT/sampling-whole 40b0680000000001 0000000000000000 0000000000000000 0 16 800
    AVG/sampling-whole 4014968b634bef93 0000000000000000 3f84e6a2cfd53972 0 16 800
    MIN/sampling-whole 3f7573c14af87700 0000000000000000 0000000000000000 0 0 0
    MAX/sampling-whole 4023fc13a85d99c4 0000000000000000 0000000000000000 0 0 0
";
