//! The bulk bootstrap's edge cases, held to what the serial build of the
//! archive, the reservoir, the tree and the catch-up queue returns.
//!
//! Every `JanusEngine` bootstrap builds its archive in two passes (the
//! column pass, then the id index) beside the synopsis build. These cases
//! are the inputs where the two passes disagree with a plain "one row, one
//! slot" reading, or where a build has nothing to work on: a repeated id,
//! a row of another arity, an empty or one-row table, several templates
//! over one pooled sample, and a catch-up queue left unconsumed. Each is
//! asserted either against an equivalent input (the rows deduplicated by
//! hand) or against pinned bits.

use janus::common::JanusError;
use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Column layout: predicate `X` on [0, 100), `Y` on [0, 10), aggregate `A`.
const X: usize = 0;
const Y: usize = 1;
const A: usize = 2;

fn row(id: u64, rng: &mut SmallRng) -> Row {
    let x = rng.gen::<f64>() * 100.0;
    let y = rng.gen::<f64>() * 10.0;
    Row::new(id, vec![x, y, 3.0 * x - 7.0 * y + rng.gen::<f64>() * 20.0])
}

fn rows(n: u64, seed: u64) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|i| row(i, &mut rng)).collect()
}

fn config(pred: usize, seed: u64) -> SynopsisConfig {
    let mut c = SynopsisConfig::paper_default(
        QueryTemplate::new(AggregateFunction::Sum, A, vec![pred]),
        seed,
    );
    c.leaf_count = 16;
    c.sample_rate = 0.05;
    c.catchup_ratio = 0.3;
    c
}

fn query(agg: AggregateFunction, pred: usize, lo: f64, hi: f64) -> Query {
    Query::new(
        agg,
        A,
        vec![pred],
        RangePredicate::new(vec![lo], vec![hi]).unwrap(),
    )
    .unwrap()
}

/// Every field of a fixed list of answers over both predicate columns,
/// as bits.
fn answers(engine: &JanusEngine) -> Vec<String> {
    let aggs = [
        AggregateFunction::Sum,
        AggregateFunction::Count,
        AggregateFunction::Avg,
        AggregateFunction::Min,
        AggregateFunction::Max,
    ];
    let mut out = Vec::new();
    for (pred, scale) in [(X, 100.0), (Y, 10.0)] {
        for (lo, hi) in [(0.40, 0.41), (0.105, 0.773), (-1.0, 2.0)] {
            for agg in aggs {
                let est = engine.query(&query(agg, pred, lo * scale, hi * scale));
                out.push(match est.unwrap() {
                    None => format!("{agg}/{pred}/{lo} None"),
                    Some(e) => format!(
                        "{agg}/{pred}/{lo} {:016x} {:016x} {:016x} {} {} {}",
                        e.value.to_bits(),
                        e.catchup_variance.to_bits(),
                        e.sample_variance.to_bits(),
                        e.covered_nodes,
                        e.partial_nodes,
                        e.samples_used
                    ),
                });
            }
        }
    }
    out
}

/// One fingerprint of [`answers`]: FNV-1a over the lines, so a pin is
/// one constant, and a mismatch prints the lines themselves.
fn fingerprint(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn assert_pinned(label: &str, engine: &JanusEngine, pin: u64) {
    let lines = answers(engine);
    let actual = fingerprint(&lines);
    assert_eq!(
        actual,
        pin,
        "{label}: answers moved (fingerprint {actual:#018x}):\n{}",
        lines.join("\n")
    );
}

/// Two engines that must be one: same answers, same saved synopsis, same
/// archive slot order, same counters.
fn assert_same(label: &str, a: &JanusEngine, b: &JanusEngine) {
    assert_eq!(answers(a), answers(b), "{label}: answers");
    assert_eq!(a.export_rows(), b.export_rows(), "{label}: archive slots");
    assert_eq!(a.stats(), b.stats(), "{label}: counters");
    if a.template_count() == 1 {
        let (sa, sb) = (a.save_synopsis(), b.save_synopsis());
        assert_eq!(sa.to_bytes(), sb.to_bytes(), "{label}: saved synopsis");
    }
}

/// The three bootstrap entry points over one config (two templates for
/// `bootstrap_templates`, whose catch-up is then run to its goal).
fn each_bootstrap(rows: &[Row], base: &SynopsisConfig) -> Vec<(&'static str, Result<JanusEngine>)> {
    let mut transposed = base.clone();
    transposed.template = QueryTemplate::new(AggregateFunction::Sum, A, vec![Y]);
    let templates = JanusEngine::bootstrap_templates(vec![base.clone(), transposed], rows.to_vec())
        .map(|mut engine| {
            engine.run_catchup_to_goal();
            engine
        });
    vec![
        (
            "bootstrap",
            JanusEngine::bootstrap(base.clone(), rows.to_vec()),
        ),
        (
            "bootstrap_without_catchup",
            JanusEngine::bootstrap_without_catchup(base.clone(), rows.to_vec()),
        ),
        ("bootstrap_templates", templates),
    ]
}

type Result<T> = std::result::Result<T, JanusError>;

/// A repeated id keeps its first copy, and the later copy is dropped: the
/// engine is the one bootstrapped from the rows without the later copies,
/// whether the copy follows at once, lands in a later archive block, or is
/// the very last row — on large and small tables, with a shuffled catch-up
/// and with an exact base.
#[test]
fn a_later_duplicate_id_bootstraps_like_the_deduplicated_rows() {
    for (n, dup_ids) in [
        (20_000u64, vec![0u64, 5, 16_383, 16_390, 19_999]),
        (300, vec![0, 7, 299]),
    ] {
        let clean = rows(n, 0xd0d0 + n);
        let mut rng = SmallRng::seed_from_u64(0xd1);
        let mut with_dups = clean.clone();
        for (k, &id) in dup_ids.iter().enumerate() {
            let copy = row(id, &mut rng);
            let first = with_dups.iter().position(|r| r.id == id).unwrap();
            // Right after the first copy, mid-table, or at the very end.
            let at = match k % 3 {
                0 => first + 1,
                1 => (with_dups.len() / 2).max(first + 1),
                _ => with_dups.len(),
            };
            with_dups.insert(at, copy);
        }
        assert_eq!(with_dups.len(), clean.len() + dup_ids.len());
        for ratio in [0.3, 1.0] {
            let mut cfg = config(X, 41);
            cfg.catchup_ratio = ratio;
            let expected = each_bootstrap(&clean, &cfg);
            let actual = each_bootstrap(&with_dups, &cfg);
            for ((label, want), (_, got)) in expected.into_iter().zip(actual) {
                let label = format!("{label}, {n} rows, catch-up ratio {ratio}");
                assert_same(&label, &got.unwrap(), &want.unwrap());
            }
        }
    }
}

/// A row of another arity ends the column pass: with a new id it fails
/// the bootstrap with the archive's arity error, and with an id already
/// live it is ignored and the rows after it are still taken in.
#[test]
fn a_mixed_arity_bootstrap_returns_what_it_returns_today() {
    let cfg = config(X, 42);
    for n in [20_000u64, 300] {
        let clean = rows(n, 0xa4 + n);
        let odd_at = (n as usize) * 2 / 3;

        // A new id of another arity.
        let mut fresh = clean.clone();
        fresh.insert(odd_at, Row::new(n + 7, vec![1.0, 2.0]));
        for (label, got) in each_bootstrap(&fresh, &cfg) {
            match got {
                Err(JanusError::InvalidConfig(msg)) => assert_eq!(
                    msg,
                    format!("row {} has 2 values; the archive holds rows of 3", n + 7),
                    "{label}, {n} rows"
                ),
                Err(other) => panic!("{label}, {n} rows: {other:?}"),
                Ok(_) => panic!("{label}, {n} rows: a new id of another arity bootstrapped"),
            }
        }

        // A live id of another arity, with rows of both arities after it:
        // only the odd row is dropped.
        let mut live = clean.clone();
        live.insert(odd_at, Row::new(3, vec![1.0]));
        let expected = each_bootstrap(&clean, &cfg);
        for ((label, want), (_, got)) in expected.into_iter().zip(each_bootstrap(&live, &cfg)) {
            assert_same(&format!("{label}, {n} rows"), &got.unwrap(), &want.unwrap());
        }
    }

    // The first row fixes the arity, so a table whose first row is the
    // odd one fails on the first row of the common arity.
    let mut first_odd = rows(50, 0xa5);
    first_odd.insert(0, Row::new(1_000, vec![4.0, 5.0]));
    for (label, got) in each_bootstrap(&first_odd, &cfg) {
        let Err(JanusError::InvalidConfig(msg)) = got else {
            panic!("{label}: a table led by an odd row bootstrapped");
        };
        assert_eq!(msg, "row 0 has 3 values; the archive holds rows of 2");
    }
}

/// An empty table and a one-row table bootstrap, answer and keep taking
/// updates. A one-row table's catch-up goal is that row, so only
/// `bootstrap_without_catchup` leaves it unapplied.
#[test]
fn zero_and_one_row_bootstraps_behave_as_today() {
    let cfg = config(X, 43);
    for (n, pins, progress) in [
        (0u64, EMPTY_PINS, [1.0, 1.0, 1.0]),
        (1, ONE_ROW_PINS, [1.0, 0.0, 1.0]),
    ] {
        let built = each_bootstrap(&rows(n, 0xe0), &cfg);
        for (((label, got), pin), progress) in built.into_iter().zip(pins).zip(progress) {
            let label = format!("{label}, {n} rows");
            let mut engine = got.unwrap_or_else(|e| panic!("{label}: {e:?}"));
            assert_eq!(engine.population(), n as usize, "{label}");
            assert_eq!(engine.reservoir().len(), n as usize, "{label}");
            assert_eq!(engine.catchup_progress(), progress, "{label}");
            assert_pinned(&label, &engine, pin);
            let mut rng = SmallRng::seed_from_u64(0xe1);
            for id in 10..400u64 {
                engine.insert(row(id, &mut rng)).unwrap();
            }
            assert_eq!(engine.population(), n as usize + 390, "{label}");
        }
    }
}

/// Fingerprints per entry point, in [`each_bootstrap`]'s order.
const EMPTY_PINS: [u64; 3] = [0x10eccecb42124f4a, 0x10eccecb42124f4a, 0x8e84fdc5997e493a];
const ONE_ROW_PINS: [u64; 3] = [0x96573a6f5307959c, 0xc55c763479717e56, 0xfdc3556e98046b32];

/// Two templates over one pooled sample, with their catch-up queues left
/// unconsumed, then part-way, then at their goals.
#[test]
fn two_template_bootstrap_answers_are_pinned() {
    let engine = || {
        JanusEngine::bootstrap_templates(vec![config(X, 44), config(Y, 44)], rows(20_000, 0x77))
            .unwrap()
    };
    let mut engine = engine();
    assert_eq!(engine.template_count(), 2);
    assert_pinned("unconsumed", &engine, TEMPLATES_UNCONSUMED_PIN);
    assert_eq!(engine.advance_catchup(1_500), 3_000);
    assert_pinned("part-way", &engine, TEMPLATES_PART_WAY_PIN);
    engine.run_catchup_to_goal();
    assert_eq!(engine.stats().catchup_applied, 12_000);
    assert_pinned("at goal", &engine, TEMPLATES_AT_GOAL_PIN);
}

const TEMPLATES_UNCONSUMED_PIN: u64 = 0xbaa9073e6a67639e;
const TEMPLATES_PART_WAY_PIN: u64 = 0x9d9aa54f3af0ad2d;
const TEMPLATES_AT_GOAL_PIN: u64 = 0xb77cb42812dd7b0a;

/// `bootstrap_without_catchup` leaves the whole queue unconsumed: the
/// head of the seeded shuffle of the archive, `⌈0.3·|D|⌉` rows long.
#[test]
fn bootstrap_without_catchup_leaves_the_seeded_queue_unconsumed() {
    let cfg = config(X, 45);
    let engine = JanusEngine::bootstrap_without_catchup(cfg.clone(), rows(20_001, 0x45)).unwrap();
    let queue = engine.save_synopsis().catchup_rows;
    assert_eq!(queue.len(), 6_001);
    let shuffled = engine.archive().shuffled(cfg.seed ^ 0xca7c);
    assert_eq!(queue, shuffled[..6_001]);
    let head: Vec<RowId> = queue.iter().take(6).map(|r| r.id).collect();
    assert_eq!(head, QUEUE_HEAD);
    assert_eq!(engine.catchup_progress(), 0.0);
    assert_eq!(engine.stats().catchup_applied, 0);
}

const QUEUE_HEAD: [RowId; 6] = [7430, 13049, 19099, 17475, 6466, 7955];
