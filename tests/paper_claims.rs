//! The paper's §6 claims that no other suite asserts, as orderings and
//! trends over five seeds on the in-tree dataset generators — no
//! wall-clock thresholds (timing lives in `BENCHMARK.json`). Every case
//! here is named by a row of `REPRODUCTION.md`; a row whose status is
//! `does not hold here` names a case that asserts the *observed* outcome,
//! so the table cannot drift from the code in either direction: when such
//! a case starts failing, the claim reproduces and the row is updated.

use janus::baselines::spn::SpnConfig;
use janus::baselines::{MiniSpn, ReservoirBaseline};
use janus::prelude::*;
use std::sync::OnceLock;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;
const N: usize = 60_000;

/// `p`-quantile of a sample (0.5 = the median, 0.95 = P95).
fn quantile(mut sample: Vec<f64>, p: f64) -> f64 {
    assert!(!sample.is_empty());
    sample.sort_by(|a, b| a.total_cmp(b));
    sample[((sample.len() as f64 * p) as usize).min(sample.len() - 1)]
}

/// One of the three evaluation tables with its §6.2 1-D SUM template.
/// ETF's heavy-tailed `volume` domain is clipped at p99, as every
/// scaled-down run of that table is (`WorkloadSpec::domain_quantile`).
fn table(name: &str, seed: u64) -> (Vec<Row>, QueryTemplate, f64) {
    let (d, pred, agg, clip) = match name {
        "intel" => (intel_wireless(N, seed), "time", "light", 1.0),
        "taxi" => (nyc_taxi(N, seed), "pickup_time", "trip_distance", 1.0),
        "etf" => (nasdaq_etf(N, seed), "volume", "close", 0.99),
        other => panic!("unknown table {other}"),
    };
    let template = QueryTemplate::new(AggregateFunction::Sum, d.col(agg), vec![d.col(pred)]);
    (d.rows, template, clip)
}

/// 200 uniform rectangles over `rows` with their non-zero ground truths.
fn workload(rows: &[Row], template: &QueryTemplate, clip: f64, seed: u64) -> Vec<(Query, f64)> {
    let spec = WorkloadSpec {
        count: 200,
        domain_quantile: clip,
        ..WorkloadSpec::paper_default(template.clone(), seed)
    };
    QueryWorkload::generate_over_rows(rows, &spec)
        .queries
        .into_iter()
        .filter_map(|q| {
            let truth = q.evaluate_exact(rows)?;
            (truth.abs() > 1e-9).then_some((q, truth))
        })
        .collect()
}

fn errors(queries: &[(Query, f64)], answer: impl Fn(&Query) -> Option<Estimate>) -> Vec<f64> {
    queries
        .iter()
        .filter_map(|(q, truth)| Some(answer(q)?.relative_error(*truth)))
        .collect()
}

fn janus(template: &QueryTemplate, seed: u64, rows: &[Row]) -> JanusEngine {
    JanusEngine::bootstrap(
        SynopsisConfig::paper_default(template.clone(), seed),
        rows.to_vec(),
    )
    .unwrap()
}

// ---------------------------------------------------------------------
// Abstract: less error than the learned baseline. JanusAQP(128, 10%, 1%)
// against the DeepDB stand-in trained on a 10% sample, per-seed ratio of
// the two median relative errors. Storage ratio: not measured (ROADMAP
// item 10's `synopsis_bytes` does not exist yet).
// ---------------------------------------------------------------------

fn janus_over_spn_error(name: &str) -> Vec<f64> {
    SEEDS
        .map(|seed| {
            let (rows, template, clip) = table(name, seed);
            let queries = workload(&rows, &template, clip, seed);
            let engine = janus(&template, seed, &rows);
            let train: Vec<Row> = rows.iter().step_by(10).cloned().collect();
            let spn = MiniSpn::train(&train, rows.len(), SpnConfig::default());
            let ours = quantile(errors(&queries, |q| engine.query(q).unwrap()), 0.5);
            let theirs = quantile(errors(&queries, |q| spn.query(q)), 0.5);
            ours / theirs
        })
        .collect()
}

#[test]
fn janus_median_error_is_below_the_deepdb_stand_in_on_intel_wireless() {
    let ratios = janus_over_spn_error("intel");
    assert!(
        ratios.iter().all(|r| *r < 1.0),
        "janus/spn median-error ratio per seed: {ratios:.2?}"
    );
}

#[test]
fn the_deepdb_stand_in_wins_on_the_synthetic_taxi_and_etf_tables() {
    // Does not reproduce at this scale (numbers and the likely reasons are
    // in REPRODUCTION.md): the stand-in wins in the median over seeds.
    for name in ["taxi", "etf"] {
        let ratios = janus_over_spn_error(name);
        assert!(
            quantile(ratios.clone(), 0.5) > 1.0,
            "{name}: janus/spn median-error ratio per seed {ratios:.2?} — the \
             headline now reproduces here; update REPRODUCTION.md"
        );
    }
}

// ---------------------------------------------------------------------
// Fig. 6: build on the first half, delete the last p% of it, answer over
// what remains. Flat means: the median error at 5% and 9% stays within
// 1.5x of the median error at 1%, in the median over seeds.
// ---------------------------------------------------------------------

#[test]
fn error_stays_flat_as_the_deleted_tail_grows() {
    for name in ["intel", "taxi", "etf"] {
        let mut growth = [Vec::new(), Vec::new()]; // err(5%)/err(1%), err(9%)/err(1%)
        for seed in SEEDS {
            let (rows, template, clip) = table(name, seed);
            let half = rows.len() / 2;
            // One engine per seed: the deleted tail only grows.
            let mut engine = janus(&template, seed, &rows[..half]);
            let mut kept = half;
            let mut median_error_after = |pct: usize| {
                let keep = half - half * pct / 100;
                for id in keep..kept {
                    engine.delete(id as u64).unwrap();
                }
                kept = keep;
                let queries = workload(&rows[..kept], &template, clip, seed);
                quantile(errors(&queries, |q| engine.query(q).unwrap()), 0.5)
            };
            let base = median_error_after(1);
            growth[0].push(median_error_after(5) / base);
            growth[1].push(median_error_after(9) / base);
        }
        for (pct, ratios) in [5, 9].into_iter().zip(growth) {
            let typical = quantile(ratios.clone(), 0.5);
            assert!(
                (1.0 / 1.5..=1.5).contains(&typical),
                "{name}: err({pct}%)/err(1%) per seed {ratios:.2?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 7 left: one catch-up per seed on Intel Wireless, stopped at every
// 1% of the table up to the 10% goal. The queue is a seeded shuffle, so
// the state at mark c is a finished catch-up with goal c.
// ---------------------------------------------------------------------

struct CatchupRun {
    /// P95 relative error of a 1% uniform reservoir sample (RS).
    rs_p95: f64,
    /// `(P95 relative error, 95%-interval coverage)` at marks 1%..=10%.
    marks: Vec<(f64, f64)>,
}

fn catchup_runs() -> &'static [CatchupRun] {
    static RUNS: OnceLock<Vec<CatchupRun>> = OnceLock::new();
    RUNS.get_or_init(|| {
        SEEDS
            .map(|seed| {
                let (rows, template, clip) = table("intel", seed);
                let queries = workload(&rows, &template, clip, seed);
                let rs = ReservoirBaseline::bootstrap(rows.clone(), 0.01, seed).unwrap();
                let config = SynopsisConfig::paper_default(template, seed);
                let mut engine = JanusEngine::bootstrap_without_catchup(config, rows).unwrap();
                let marks = (1..=10)
                    .map(|_| {
                        assert_eq!(engine.advance_catchup(N / 100), N / 100);
                        let answers: Vec<(Estimate, f64)> = queries
                            .iter()
                            .map(|(q, truth)| (engine.query(q).unwrap().unwrap(), *truth))
                            .collect();
                        let covered = answers
                            .iter()
                            .filter(|(est, truth)| {
                                (est.value - truth).abs() <= est.ci_half_width(Z_95)
                            })
                            .count();
                        let errors = answers.iter().map(|(est, t)| est.relative_error(*t));
                        (
                            quantile(errors.collect(), 0.95),
                            covered as f64 / answers.len() as f64,
                        )
                    })
                    .collect();
                CatchupRun {
                    rs_p95: quantile(errors(&queries, |q| rs.query(q)), 0.95),
                    marks,
                }
            })
            .collect()
    })
}

#[test]
fn a_ten_percent_catchup_beats_one_percent_and_a_uniform_sample_at_p95() {
    for (run, seed) in catchup_runs().iter().zip(SEEDS) {
        let (at_1, at_10) = (run.marks[0].0, run.marks[9].0);
        assert!(
            at_10 < at_1,
            "seed {seed}: P95 {at_10:.4} at 10% vs {at_1:.4} at 1%"
        );
        assert!(
            at_10 < run.rs_p95,
            "seed {seed}: P95 {at_10:.4} at 10% vs RS(1%) {:.4}",
            run.rs_p95
        );
    }
}

#[test]
fn the_interval_undercovers_early_in_catchup() {
    // Does not reproduce (ROADMAP item 1): the paper's interval is valid
    // throughout catch-up; here the 95% interval covers below 0.92 at each
    // of the first five marks and at 0.92 or more only from 8% on.
    let mean_coverage: Vec<f64> = (0..10)
        .map(|mark| {
            let at_mark = catchup_runs().iter().map(|run| run.marks[mark].1);
            at_mark.sum::<f64>() / SEEDS.count() as f64
        })
        .collect();
    println!("mean 95%-interval coverage at catch-up marks 1%..10%: {mean_coverage:.3?}");
    let (early, late) = (&mean_coverage[..5], &mean_coverage[7..]);
    assert!(
        early.iter().all(|c| *c < 0.92) && late.iter().all(|c| *c >= 0.92),
        "coverage at marks 1%..10%: {mean_coverage:.3?} — if the early marks now \
         cover, item 1 moved; update REPRODUCTION.md"
    );
}

// ---------------------------------------------------------------------
// REPRODUCTION.md names things that exist.
// ---------------------------------------------------------------------

#[test]
fn reproduction_table_names_real_things() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let read = |path: &str| {
        std::fs::read_to_string(format!("{root}{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let benchmark = read("BENCHMARK.json");
    let declared = |name: &str| benchmark.contains(&format!("\"name\": \"{name}\""));
    let table = read("REPRODUCTION.md");
    let mut artefacts = Vec::new();
    for line in table.lines().filter(|l| l.starts_with("| ")).skip(1) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        let [artefact, _section, _claim, status, place] = cells[..] else {
            panic!("expected five cells: {line}");
        };
        artefacts.push(artefact);
        // The cell's backticked spans are what it names.
        let named: Vec<&str> = place.split('`').skip(1).step_by(2).collect();
        assert!(!named.is_empty(), "{artefact}: names nothing");
        for name in named {
            match status {
                "holds" | "does not hold here" => {
                    let (file, test) = name.split_once("::").expect("file.rs::test_fn");
                    assert!(
                        file.starts_with("tests/") || file.starts_with("crates/"),
                        "{artefact}: {file}"
                    );
                    assert!(
                        read(file).contains(&format!("fn {test}(")),
                        "{artefact}: no `fn {test}` in {file}"
                    );
                }
                "measured" => {
                    let (metric, workload) = name.split_once('@').unwrap_or((name, ""));
                    assert!(declared(metric), "{artefact}: metric {metric}");
                    assert!(
                        workload.is_empty() || declared(workload),
                        "{artefact}: workload {workload}"
                    );
                }
                other => panic!("{artefact}: status `{other}`"),
            }
        }
    }
    for required in [
        "Abstract: error",
        "Abstract: updates/s",
        "Abstract: query latency",
        "Table 2 error",
        "Table 2 latency",
        "Table 3",
        "Table 4",
        "Fig. 5 left",
        "Fig. 5 right",
        "Fig. 6",
        "Fig. 7 left",
        "Fig. 7 right",
        "Fig. 8 predicate",
        "Fig. 8 attribute",
        "Fig. 8 function",
        "Fig. 9 error",
        "Fig. 9 cost",
        "Fig. 10 left",
        "Fig. 10 right",
    ] {
        assert!(
            artefacts.iter().any(|a| a.starts_with(required)),
            "REPRODUCTION.md has no row for {required}"
        );
    }
}
