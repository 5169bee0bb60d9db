//! Cross-system comparison on a common workload: JanusAQP must beat the
//! sampling baselines on median error (the Table 2 headline), and every
//! baseline must stay self-consistent.

use janus::baselines::spn::SpnConfig;
use janus::baselines::{MiniSpn, PassSynopsis, ReservoirBaseline, StratifiedReservoirBaseline};
use janus::core::partition::PartitionerKind;
use janus::prelude::*;

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

struct Workbench {
    dataset: Dataset,
    queries: Vec<Query>,
    truths: Vec<f64>,
}

fn workbench() -> Workbench {
    let dataset = intel_wireless(60_000, 31);
    let template = QueryTemplate::new(
        AggregateFunction::Sum,
        dataset.col("light"),
        vec![dataset.col("time")],
    );
    let workload = QueryWorkload::generate(
        &dataset,
        &WorkloadSpec {
            template,
            count: 150,
            min_width_fraction: 0.03,
            seed: 31,
            domain_quantile: 1.0,
        },
    );
    let mut queries = Vec::new();
    let mut truths = Vec::new();
    for q in workload.queries {
        let truth = q.evaluate_exact(&dataset.rows).unwrap();
        if truth.abs() > 1e-9 {
            queries.push(q);
            truths.push(truth);
        }
    }
    Workbench {
        dataset,
        queries,
        truths,
    }
}

fn config(dataset: &Dataset, seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(
        AggregateFunction::Sum,
        dataset.col("light"),
        vec![dataset.col("time")],
    );
    let mut c = SynopsisConfig::paper_default(template, seed);
    // The paper's k ≈ (0.5/100)·m rule (§5.5), scaled to the test's m. The
    // catch-up ratio is raised above the paper's 10% because at the paper's
    // N = 3M a 10% catch-up is 300k samples — at this test's N = 60k the
    // ratio must grow to keep the catch-up regime comparable in absolute
    // sample counts (Fig. 7 is exactly this knob).
    c.leaf_count = 16;
    c.sample_rate = 0.02;
    c.catchup_ratio = 0.5;
    c
}

#[test]
fn janus_beats_rs_and_srs_at_equal_sample_rate() {
    let wb = workbench();
    let janus = JanusEngine::bootstrap(config(&wb.dataset, 1), wb.dataset.rows.clone()).unwrap();
    let rs = ReservoirBaseline::bootstrap(wb.dataset.rows.clone(), 0.02, 1).unwrap();
    let srs = StratifiedReservoirBaseline::bootstrap(
        wb.dataset.rows.clone(),
        wb.dataset.col("time"),
        16,
        0.02,
        1,
    )
    .unwrap();

    let mut err_janus = Vec::new();
    let mut err_rs = Vec::new();
    let mut err_srs = Vec::new();
    for (q, &truth) in wb.queries.iter().zip(&wb.truths) {
        err_janus.push(janus.query(q).unwrap().unwrap().relative_error(truth));
        err_rs.push(rs.query(q).unwrap().relative_error(truth));
        err_srs.push(srs.query(q).unwrap().relative_error(truth));
    }
    let (mj, mr, ms) = (median(err_janus), median(err_rs), median(err_srs));
    // The Table 2 ordering: JanusAQP < SRS <~ RS.
    assert!(mj < mr, "janus {mj:.4} must beat RS {mr:.4}");
    assert!(mj < ms, "janus {mj:.4} must beat SRS {ms:.4}");
    // The paper's headline is a >2x gap at N = 3M (where catch-up holds
    // 300k samples); at this test's scaled-down N the catch-up noise floor
    // compresses the gap, so demand a 1.5x margin here (REPRODUCTION.md,
    // "Table 2 error", records what is asserted at test scale).
    assert!(
        mj < mr / 1.5,
        "janus {mj:.4} vs RS {mr:.4}: expected > 1.5x gap"
    );
}

#[test]
fn pass_bs_is_much_faster_than_dp_with_similar_error() {
    let wb = workbench();
    let cfg = config(&wb.dataset, 2);
    let bs = PassSynopsis::build(&cfg, PartitionerKind::BinarySearch1d, &wb.dataset.rows).unwrap();
    let dp = PassSynopsis::build(
        &cfg,
        PartitionerKind::Dp1d { candidates: 400 },
        &wb.dataset.rows,
    )
    .unwrap();
    assert!(
        bs.partition_time < dp.partition_time,
        "BS {:?} should be faster than DP {:?}",
        bs.partition_time,
        dp.partition_time
    );
    let mut err_bs = Vec::new();
    let mut err_dp = Vec::new();
    for (q, &truth) in wb.queries.iter().zip(&wb.truths) {
        err_bs.push(bs.query(q).unwrap().unwrap().relative_error(truth));
        err_dp.push(dp.query(q).unwrap().unwrap().relative_error(truth));
    }
    let (mb, md) = (median(err_bs), median(err_dp));
    // Table 3: DP is (slightly) more accurate, BS within a small factor.
    assert!(mb < md * 6.0 + 0.02, "bs {mb:.4} vs dp {md:.4}");
}

#[test]
fn spn_error_is_flat_as_data_grows() {
    // DeepDB's fixed resolution: training once and inserting more data must
    // not blow up the error (Table 2's flat DeepDB rows).
    let dataset = intel_wireless(30_000, 33);
    let template = QueryTemplate::new(
        AggregateFunction::Sum,
        dataset.col("light"),
        vec![dataset.col("time")],
    );
    let third = dataset.len() / 3;
    let train: Vec<Row> = dataset.rows[..third].iter().step_by(10).cloned().collect();
    let mut spn = MiniSpn::train(&train, third, SpnConfig::default());

    let eval = |spn: &MiniSpn, upto: usize| {
        let rows = &dataset.rows[..upto];
        let workload = QueryWorkload::generate_over_rows(
            rows,
            &WorkloadSpec {
                template: template.clone(),
                count: 80,
                min_width_fraction: 0.05,
                seed: 33,
                domain_quantile: 1.0,
            },
        );
        let mut errs = Vec::new();
        for q in &workload.queries {
            let truth = q.evaluate_exact(rows).unwrap();
            if truth.abs() < 1e-9 {
                continue;
            }
            if let Some(est) = spn.query(q) {
                errs.push(est.relative_error(truth));
            }
        }
        median(errs)
    };

    let err_third = eval(&spn, third);
    // Incremental inserts keep the old (fixed-resolution, fixed-support)
    // structure; the paper's protocol *retrains* DeepDB at each increment,
    // which is what keeps its error flat in Table 2.
    for row in &dataset.rows[third..] {
        spn.insert(row);
    }
    let train_full: Vec<Row> = dataset.rows.iter().step_by(10).cloned().collect();
    spn.retrain(&train_full, dataset.len());
    let err_full = eval(&spn, dataset.len());
    assert!(err_third < 0.25, "initial SPN error {err_third:.4}");
    assert!(
        err_full < err_third * 3.0 + 0.1,
        "error not flat after retrain: {err_third:.4} -> {err_full:.4}"
    );
}

#[test]
fn srs_beats_rs_on_skewed_aggregates() {
    // Stratification should help on the diurnal light attribute.
    let wb = workbench();
    let rs = ReservoirBaseline::bootstrap(wb.dataset.rows.clone(), 0.01, 7).unwrap();
    let srs = StratifiedReservoirBaseline::bootstrap(
        wb.dataset.rows.clone(),
        wb.dataset.col("time"),
        64,
        0.01,
        7,
    )
    .unwrap();
    let mut err_rs = Vec::new();
    let mut err_srs = Vec::new();
    for (q, &truth) in wb.queries.iter().zip(&wb.truths) {
        err_rs.push(rs.query(q).unwrap().relative_error(truth));
        err_srs.push(srs.query(q).unwrap().relative_error(truth));
    }
    let (ms, mr) = (median(err_srs), median(err_rs));
    assert!(ms <= mr * 1.2, "srs {ms:.4} vs rs {mr:.4}");
}
