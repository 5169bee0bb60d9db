//! One module per paper table/figure. Each exposes
//! `run(scale: f64) -> ExpReport`.

pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;
pub mod table4;

use janus_common::{AggregateFunction, Query, QueryTemplate};
use janus_core::SynopsisConfig;
use janus_data::{intel_wireless, nasdaq_etf, nyc_taxi, Dataset};

/// Paper dataset sizes (§6.1.1).
pub const INTEL_N: usize = 3_000_000;
/// NYC Taxi row count.
pub const TAXI_N: usize = 7_700_000;
/// NASDAQ ETF row count.
pub const ETF_N: usize = 4_000_000;

/// The three evaluation datasets at the given scale, with their 1-D
/// experiment columns `(predicate, aggregate)` (§6.2).
pub fn datasets(scale: f64) -> Vec<(Dataset, &'static str, &'static str)> {
    vec![
        (
            intel_wireless(crate::scaled(INTEL_N, scale), 0xda7a),
            "time",
            "light",
        ),
        (
            nyc_taxi(crate::scaled(TAXI_N, scale), 0xda7a),
            "pickup_time",
            "trip_distance",
        ),
        (
            nasdaq_etf(crate::scaled(ETF_N, scale), 0xda7a),
            "volume",
            "close",
        ),
    ]
}

/// The paper's standard synopsis configuration — `(128, 10%, 1%)` in the
/// paper's `(leaves, catch-up, sample-rate)` notation — with the leaf count
/// clamped by the §5.5 `k ≈ 0.5%·m` rule so scaled-down runs keep sane
/// strata sizes.
pub fn paper_config(dataset: &Dataset, pred: &str, agg: &str, seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(
        AggregateFunction::Sum,
        dataset.col(agg),
        vec![dataset.col(pred)],
    );
    let mut cfg = SynopsisConfig::paper_default(template, seed);
    let m = (cfg.sample_rate * dataset.len() as f64) as usize;
    cfg.leaf_count = ((m as f64 * 0.005) as usize).clamp(16, 128);
    cfg
}

/// The paper's query workload for a dataset/template (2000 uniform
/// rectangles, scaled). Heavy-tailed predicate domains are clipped at the
/// p99.5 quantile under reduced scale (see `WorkloadSpec::domain_quantile`).
pub fn workload(dataset: &Dataset, pred: &str, agg: &str, scale: f64, seed: u64) -> Vec<Query> {
    let template = QueryTemplate::new(
        AggregateFunction::Sum,
        dataset.col(agg),
        vec![dataset.col(pred)],
    );
    let quantile = if scale >= 0.5 {
        1.0
    } else if scale >= 0.1 {
        0.995
    } else {
        0.99
    };
    let spec = janus_data::WorkloadSpec {
        template,
        count: crate::scaled_queries(scale),
        min_width_fraction: 0.01,
        seed,
        domain_quantile: quantile,
    };
    janus_data::QueryWorkload::generate(dataset, &spec).queries
}

/// Precomputed ground truths for one evaluation point.
pub fn truths(queries: &[Query], rows: &[janus_common::Row]) -> Vec<Option<f64>> {
    queries.iter().map(|q| q.evaluate_exact(rows)).collect()
}

/// Relative errors + total latency of `answer` against precomputed truths.
pub fn errors_against<F>(
    queries: &[Query],
    truths: &[Option<f64>],
    mut answer: F,
) -> (Vec<f64>, std::time::Duration)
where
    F: FnMut(&Query) -> Option<janus_common::Estimate>,
{
    let mut errors = Vec::with_capacity(queries.len());
    let mut latency = std::time::Duration::ZERO;
    for (q, truth) in queries.iter().zip(truths) {
        let started = std::time::Instant::now();
        let est = answer(q);
        latency += started.elapsed();
        let (Some(est), Some(truth)) = (est, truth) else {
            continue;
        };
        if truth.abs() < 1e-9 {
            continue;
        }
        errors.push(est.relative_error(*truth));
    }
    (errors, latency)
}
