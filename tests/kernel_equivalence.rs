//! Property tests pinning the chunked scan kernels to the per-row scalar
//! path — to the bit.
//!
//! The `janus_common::kernels` module promises that its branch-light,
//! fixed-chunk masked scans produce *bit-identical* partials to a naive
//! per-row `if matched { accumulate }` loop over NaN-free columns (see
//! the module docs for the select-identity proof). Everything downstream
//! — the `evaluate_exact` oracles, the segmented and pooled-parallel
//! scans — leans on that contract, so it is
//! pinned here across random arities, predicates, aggregates, and row
//! counts that land on every interesting `len % CHUNK` residue.

use janus::common::kernels::{self, ScanPartial};
use janus::common::{AggregateFunction, Query, RangePredicate};
use proptest::prelude::*;

const CHUNK: usize = kernels::CHUNK;

const AGGS: [AggregateFunction; 5] = [
    AggregateFunction::Count,
    AggregateFunction::Sum,
    AggregateFunction::Avg,
    AggregateFunction::Min,
    AggregateFunction::Max,
];

/// The branchy per-row loop the kernels must reproduce bit-for-bit:
/// short-circuit `&&` membership, accumulate only on match.
fn scalar_reference(query: &Query, values: &[f64], arity: usize) -> ScanPartial {
    let mut out = ScanPartial::EMPTY;
    let (lo, hi) = (query.range.lo(), query.range.hi());
    for row in values.chunks_exact(arity) {
        let mut matched = true;
        for (d, &c) in query.predicate_columns.iter().enumerate() {
            let x = row[c];
            if !(lo[d] <= x && x <= hi[d]) {
                matched = false;
                break;
            }
        }
        if matched {
            out.accept(row[query.agg_column]);
        }
    }
    out
}

fn assert_partial_bits_eq(a: &ScanPartial, b: &ScanPartial, ctx: &str) {
    assert_eq!(a.count.to_bits(), b.count.to_bits(), "{ctx}: count");
    assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{ctx}: sum");
    assert_eq!(a.min.to_bits(), b.min.to_bits(), "{ctx}: min");
    assert_eq!(a.max.to_bits(), b.max.to_bits(), "{ctx}: max");
}

/// Trims a raw draw to `rows * arity` values with `rows % CHUNK` landing
/// on the requested residue class (0, 1, or CHUNK-1 — the full block,
/// lone-tail, and widest-tail shapes).
fn shape_rows(raw: Vec<f64>, arity: usize, residue_class: usize) -> (Vec<f64>, usize) {
    let base = raw.len() / arity;
    let residue = [0, 1, CHUNK - 1][residue_class % 3];
    let mut rows = base.saturating_sub(base % CHUNK).saturating_add(residue);
    if rows > base {
        rows = rows.saturating_sub(CHUNK).min(base);
    }
    let mut values = raw;
    values.truncate(rows * arity);
    (values, rows)
}

/// A random query over the first `npred` columns of an `arity`-column
/// table, aggregating a random column.
fn build_query(arity: usize, agg_col: usize, npred: usize, corners: &[(f64, f64)]) -> Query {
    let npred = npred.clamp(1, arity);
    let (lo, hi): (Vec<f64>, Vec<f64>) = corners[..npred]
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .unzip();
    Query::new(
        AggregateFunction::Sum,
        agg_col % arity,
        (0..npred).collect(),
        RangePredicate::new(lo, hi).unwrap(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The chunked masked kernel is bit-identical to the scalar per-row
    /// loop for every aggregate, across arities 1–4 and tail shapes.
    #[test]
    fn chunked_kernel_matches_scalar_path(
        raw in prop::collection::vec(-1000.0f64..1000.0, 0..1200),
        arity_sel in 1usize..5,
        agg_col in 0usize..4,
        npred in 1usize..5,
        residue_class in 0usize..3,
        c0 in (-900.0f64..900.0, -900.0f64..900.0),
        c1 in (-900.0f64..900.0, -900.0f64..900.0),
        c2 in (-900.0f64..900.0, -900.0f64..900.0),
        c3 in (-900.0f64..900.0, -900.0f64..900.0),
    ) {
        let arity = arity_sel;
        let (values, rows) = shape_rows(raw, arity, residue_class);
        let query = build_query(arity, agg_col, npred, &[c0, c1, c2, c3]);

        let mut chunked = ScanPartial::EMPTY;
        kernels::scan_columns(&query, &values, arity, &mut chunked);
        let scalar = scalar_reference(&query, &values, arity);
        assert_partial_bits_eq(&chunked, &scalar, &format!("arity {arity}, {rows} rows"));

        // Every aggregate finish agrees to the bit (same partials, but
        // pin the Option/NaN-free finish semantics too).
        for agg in AGGS {
            prop_assert_eq!(
                chunked.finish(agg).map(f64::to_bits),
                scalar.finish(agg).map(f64::to_bits),
                "{} over {} rows", agg, rows
            );
        }
    }
}

/// A deterministic archive spanning three blocks, shaped by deletes so
/// its slot order is not its id order, whose length is a multiple of
/// neither `CHUNK` nor the block size.
fn multi_block_archive() -> janus::storage::ArchiveStore {
    use rand::{Rng, SeedableRng};
    let block = janus::storage::ARCHIVE_BLOCK_ROWS;
    let target = 2 * block + 8 * 123 + 5;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xb10c);
    let rows = (0..(target + 700) as u64).map(|id| {
        let x = rng.gen::<f64>() * 200.0 - 100.0;
        janus::common::Row::new(
            id,
            vec![x, rng.gen::<f64>() * 50.0, x * 0.5 + rng.gen::<f64>()],
        )
    });
    let mut archive = janus::storage::ArchiveStore::from_rows(rows);
    while archive.len() > target {
        archive.delete(rng.gen_range(0..(target + 700) as u64));
    }
    assert!(archive.len() > 2 * block);
    assert_ne!(archive.len() % CHUNK, 0);
    assert_ne!(archive.len() % block, 0);
    archive
}

/// The archive's per-block scans and exact-base install continue one
/// serial fold across block boundaries: `scan_partial` and
/// `Dpt::install_exact_base_columns(archive.blocks())` equal the scalar
/// reference and the row-driven install over `to_rows()`, to the bit.
#[test]
fn block_wise_archive_scans_match_the_scalar_reference() {
    use janus::core::{Dpt, PartitionSpec};
    let archive = multi_block_archive();
    let rows = archive.to_rows();
    let flat: Vec<f64> = rows.iter().flat_map(|r| r.values.iter().copied()).collect();
    let arity = archive.arity();

    let corners = [(-60.0, 75.0), (5.0, 40.0), (-100.0, 100.0)];
    for npred in 1..=3 {
        for agg_col in 0..arity {
            let query = build_query(arity, agg_col, npred, &corners);
            let scalar = scalar_reference(&query, &flat, arity);
            let blocked = archive.scan_partial(&query);
            let ctx = format!("column {agg_col}, {npred} predicates");
            assert_partial_bits_eq(&blocked, &scalar, &ctx);
        }
    }

    let template = janus::common::QueryTemplate::new(AggregateFunction::Sum, 2, vec![0]);
    let spec = PartitionSpec::from_boundaries(&[-50.0, -10.0, 0.0, 30.0, 80.0]).unwrap();
    let build = || Dpt::build(template.clone(), 8, &spec, &[0.0; 6], rows.len() as f64).unwrap();
    let (mut by_rows, mut by_blocks) = (build(), build());
    by_rows.install_exact_base(rows.iter());
    by_blocks.install_exact_base_columns(archive.blocks());
    let bits = |dpt: &Dpt| -> Vec<Vec<u64>> {
        dpt.to_snapshot()
            .nodes
            .iter()
            .map(|n| {
                let base = n.exact_base.expect("installed base");
                [base.count, base.sum, base.sumsq]
                    .into_iter()
                    .chain(n.min_values.iter().copied())
                    .chain(n.max_values.iter().copied())
                    .map(f64::to_bits)
                    .collect()
            })
            .collect()
    };
    assert_eq!(bits(&by_blocks), bits(&by_rows));
}
