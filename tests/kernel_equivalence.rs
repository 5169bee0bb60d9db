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
