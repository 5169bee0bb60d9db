//! Chunked, branch-light scan kernels over the arity-strided columnar
//! value buffer.
//!
//! The columnar archive stores its rows' values contiguously in dense
//! `f64` buffers, one per fixed-size block (`values[slot * arity +
//! column]` within a block). The kernels in this module process such a
//! buffer [`CHUNK`] rows at a time: predicate
//! masks are computed for the whole chunk with non-short-circuiting `&`
//! conjunctions, and the aggregate lanes are folded into a
//! [`ScanPartial`] with branch-free *selects* instead of `if matched`
//! branches. The inner loops are plain counted loops over fixed-size
//! arrays, which LLVM autovectorizes.
//!
//! # Bit-identity contract
//!
//! Every kernel here is **bit-identical** to the scalar per-row path
//! ([`crate::ExactAccumulator::offer`] driven in slot order), not merely
//! approximately equal. Two facts make the branch-free select forms safe:
//!
//! * **Masked addition is exact.** For an unmatched row the kernel adds
//!   `0.0` to `count` and `sum` instead of skipping the addition.
//!   `x + 0.0 == x` bit-for-bit for every `f64` except `x == -0.0` — and
//!   an accumulator that starts at `+0.0` can never *become* `-0.0`
//!   (under round-to-nearest, `a + b == -0.0` only when both operands
//!   are `-0.0`), so the extra additions do not change a single bit.
//! * **Masked extrema are exact.** For an unmatched row the kernel folds
//!   `min(acc, +∞)` / `max(acc, −∞)`, which return `acc` unchanged
//!   bit-for-bit ([`f64::min`]/[`f64::max`] also ignore a `NaN` operand,
//!   so the accumulator never becomes `NaN`, exactly like the scalar
//!   path).
//!
//! Because additions still happen in strict slot order, `SUM`/`AVG`
//! round identically to the scalar scan; `COUNT` is an exact integer
//! sequence in `f64`; `MIN`/`MAX` are order-insensitive. The chunk
//! remainder (`len % CHUNK` rows) runs through [`ScanPartial::offer`]
//! one row at a time, which is the same select form, so row counts that
//! do not divide the chunk width keep the contract. The one caveat:
//! if the *aggregate column itself* contains `NaN` on a matched row,
//! both paths poison `sum` with `NaN`, but IEEE-754 does not pin which
//! `NaN` payload an addition propagates — bit-identity is only
//! guaranteed for `NaN`-free aggregate columns (predicate columns may
//! hold anything; comparisons with `NaN` are simply `false` in both
//! paths).

use crate::query::{AggregateFunction, Query};

/// Rows processed per kernel chunk. Wide enough for 512-bit vectors,
/// small enough that mask + lane scratch stays in registers.
pub const CHUNK: usize = 8;

/// Mergeable partial state of an exact scan: the four accumulator lanes
/// every [`AggregateFunction`] is derived from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScanPartial {
    /// Number of matched rows (exact integer sequence in `f64`).
    pub count: f64,
    /// Sum of the aggregate column over matched rows, in offer order.
    pub sum: f64,
    /// Minimum aggregate value over matched rows (`+∞` when none).
    pub min: f64,
    /// Maximum aggregate value over matched rows (`−∞` when none).
    pub max: f64,
}

impl ScanPartial {
    /// The empty scan: zero rows offered.
    pub const EMPTY: ScanPartial = ScanPartial {
        count: 0.0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Folds one row in, branch-free: unmatched rows contribute the
    /// identity element to every lane (see the module-level bit-identity
    /// contract).
    #[inline(always)]
    pub fn offer(&mut self, matched: bool, a: f64) {
        self.count += matched as u64 as f64;
        self.sum += if matched { a } else { 0.0 };
        self.min = self.min.min(if matched { a } else { f64::INFINITY });
        self.max = self.max.max(if matched { a } else { f64::NEG_INFINITY });
    }

    /// Folds a matched row in (identical to `offer(true, a)`).
    #[inline(always)]
    pub fn accept(&mut self, a: f64) {
        self.offer(true, a);
    }

    /// Merges a later partial into this one. `SUM`/`AVG` are bit-stable
    /// only under a fixed merge order (float addition is not associative).
    #[inline]
    pub fn merge(&mut self, later: &ScanPartial) {
        self.count += later.count;
        self.sum += later.sum;
        self.min = self.min.min(later.min);
        self.max = self.max.max(later.max);
    }

    /// The exact answer for `agg` over everything folded in (`None` for
    /// AVG/MIN/MAX over an empty selection).
    pub fn finish(&self, agg: AggregateFunction) -> Option<f64> {
        match agg {
            AggregateFunction::Count => Some(self.count),
            AggregateFunction::Sum => Some(self.sum),
            AggregateFunction::Avg => (self.count > 0.0).then(|| self.sum / self.count),
            AggregateFunction::Min => (self.count > 0.0).then_some(self.min),
            AggregateFunction::Max => (self.count > 0.0).then_some(self.max),
        }
    }
}

impl Default for ScanPartial {
    fn default() -> Self {
        ScanPartial::EMPTY
    }
}

/// Scans an arity-strided value buffer (`values.len() == rows * arity`)
/// and folds every row into `out` in slot order, [`CHUNK`] rows at a
/// time. Bit-identical to offering each row's slice to
/// [`crate::ExactAccumulator::offer`] in the same order.
pub fn scan_columns(query: &Query, values: &[f64], arity: usize, out: &mut ScanPartial) {
    if arity == 0 {
        return;
    }
    debug_assert_eq!(values.len() % arity, 0);
    let cols = query.predicate_columns.as_slice();
    let lo = query.range.lo();
    let hi = query.range.hi();
    let agg = query.agg_column;
    let rows = values.len() / arity;
    let full = rows - rows % CHUNK;
    let (head, tail) = values.split_at(full * arity);

    let mut lane = [0.0f64; CHUNK];
    for block in head.chunks_exact(CHUNK * arity) {
        let mut mask = [true; CHUNK];
        for (d, &c) in cols.iter().enumerate() {
            let (l, h) = (lo[d], hi[d]);
            for (k, m) in mask.iter_mut().enumerate() {
                let x = block[k * arity + c];
                *m &= (l <= x) & (x <= h);
            }
        }
        for (k, v) in lane.iter_mut().enumerate() {
            *v = block[k * arity + agg];
        }
        for (m, v) in mask.iter().zip(lane) {
            out.offer(*m, v);
        }
    }
    for row in tail.chunks_exact(arity) {
        out.offer(query.matches_values(row), row[agg]);
    }
}

/// Branch-light closed-box membership (`lo[i] <= p[i] <= hi[i]`): the
/// conjunction folds with `&`, so there is one predictable exit instead
/// of a data-dependent branch per dimension.
#[inline(always)]
pub fn contains_closed(lo: &[f64], hi: &[f64], p: &[f64]) -> bool {
    let mut m = true;
    for ((l, h), x) in lo.iter().zip(hi).zip(p) {
        m &= (l <= x) & (x <= h);
    }
    m
}

/// Branch-light half-open-box membership (`lo[i] <= p[i] < hi[i]`).
#[inline(always)]
pub fn contains_half_open(lo: &[f64], hi: &[f64], p: &[f64]) -> bool {
    let mut m = true;
    for ((l, h), x) in lo.iter().zip(hi).zip(p) {
        m &= (l <= x) & (x < h);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::RangePredicate;

    fn query(agg: AggregateFunction) -> Query {
        Query::new(
            agg,
            0,
            vec![1],
            RangePredicate::new(vec![0.25], vec![0.75]).unwrap(),
        )
        .unwrap()
    }

    fn pseudo_values(rows: usize, arity: usize) -> Vec<f64> {
        // Deterministic, branch-heavy data (no NaNs in the agg column).
        (0..rows * arity)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11) as f64;
                x / (1u64 << 53) as f64
            })
            .collect()
    }

    fn scalar_scan(q: &Query, values: &[f64], arity: usize) -> ScanPartial {
        let mut acc = q.exact_accumulator();
        for row in values.chunks_exact(arity) {
            acc.offer(row);
        }
        *acc.partial()
    }

    #[test]
    fn chunked_scan_is_bit_identical_to_scalar() {
        for arity in [1usize, 2, 3, 5] {
            for rows in [0usize, 1, 7, 8, 9, 64, 103] {
                let values = pseudo_values(rows, arity);
                let q = Query::new(
                    AggregateFunction::Sum,
                    0,
                    vec![arity - 1],
                    RangePredicate::new(vec![0.2], vec![0.8]).unwrap(),
                )
                .unwrap();
                let mut chunked = ScanPartial::EMPTY;
                scan_columns(&q, &values, arity, &mut chunked);
                let scalar = scalar_scan(&q, &values, arity);
                assert_eq!(chunked.count.to_bits(), scalar.count.to_bits());
                assert_eq!(chunked.sum.to_bits(), scalar.sum.to_bits());
                assert_eq!(chunked.min.to_bits(), scalar.min.to_bits());
                assert_eq!(chunked.max.to_bits(), scalar.max.to_bits());
            }
        }
    }

    #[test]
    fn finish_matches_accumulator_semantics() {
        let values = pseudo_values(50, 2);
        for agg in [
            AggregateFunction::Count,
            AggregateFunction::Sum,
            AggregateFunction::Avg,
            AggregateFunction::Min,
            AggregateFunction::Max,
        ] {
            let q = query(agg);
            let mut p = ScanPartial::EMPTY;
            scan_columns(&q, &values, 2, &mut p);
            let mut acc = q.exact_accumulator();
            for row in values.chunks_exact(2) {
                acc.offer(row);
            }
            assert_eq!(p.finish(agg), acc.finish());
        }
        // Empty selection: AVG/MIN/MAX are None, COUNT/SUM are zero.
        let q = Query::new(
            AggregateFunction::Min,
            0,
            vec![1],
            RangePredicate::new(vec![2.0], vec![3.0]).unwrap(),
        )
        .unwrap();
        let mut p = ScanPartial::EMPTY;
        scan_columns(&q, &values, 2, &mut p);
        assert_eq!(p.finish(AggregateFunction::Min), None);
        assert_eq!(p.finish(AggregateFunction::Count), Some(0.0));
    }

    #[test]
    fn segmented_merge_matches_segmented_sequential_twin() {
        let arity = 3;
        let values = pseudo_values(1000, arity);
        let q = Query::new(
            AggregateFunction::Sum,
            1,
            vec![0, 2],
            RangePredicate::new(vec![0.1, 0.0], vec![0.9, 0.7]).unwrap(),
        )
        .unwrap();
        // Partials of consecutive 64-row blocks, merged in block order.
        let tile = || {
            let mut merged = ScanPartial::EMPTY;
            for block in values.chunks(64 * arity) {
                let mut part = ScanPartial::EMPTY;
                scan_columns(&q, block, arity, &mut part);
                merged.merge(&part);
            }
            merged
        };
        let merged = tile();
        // COUNT / MIN / MAX are merge-order-insensitive and must match the
        // unsegmented scan exactly.
        let mut whole = ScanPartial::EMPTY;
        scan_columns(&q, &values, arity, &mut whole);
        assert_eq!(merged.count.to_bits(), whole.count.to_bits());
        assert_eq!(merged.min.to_bits(), whole.min.to_bits());
        assert_eq!(merged.max.to_bits(), whole.max.to_bits());
        // SUM must match a second identically-segmented pass bit-for-bit.
        assert_eq!(merged.sum.to_bits(), tile().sum.to_bits());
    }

    #[test]
    fn branch_light_membership_matches_branchy() {
        let lo = [0.0, -1.0];
        let hi = [1.0, 1.0];
        for p in [
            [0.5, 0.0],
            [0.0, -1.0],
            [1.0, 1.0],
            [1.5, 0.0],
            [f64::NAN, 0.0],
        ] {
            assert_eq!(
                contains_closed(&lo, &hi, &p),
                lo.iter()
                    .zip(&hi)
                    .zip(&p)
                    .all(|((l, h), x)| l <= x && x <= h)
            );
            assert_eq!(
                contains_half_open(&lo, &hi, &p),
                lo.iter()
                    .zip(&hi)
                    .zip(&p)
                    .all(|((l, h), x)| l <= x && x < h)
            );
        }
    }
}
