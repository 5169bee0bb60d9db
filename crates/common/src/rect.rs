//! Rectangular geometry: half-open partition rectangles and closed query
//! predicates.
//!
//! Partition trees require siblings to be *disjoint* and to *cover* their
//! parent (§2.3.1 invariants). With floating-point coordinates this is only
//! achievable with half-open boxes, so:
//!
//! * [`Rect`] (partitions) is half-open: a point `p` is inside iff
//!   `lo[i] <= p[i] < hi[i]` for every dimension;
//! * [`RangePredicate`] (queries) is closed: `lo[i] <= p[i] <= hi[i]`,
//!   matching the `>`, `<`, `=` conjunctions of the paper's query templates.
//!
//! Coverage tests between the two are *conservative*: a partition is reported
//! as fully covered by a predicate only when that is provable, otherwise it
//! is treated as partially covered — which is always statistically safe, at
//! the cost of touching a few more samples.

use crate::error::{JanusError, Result};

/// A half-open axis-aligned box `[lo, hi)` in predicate space.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// Creates a rectangle. `lo[i] <= hi[i]` must hold in every dimension.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(JanusError::DimensionMismatch {
                expected: lo.len(),
                actual: hi.len(),
            });
        }
        // `!(a <= b)` deliberately rejects NaN coordinates as well.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if lo.iter().zip(&hi).any(|(a, b)| !(a <= b)) {
            return Err(JanusError::InvalidConfig(
                "rectangle must satisfy lo <= hi in every dimension".into(),
            ));
        }
        Ok(Rect { lo, hi })
    }

    /// The rectangle covering all of `d`-dimensional space.
    pub fn unbounded(d: usize) -> Self {
        Rect {
            lo: vec![f64::NEG_INFINITY; d],
            hi: vec![f64::INFINITY; d],
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner (inclusive).
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner (exclusive).
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Half-open membership test (branch-light: the per-dimension
    /// conjunction folds with `&`, see [`crate::kernels`]).
    #[inline]
    pub fn contains(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        crate::kernels::contains_half_open(&self.lo, &self.hi, p)
    }

    /// True iff `self` is a subset of `other` (both half-open).
    pub fn is_subset_of(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((slo, shi), (olo, ohi))| olo <= slo && shi <= ohi)
    }

    /// True iff the two half-open rectangles share a point.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((slo, shi), (olo, ohi))| slo < ohi && olo < shi)
    }

    /// Splits at coordinate `x` along `dim` into `([lo, x), [x, hi))`.
    ///
    /// # Panics
    /// Panics if `x` is outside `[lo[dim], hi[dim]]` or `dim` out of range.
    pub fn split_at(&self, dim: usize, x: f64) -> (Rect, Rect) {
        assert!(
            self.lo[dim] <= x && x <= self.hi[dim],
            "split coordinate {x} outside [{}, {}] on dim {dim}",
            self.lo[dim],
            self.hi[dim]
        );
        let mut left = self.clone();
        let mut right = self.clone();
        left.hi[dim] = x;
        right.lo[dim] = x;
        (left, right)
    }

    /// The tightest rectangle containing both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: self
                .lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| a.min(*b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// The smallest half-open rectangle containing every point, padded so the
    /// maximal point is strictly inside.
    pub fn bounding(points: impl IntoIterator<Item = Vec<f64>>) -> Option<Rect> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut lo = first.clone();
        let mut hi = first;
        for p in iter {
            for (i, x) in p.iter().enumerate() {
                if *x < lo[i] {
                    lo[i] = *x;
                }
                if *x > hi[i] {
                    hi[i] = *x;
                }
            }
        }
        // Pad the exclusive upper bound past the maximum so every input point
        // lies strictly inside the half-open box.
        for (l, h) in lo.iter().zip(hi.iter_mut()) {
            let width = (*h - *l).abs().max(h.abs()).max(1.0);
            *h += width * 1e-9 + f64::EPSILON;
        }
        Some(Rect { lo, hi })
    }
}

/// A closed axis-aligned query predicate `[lo, hi]`.
#[derive(Clone, Debug, PartialEq)]
pub struct RangePredicate {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl RangePredicate {
    /// Creates a closed predicate. `lo[i] <= hi[i]` must hold.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(JanusError::DimensionMismatch {
                expected: lo.len(),
                actual: hi.len(),
            });
        }
        // `!(a <= b)` deliberately rejects NaN coordinates as well.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if lo.iter().zip(&hi).any(|(a, b)| !(a <= b)) {
            return Err(JanusError::InvalidConfig(
                "predicate must satisfy lo <= hi in every dimension".into(),
            ));
        }
        Ok(RangePredicate { lo, hi })
    }

    /// The predicate matching every tuple.
    pub fn all(d: usize) -> Self {
        RangePredicate {
            lo: vec![f64::NEG_INFINITY; d],
            hi: vec![f64::INFINITY; d],
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner (inclusive).
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner (inclusive).
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Closed membership test (branch-light, like [`Rect::contains`]).
    #[inline]
    pub fn contains(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        crate::kernels::contains_closed(&self.lo, &self.hi, p)
    }

    /// True iff the half-open `rect` is provably inside this closed predicate.
    pub fn covers(&self, rect: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(rect.lo().iter().zip(rect.hi()))
            .all(|((plo, phi), (rlo, rhi))| plo <= rlo && rhi <= phi)
    }

    /// True iff the predicate and the half-open `rect` could share a point.
    pub fn intersects(&self, rect: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(rect.lo().iter().zip(rect.hi()))
            .all(|((plo, phi), (rlo, rhi))| plo < rhi && rlo <= phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[f64], hi: &[f64]) -> Rect {
        Rect::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    fn pred(lo: &[f64], hi: &[f64]) -> RangePredicate {
        RangePredicate::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn rect_is_half_open() {
        let r = rect(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(r.contains(&[0.0, 0.0]));
        assert!(r.contains(&[0.999, 0.5]));
        assert!(!r.contains(&[1.0, 0.5]));
        assert!(!r.contains(&[0.5, 1.0]));
    }

    #[test]
    fn predicate_is_closed() {
        let p = pred(&[0.0], &[1.0]);
        assert!(p.contains(&[0.0]));
        assert!(p.contains(&[1.0]));
        assert!(!p.contains(&[1.0 + 1e-12]));
    }

    #[test]
    fn split_produces_disjoint_cover() {
        let r = rect(&[0.0, 0.0], &[4.0, 4.0]);
        let (a, b) = r.split_at(0, 1.5);
        assert!(a.contains(&[1.49, 2.0]));
        assert!(!a.contains(&[1.5, 2.0]));
        assert!(b.contains(&[1.5, 2.0]));
        assert!(a.is_subset_of(&r) && b.is_subset_of(&r));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn covers_is_conservative() {
        let r = rect(&[0.0], &[1.0]);
        assert!(pred(&[0.0], &[1.0]).covers(&r));
        assert!(pred(&[-1.0], &[2.0]).covers(&r));
        // Predicate ends strictly inside the half-open box: partial.
        assert!(!pred(&[0.0], &[0.999]).covers(&r));
    }

    #[test]
    fn intersects_boundary_cases() {
        let r = rect(&[0.0], &[1.0]);
        // Predicate starting exactly at the exclusive upper edge: no overlap.
        assert!(!pred(&[1.0], &[2.0]).intersects(&r));
        // Predicate ending exactly at the inclusive lower edge: overlap.
        assert!(pred(&[-1.0], &[0.0]).intersects(&r));
        let s = rect(&[1.0], &[2.0]);
        assert!(!r.intersects(&s));
    }

    #[test]
    fn bounding_contains_all_points() {
        let pts = vec![vec![1.0, -2.0], vec![3.0, 5.0], vec![-1.0, 0.0]];
        let r = Rect::bounding(pts.clone()).unwrap();
        for p in &pts {
            assert!(r.contains(p), "{p:?} not in {r:?}");
        }
        assert!(Rect::bounding(std::iter::empty::<Vec<f64>>()).is_none());
    }

    #[test]
    fn invalid_rects_are_rejected() {
        assert!(Rect::new(vec![1.0], vec![0.0]).is_err());
        assert!(Rect::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(RangePredicate::new(vec![2.0], vec![1.0]).is_err());
    }

    #[test]
    fn union_covers_both() {
        let a = rect(&[0.0], &[1.0]);
        let b = rect(&[2.0], &[3.0]);
        let u = a.union(&b);
        assert!(a.is_subset_of(&u) && b.is_subset_of(&u));
    }
}
