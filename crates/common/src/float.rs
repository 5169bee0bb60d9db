//! A totally-ordered `f64` wrapper for use as keys in ordered collections.

use std::cmp::Ordering;
use std::fmt;

/// An `f64` with a total order (IEEE-754 `totalOrder`), usable as a key in
/// `BTreeMap`/`BTreeSet` and in binary heaps.
///
/// The k-d partitioner's priority queue is keyed by `F64`, as is the
/// `BTreeMap` reference model the bounded MIN/MAX multisets (§4.1) are
/// property-tested against.
#[derive(Clone, Copy, Debug, Default)]
pub struct F64(pub f64);

impl F64 {
    /// Returns the wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl From<f64> for F64 {
    #[inline]
    fn from(v: f64) -> Self {
        F64(v)
    }
}

impl From<F64> for f64 {
    #[inline]
    fn from(v: F64) -> Self {
        v.0
    }
}

impl PartialEq for F64 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for F64 {}

impl PartialOrd for F64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn orders_like_f64_on_normal_values() {
        let mut v = vec![F64(3.0), F64(-1.0), F64(2.5)];
        v.sort();
        assert_eq!(v, vec![F64(-1.0), F64(2.5), F64(3.0)]);
    }

    #[test]
    fn nan_is_orderable() {
        let mut s = BTreeSet::new();
        s.insert(F64(f64::NAN));
        s.insert(F64(1.0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn zero_signs_are_distinguished_by_total_order() {
        assert!(F64(-0.0) < F64(0.0));
    }
}
