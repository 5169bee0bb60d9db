//! Moment accumulators: count / sum / sum-of-squares triples.
//!
//! Every statistic JanusAQP maintains incrementally — exact node statistics,
//! inserted/deleted deltas, catch-up sample aggregates (`h_i`, `Σ t.a`,
//! `Σ t.a²` of §4.4.1) — is a [`Moments`] value. They form a commutative
//! group under merge/subtract, which is what makes incremental maintenance
//! under arbitrary insertions *and* deletions possible.

/// A count / sum / sum-of-squares accumulator.
///
/// `count` is an `f64` so that the same type can hold *estimated* moments
/// (e.g. scaled catch-up statistics, which are generally fractional).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Moments {
    /// Number of values (possibly estimated / fractional).
    pub count: f64,
    /// Sum of values.
    pub sum: f64,
    /// Sum of squared values.
    pub sumsq: f64,
}

impl Moments {
    /// The empty accumulator.
    pub const ZERO: Moments = Moments {
        count: 0.0,
        sum: 0.0,
        sumsq: 0.0,
    };

    /// Accumulator holding a single value `a`.
    #[inline]
    pub fn of(a: f64) -> Self {
        Moments {
            count: 1.0,
            sum: a,
            sumsq: a * a,
        }
    }

    /// Accumulates one value.
    #[inline]
    pub fn add(&mut self, a: f64) {
        self.count += 1.0;
        self.sum += a;
        self.sumsq += a * a;
    }

    /// Removes one value previously accumulated.
    #[inline]
    pub fn remove(&mut self, a: f64) {
        self.count -= 1.0;
        self.sum -= a;
        self.sumsq -= a * a;
    }

    /// Group operation: component-wise sum.
    #[inline]
    pub fn merge(&self, other: &Moments) -> Moments {
        Moments {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            sumsq: self.sumsq + other.sumsq,
        }
    }

    /// Group inverse applied to `other`: component-wise difference.
    #[inline]
    pub fn subtract(&self, other: &Moments) -> Moments {
        Moments {
            count: self.count - other.count,
            sum: self.sum - other.sum,
            sumsq: self.sumsq - other.sumsq,
        }
    }

    /// Accumulates `other` in place.
    #[inline]
    pub fn merge_assign(&mut self, other: &Moments) {
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
    }

    /// Collects moments from an iterator of values.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let mut m = Moments::ZERO;
        for v in values {
            m.add(v);
        }
        m
    }

    /// True when (numerically) empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count <= 0.0
    }

    /// Sample mean; `None` if empty.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0.0).then(|| self.sum / self.count)
    }

    /// The paper's un-normalized variance kernel
    /// `n·Σa² − (Σa)²` (appears in every ν_s / ν_c formula of §C/§D),
    /// clamped at zero against floating-point cancellation.
    #[inline]
    pub fn variance_kernel(&self) -> f64 {
        (self.count * self.sumsq - self.sum * self.sum).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_round_trips() {
        let mut m = Moments::ZERO;
        m.add(2.0);
        m.add(3.0);
        m.remove(2.0);
        assert!((m.sum - 3.0).abs() < 1e-12);
        assert!((m.count - 1.0).abs() < 1e-12);
        assert!((m.sumsq - 9.0).abs() < 1e-12);
    }

    #[test]
    fn merge_subtract_are_inverses() {
        let a = Moments::from_values([1.0, 2.0, 3.0]);
        let b = Moments::from_values([4.0, 5.0]);
        let merged = a.merge(&b);
        let back = merged.subtract(&b);
        assert!((back.count - a.count).abs() < 1e-12);
        assert!((back.sum - a.sum).abs() < 1e-12);
        assert!((back.sumsq - a.sumsq).abs() < 1e-12);
    }

    #[test]
    fn mean() {
        let m = Moments::from_values([2.0, 4.0, 6.0]);
        assert_eq!(m.mean(), Some(4.0));
        assert_eq!(Moments::ZERO.mean(), None);
    }

    #[test]
    fn variance_kernel_matches_definition() {
        let m = Moments::from_values([1.0, 2.0, 3.0]);
        // 3*14 - 36 = 6
        assert!((m.variance_kernel() - 6.0).abs() < 1e-12);
        // Constant data: kernel 0 even under cancellation.
        let c = Moments::from_values([5.0; 100]);
        assert_eq!(c.variance_kernel(), 0.0);
    }

    #[test]
    fn of_single_value() {
        let m = Moments::of(3.0);
        assert_eq!(m.count, 1.0);
        assert_eq!(m.sum, 3.0);
        assert_eq!(m.sumsq, 9.0);
        assert!(!m.is_empty());
        assert!(Moments::ZERO.is_empty());
    }
}
