//! The dynamic max-variance index **M** (§5.3.1, Appendix D.1).
//!
//! Given a rectangle `R`, `M(R)` returns (an approximation of) the variance
//! of the worst — longest-confidence-interval — query fully inside `R`,
//! with respect to the current pooled sample `S`:
//!
//! * **COUNT** — the worst query contains exactly half of `R`'s samples, so
//!   `M(R) = N̂²/(4m)` in closed form;
//! * **SUM** — split `R` into two halves with equal sample counts and take
//!   the half with the larger sum of squared values: a ¼-approximation;
//! * **AVG** — find a heavy canonical cell with at most `δm` samples
//!   maximizing `Σa²` and evaluate the §5.1 AVG error at it (the paper's
//!   `1/(4 log^{d+1} m)`-approximation).
//!
//! In one dimension everything runs on an order-statistic treap (exact
//! median splits, `O(log m)` per probe). In higher dimensions the index is
//! a Bentley–Saxe dynamized range tree (`d <= 2`) or kd-tree (`d > 2`),
//! plus one coordinate treap per dimension for median searches.

use crate::formulas;
use janus_common::{AggregateFunction, Moments, QueryTemplate, Rect, Row, RowRef};
use janus_index::dynamic::DynamicIndex;
use janus_index::kd::StaticKdTree;
use janus_index::range_tree::StaticRangeTree;
use janus_index::treap::{Entry, Treap};
use janus_index::IndexPoint;

enum Spatial {
    /// `d == 1`: the dim-0 treap is the whole index.
    None,
    /// `d == 2`: exact canonical decompositions.
    Low(DynamicIndex<StaticRangeTree>),
    /// `d > 2`: linear-space kd-tree.
    High(DynamicIndex<StaticKdTree>),
}

/// Dynamic index answering `M(R)` probes under insertions/deletions of
/// sample points.
pub struct MaxVarianceIndex {
    dims: usize,
    focus: AggregateFunction,
    alpha: f64,
    delta: f64,
    /// One coordinate treap per dimension; `coord[0]` doubles as the 1-D
    /// index and as the sorted-sample view the 1-D partitioners use.
    coord: Vec<Treap>,
    spatial: Spatial,
}

impl MaxVarianceIndex {
    /// Creates an empty index.
    ///
    /// `alpha` is the sampling rate used to scale sample counts to
    /// population estimates (`N̂ = m/α`); `delta` is the AVG query floor.
    pub fn new(dims: usize, focus: AggregateFunction, alpha: f64, delta: f64) -> Self {
        assert!(dims >= 1);
        assert!(alpha > 0.0 && alpha <= 1.0);
        let spatial = match dims {
            1 => Spatial::None,
            2 => Spatial::Low(DynamicIndex::new(dims)),
            _ => Spatial::High(DynamicIndex::new(dims)),
        };
        MaxVarianceIndex {
            dims,
            focus,
            alpha,
            delta,
            coord: (0..dims).map(|_| Treap::new()).collect(),
            spatial,
        }
    }

    /// Creates and bulk-loads the index.
    pub fn bulk_load(
        dims: usize,
        focus: AggregateFunction,
        alpha: f64,
        delta: f64,
        points: Vec<IndexPoint>,
    ) -> Self {
        let mut idx = Self::new(dims, focus, alpha, delta);
        for p in &points {
            idx.insert_treaps(p);
        }
        match &mut idx.spatial {
            Spatial::None => {}
            Spatial::Low(s) => *s = DynamicIndex::bulk_load(dims, points),
            Spatial::High(s) => *s = DynamicIndex::bulk_load(dims, points),
        }
        idx
    }

    /// **M** for `template` over a pooled sample (`rows`) of a table of
    /// `population` rows: each row projected onto the template's
    /// predicate space and weighted by its aggregation attribute, with
    /// the sampling rate `α = |S| / |D|` the sample implies.
    pub fn over_sample<'a>(
        template: &QueryTemplate,
        delta: f64,
        rows: impl IntoIterator<Item = &'a Row>,
        population: usize,
    ) -> Self {
        let points = rows.into_iter().map(|r| index_point(template, r.as_ref()));
        Self::over_points(template, delta, points.collect(), population)
    }

    /// [`MaxVarianceIndex::over_sample`] for already-projected points.
    pub(crate) fn over_points(
        template: &QueryTemplate,
        delta: f64,
        points: Vec<IndexPoint>,
        population: usize,
    ) -> Self {
        let alpha = sampling_rate(points.len(), population);
        Self::bulk_load(template.dims(), template.agg, alpha, delta, points)
    }

    /// Re-derives the sampling rate after the table grew or shrank to
    /// `population` rows around an index that followed its sample.
    pub(crate) fn set_population(&mut self, population: usize) {
        self.set_alpha(sampling_rate(self.len(), population));
    }

    fn insert_treaps(&mut self, p: &IndexPoint) {
        for (dim, t) in self.coord.iter_mut().enumerate() {
            t.insert(Entry {
                key: p.coords[dim],
                id: p.id,
                weight: p.weight,
            });
        }
    }

    fn remove_treaps(&mut self, p: &IndexPoint) {
        for (dim, t) in self.coord.iter_mut().enumerate() {
            t.remove(p.coords[dim], p.id);
        }
    }

    /// Inserts a sample point.
    pub fn insert(&mut self, p: IndexPoint) {
        self.insert_treaps(&p);
        match &mut self.spatial {
            Spatial::None => {}
            Spatial::Low(s) => s.insert(p),
            Spatial::High(s) => s.insert(p),
        }
    }

    /// Deletes a sample point (full point needed to cancel aggregates).
    pub fn delete(&mut self, p: &IndexPoint) {
        self.remove_treaps(p);
        match &mut self.spatial {
            Spatial::None => {}
            Spatial::Low(s) => {
                s.delete(p.clone());
            }
            Spatial::High(s) => {
                s.delete(p.clone());
            }
        }
    }

    /// Number of live sample points.
    pub fn len(&self) -> usize {
        self.coord[0].len()
    }

    /// True when no samples are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Focus aggregate this index optimizes for.
    pub fn focus(&self) -> AggregateFunction {
        self.focus
    }

    /// Current `N̂ = m/α` scaling rate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Updates the sampling rate used for population scaling.
    pub fn set_alpha(&mut self, alpha: f64) {
        assert!(alpha > 0.0 && alpha <= 1.0);
        self.alpha = alpha;
    }

    /// The AVG valid-query sample floor `δm` (at least 1).
    pub fn avg_cap(&self) -> usize {
        ((self.delta * self.len() as f64).ceil() as usize).max(1)
    }

    /// Entry of rank `k` (0-based) in the dim-0 sample order — the sorted
    /// sample view the 1-D partitioners walk.
    pub fn kth_dim0(&self, k: usize) -> Option<Entry> {
        self.coord[0].kth(k)
    }

    /// Number of samples with dim-0 coordinate strictly below `key`.
    pub fn rank_of_dim0_key(&self, key: f64) -> usize {
        self.coord[0].rank_of_key(key)
    }

    /// Number of samples ordered at or before `entry` in the dim-0 order,
    /// whether or not it is still sampled.
    pub(crate) fn rank_through_dim0(&self, entry: &Entry) -> usize {
        self.coord[0].rank_through(entry.key, entry.id)
    }

    /// Moments of samples inside `rect`.
    pub fn moments_in(&self, rect: &Rect) -> Moments {
        match &self.spatial {
            Spatial::None => self.coord[0].moments_by_key(rect.lo()[0], rect.hi()[0]),
            Spatial::Low(s) => s.moments_in(rect),
            Spatial::High(s) => s.moments_in(rect),
        }
    }

    /// Count of samples inside `rect`.
    pub fn count_in(&self, rect: &Rect) -> usize {
        self.moments_in(rect).count.round().max(0.0) as usize
    }

    /// Snapshot of all live points (predicate coords + weights), used when
    /// a re-partitioning is computed.
    pub fn live_points(&self) -> Vec<IndexPoint> {
        match &self.spatial {
            Spatial::None => self.coord[0]
                .iter()
                .map(|e| IndexPoint::new(vec![e.key], e.id, e.weight))
                .collect(),
            Spatial::Low(s) => s.live_points(),
            Spatial::High(s) => s.live_points(),
        }
    }

    /// `M(R)`: approximate worst-query variance inside `rect` for the focus
    /// aggregate.
    pub fn max_variance(&self, rect: &Rect) -> f64 {
        match self.focus {
            AggregateFunction::Count => {
                let m = self.count_in(rect) as f64;
                formulas::bucket_count_query_variance(m / self.alpha, m)
            }
            AggregateFunction::Sum | AggregateFunction::Min | AggregateFunction::Max => {
                // MIN/MAX synopses are partitioned with the SUM criterion.
                self.sum_max_variance(rect)
            }
            AggregateFunction::Avg => self.avg_max_variance(rect),
        }
    }

    /// `M` over a *rank range* of the dim-0 sample order — the bucket view
    /// the 1-D partitioners operate on (§5.2). Only meaningful for `d == 1`.
    pub fn max_variance_rank_range(&self, i: usize, j: usize) -> f64 {
        self.rank_probe(i).upto(j)
    }

    /// `M` over the rank ranges `[start, j)` that share one `start` — a
    /// greedy bucket's binary search (§5.2). Only meaningful for `d == 1`.
    pub(crate) fn rank_probe(&self, start: usize) -> RankProbe<'_> {
        debug_assert!(self.dims == 1, "rank-range probes require d == 1");
        let below = match self.focus {
            AggregateFunction::Sum | AggregateFunction::Min | AggregateFunction::Max => {
                self.coord[0].prefix(start)
            }
            AggregateFunction::Count | AggregateFunction::Avg => Moments::ZERO,
        };
        RankProbe {
            mv: self,
            start,
            below,
        }
    }

    /// Greedy descent in rank space to a window of at most `cap` samples
    /// maximizing `Σa²` (the 1-D instantiation of the §D.1 canonical
    /// search).
    fn heaviest_window_ranks(&self, i: usize, j: usize, cap: usize) -> Moments {
        let (mut s, mut e) = (i, j);
        while e - s > cap {
            let mid = s + (e - s) / 2;
            let left = self.coord[0].moments_by_rank(s, mid);
            let right = self.coord[0].moments_by_rank(mid, e);
            if left.sumsq >= right.sumsq {
                e = mid;
            } else {
                s = mid;
            }
        }
        self.coord[0].moments_by_rank(s, e)
    }

    fn sum_max_variance(&self, rect: &Rect) -> f64 {
        if self.dims == 1 {
            let i = self.coord[0].rank_of_key(rect.lo()[0]);
            let j = self.coord[0].rank_of_key(rect.hi()[0]);
            return if j < i + 2 {
                0.0
            } else {
                self.max_variance_rank_range(i, j)
            };
        }
        let total = self.moments_in(rect);
        let m = total.count;
        if m < 2.0 {
            return 0.0;
        }
        let n_hat = m / self.alpha;
        // d > 1: median split along each dimension; keep the best half.
        let mut best = 0.0f64;
        for dim in 0..self.dims {
            let Some((left, right)) = self.median_split(rect, dim, &total) else {
                continue;
            };
            let v = formulas::bucket_sum_query_variance(n_hat, m, &left)
                .max(formulas::bucket_sum_query_variance(n_hat, m, &right));
            best = best.max(v);
        }
        best
    }

    /// The sample-median cut coordinate of `rect` along `dim`: the smallest
    /// sample coordinate with at least half of the rectangle's samples
    /// strictly below it. `None` when no non-trivial cut exists. This is
    /// the split coordinate the k-d partitioner uses (§5.3.2).
    pub fn median_coord(&self, rect: &Rect, dim: usize) -> Option<f64> {
        let total = self.moments_in(rect);
        let (x, left) = self.median_cut(rect, dim, &total)?;
        (left.count > 0.0 && left.count < total.count).then_some(x)
    }

    /// Splits `rect` at the sample-median coordinate along `dim`, returning
    /// the two halves' moments; `None` when no non-trivial split exists.
    fn median_split(&self, rect: &Rect, dim: usize, total: &Moments) -> Option<(Moments, Moments)> {
        let (_, left) = self.median_cut(rect, dim, total)?;
        if left.count <= 0.0 || left.count >= total.count {
            return None;
        }
        let right = total.subtract(&left);
        Some((left, right))
    }

    /// Finds the smallest sample coordinate along `dim` whose strictly-left
    /// part of `rect` holds at least half of the samples, together with the
    /// left-part moments.
    fn median_cut(&self, rect: &Rect, dim: usize, total: &Moments) -> Option<(f64, Moments)> {
        let treap = &self.coord[dim];
        let lo_rank = treap.rank_of_key(rect.lo()[dim]);
        let hi_rank = treap.rank_of_key(rect.hi()[dim]);
        if hi_rank <= lo_rank + 1 {
            return None;
        }
        let target = total.count / 2.0;
        // Binary search over candidate coordinates for the smallest cut with
        // at least half of the rectangle's samples on the left.
        let (mut lo, mut hi) = (lo_rank + 1, hi_rank);
        let mut cut = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let x = treap.kth(mid)?.key;
            let mut left_rect = rect.clone();
            let (l, _) = left_rect.split_at(dim, x.clamp(rect.lo()[dim], rect.hi()[dim]));
            left_rect = l;
            let left = self.moments_in(&left_rect);
            if left.count >= target {
                cut = Some((x, left));
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        cut
    }

    fn avg_max_variance(&self, rect: &Rect) -> f64 {
        let total = self.moments_in(rect);
        let m = total.count;
        if m < 1.0 {
            return 0.0;
        }
        let cap = self.avg_cap();
        let q = match &self.spatial {
            Spatial::None => {
                let i = self.coord[0].rank_of_key(rect.lo()[0]);
                let j = self.coord[0].rank_of_key(rect.hi()[0]);
                self.heaviest_window_ranks(i, j, cap)
            }
            Spatial::Low(s) => match s.heaviest_canonical(rect, cap) {
                Some(c) => c.moments,
                None => return 0.0,
            },
            Spatial::High(s) => match s.heaviest_canonical(rect, cap) {
                Some(c) => c.moments,
                None => return 0.0,
            },
        };
        formulas::bucket_avg_query_variance(m, &q)
    }
}

/// Rank-range probes from one start ([`MaxVarianceIndex::rank_probe`]).
/// The SUM/MIN/MAX half split reads `prefix(start)` once and `prefix(mid)`
/// once per probe, so a probe costs two treap descents instead of four; the
/// halves are the same `prefix(hi) − prefix(lo)` differences
/// `Treap::moments_by_rank` takes, so the bits are too.
pub(crate) struct RankProbe<'a> {
    mv: &'a MaxVarianceIndex,
    start: usize,
    /// `prefix(start)` for the half split, zero for COUNT and AVG.
    below: Moments,
}

impl RankProbe<'_> {
    /// `M` over ranks `[start, end)`.
    pub(crate) fn upto(&self, end: usize) -> f64 {
        let (mv, i, j) = (self.mv, self.start, end);
        if j <= i {
            return 0.0;
        }
        let m = (j - i) as f64;
        match mv.focus {
            AggregateFunction::Count => formulas::bucket_count_query_variance(m / mv.alpha, m),
            AggregateFunction::Sum | AggregateFunction::Min | AggregateFunction::Max => {
                let mid = i + (j - i) / 2;
                let at_mid = mv.coord[0].prefix(mid);
                let left = if mid > i {
                    at_mid.subtract(&self.below)
                } else {
                    Moments::ZERO
                };
                let right = mv.coord[0].prefix(j).subtract(&at_mid);
                let n_hat = m / mv.alpha;
                formulas::bucket_sum_query_variance(n_hat, m, &left)
                    .max(formulas::bucket_sum_query_variance(n_hat, m, &right))
            }
            AggregateFunction::Avg => {
                let q = mv.heaviest_window_ranks(i, j, mv.avg_cap());
                formulas::bucket_avg_query_variance(m, &q)
            }
        }
    }
}

/// A sampled row as **M** holds it under `template`: projected onto the
/// predicate space, weighted by the aggregation attribute.
pub(crate) fn index_point(template: &QueryTemplate, row: RowRef<'_>) -> IndexPoint {
    let coords = row.project(&template.predicate_columns);
    IndexPoint::new(coords, row.id, row.value(template.agg_column))
}

/// `|S| / |D|`, clamped into the range an index accepts.
fn sampling_rate(samples: usize, population: usize) -> f64 {
    if population == 0 {
        1.0
    } else {
        (samples as f64 / population as f64).clamp(1e-9, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn points_1d(n: usize, seed: u64) -> Vec<IndexPoint> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                IndexPoint::new(
                    vec![rng.gen::<f64>() * 100.0],
                    i as u64,
                    rng.gen::<f64>() * 10.0,
                )
            })
            .collect()
    }

    fn points_nd(d: usize, n: usize, seed: u64) -> Vec<IndexPoint> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                IndexPoint::new(
                    (0..d).map(|_| rng.gen::<f64>()).collect(),
                    i as u64,
                    rng.gen::<f64>() * 10.0,
                )
            })
            .collect()
    }

    #[test]
    fn count_variance_is_closed_form() {
        let idx =
            MaxVarianceIndex::bulk_load(1, AggregateFunction::Count, 0.1, 0.01, points_1d(100, 1));
        let r = Rect::new(vec![0.0], vec![100.1]).unwrap();
        let m = idx.count_in(&r) as f64;
        assert_eq!(m, 100.0);
        let v = idx.max_variance(&r);
        let expected = (m / 0.1).powi(2) / (4.0 * m);
        assert!((v - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn sum_variance_is_a_lower_bound_witness() {
        // M(R) must be the variance of an actual half — check against an
        // exhaustive scan of contiguous sample windows.
        let pts = points_1d(200, 2);
        let idx = MaxVarianceIndex::bulk_load(1, AggregateFunction::Sum, 0.05, 0.01, pts.clone());
        let r = Rect::new(vec![0.0], vec![100.1]).unwrap();
        let v = idx.max_variance(&r);
        assert!(v > 0.0);
        // Exhaustive max over contiguous windows (the 1-D worst query is an
        // interval): M(R) must not exceed it, and must be >= 1/4 of it.
        let mut sorted: Vec<&IndexPoint> = pts.iter().collect();
        sorted.sort_by(|a, b| a.coords[0].total_cmp(&b.coords[0]));
        let m = sorted.len() as f64;
        let n_hat = m / 0.05;
        let mut exact = 0.0f64;
        for a in 0..sorted.len() {
            let mut q = Moments::ZERO;
            for p in &sorted[a..] {
                q.add(p.weight);
                exact = exact.max(formulas::bucket_sum_query_variance(n_hat, m, &q));
            }
        }
        assert!(v <= exact + 1e-6, "M(R)={v} exceeds exact {exact}");
        assert!(v >= exact / 4.0 - 1e-6, "M(R)={v} below quarter of {exact}");
    }

    #[test]
    fn updates_change_the_probe() {
        let mut idx =
            MaxVarianceIndex::bulk_load(1, AggregateFunction::Sum, 0.1, 0.01, points_1d(50, 3));
        let r = Rect::new(vec![0.0], vec![100.1]).unwrap();
        let before = idx.max_variance(&r);
        // Insert an outlier value: variance probe must increase.
        idx.insert(IndexPoint::new(vec![50.0], 10_000, 1e4));
        let after = idx.max_variance(&r);
        assert!(after > before, "{after} <= {before}");
        idx.delete(&IndexPoint::new(vec![50.0], 10_000, 1e4));
        let back = idx.max_variance(&r);
        assert!((back - before).abs() / before < 0.5);
        assert_eq!(idx.len(), 50);
    }

    #[test]
    fn multidim_sum_split_works() {
        let pts = points_nd(3, 400, 5);
        let idx = MaxVarianceIndex::bulk_load(3, AggregateFunction::Sum, 0.1, 0.01, pts);
        let r = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let v = idx.max_variance(&r);
        assert!(v > 0.0);
        // A smaller rectangle has (weakly) smaller worst-query variance.
        let small = Rect::new(vec![0.4; 3], vec![0.6; 3]).unwrap();
        assert!(idx.max_variance(&small) <= v);
    }

    #[test]
    fn avg_variance_uses_heavy_window() {
        let mut pts = points_1d(300, 7);
        for p in pts.iter_mut().take(10) {
            p.coords[0] = 42.0 + (p.id as f64) * 1e-5;
            p.weight = 500.0;
        }
        let idx = MaxVarianceIndex::bulk_load(1, AggregateFunction::Avg, 0.1, 0.03, pts);
        let r = Rect::new(vec![0.0], vec![100.1]).unwrap();
        let v = idx.max_variance(&r);
        assert!(v > 0.0);
        // Rect excluding the heavy cluster scores lower.
        let light = Rect::new(vec![50.0], vec![100.1]).unwrap();
        assert!(idx.max_variance(&light) < v);
    }

    #[test]
    fn rank_range_and_rect_probes_agree_in_1d() {
        let pts = points_1d(128, 11);
        let idx = MaxVarianceIndex::bulk_load(1, AggregateFunction::Sum, 0.1, 0.01, pts);
        let r = Rect::new(vec![0.0], vec![100.1]).unwrap();
        let via_rect = idx.max_variance(&r);
        let via_rank = idx.max_variance_rank_range(0, 128);
        assert_eq!(via_rect.to_bits(), via_rank.to_bits());
    }

    /// The SUM probe reads each prefix once; the halves it subtracts are
    /// the ones two `moments_by_rank` calls take, and a rect probe that
    /// counted its samples through `moments_in` first decided "fewer than
    /// two" the same way — bit for bit, through inserts, deletes and α
    /// changes.
    #[test]
    fn shared_prefix_sum_probes_match_two_rank_range_sums_bit_for_bit() {
        fn two_range_probe(idx: &MaxVarianceIndex, i: usize, j: usize) -> f64 {
            if j <= i {
                return 0.0;
            }
            let m = (j - i) as f64;
            let mid = i + (j - i) / 2;
            let left = idx.coord[0].moments_by_rank(i, mid);
            let right = idx.coord[0].moments_by_rank(mid, j);
            let n_hat = m / idx.alpha;
            formulas::bucket_sum_query_variance(n_hat, m, &left)
                .max(formulas::bucket_sum_query_variance(n_hat, m, &right))
        }
        let mut rng = SmallRng::seed_from_u64(19);
        let mut idx = MaxVarianceIndex::new(1, AggregateFunction::Sum, 0.1, 0.01);
        let mut live: Vec<IndexPoint> = Vec::new();
        for step in 0..3_000u64 {
            if live.len() < 4 || rng.gen_bool(0.7) {
                let key = rng.gen_range(0..300) as f64;
                let p = IndexPoint::new(vec![key], step, rng.gen::<f64>().powf(4.0) * 1e3);
                idx.insert(p.clone());
                live.push(p);
            } else {
                idx.delete(&live.swap_remove(rng.gen_range(0..live.len())));
            }
            if step % 97 == 0 {
                idx.set_alpha(rng.gen_range(0.01..1.0));
            }
            let n = idx.len();
            let i = rng.gen_range(0..n);
            let probe = idx.rank_probe(i);
            for j in [rng.gen_range(0..=n), i, i + 1, (i + 2).min(n), n] {
                let parent = two_range_probe(&idx, i, j).to_bits();
                assert_eq!(probe.upto(j).to_bits(), parent, "[{i}, {j}) of {n}");
                assert_eq!(idx.max_variance_rank_range(i, j).to_bits(), parent);
            }
            let (a, b) = (rng.gen_range(-1..301) as f64, rng.gen_range(-1..301) as f64);
            let rect = Rect::new(vec![a.min(b) + 0.5], vec![a.max(b) + 0.5]).unwrap();
            let parent = if idx.moments_in(&rect).count < 2.0 {
                0.0
            } else {
                let i = idx.rank_of_dim0_key(rect.lo()[0]);
                two_range_probe(&idx, i, idx.rank_of_dim0_key(rect.hi()[0]))
            };
            assert_eq!(idx.max_variance(&rect).to_bits(), parent.to_bits());
        }
    }

    #[test]
    fn empty_rect_scores_zero() {
        let idx =
            MaxVarianceIndex::bulk_load(2, AggregateFunction::Sum, 0.1, 0.01, points_nd(2, 50, 13));
        let r = Rect::new(vec![5.0, 5.0], vec![6.0, 6.0]).unwrap();
        assert_eq!(idx.max_variance(&r), 0.0);
        assert_eq!(idx.count_in(&r), 0);
    }

    #[test]
    fn live_points_round_trip() {
        let pts = points_nd(2, 60, 17);
        let mut idx =
            MaxVarianceIndex::bulk_load(2, AggregateFunction::Sum, 0.1, 0.01, pts.clone());
        idx.delete(&pts[5]);
        let live = idx.live_points();
        assert_eq!(live.len(), 59);
        assert!(live.iter().all(|p| p.id != pts[5].id));
    }
}
