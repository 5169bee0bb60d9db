//! The 1-D binary-search partitioning algorithm of §5.2 / §D.2.
//!
//! The algorithm binary-searches a discretized ladder `E = {ρ^t}` of
//! candidate worst-case errors. For each candidate `e` it greedily builds
//! maximal buckets left-to-right — each bucket extended by a binary search
//! over sample ranks to the largest right endpoint whose
//! `sqrt(M(bucket)) <= e` — and declares `e` feasible when all samples fit
//! in `k` buckets. The monotonicity of the longest confidence interval
//! (bigger bucket ⇒ larger error, §D.2) makes both binary searches sound.
//!
//! The ladder endpoints follow from §D.2's bounds `L/√2 <= √V <= N·U`: we
//! anchor the top of the ladder at `√M(full domain)` (which the
//! monotonicity lemma makes the largest achievable bucket error, itself
//! `<= N·U`) and extend it downward by factors of `ρ` over nine decades,
//! comfortably past `L/(√2·N)` for any polynomially-bounded value domain.
//! Running time: `O(k log m · M · log log N)` probes, as in §5.2.
//!
//! # The reject-only pre-check
//!
//! The same lemma gives the update path a cheap way to *reject* a
//! candidate before searching for it ([`can_reach`]). A greedy cover is
//! left-most maximal: if maximal buckets of error `e` do not fit in `k`
//! leaves, no `k`-bucket partitioning has every bucket at or below `e` —
//! in particular not the one [`partition`] would return — so a caller that
//! only wants a result below `e²` (§5.4's `M(R)/β`) can skip the ~30 covers
//! of the search for the price of one. "Feasible" promises nothing and the
//! search runs unchanged.
//!
//! The pre-check leans on the assumption the search already makes: a
//! sub-bucket never has a larger `M` than the bucket containing it. How
//! well that holds depends on the probe:
//!
//! * **COUNT** — `N̂²/(4m)` is exactly monotone; a rejection is a proof.
//! * **SUM/MIN/MAX** — the half-split probe is a ¼-approximation of a
//!   monotone quantity, so a rejection proves only that the search stays
//!   above `e²/4`. In practice it is far sharper: on random heavy-tailed
//!   instances the search got below a rejected `e²` only when `e²` was
//!   within a few percent (16% at worst) of what it achieves. A candidate
//!   that close under the β threshold is then deferred to the next trigger,
//!   never lost, and no estimate depends on it.
//! * **AVG** — the heavy-window probe has no such constant (the search and
//!   a single cover disagree by up to 1.7× on the same instances), so AVG
//!   indexes are never pre-checked.
//!
//! # Certificates
//!
//! A failing cover says more than "no": it names *why*, in a form that can
//! be re-checked later in `k` probes instead of re-derived in a cover's
//! ~`k log m`. Each of its `k` buckets ends at a *witness* `W_t`: the
//! samples from the bucket's first one through the first one whose
//! inclusion pushed the probe above `e` (the rank where the bucket's binary
//! search stopped — `M` of one more sample was evaluated and exceeded
//! `e²`). As key ranges `[x_t, y_t]`, with `x_1 = −∞`, the witnesses are
//! ordered: `y_t ≤ x_{t+1}`, because the next bucket starts at or past
//! `y_t`'s rank.
//!
//! *Claim*: if every witness still probes above `e²`, no partitioning into
//! `k` key intervals `I_1 < … < I_k` (cut points `c_1 ≤ … ≤ c_{k−1}`,
//! `c_0 = −∞`, `c_k = +∞`) keeps every interval at or below `e²`. Suppose
//! no interval contains a whole witness. By induction `c_t ≤ y_t`: `c_{t−1}
//! ≤ y_{t−1} ≤ x_t` puts `x_t` in `I_t` or later; if later, `c_t ≤ x_t ≤
//! y_t`; if in `I_t`, then `y_t ∉ I_t`, so again `c_t ≤ y_t`. At `t = k`
//! that contradicts `c_k = +∞`. So some interval contains a witness, and
//! by the monotonicity above `M(interval) ≥ M(witness) > e²`.
//!
//! The certificate is the `k` key ranges, the last sample of each held as
//! its `(key, id)` so that a witness is exactly the cover's rank range when
//! it is made. It is re-verified against the *current* index every time it
//! is used (`Certificate::holds`) — samples inserted, deleted, re-sampled,
//! α re-derived — so it never needs invalidating for soundness: a
//! certificate that no longer holds simply says nothing. What it rests on
//! is what [`can_reach`] rests on: for COUNT the claim is exact, for
//! SUM/MIN/MAX a held certificate proves only that the search stays above
//! `e²/4`, and AVG is never certified.

use super::{finish, snap_rank_to_distinct, PartitionOutcome, PartitionSpec};
use crate::maxvar::MaxVarianceIndex;
use janus_common::{AggregateFunction, Result};
use janus_index::treap::Entry;

/// Number of `ρ`-decades the ladder spans below its anchor.
const LADDER_SPAN: f64 = 1e9;

/// How far above the bound [`can_reach_remembering`] runs its first cover,
/// so that a failing cover's certificate outlives the drift of the bound
/// between triggers. Candidates rejected on skewed streams first turn
/// feasible at 1.1–1.6× the bound.
const RECHECK_MARGIN: f64 = 1.1;

/// Runs the binary-search partitioner for (up to) `k` buckets.
pub fn partition(mv: &MaxVarianceIndex, k: usize, rho: f64) -> Result<PartitionOutcome> {
    partition_range(mv, 0, mv.len(), f64::NEG_INFINITY, f64::INFINITY, k, rho)
}

/// Binary-search partitioning restricted to the 1-D interval
/// `[rect_lo, rect_hi)` — used by partial re-partitioning (Appendix E).
pub fn partition_within(
    mv: &MaxVarianceIndex,
    rect_lo: f64,
    rect_hi: f64,
    k: usize,
    rho: f64,
) -> Result<PartitionOutcome> {
    let i = mv.rank_of_dim0_key(rect_lo);
    let j = mv.rank_of_dim0_key(rect_hi);
    partition_range(mv, i, j, rect_lo, rect_hi, k, rho)
}

/// Whether [`partition`] can return a `k`-bucket partitioning with
/// `max_leaf_variance < bound`: one greedy cover at error `√bound` over the
/// full domain. `false` means it cannot, as far as `M` is monotone (see the
/// module docs); `true` promises nothing — run the search.
pub fn can_reach(mv: &MaxVarianceIndex, k: usize, bound: f64) -> bool {
    certify(mv, k, bound).is_none()
}

/// The certificate of a failing greedy cover at error `√bound` over the
/// full domain; `None` when the cover fits in `k` buckets, for `k <= 1`
/// and for an AVG-focused index.
pub(crate) fn certify(mv: &MaxVarianceIndex, k: usize, bound: f64) -> Option<Certificate> {
    if mv.focus() == AggregateFunction::Avg || k <= 1 {
        return None;
    }
    let witnesses = greedy_cover(mv, 0, mv.len(), k, bound.sqrt()).err()?;
    Some(Certificate::over(mv, &witnesses))
}

/// [`can_reach`] for a caller that asks again as its sample drifts (the
/// engine's armed triggers). `held` is the certificate of the last failing
/// cover: if it still holds at `bound` the answer is "no" in `k` probes.
/// Otherwise one cover runs at [`RECHECK_MARGIN`]` × bound`, and only if
/// that one fits does the cover at `bound` decide, exactly as
/// [`can_reach`]. `held` keeps the certificate of whichever cover failed,
/// and is emptied when neither did.
pub(crate) fn can_reach_remembering(
    mv: &MaxVarianceIndex,
    k: usize,
    bound: f64,
    held: &mut Option<Certificate>,
) -> bool {
    if held.as_ref().is_some_and(|c| c.holds(mv, k, bound)) {
        return false;
    }
    *held = certify(mv, k, bound * RECHECK_MARGIN).or_else(|| certify(mv, k, bound));
    held.is_none()
}

/// Proof that no `k`-bucket partitioning keeps every bucket at or below a
/// bound — the `k` witnesses of a failing cover (module docs,
/// "Certificates").
pub(crate) struct Certificate {
    witnesses: Vec<Witness>,
}

/// One witness: the samples with key `>= from` ordered at or before the
/// sample `through` (by `(key, id)`).
struct Witness {
    from: f64,
    through: Entry,
}

impl Certificate {
    /// Key ranges of a failing cover's witness rank ranges `[first, last]`.
    fn over(mv: &MaxVarianceIndex, ranks: &[(usize, usize)]) -> Self {
        let entry = |rank: usize| mv.kth_dim0(rank).expect("witness rank is a sample");
        let witnesses = ranks
            .iter()
            .enumerate()
            .map(|(t, &(first, last))| Witness {
                from: if t == 0 {
                    f64::NEG_INFINITY
                } else {
                    entry(first).key
                },
                through: entry(last),
            })
            .collect();
        Certificate { witnesses }
    }

    /// Whether the certificate still proves that no `k`-bucket partitioning
    /// of the current index gets every bucket to `bound` or below: it has at
    /// least `k` witnesses and each one still probes above `bound`.
    pub(crate) fn holds(&self, mv: &MaxVarianceIndex, k: usize, bound: f64) -> bool {
        let e = bound.sqrt();
        self.witnesses.len() >= k && self.probes(mv).all(|v| v.sqrt() > e)
    }

    /// `M` of each witness over the current index, in key order.
    fn probes<'a>(&'a self, mv: &'a MaxVarianceIndex) -> impl Iterator<Item = f64> + 'a {
        self.witnesses.iter().map(|w| {
            let first = mv.rank_of_dim0_key(w.from);
            let end = mv.rank_through_dim0(&w.through);
            mv.max_variance_rank_range(first, end)
        })
    }
}

fn partition_range(
    mv: &MaxVarianceIndex,
    start: usize,
    end: usize,
    rect_lo: f64,
    rect_hi: f64,
    k: usize,
    rho: f64,
) -> Result<PartitionOutcome> {
    debug_assert!(mv.dims() == 1, "bs1d requires a 1-D synopsis");
    if end <= start || k <= 1 {
        let spec = PartitionSpec::from_boundaries_bounded(rect_lo, rect_hi, &[])?;
        return Ok(finish(spec, mv));
    }

    // Anchor the error ladder at the whole-interval bucket error.
    let e_max = mv.max_variance_rank_range(start, end).sqrt();
    if e_max <= 0.0 {
        // Degenerate data (constant aggregation values): equal-count split
        // over the full domain, a single bucket for a sub-interval.
        if start == 0 && end == mv.len() {
            return super::equicount::partition(mv, k);
        }
        let spec = PartitionSpec::from_boundaries_bounded(rect_lo, rect_hi, &[])?;
        return Ok(finish(spec, mv));
    }
    let levels = (LADDER_SPAN.ln() / rho.ln()).ceil() as u32;

    // Binary search over ladder exponents: ladder(t) = e_max / rho^t, so
    // larger t means a tighter error target. The whole interval as one
    // bucket (no cuts) meets ladder(0) by definition; `feasible(0)` can
    // still miss it where `M` is not monotone (AVG's heavy-window probe on
    // heavy-tailed values), so it is the starting point, not an `expect`.
    let feasible = |t: u32| -> Option<Vec<usize>> {
        greedy_cover(mv, start, end, k, e_max / rho.powi(t as i32)).ok()
    };
    let mut best = feasible(0).unwrap_or_default();
    let (mut lo, mut hi) = (0u32, levels);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        match feasible(mid) {
            Some(cuts) => {
                best = cuts;
                lo = mid;
            }
            None => hi = mid - 1,
        }
    }

    // Refinement: the ladder quantizes errors by factors of ρ, and because
    // bucket error scales like √(bucket size) a single ρ step can jump the
    // bucket count past `k`, leaving most of the budget unused. A short
    // continuous binary search between the last feasible and first
    // infeasible ladder rungs recovers those buckets at negligible cost
    // (the 2ρ√2 guarantee of §5.2 is preserved — we only tighten `e`).
    let (mut e_ok, mut e_bad) = (e_max / rho.powi(lo as i32), e_max / rho.powi(lo as i32 + 1));
    for _ in 0..24 {
        let e_mid = (e_ok * e_bad).sqrt();
        match greedy_cover(mv, start, end, k, e_mid) {
            Ok(cuts) => {
                best = cuts;
                e_ok = e_mid;
            }
            Err(_) => e_bad = e_mid,
        }
    }

    let boundaries = cuts_to_boundaries(mv, &best);
    let spec = PartitionSpec::from_boundaries_bounded(
        rect_lo,
        rect_hi,
        &boundaries
            .into_iter()
            .filter(|&b| b > rect_lo && b < rect_hi)
            .collect::<Vec<_>>(),
    )?;
    Ok(finish(spec, mv))
}

/// Greedy feasibility check: covers samples of rank `[start, end)` with at
/// most `k` maximal buckets of error `<= e`. Returns interior cut ranks on
/// success, and on failure each bucket's witness — the ranks `[first,
/// last]` of its samples through the first one that took it above `e`
/// (module docs, "Certificates").
fn greedy_cover(
    mv: &MaxVarianceIndex,
    start: usize,
    end: usize,
    k: usize,
    e: f64,
) -> std::result::Result<Vec<usize>, Vec<(usize, usize)>> {
    let mut cuts = Vec::with_capacity(k);
    let mut witnesses = Vec::with_capacity(k);
    let mut a = start;
    for _ in 0..k {
        if a >= end {
            break;
        }
        // Largest b in (a, end] with sqrt(M([a, b))) <= e; b = a + 1 is
        // always feasible for SUM/AVG (single-sample buckets have zero
        // variance). Every probe starts at `a`: one shared prefix.
        let probe = mv.rank_probe(a);
        let (mut lo, mut hi) = (a + 1, end);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if probe.upto(mid).sqrt() <= e {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        // `lo < end` means `M([a, lo + 1))` was probed and exceeded `e`.
        if lo < end {
            witnesses.push((a, lo));
        }
        // Ties on the boundary coordinate must stay in one bucket.
        let b = snap_rank_to_distinct(mv, lo).clamp(a + 1, end);
        if b < end {
            cuts.push(b);
        }
        a = b;
    }
    if a >= end {
        Ok(cuts)
    } else {
        Err(witnesses)
    }
}

/// Converts interior cut ranks to bucket boundary coordinates (each cut is
/// the coordinate of the first sample of the next bucket).
fn cuts_to_boundaries(mv: &MaxVarianceIndex, cuts: &[usize]) -> Vec<f64> {
    let mut out = Vec::with_capacity(cuts.len());
    for &c in cuts {
        if let Some(e) = mv.kth_dim0(c) {
            if out.last().is_none_or(|&last| e.key > last) {
                out.push(e.key);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_index::IndexPoint;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn mv_with(points: Vec<IndexPoint>, focus: AggregateFunction) -> MaxVarianceIndex {
        MaxVarianceIndex::bulk_load(1, focus, 0.05, 0.01, points)
    }

    fn uniform_points(n: usize, seed: u64) -> Vec<IndexPoint> {
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

    #[test]
    fn produces_up_to_k_buckets_covering_all_samples() {
        let mv = mv_with(uniform_points(500, 1), AggregateFunction::Sum);
        let out = partition(&mv, 16, 2.0).unwrap();
        assert!(out.spec.leaf_count() <= 16);
        assert!(out.spec.leaf_count() >= 8, "got {}", out.spec.leaf_count());
        out.spec.validate().unwrap();
        assert_eq!(out.leaf_variances.len(), out.spec.leaf_count());
        assert!(out.max_leaf_variance > 0.0);
    }

    #[test]
    fn more_buckets_means_no_worse_error() {
        let mv = mv_with(uniform_points(800, 2), AggregateFunction::Sum);
        let coarse = partition(&mv, 8, 2.0).unwrap();
        let fine = partition(&mv, 64, 2.0).unwrap();
        assert!(fine.max_leaf_variance <= coarse.max_leaf_variance * 1.01);
    }

    #[test]
    fn isolates_a_heavy_cluster() {
        // Points with a narrow band of huge values: a good partition puts
        // the band in its own small bucket(s).
        let mut pts = uniform_points(600, 3);
        for p in pts.iter_mut().take(40) {
            p.coords[0] = 50.0 + (p.id as f64) * 1e-4;
            p.weight = 1000.0;
        }
        let mv = mv_with(pts, AggregateFunction::Sum);
        let out = partition(&mv, 16, 2.0).unwrap();
        // Worst leaf error must be far below the single-bucket error.
        let single = mv.max_variance_rank_range(0, mv.len());
        assert!(out.max_leaf_variance < single / 4.0);
    }

    #[test]
    fn handles_duplicate_coordinates() {
        let mut pts = Vec::new();
        for i in 0..300u64 {
            pts.push(IndexPoint::new(vec![(i % 10) as f64], i, (i % 7) as f64));
        }
        let mv = mv_with(pts, AggregateFunction::Sum);
        let out = partition(&mv, 8, 2.0).unwrap();
        out.spec.validate().unwrap();
        assert!(out.spec.leaf_count() <= 10);
    }

    #[test]
    fn avg_focus_also_partitions() {
        let mv = mv_with(uniform_points(400, 5), AggregateFunction::Avg);
        let out = partition(&mv, 12, 2.0).unwrap();
        out.spec.validate().unwrap();
        assert!(out.spec.leaf_count() >= 2);
    }

    #[test]
    fn constant_weights_fall_back_to_equicount() {
        let pts: Vec<IndexPoint> = (0..200)
            .map(|i| IndexPoint::new(vec![i as f64], i as u64, 5.0))
            .collect();
        let mv = mv_with(pts, AggregateFunction::Sum);
        let out = partition(&mv, 4, 2.0).unwrap();
        // Constant data: every query's SUM kernel ~0, so M(full) == 0 and
        // equal-count split is returned.
        assert_eq!(out.spec.leaf_count(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The reject-only contract over random sizes, heavy-tailed values
        /// and runs of duplicate keys: a "no" from `can_reach` at error `e`
        /// means the full search stays at or above `e²` (COUNT) or `e²/4`
        /// (SUM), and AVG is never rejected. Probed where it is sharpest —
        /// at the variance the search achieves and just above.
        #[test]
        fn can_reach_only_rejects_what_the_search_cannot_achieve(
            n in 1usize..1500,
            k in 2usize..40,
            distinct_keys in 1usize..2000,
            tail in 0.2f64..6.0,
            focus in 0usize..3,
            slack in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            use AggregateFunction::{Avg, Count, Sum};
            let focus = [Sum, Avg, Count][focus];
            let mut rng = SmallRng::seed_from_u64(seed);
            let points = (0..n)
                .map(|i| {
                    let key = rng.gen_range(0..distinct_keys) as f64;
                    IndexPoint::new(vec![key], i as u64, 100.0 * rng.gen::<f64>().powf(tail))
                })
                .collect();
            let mv = mv_with(points, focus);
            let achieved = partition(&mv, k, 2.0).unwrap().max_leaf_variance;
            // How far under a rejected bound the search may still land, per
            // probe (module docs): not at all for COUNT, the 1/4-approximation
            // factor for SUM; AVG is never rejected.
            let edge = if focus == Sum { 4.0 } else { 1.0 };
            for bound in [
                (achieved * edge).next_up(),
                achieved * (edge + slack) + f64::MIN_POSITIVE,
                achieved * (edge + 10.0) + 1.0,
            ] {
                prop_assert!(
                    can_reach(&mv, k, bound),
                    "{focus:?}: rejected bound {bound} but the search achieves {achieved}"
                );
            }
            let e = mv.max_variance_rank_range(0, mv.len()).sqrt() * slack;
            prop_assert!(
                can_reach(&mv, k, e * e) || achieved * edge >= e * e,
                "{focus:?}: infeasible at {e} but the search achieves {achieved}"
            );
        }

        /// Certificates are re-verified, never invalidated. One holds at the
        /// bound it was made for, and `can_reach` says "no" exactly when the
        /// cover yields one. After random sample inserts and deletes and an α
        /// change, wherever it still holds — at every bound below its weakest
        /// witness — the full search stays at or above that bound (COUNT) or
        /// a quarter of it (SUM). Same generator as the case above.
        #[test]
        fn a_held_certificate_only_rejects_what_the_search_cannot_achieve(
            n in 1usize..1500,
            k in 2usize..40,
            distinct_keys in 1usize..2000,
            tail in 0.2f64..6.0,
            focus in 0usize..3,
            slack in 0.0f64..1.0,
            churn in 0usize..600,
            grow in 0.2f64..0.8,
            alpha in 0.001f64..1.0,
            seed in any::<u64>(),
        ) {
            use AggregateFunction::{Avg, Count, Sum};
            let focus = [Sum, Avg, Count][focus];
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut point = |id: u64| {
                let key = rng.gen_range(0..distinct_keys) as f64;
                IndexPoint::new(vec![key], id, 100.0 * rng.gen::<f64>().powf(tail))
            };
            let mut live: Vec<IndexPoint> = (0..n as u64).map(&mut point).collect();
            let churned: Vec<IndexPoint> = (0..churn as u64).map(|i| point(n as u64 + i)).collect();
            let mut mv = mv_with(live.clone(), focus);
            // Around what the search achieves: mostly infeasible below it.
            let bound = partition(&mv, k, 2.0).unwrap().max_leaf_variance * (0.4 + 0.7 * slack);
            let cert = certify(&mv, k, bound);
            prop_assert_eq!(cert.is_some(), !can_reach(&mv, k, bound));
            let Some(cert) = cert else { return Ok(()) };
            prop_assert!(cert.holds(&mv, k, bound));
            let (weakest, floor) = weakest_witness_and_search(&mv, k, &cert);
            prop_assert!(floor >= weakest, "{focus:?}: witness {weakest}, search {floor}");

            let mut rng = SmallRng::seed_from_u64(!seed);
            for (i, batch) in churned.chunks(50).enumerate() {
                for p in batch {
                    if live.is_empty() || rng.gen_bool(grow) {
                        mv.insert(p.clone());
                        live.push(p.clone());
                    } else {
                        mv.delete(&live.swap_remove(rng.gen_range(0..live.len())));
                    }
                }
                let (weakest, floor) = weakest_witness_and_search(&mv, k, &cert);
                prop_assert!(floor >= weakest, "{focus:?} batch {i}: witness {weakest}, search {floor}");
            }
            mv.set_alpha(alpha);
            let (weakest, floor) = weakest_witness_and_search(&mv, k, &cert);
            prop_assert!(floor >= weakest, "{focus:?} at α {alpha}: witness {weakest}, search {floor}");
            let fresh = certify(&mv, k, bound);
            prop_assert_eq!(fresh.is_some(), !can_reach(&mv, k, bound));
            if let Some(fresh) = fresh {
                prop_assert!(fresh.holds(&mv, k, bound));
                let (weakest, floor) = weakest_witness_and_search(&mv, k, &fresh);
                prop_assert!(floor >= weakest, "{focus:?} fresh: witness {weakest}, search {floor}");
            }
        }
    }

    /// The smallest witness probe of `cert` — it holds at every bound below
    /// that — and what the full search achieves, times the probe's
    /// approximation factor (module docs): soundness is the second at or
    /// above the first.
    fn weakest_witness_and_search(
        mv: &MaxVarianceIndex,
        k: usize,
        cert: &Certificate,
    ) -> (f64, f64) {
        let achieved = partition(mv, k, 2.0).unwrap().max_leaf_variance;
        let edge = if mv.focus() == AggregateFunction::Sum {
            4.0
        } else {
            1.0
        };
        (
            cert.probes(mv).fold(f64::INFINITY, f64::min),
            achieved * edge,
        )
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mv = mv_with(Vec::new(), AggregateFunction::Sum);
        let out = partition(&mv, 8, 2.0).unwrap();
        assert_eq!(out.spec.leaf_count(), 1);
        let mv = mv_with(uniform_points(3, 9), AggregateFunction::Sum);
        let out = partition(&mv, 8, 2.0).unwrap();
        assert!(out.spec.leaf_count() <= 3);
        out.spec.validate().unwrap();
    }
}
