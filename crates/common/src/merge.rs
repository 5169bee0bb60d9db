//! Estimate composition across independent partial answers.
//!
//! A sharded deployment (see the `janus-cluster` crate) scatters one query
//! to several synopses and must gather the per-shard [`Estimate`]s into a
//! single answer whose value *and* uncertainty are both right:
//!
//! * **COUNT/SUM** are additive: per-shard point estimates add, and —
//!   because shards hold disjoint rows and sample independently — so do
//!   their variances, separately per source (`ν_c` catch-up, `ν_s`
//!   stratified-sample), preserving the §4.4.1 two-source decomposition.
//! * **AVG** is *not* additive. It is re-derived as a ratio of merged
//!   SUM and COUNT moment estimates, with the variance propagated by the
//!   standard delta method for a ratio of estimators:
//!   `Var(S/C) ≈ (Var(S) + (S/C)²·Var(C)) / C²`, again per source so the
//!   combined estimate still reports a two-source confidence interval.
//! * **MIN/MAX** take the extreme of the per-shard answers.
//!
//! ## Deadline-bounded (k-of-n) gathers
//!
//! A deadline-aware gather may hold answers from only `k` of the `n`
//! shards a query was scattered to. [`merge_partial_additive`] composes
//! the `k` arrivals and *extrapolates* to the missing shards' population
//! share: the pooled per-row rate of the responders is applied to the
//! missing rows, the responders' estimator variance is scaled by the
//! squared extrapolation factor, and a between-shard rate-dispersion term
//! (finite-population corrected) is added so the widened CI covers the
//! exact answer at the nominal rate even when shards are heterogeneous
//! (range partitioning). The result is flagged [`Estimate::partial`].
//! With nothing missing the call *is* [`merge_additive`] — bit-identical,
//! no widening, no flag.
//!
//! ## The gather
//!
//! [`gather`] is the one aggregate-generic composition of a scatter's
//! per-shard [`SubAnswer`]s: every coordinator (in-process and networked)
//! hands it the slots it collected and gets back the merged estimate, so
//! the statistical merge exists exactly once.

use crate::error::{JanusError, Result};
use crate::query::{AggregateFunction, Estimate};

/// One shard's answer to a scattered sub-query, in the shape the
/// aggregate needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubAnswer {
    /// The shard's selection was empty (MIN/MAX only).
    Empty,
    /// A plain per-shard estimate (COUNT/SUM/MIN/MAX).
    Estimate(Estimate),
    /// The (SUM, COUNT) moment pair AVG merges re-derive from.
    Moments {
        /// The shard's SUM estimate.
        sum: Estimate,
        /// The shard's COUNT estimate.
        count: Estimate,
    },
}

/// Composes the sub-answers of one scatter into the query's answer.
///
/// `slots[i]` is target `i`'s sub-answer, `None` when it missed a gather
/// deadline. `weights[i]` is target `i`'s row population (or a proxy for
/// it) — the k-of-n extrapolation weight; it may be empty when every slot
/// answered (no deadline, nothing to extrapolate). All-present gathers are
/// bit-identical to [`merge_additive`] / [`combine_avg`] /
/// [`merge_extremum`]; with slots missing COUNT/SUM/AVG extrapolate via
/// [`merge_partial_additive`] / [`merge_partial_avg`], and an extremum —
/// which cannot be extrapolated — is only flagged [`Estimate::partial`]
/// when a missed shard held rows. `Ok(None)` is AVG/MIN/MAX over an
/// (estimated) empty selection.
///
/// Sub-answers arrive from other processes, so a shape that does not fit
/// `agg` (or a missing slot with no weight to extrapolate by) is a
/// [`JanusError::Protocol`] error, never a panic.
pub fn gather(
    agg: AggregateFunction,
    slots: &[Option<SubAnswer>],
    weights: &[u64],
) -> Result<Option<Estimate>> {
    use AggregateFunction::{Avg, Count, Max, Min, Sum};
    let complete = slots.iter().all(Option::is_some);
    if weights.len() != slots.len() && !(complete && weights.is_empty()) {
        return Err(JanusError::Protocol(format!(
            "gather of {} slots (all answered: {complete}) got {} weights",
            slots.len(),
            weights.len()
        )));
    }
    let weight = |i: usize| weights.get(i).copied().unwrap_or(0);
    // `parts` holds the estimates — or, for AVG, the SUM halves.
    let mut parts = Vec::with_capacity(slots.len());
    let mut counts = Vec::new();
    let mut part_rows = Vec::with_capacity(slots.len());
    let mut missing_rows = 0u64;
    for (i, slot) in slots.iter().enumerate() {
        match (slot, agg) {
            (None, _) => missing_rows += weight(i),
            (Some(SubAnswer::Estimate(e)), Count | Sum | Min | Max) => {
                parts.push(*e);
                part_rows.push(weight(i));
            }
            (Some(SubAnswer::Empty), Min | Max) => {}
            (Some(SubAnswer::Moments { sum, count }), Avg) => {
                parts.push(*sum);
                counts.push(*count);
                part_rows.push(weight(i));
            }
            (Some(other), _) => {
                return Err(JanusError::Protocol(format!(
                    "{agg:?} gather got {other:?} in slot {i}"
                )));
            }
        }
    }
    Ok(match agg {
        Count | Sum => Some(merge_partial_additive(&parts, &part_rows, missing_rows)),
        Avg => merge_partial_avg(&parts, &counts, &part_rows, missing_rows),
        Min | Max => {
            let mut extremum = merge_extremum(&parts, agg == Min);
            // A missed *empty* shard cannot change an extremum.
            if missing_rows > 0 {
                if let Some(e) = &mut extremum {
                    e.partial = true;
                }
            }
            extremum
        }
    })
}

/// Merges additive (COUNT/SUM) partial estimates from disjoint shards:
/// values add, per-source variances add, bookkeeping counters add.
///
/// The empty merge is the exact zero estimate (an empty shard set
/// contributes nothing).
pub fn merge_additive<'a>(parts: impl IntoIterator<Item = &'a Estimate>) -> Estimate {
    let mut merged = Estimate::exact(0.0);
    for part in parts {
        merged.value += part.value;
        merged.catchup_variance += part.catchup_variance;
        merged.sample_variance += part.sample_variance;
        merged.covered_nodes += part.covered_nodes;
        merged.partial_nodes += part.partial_nodes;
        merged.samples_used += part.samples_used;
        merged.partial |= part.partial;
    }
    merged
}

/// Merges `k`-of-`n` additive (COUNT/SUM) partials from a deadline-bounded
/// gather. `part_rows[i]` is the row population of the shard that produced
/// `parts[i]`; `missing_rows` is the total population of the shards whose
/// answers did not arrive.
///
/// With `missing_rows == 0` this *is* [`merge_additive`] — the k = n
/// boundary returns bit-identically the complete merge, unflagged.
/// Otherwise the responders' pooled per-row rate is extrapolated over the
/// missing rows and the variance is widened (see the module docs), and the
/// result carries [`Estimate::partial`] ` = true`.
///
/// An empty `parts` with rows missing has no rate to extrapolate from;
/// callers must gather at least one sub-answer before invoking this (the
/// cluster gather blocks for the first arrival regardless of deadline).
pub fn merge_partial_additive(
    parts: &[Estimate],
    part_rows: &[u64],
    missing_rows: u64,
) -> Estimate {
    assert_eq!(
        parts.len(),
        part_rows.len(),
        "one population per partial estimate"
    );
    let merged = merge_additive(parts);
    if missing_rows == 0 {
        return merged;
    }
    let responding: u64 = part_rows.iter().sum();
    if responding == 0 {
        // The shards that answered hold no rows, so they say nothing about
        // the missing population: keep their (empty) merge, flag it.
        return Estimate {
            partial: true,
            ..merged
        };
    }
    let total = responding + missing_rows;
    let factor = total as f64 / responding as f64;
    let pooled_rate = merged.value / responding as f64;

    // Estimator uncertainty scales with the extrapolated magnitude.
    let catchup_variance = merged.catchup_variance * factor * factor;
    let mut sample_variance = merged.sample_variance * factor * factor;

    // Extrapolation uncertainty: the missing shards' true per-row rates
    // are unknown, so charge the observed between-shard rate dispersion,
    // shrunk by the responder count and by the finite-population factor
    // (nothing is extrapolated when nothing is missing).
    let k = parts.len();
    if k >= 2 {
        let mut dispersion = 0.0;
        for (part, &rows) in parts.iter().zip(part_rows) {
            if rows == 0 {
                continue;
            }
            let rate = part.value / rows as f64;
            dispersion += (rate - pooled_rate) * (rate - pooled_rate);
        }
        dispersion /= (k - 1) as f64;
        let missing_share = missing_rows as f64 / total as f64;
        sample_variance +=
            (total as f64) * (total as f64) * (dispersion / k as f64) * missing_share;
    } else {
        // A single responder carries no dispersion signal; fall back to a
        // conservative floor — the full extrapolated magnitude could be
        // off by its own size.
        let extrapolated = missing_rows as f64 * pooled_rate;
        sample_variance += extrapolated * extrapolated;
    }

    Estimate {
        value: merged.value * factor,
        catchup_variance,
        sample_variance,
        covered_nodes: merged.covered_nodes,
        partial_nodes: merged.partial_nodes,
        samples_used: merged.samples_used,
        partial: true,
    }
}

/// Merges `k`-of-`n` AVG partials from a deadline-bounded gather: the
/// per-shard SUM and COUNT moment estimates are each extrapolated via
/// [`merge_partial_additive`] (the shared scale factor cancels in the
/// ratio, so only the CI widens) and re-combined with [`combine_avg`].
/// With `missing_rows == 0` this is bit-identical to the complete
/// moment-merge path.
pub fn merge_partial_avg(
    sums: &[Estimate],
    counts: &[Estimate],
    part_rows: &[u64],
    missing_rows: u64,
) -> Option<Estimate> {
    let sum = merge_partial_additive(sums, part_rows, missing_rows);
    let count = merge_partial_additive(counts, part_rows, missing_rows);
    combine_avg(&sum, &count)
}

/// Combines a merged SUM estimate and a merged COUNT estimate into an AVG
/// estimate via the delta method (see module docs). Returns `None` when
/// the estimated selection is empty or negative (no meaningful ratio).
pub fn combine_avg(sum: &Estimate, count: &Estimate) -> Option<Estimate> {
    // `!(a > b)` deliberately rejects a NaN count as well.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(count.value > 0.0) {
        return None;
    }
    let ratio = sum.value / count.value;
    let inv_count_sq = 1.0 / (count.value * count.value);
    let propagate =
        |sum_var: f64, count_var: f64| (sum_var + ratio * ratio * count_var) * inv_count_sq;
    Some(Estimate {
        value: ratio,
        catchup_variance: propagate(sum.catchup_variance, count.catchup_variance),
        sample_variance: propagate(sum.sample_variance, count.sample_variance),
        covered_nodes: sum.covered_nodes.max(count.covered_nodes),
        partial_nodes: sum.partial_nodes.max(count.partial_nodes),
        samples_used: sum.samples_used.max(count.samples_used),
        partial: sum.partial || count.partial,
    })
}

/// Merges MIN (`minimum = true`) or MAX partial estimates: the extreme
/// per-shard value wins and carries its own uncertainty bookkeeping.
/// Returns `None` when no shard produced an answer.
pub fn merge_extremum<'a>(
    parts: impl IntoIterator<Item = &'a Estimate>,
    minimum: bool,
) -> Option<Estimate> {
    parts.into_iter().fold(None, |best, part| match best {
        None => Some(*part),
        Some(b) => {
            let better = if minimum {
                part.value < b.value
            } else {
                part.value > b.value
            };
            Some(if better { *part } else { b })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(value: f64, vc: f64, vs: f64) -> Estimate {
        Estimate {
            value,
            catchup_variance: vc,
            sample_variance: vs,
            covered_nodes: 1,
            partial_nodes: 2,
            samples_used: 3,
            partial: false,
        }
    }

    #[test]
    fn additive_merge_adds_values_and_variances() {
        let parts = [est(10.0, 1.0, 2.0), est(5.0, 0.5, 0.25)];
        let m = merge_additive(&parts);
        assert_eq!(m.value, 15.0);
        assert_eq!(m.catchup_variance, 1.5);
        assert_eq!(m.sample_variance, 2.25);
        assert_eq!(m.variance(), 3.75);
        assert_eq!(m.covered_nodes, 2);
        assert_eq!(m.samples_used, 6);
    }

    #[test]
    fn additive_merge_of_nothing_is_exact_zero() {
        let m = merge_additive([]);
        assert_eq!(m.value, 0.0);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn avg_ratio_matches_hand_computation() {
        // S = 100 ± (var 16), C = 25 ± (var 4); r = 4.
        // Var = (16 + 16*4) / 625 = 0.128, split across sources.
        let sum = est(100.0, 10.0, 6.0);
        let count = est(25.0, 4.0, 0.0);
        let avg = combine_avg(&sum, &count).unwrap();
        assert_eq!(avg.value, 4.0);
        let expect_vc = (10.0 + 16.0 * 4.0) / 625.0;
        let expect_vs = 6.0 / 625.0;
        assert!((avg.catchup_variance - expect_vc).abs() < 1e-12);
        assert!((avg.sample_variance - expect_vs).abs() < 1e-12);
    }

    #[test]
    fn avg_of_empty_selection_is_none() {
        assert!(combine_avg(&est(0.0, 0.0, 0.0), &est(0.0, 0.0, 0.0)).is_none());
        assert!(combine_avg(&est(1.0, 0.0, 0.0), &est(-2.0, 0.0, 0.0)).is_none());
    }

    #[test]
    fn avg_with_exact_inputs_is_exact() {
        let avg = combine_avg(&Estimate::exact(54.0), &Estimate::exact(4.0)).unwrap();
        assert_eq!(avg.value, 13.5);
        assert_eq!(avg.variance(), 0.0);
    }

    #[test]
    fn extremum_merge_picks_the_extreme() {
        let parts = [est(3.0, 0.0, 0.0), est(-1.0, 0.0, 0.0), est(7.0, 0.0, 0.0)];
        assert_eq!(merge_extremum(&parts, true).unwrap().value, -1.0);
        assert_eq!(merge_extremum(&parts, false).unwrap().value, 7.0);
        assert!(merge_extremum([], true).is_none());
    }

    #[test]
    fn partial_flag_propagates_through_merges() {
        let mut flagged = est(5.0, 1.0, 1.0);
        flagged.partial = true;
        let merged = merge_additive([&est(1.0, 0.0, 0.0), &flagged]);
        assert!(merged.partial);
        let clean = merge_additive(&[est(1.0, 0.0, 0.0), est(2.0, 0.0, 0.0)]);
        assert!(!clean.partial);
        let avg = combine_avg(&flagged, &est(2.0, 0.0, 0.0)).unwrap();
        assert!(avg.partial);
        let avg = combine_avg(&est(4.0, 0.0, 0.0), &est(2.0, 0.0, 0.0)).unwrap();
        assert!(!avg.partial);
    }

    #[test]
    fn k_of_n_with_nothing_missing_is_bit_identical_to_complete_merge() {
        // The k = n boundary must not widen, scale, or flag anything: the
        // partial merge with zero missing rows *is* the complete merge.
        let parts = [est(10.0, 1.0, 2.0), est(5.0, 0.5, 0.25), est(2.5, 0.0, 1.0)];
        let rows = [100, 50, 25];
        let complete = merge_additive(&parts);
        let bounded = merge_partial_additive(&parts, &rows, 0);
        assert_eq!(bounded, complete);
        assert!(!bounded.partial);

        let avg = merge_partial_avg(&parts, &parts, &rows, 0).unwrap();
        let complete_avg = combine_avg(&complete, &complete).unwrap();
        assert_eq!(avg, complete_avg);
        assert!(!avg.partial);
    }

    #[test]
    fn k_of_n_extrapolates_the_pooled_rate_and_widens() {
        // Two responders, 100 rows each at rate 0.1, 200 rows missing:
        // value extrapolates 20 -> 40 and the estimator variance scales by
        // the squared factor. Equal rates mean zero dispersion, so the
        // sample variance is exactly the scaled responder variance.
        let parts = [est(10.0, 1.0, 2.0), est(10.0, 1.0, 2.0)];
        let bounded = merge_partial_additive(&parts, &[100, 100], 200);
        assert!(bounded.partial);
        assert!((bounded.value - 40.0).abs() < 1e-12);
        assert!((bounded.catchup_variance - 2.0 * 4.0).abs() < 1e-12);
        assert!((bounded.sample_variance - 4.0 * 4.0).abs() < 1e-12);

        // Heterogeneous rates add a dispersion term on top.
        let skewed = [est(10.0, 1.0, 2.0), est(30.0, 1.0, 2.0)];
        let widened = merge_partial_additive(&skewed, &[100, 100], 200);
        assert!(widened.partial);
        assert!((widened.value - 80.0).abs() < 1e-12);
        assert!(widened.sample_variance > 16.0, "dispersion must widen");
    }

    #[test]
    fn single_responder_gets_a_conservative_floor() {
        let parts = [est(10.0, 0.5, 0.5)];
        let bounded = merge_partial_additive(&parts, &[100], 300);
        assert!(bounded.partial);
        assert!((bounded.value - 40.0).abs() < 1e-12);
        // Floor: the extrapolated 30 rows * rate 0.1 could be off by its
        // own size, so at least 30^2 lands in the sample variance.
        assert!(bounded.sample_variance >= 900.0);
    }

    #[test]
    fn k_of_n_avg_keeps_the_ratio_and_widens_the_ci() {
        let sums = [est(100.0, 4.0, 4.0), est(110.0, 4.0, 4.0)];
        let counts = [est(25.0, 1.0, 1.0), est(27.0, 1.0, 1.0)];
        let complete = combine_avg(&merge_additive(&sums), &merge_additive(&counts)).unwrap();
        let bounded = merge_partial_avg(&sums, &counts, &[1000, 1000], 500).unwrap();
        assert!(bounded.partial);
        // The extrapolation factor cancels in the ratio.
        assert!((bounded.value - complete.value).abs() < 1e-9);
        assert!(bounded.variance() > complete.variance());
    }

    #[test]
    fn empty_responders_are_flagged_but_not_extrapolated() {
        let bounded = merge_partial_additive(&[], &[], 500);
        assert!(bounded.partial);
        assert_eq!(bounded.value, 0.0);
        let zero_rows = merge_partial_additive(&[est(0.0, 0.0, 0.0)], &[0], 500);
        assert!(zero_rows.partial);
        assert_eq!(zero_rows.value, 0.0);
    }

    fn assert_bits(a: Option<Estimate>, b: Option<Estimate>) {
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.catchup_variance.to_bits(), b.catchup_variance.to_bits());
        assert_eq!(a.sample_variance.to_bits(), b.sample_variance.to_bits());
        assert_eq!(a, b);
    }

    fn moments(sum: Estimate, count: Estimate) -> Option<SubAnswer> {
        Some(SubAnswer::Moments { sum, count })
    }

    #[test]
    fn complete_gather_is_bit_identical_to_the_direct_merges() {
        let parts = [est(10.1, 1.3, 2.7), est(5.3, 0.5, 0.25), est(2.5, 0.0, 1.1)];
        let counts = [est(4.0, 0.1, 0.2), est(3.0, 0.3, 0.1), est(1.5, 0.0, 0.7)];
        let slots: Vec<_> = parts
            .iter()
            .map(|e| Some(SubAnswer::Estimate(*e)))
            .collect();
        // With and without weights: a complete gather never reads them.
        for weights in [&[][..], &[100, 50, 25][..]] {
            for agg in [AggregateFunction::Count, AggregateFunction::Sum] {
                let got = gather(agg, &slots, weights).unwrap();
                assert_bits(got, Some(merge_additive(&parts)));
            }
            let avg_slots: Vec<_> = (0..3).map(|i| moments(parts[i], counts[i])).collect();
            assert_bits(
                gather(AggregateFunction::Avg, &avg_slots, weights).unwrap(),
                combine_avg(&merge_additive(&parts), &merge_additive(&counts)),
            );
        }
        let mut with_empty = slots.clone();
        with_empty.insert(1, Some(SubAnswer::Empty));
        for (agg, minimum) in [
            (AggregateFunction::Min, true),
            (AggregateFunction::Max, false),
        ] {
            let direct = merge_extremum(&parts, minimum);
            assert_bits(gather(agg, &with_empty, &[]).unwrap(), direct);
            assert_bits(gather(agg, &with_empty, &[100, 7, 50, 25]).unwrap(), direct);
        }
        // No shard answered an extremum, or the merged AVG count is zero.
        let empties = [Some(SubAnswer::Empty); 2];
        assert_eq!(gather(AggregateFunction::Max, &empties, &[]), Ok(None));
        let zero = [moments(est(0.0, 0.0, 0.0), est(0.0, 0.0, 0.0))];
        assert_eq!(gather(AggregateFunction::Avg, &zero, &[]), Ok(None));
        assert_eq!(
            gather(AggregateFunction::Count, &[], &[]),
            Ok(Some(Estimate::exact(0.0)))
        );
    }

    #[test]
    fn k_of_n_gather_equals_the_direct_partial_merges() {
        let parts = [est(10.0, 1.0, 2.0), est(30.0, 1.0, 2.0)];
        let counts = [est(4.0, 0.1, 0.2), est(9.0, 0.3, 0.1)];
        let weights = [100, 300, 200, 0];
        let slots = [
            Some(SubAnswer::Estimate(parts[0])),
            None,
            Some(SubAnswer::Estimate(parts[1])),
            None,
        ];
        let direct = merge_partial_additive(&parts, &[100, 200], 300);
        assert!(direct.partial);
        assert_bits(
            gather(AggregateFunction::Sum, &slots, &weights).unwrap(),
            Some(direct),
        );
        let avg_slots = [
            moments(parts[0], counts[0]),
            None,
            moments(parts[1], counts[1]),
            None,
        ];
        assert_bits(
            gather(AggregateFunction::Avg, &avg_slots, &weights).unwrap(),
            merge_partial_avg(&parts, &counts, &[100, 200], 300),
        );
        // An extremum is flagged, not extrapolated — and only when a
        // missed shard held rows.
        let max = gather(AggregateFunction::Max, &slots, &weights)
            .unwrap()
            .unwrap();
        assert_eq!(max.value, 30.0);
        assert!(max.partial);
        let only_empty_missed = [slots[0], slots[2], None];
        let max = gather(AggregateFunction::Max, &only_empty_missed, &[100, 200, 0]);
        assert!(!max.unwrap().unwrap().partial);
    }

    #[test]
    fn malformed_gathers_are_protocol_errors_not_panics() {
        use AggregateFunction::{Avg, Count, Max, Min, Sum};
        let e = est(1.0, 0.0, 0.0);
        let protocol = |r: Result<Option<Estimate>>| matches!(r, Err(JanusError::Protocol(_)));
        let estimate = Some(SubAnswer::Estimate(e));
        let empty = Some(SubAnswer::Empty);
        let misshapen = [
            (Count, moments(e, e)),
            (Count, empty),
            (Sum, moments(e, e)),
            (Sum, empty),
            (Avg, estimate),
            (Avg, empty),
            (Min, moments(e, e)),
            (Max, moments(e, e)),
        ];
        for (agg, slot) in misshapen {
            assert!(protocol(gather(agg, &[slot], &[])), "{agg:?} took {slot:?}");
        }
        // A missed slot with no weight, and a weight list of the wrong length.
        let missed = [estimate, None];
        assert!(protocol(gather(Count, &missed, &[])));
        assert!(protocol(gather(Count, &missed, &[5])));
        assert!(protocol(gather(Count, &[estimate], &[5, 5])));
        assert!(gather(Count, &missed, &[5, 5]).is_ok());
    }

    /// Pin (b) of the multi-tenant SLO work: over many seeded trials, the
    /// widened CI of a k-of-n merge must cover the exact total at (at
    /// least) the nominal rate, including under heterogeneous per-shard
    /// rates — the regime range partitioning produces.
    #[test]
    fn k_of_n_ci_covers_the_exact_total_at_the_nominal_rate() {
        use rand::{Rng, SeedableRng};
        use rand_distr::{Distribution, Normal};

        const SHARDS: usize = 8;
        const RESPONDERS: usize = 5;
        const ROWS_PER_SHARD: u64 = 1_000;
        const TRIALS: usize = 500;
        const Z: f64 = 2.0;

        let mut covered = 0usize;
        let mut covered_complete = 0usize;
        for trial in 0..TRIALS {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0x51_0c0de + trial as u64);
            // Heterogeneous per-shard rates: each shard's true per-row
            // contribution is its own draw, so the missing shards really
            // do differ from the responders.
            let rates: Vec<f64> = (0..SHARDS).map(|_| rng.gen_range(0.5..1.5)).collect();
            let truths: Vec<f64> = rates.iter().map(|r| r * ROWS_PER_SHARD as f64).collect();
            let exact_total: f64 = truths.iter().sum();

            // Per-shard estimates: truth + estimator noise of known
            // variance (the per-shard synopsis CI contract).
            let noise_sd = 30.0;
            let noise = Normal::new(0.0, noise_sd).unwrap();
            let parts: Vec<Estimate> = truths
                .iter()
                .map(|t| {
                    let mut e = est(t + noise.sample(&mut rng), 0.0, noise_sd * noise_sd);
                    e.covered_nodes = 1;
                    e
                })
                .collect();
            let rows = [ROWS_PER_SHARD; SHARDS];

            let bounded = merge_partial_additive(&parts[..RESPONDERS], &rows[..RESPONDERS], {
                (SHARDS - RESPONDERS) as u64 * ROWS_PER_SHARD
            });
            assert!(bounded.partial);
            if (bounded.value - exact_total).abs() <= bounded.ci_half_width(Z) {
                covered += 1;
            }

            let complete = merge_partial_additive(&parts, &rows, 0);
            assert!(!complete.partial);
            if (complete.value - exact_total).abs() <= complete.ci_half_width(Z) {
                covered_complete += 1;
            }
        }
        let rate = covered as f64 / TRIALS as f64;
        let rate_complete = covered_complete as f64 / TRIALS as f64;
        assert!(
            rate >= 0.90,
            "k-of-n coverage {rate} below the nominal z=2 rate"
        );
        assert!(
            rate_complete >= 0.90,
            "complete-merge coverage {rate_complete} regressed"
        );
    }
}
