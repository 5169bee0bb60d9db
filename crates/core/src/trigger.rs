//! Re-partitioning triggers (§5.4, Appendix E).
//!
//! Two conditions mark a leaf as *problematic*:
//!
//! 1. **Under-representation** — the leaf's virtual stratum holds too few
//!    samples for robust estimators (`|S_i| << log m`, scaled by the
//!    sampling rate);
//! 2. **Variance drift** — the leaf's current max-variance probe `M'_i`
//!    left the `[M_i/β, M_i·β]` band around the value recorded when the
//!    partitioning was built.
//!
//! A trigger alone does not re-partition: the engine asks the partitioner
//! for a candidate `R'` and adopts it only when `M(R') < M(R)/β` —
//! otherwise the current partitioning is provably good enough.
//!
//! Most armed triggers end in that "otherwise", so the engine hands the
//! partitioner the bound up front ([`adoption_bound`] →
//! `Partitioner::compute_if_below`) and lets it answer "cannot get below
//! that" from a pre-check instead of a search. The contract is
//! **reject-only**: a pre-check may turn a candidate the rule would reject
//! into one that is never computed, and nothing else — a candidate that is
//! computed still goes through [`accept_candidate`]. It rests on the
//! monotonicity of `M` in the bucket (§D.2), exact for COUNT and
//! approximate for SUM; `partition::bs1d` states how approximate.

use crate::maxvar::MaxVarianceIndex;
use crate::tree::Dpt;
use janus_sampling::stratified;

/// Trigger thresholds.
#[derive(Clone, Copy, Debug)]
pub struct TriggerConfig {
    /// Drift factor `β > 1` (paper default 10).
    pub beta: f64,
    /// Multiplier on `ln m` for the under-representation floor.
    pub underrep_fraction: f64,
}

impl Default for TriggerConfig {
    fn default() -> Self {
        TriggerConfig {
            beta: 10.0,
            underrep_fraction: 1.0,
        }
    }
}

/// Why a leaf was flagged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TriggerDecision {
    /// The stratum has too few samples for robust estimation.
    Underrepresented {
        /// Flagged leaf index.
        leaf: usize,
        /// Its current stratum size.
        samples: usize,
    },
    /// The max-variance probe drifted by more than `β`.
    VarianceDrift {
        /// Flagged leaf index.
        leaf: usize,
        /// `M_i` recorded at construction.
        built: f64,
        /// Current probe `M'_i`.
        current: f64,
    },
}

/// Evaluates both §5.4 conditions for one leaf after it received an update.
pub fn check_leaf(
    dpt: &Dpt,
    mv: &MaxVarianceIndex,
    leaf: usize,
    cfg: &TriggerConfig,
) -> Option<TriggerDecision> {
    let node = dpt.node(leaf);
    let m_total = mv.len();
    let samples = node.samples.len();
    if stratified::stratum_is_underrepresented(samples, m_total, cfg.underrep_fraction) {
        return Some(TriggerDecision::Underrepresented { leaf, samples });
    }
    let built = node.built_variance;
    if built > 0.0 {
        let current = mv.max_variance(&node.rect);
        if current > cfg.beta * built || current < built / cfg.beta {
            return Some(TriggerDecision::VarianceDrift {
                leaf,
                built,
                current,
            });
        }
    }
    None
}

/// `M(R)/β`: what a candidate's worst variance must stay strictly below
/// to be adopted.
pub fn adoption_bound(current_max: f64, beta: f64) -> f64 {
    current_max / beta
}

/// The adoption rule of §5.4: re-partition only when the candidate's worst
/// variance beats the current one by a factor of `β`.
pub fn accept_candidate(current_max: f64, candidate_max: f64, beta: f64) -> bool {
    candidate_max < adoption_bound(current_max, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use janus_common::{AggregateFunction, QueryTemplate};
    use janus_index::IndexPoint;

    fn setup(built: f64, n_samples: usize) -> (Dpt, MaxVarianceIndex) {
        let spec = PartitionSpec::from_boundaries(&[10.0]).unwrap();
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let mut dpt = Dpt::build(template, 8, &spec, &[built, built], 1000.0).unwrap();
        let points: Vec<IndexPoint> = (0..n_samples)
            .map(|i| IndexPoint::new(vec![(i % 20) as f64], i as u64, 1.0 + (i % 3) as f64))
            .collect();
        for p in &points {
            dpt.assign_sample(p.id, &p.coords);
        }
        let mv = MaxVarianceIndex::bulk_load(1, AggregateFunction::Sum, 0.1, 0.01, points);
        (dpt, mv)
    }

    #[test]
    fn well_balanced_leaf_does_not_trigger() {
        let (dpt, mv) = setup(0.0, 400);
        let leaf = dpt.leaf_indices()[0];
        // built == 0 disables drift; plenty of samples.
        assert_eq!(check_leaf(&dpt, &mv, leaf, &TriggerConfig::default()), None);
    }

    #[test]
    fn empty_stratum_triggers_underrepresentation() {
        let spec = PartitionSpec::from_boundaries(&[10.0]).unwrap();
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let dpt = Dpt::build(template, 8, &spec, &[0.0, 0.0], 1000.0).unwrap();
        let points: Vec<IndexPoint> = (0..200)
            .map(|i| IndexPoint::new(vec![i as f64], i as u64, 1.0))
            .collect();
        let mv = MaxVarianceIndex::bulk_load(1, AggregateFunction::Sum, 0.1, 0.01, points);
        let leaf = dpt.leaf_indices()[0];
        // No samples assigned to the tree at all.
        assert!(matches!(
            check_leaf(&dpt, &mv, leaf, &TriggerConfig::default()),
            Some(TriggerDecision::Underrepresented { .. })
        ));
    }

    #[test]
    fn variance_drift_triggers_in_both_directions() {
        // built_variance tiny -> current much larger triggers.
        let (dpt, mv) = setup(1e-12, 400);
        let leaf = dpt.leaf_indices()[0];
        let d = check_leaf(
            &dpt,
            &mv,
            leaf,
            &TriggerConfig {
                beta: 10.0,
                underrep_fraction: 0.0,
            },
        );
        assert!(
            matches!(d, Some(TriggerDecision::VarianceDrift { .. })),
            "{d:?}"
        );
        // built_variance huge -> current much smaller triggers.
        let (dpt, mv) = setup(1e12, 400);
        let leaf = dpt.leaf_indices()[0];
        let d = check_leaf(
            &dpt,
            &mv,
            leaf,
            &TriggerConfig {
                beta: 10.0,
                underrep_fraction: 0.0,
            },
        );
        assert!(matches!(d, Some(TriggerDecision::VarianceDrift { .. })));
    }

    #[test]
    fn within_band_does_not_drift() {
        let (dpt, mv) = setup(0.0, 400);
        let leaf = dpt.leaf_indices()[0];
        // Recompute the actual variance and use it as built: inside band.
        let built = mv.max_variance(&dpt.node(leaf).rect);
        let spec = PartitionSpec::from_boundaries(&[10.0]).unwrap();
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let mut dpt2 = Dpt::build(template, 8, &spec, &[built, built], 1000.0).unwrap();
        let points: Vec<IndexPoint> = (0..400)
            .map(|i| IndexPoint::new(vec![(i % 20) as f64], i as u64, 1.0 + (i % 3) as f64))
            .collect();
        for p in &points {
            dpt2.assign_sample(p.id, &p.coords);
        }
        let leaf2 = dpt2.leaf_indices()[0];
        assert_eq!(
            check_leaf(
                &dpt2,
                &mv,
                leaf2,
                &TriggerConfig {
                    beta: 10.0,
                    underrep_fraction: 0.0
                }
            ),
            None
        );
    }

    #[test]
    fn adoption_rule_requires_beta_improvement() {
        assert!(accept_candidate(100.0, 5.0, 10.0));
        assert!(!accept_candidate(100.0, 11.0, 10.0));
        assert!(!accept_candidate(100.0, 10.0, 10.0));
    }
}
