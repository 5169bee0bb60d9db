//! Partitioning optimizers (§5.2, §5.3, Appendix D).
//!
//! A partitioner consumes the max-variance index **M** over the pooled
//! sample and produces a [`PartitionSpec`]: a hierarchical rectangular
//! partitioning with `k` leaves satisfying the partition-tree invariants of
//! §2.3.1 (children subsets of the parent, siblings disjoint and covering
//! the parent). The outer boundaries of every spec are unbounded so that
//! *every future tuple* lands in exactly one leaf, no matter how the domain
//! drifts.
//!
//! Four algorithms are provided:
//!
//! * [`bs1d`] — the paper's new 1-D binary search over a discretized error
//!   ladder (§5.2);
//! * [`equicount`] — the exact equal-count fast path for COUNT (§D.2);
//! * [`kd`] — the k-d construction for `d >= 1` splitting the
//!   highest-variance leaf at its sample median (§5.3.2);
//! * [`dp1d`] — the PASS dynamic program, kept as the Table 3 baseline.
//!
//! [`Partitioner::compute`] runs the chosen algorithm;
//! [`Partitioner::compute_if_below`] is the same for a caller that will
//! discard any result at or above a bound (the §5.4 adoption rule), and may
//! answer "not reachable" from a reject-only pre-check instead of a search.
//! Only the SUM binary search and COUNT's closed form have such a check:
//! for an AVG-focused index, the k-d construction and the DP,
//! `compute_if_below` is plain `compute`.

pub mod bs1d;
pub mod dp1d;
pub mod equicount;
pub mod kd;

use crate::maxvar::MaxVarianceIndex;
use janus_common::{AggregateFunction, JanusError, Rect, Result};
use std::time::{Duration, Instant};

/// One node of a partition hierarchy.
#[derive(Clone, Debug)]
pub struct SpecNode {
    /// Half-open cell of this node.
    pub rect: Rect,
    /// Child node indices (empty for leaves).
    pub children: Vec<usize>,
}

/// A hierarchical rectangular partitioning (the shape of a DPT).
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Node arena; `root` is the entry point.
    pub nodes: Vec<SpecNode>,
    /// Index of the root node.
    pub root: usize,
}

impl PartitionSpec {
    /// A trivial single-node spec covering all of `dims`-dimensional space.
    pub fn trivial(dims: usize) -> Self {
        PartitionSpec {
            nodes: vec![SpecNode {
                rect: Rect::unbounded(dims),
                children: Vec::new(),
            }],
            root: 0,
        }
    }

    /// Indices of the leaf nodes, in construction order.
    pub fn leaf_indices(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_empty())
            .collect()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_empty()).count()
    }

    /// Builds a balanced binary hierarchy over `k` 1-D buckets delimited by
    /// strictly-increasing `boundaries` (so `k = boundaries.len() + 1`),
    /// with unbounded outer edges.
    pub fn from_boundaries(boundaries: &[f64]) -> Result<Self> {
        Self::from_boundaries_bounded(f64::NEG_INFINITY, f64::INFINITY, boundaries)
    }

    /// Like [`from_boundaries`](Self::from_boundaries) but over the bounded
    /// 1-D interval `[lo, hi)` — the subtree shape for partial
    /// re-partitioning.
    pub fn from_boundaries_bounded(lo: f64, hi: f64, boundaries: &[f64]) -> Result<Self> {
        // `!(a < b)` deliberately rejects NaN boundaries as well.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if boundaries.windows(2).any(|w| !(w[0] < w[1])) {
            return Err(JanusError::InvalidConfig(
                "bucket boundaries must be strictly increasing".into(),
            ));
        }
        if boundaries.iter().any(|&b| b <= lo || b >= hi) {
            return Err(JanusError::InvalidConfig(
                "bucket boundaries must lie strictly inside the interval".into(),
            ));
        }
        let mut edges = Vec::with_capacity(boundaries.len() + 2);
        edges.push(lo);
        edges.extend_from_slice(boundaries);
        edges.push(hi);
        let mut nodes = Vec::new();
        let root = Self::build_balanced(&edges, 0, edges.len() - 1, &mut nodes);
        Ok(PartitionSpec { nodes, root })
    }

    /// Recursively builds a balanced binary tree over the edge range
    /// `[lo_edge, hi_edge]` (covering buckets `lo_edge..hi_edge`).
    fn build_balanced(edges: &[f64], lo: usize, hi: usize, nodes: &mut Vec<SpecNode>) -> usize {
        let rect = Rect::new(vec![edges[lo]], vec![edges[hi]]).expect("edges ordered");
        let idx = nodes.len();
        nodes.push(SpecNode {
            rect,
            children: Vec::new(),
        });
        if hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let left = Self::build_balanced(edges, lo, mid, nodes);
            let right = Self::build_balanced(edges, mid, hi, nodes);
            nodes[idx].children = vec![left, right];
        }
        idx
    }

    /// Checks the partition-tree invariants of §2.3.1 that are verifiable
    /// structurally: every child is a subset of its parent and siblings are
    /// pairwise disjoint. (Coverage of the parent by the sibling union is
    /// guaranteed by construction for axis-aligned binary splits.)
    pub fn validate(&self) -> Result<()> {
        for (i, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                if c >= self.nodes.len() {
                    return Err(JanusError::InvalidConfig(format!(
                        "node {i} references missing child {c}"
                    )));
                }
                if !self.nodes[c].rect.is_subset_of(&node.rect) {
                    return Err(JanusError::InvalidConfig(format!(
                        "child {c} is not a subset of parent {i}"
                    )));
                }
            }
            for (a, &ca) in node.children.iter().enumerate() {
                for &cb in &node.children[a + 1..] {
                    if self.nodes[ca].rect.intersects(&self.nodes[cb].rect) {
                        return Err(JanusError::InvalidConfig(format!(
                            "siblings {ca} and {cb} of node {i} overlap"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Result of a partitioning run.
#[derive(Debug)]
pub struct PartitionOutcome {
    /// The partition hierarchy.
    pub spec: PartitionSpec,
    /// `M(R_i)` for each leaf, aligned with [`PartitionSpec::leaf_indices`].
    pub leaf_variances: Vec<f64>,
    /// Worst leaf variance `M(R)` of the partitioning.
    pub max_leaf_variance: f64,
    /// Wall-clock time of the optimization.
    pub elapsed: Duration,
}

/// Which algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Pick automatically: COUNT in 1-D → equal-count; other 1-D templates
    /// → binary search; `d > 1` → k-d.
    Auto,
    /// The §5.2 binary-search algorithm (1-D only).
    BinarySearch1d,
    /// Equal-count buckets (1-D only; exact for COUNT).
    EquiCount1d,
    /// k-d median splits (§5.3.2; any dimensionality).
    KdTree,
    /// PASS dynamic programming over at most this many boundary candidates
    /// (1-D only; the Table 3 baseline).
    Dp1d {
        /// Maximum number of candidate cut positions.
        candidates: usize,
    },
}

/// A configured partitioner.
#[derive(Clone, Copy, Debug)]
pub struct Partitioner {
    /// The algorithm to run.
    pub kind: PartitionerKind,
    /// Error-ladder base `ρ` (used by [`PartitionerKind::BinarySearch1d`]).
    pub rho: f64,
}

impl Partitioner {
    /// A partitioner with automatic algorithm choice.
    pub fn auto(rho: f64) -> Self {
        Partitioner {
            kind: PartitionerKind::Auto,
            rho,
        }
    }

    /// Runs the partitioner, producing a spec with (up to) `k` leaves.
    pub fn compute(&self, mv: &MaxVarianceIndex, k: usize) -> Result<PartitionOutcome> {
        if k < 1 {
            return Err(JanusError::InvalidConfig("k must be positive".into()));
        }
        let start = Instant::now();
        let mut outcome = match self.resolve(mv) {
            PartitionerKind::BinarySearch1d => bs1d::partition(mv, k, self.rho)?,
            PartitionerKind::EquiCount1d => equicount::partition(mv, k)?,
            PartitionerKind::KdTree => kd::partition(mv, k)?,
            PartitionerKind::Dp1d { candidates } => dp1d::partition(mv, k, candidates)?,
            PartitionerKind::Auto => unreachable!("resolved above"),
        };
        outcome.elapsed = start.elapsed();
        Ok(outcome)
    }

    /// [`compute`](Self::compute) for a caller that only wants the result
    /// when `max_leaf_variance < bound` — the §5.4 update path, where
    /// `bound = M(R)/β`. Returns `Ok(None)` when a cheap pre-check proves
    /// the algorithm cannot get below `bound` with `k` leaves.
    ///
    /// The pre-check is **reject-only**: `None` means "would have been
    /// rejected", never "skipped"; when it cannot rule the bound out the
    /// full algorithm runs unchanged, so a `Some` outcome is exactly what
    /// `compute` returns and the caller still compares it against `bound`.
    /// Binary search pays one greedy cover ([`bs1d::can_reach`]),
    /// equal-count a closed form ([`equicount::can_reach`]); k-d and the
    /// DP have no cheap bound and always run in full.
    pub fn compute_if_below(
        &self,
        mv: &MaxVarianceIndex,
        k: usize,
        bound: f64,
    ) -> Result<Option<PartitionOutcome>> {
        if k < 1 {
            return Err(JanusError::InvalidConfig("k must be positive".into()));
        }
        let reachable = match self.resolve(mv) {
            PartitionerKind::BinarySearch1d => bs1d::can_reach(mv, k, bound),
            PartitionerKind::EquiCount1d => equicount::can_reach(mv, k, bound),
            _ => true,
        };
        if reachable {
            self.compute(mv, k).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Resolves [`PartitionerKind::Auto`] against the index's shape.
    fn resolve(&self, mv: &MaxVarianceIndex) -> PartitionerKind {
        match self.kind {
            PartitionerKind::Auto if mv.dims() > 1 => PartitionerKind::KdTree,
            PartitionerKind::Auto if mv.focus() == AggregateFunction::Count => {
                PartitionerKind::EquiCount1d
            }
            PartitionerKind::Auto => PartitionerKind::BinarySearch1d,
            other => other,
        }
    }
}

/// Shared helper: assembles an outcome from a finished spec by probing
/// `M` on each leaf.
pub(crate) fn finish(spec: PartitionSpec, mv: &MaxVarianceIndex) -> PartitionOutcome {
    let leaf_variances: Vec<f64> = spec
        .leaf_indices()
        .into_iter()
        .map(|i| mv.max_variance(&spec.nodes[i].rect))
        .collect();
    let max_leaf_variance = leaf_variances.iter().copied().fold(0.0, f64::max);
    PartitionOutcome {
        spec,
        leaf_variances,
        max_leaf_variance,
        elapsed: Duration::ZERO,
    }
}

/// Shared helper for the 1-D algorithms: snap a rank-space cut up past any
/// run of duplicate coordinates so every bucket boundary is a distinct
/// coordinate (points with equal predicate values must share a leaf).
pub(crate) fn snap_rank_to_distinct(mv: &MaxVarianceIndex, rank: usize) -> usize {
    use janus_index::treap::Entry;
    let m = mv.len();
    if rank == 0 || rank >= m {
        return rank.min(m);
    }
    let prev: Entry = match mv.kth_dim0(rank - 1) {
        Some(e) => e,
        None => return rank,
    };
    mv.rank_of_dim0_key(prev.key.next_up())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_boundaries_builds_valid_balanced_tree() {
        let spec = PartitionSpec::from_boundaries(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(spec.leaf_count(), 4);
        spec.validate().unwrap();
        // Root covers everything.
        let root = &spec.nodes[spec.root];
        assert!(root.rect.contains(&[-1e300]));
        assert!(root.rect.contains(&[1e300]));
        // Every point lands in exactly one leaf.
        for x in [-5.0, 1.0, 1.5, 2.0, 2.5, 99.0] {
            let hits = spec
                .leaf_indices()
                .into_iter()
                .filter(|&i| spec.nodes[i].rect.contains(&[x]))
                .count();
            assert_eq!(hits, 1, "point {x}");
        }
    }

    #[test]
    fn from_boundaries_rejects_unsorted() {
        assert!(PartitionSpec::from_boundaries(&[2.0, 1.0]).is_err());
        assert!(PartitionSpec::from_boundaries(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn empty_boundaries_is_single_leaf() {
        let spec = PartitionSpec::from_boundaries(&[]).unwrap();
        assert_eq!(spec.leaf_count(), 1);
        assert_eq!(spec.nodes.len(), 1);
        spec.validate().unwrap();
    }

    #[test]
    fn validate_catches_overlapping_siblings() {
        let mut spec = PartitionSpec::from_boundaries(&[1.0]).unwrap();
        // Corrupt: make both children the same rect.
        let r = spec.nodes[spec.root].rect.clone();
        let kids = spec.nodes[spec.root].children.clone();
        for &c in &kids {
            spec.nodes[c].rect = r.clone();
        }
        assert!(spec.validate().is_err());
    }

    #[test]
    fn compute_if_below_rejects_or_returns_what_compute_returns() {
        use janus_index::IndexPoint;
        let points = |dims: usize| -> Vec<IndexPoint> {
            (0..600u64)
                .map(|i| {
                    let x = (i * 7919 % 600) as f64;
                    IndexPoint::new(vec![x; dims], i, 1.0 + (i * 31 % 17) as f64)
                })
                .collect()
        };
        let partitioner = Partitioner::auto(2.0);
        let mv = MaxVarianceIndex::bulk_load(1, AggregateFunction::Sum, 0.1, 0.01, points(1));
        let full = partitioner.compute(&mv, 8).unwrap();
        // Far below what 8 buckets can do: rejected without a search.
        let bound = full.max_leaf_variance / 100.0;
        assert!(partitioner
            .compute_if_below(&mv, 8, bound)
            .unwrap()
            .is_none());
        // Not ruled out: the full search's own outcome, bound or no bound.
        let some = partitioner
            .compute_if_below(&mv, 8, full.max_leaf_variance * 2.0)
            .unwrap()
            .expect("reachable bound");
        assert_eq!(some.leaf_variances, full.leaf_variances);
        // k-d has no pre-check: always computed.
        let mv2 = MaxVarianceIndex::bulk_load(2, AggregateFunction::Sum, 0.1, 0.01, points(2));
        assert!(partitioner
            .compute_if_below(&mv2, 8, 0.0)
            .unwrap()
            .is_some());
        // Degenerate inputs: an empty index is "reachable" (one trivial
        // leaf comes back); `k = 0` is an error, as for `compute`.
        let empty = MaxVarianceIndex::bulk_load(1, AggregateFunction::Sum, 0.1, 0.01, Vec::new());
        assert!(partitioner
            .compute_if_below(&empty, 8, 0.0)
            .unwrap()
            .is_some());
        assert!(partitioner.compute_if_below(&mv, 0, 1.0).is_err());
    }

    #[test]
    fn trivial_spec() {
        let spec = PartitionSpec::trivial(3);
        assert_eq!(spec.leaf_count(), 1);
        assert!(spec.nodes[0].rect.contains(&[0.0, 1e9, -1e9]));
    }
}
