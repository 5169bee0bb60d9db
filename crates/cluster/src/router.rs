//! Row → shard routing policies.
//!
//! Mirrors the discrete/range partitioning split of high-volume record
//! streams in datamap-rs (see PAPERS.md): a *discrete* policy spreads rows
//! without regard to their values (hash by row id), while a *range*
//! policy keys placement on a predicate attribute so each shard owns a
//! contiguous slab of predicate space — which is what lets the scatter
//! phase prune shards whose slab a query cannot touch.
//!
//! Either way a row's shard is one pure function of the row:
//! [`ShardPolicy::place`]. Nothing depends on arrival order, so a
//! [`ShardRouter`] is an immutable, validated `{ policy, shards }` value
//! that rebalancing replaces whole, a checkpoint persists as its policy
//! alone, and a bulk loader can split any load into per-shard claims.

use crate::bootstrap::shard_of_value;
use janus_common::faults::mix64;
use janus_common::{JanusError, Query, Result, Row, RowRef};

/// How rows are assigned to shards.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardPolicy {
    /// Discrete: deterministic hash of the row id (`mix64(id) % shards`,
    /// SplitMix64 via `janus_common::faults::mix64`). Uniform under any
    /// workload; every query touches every shard.
    HashById,
    /// Range partitioning on one predicate attribute: shard `i` owns the
    /// half-open interval `[bounds[i-1], bounds[i])` of `column`'s value
    /// (outer shards unbounded). Queries are routed only to shards whose
    /// slab intersects the predicate.
    Range {
        /// Schema index of the routing attribute.
        column: usize,
        /// Ascending inner boundaries; `len() == shards - 1`.
        bounds: Vec<f64>,
    },
}

impl ShardPolicy {
    /// Range policy with equal-width slabs over `[lo, hi]` — the static
    /// variant used when the attribute's domain is known up front.
    pub fn range_equal_width(column: usize, lo: f64, hi: f64, shards: usize) -> Result<Self> {
        // `!(a < b)` deliberately rejects NaN endpoints as well.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(lo < hi) || !lo.is_finite() || !hi.is_finite() {
            return Err(JanusError::InvalidConfig(format!(
                "range policy needs a finite non-empty domain, got [{lo}, {hi}]"
            )));
        }
        if shards == 0 {
            return Err(JanusError::InvalidConfig("need at least one shard".into()));
        }
        let width = (hi - lo) / shards as f64;
        let bounds = (1..shards).map(|i| lo + width * i as f64).collect();
        Ok(ShardPolicy::Range { column, bounds })
    }

    /// Range policy with equal-count slabs estimated from `rows` (the
    /// bootstrap table or a sample of the expected stream): boundaries at
    /// the `i/shards` quantiles of `column`.
    pub fn range_from_rows(column: usize, rows: &[Row], shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(JanusError::InvalidConfig("need at least one shard".into()));
        }
        if rows.is_empty() {
            // Degenerate but workable: all inner boundaries at zero sends
            // everything to the outer shards until a rebalance fixes it.
            return Ok(ShardPolicy::Range {
                column,
                bounds: vec![0.0; shards - 1],
            });
        }
        let mut values: Vec<f64> = rows.iter().map(|r| r.value(column)).collect();
        values.sort_unstable_by(|a, b| a.total_cmp(b));
        let bounds = (1..shards)
            .map(|i| values[(i * values.len() / shards).min(values.len() - 1)])
            .collect();
        Ok(ShardPolicy::Range { column, bounds })
    }

    /// The shard `row` lands on among `shards` — the one placement rule
    /// routing, bulk-load claims and the rebalance migration all apply.
    #[inline]
    pub fn place(&self, row: RowRef<'_>, shards: usize) -> usize {
        match self {
            ShardPolicy::HashById => (mix64(row.id) % shards as u64) as usize,
            ShardPolicy::Range { column, bounds } => shard_of_value(bounds, row.value(*column)),
        }
    }
}

/// A [`ShardPolicy`] validated against a fixed shard count. Immutable:
/// a rebalance that redraws range bounds builds a new router.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    policy: ShardPolicy,
    shards: usize,
}

impl ShardRouter {
    /// Builds a router; a `Range` policy must carry `shards - 1`
    /// ascending bounds.
    pub fn new(policy: ShardPolicy, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(JanusError::InvalidConfig("need at least one shard".into()));
        }
        if let ShardPolicy::Range { bounds, .. } = &policy {
            if bounds.len() + 1 != shards {
                return Err(JanusError::InvalidConfig(format!(
                    "range policy has {} bounds for {} shards",
                    bounds.len(),
                    shards
                )));
            }
            if bounds.windows(2).any(|w| w[0] > w[1]) {
                return Err(JanusError::InvalidConfig(
                    "range bounds must be ascending".into(),
                ));
            }
        }
        Ok(ShardRouter { policy, shards })
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The policy.
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }

    /// The shard `row` belongs on.
    #[inline]
    pub fn route(&self, row: &Row) -> usize {
        self.policy.place(row.as_ref(), self.shards)
    }

    /// The shards a query can touch: under `Range` (with the routing
    /// attribute among the predicate attributes) only the shards whose
    /// slab intersects the predicate, otherwise all of them.
    pub fn overlapping(&self, query: &Query) -> Vec<usize> {
        if let ShardPolicy::Range { column, bounds } = &self.policy {
            if let Some(d) = query.predicate_columns.iter().position(|c| c == column) {
                let (qlo, qhi) = (query.range.lo()[d], query.range.hi()[d]);
                // The predicate is closed, slabs are half-open [lo, hi):
                // shard first..=last covers every slab touching [qlo, qhi].
                let first = shard_of_value(bounds, qlo);
                let last = shard_of_value(bounds, qhi);
                return (first..=last).collect();
            }
        }
        (0..self.shards).collect()
    }
}

/// An immutable copy of the cluster's routing policy, pinned to the
/// rebalance generation it was taken at — what a bulk producer groups
/// its rows by *outside* the cluster's locks. A rebalance bumps the
/// cluster's generation, after which the grouping may no longer match
/// the live placement; publishing never trusts it, since the publish
/// body re-routes every row. Obtained from
/// [`crate::ClusterEngine::routing_snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingSnapshot {
    /// The rebalance generation the policy copy was read under.
    pub generation: u64,
    /// Shard count (fixed for a cluster's lifetime).
    pub shards: usize,
    /// The routing policy as of `generation`.
    pub policy: ShardPolicy,
}

impl RoutingSnapshot {
    /// The shard `row` routes to under the snapshot — always `Some`,
    /// since every policy places a row by its content alone. The
    /// `Option` stays for existing callers; the snapshot folds into
    /// [`ShardRouter`] with ROADMAP item 22.
    pub fn route(&self, row: &Row) -> Option<usize> {
        Some(self.policy.place(row.as_ref(), self.shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{AggregateFunction, RangePredicate};

    fn row(id: u64, x: f64) -> Row {
        Row::new(id, vec![x, x * 2.0])
    }

    fn range_query(lo: f64, hi: f64) -> Query {
        Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn hash_routing_is_deterministic_and_spread() {
        let r = ShardRouter::new(ShardPolicy::HashById, 4).unwrap();
        let mut counts = [0usize; 4];
        for id in 0..4_000 {
            let s = r.route(&row(id, 0.0));
            assert_eq!(s, r.route(&row(id, 123.0)), "id alone decides");
            counts[s] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "skewed hash spread: {counts:?}");
        }
    }

    #[test]
    fn range_routing_respects_bounds() {
        let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
        let r = ShardRouter::new(policy, 4).unwrap();
        assert_eq!(
            r.route(&row(1, -5.0)),
            0,
            "below-domain goes to the first shard"
        );
        assert_eq!(r.route(&row(2, 10.0)), 0);
        assert_eq!(r.route(&row(3, 25.0)), 1, "boundary is half-open");
        assert_eq!(r.route(&row(4, 60.0)), 2);
        assert_eq!(r.route(&row(5, 99.0)), 3);
        assert_eq!(
            r.route(&row(6, 500.0)),
            3,
            "above-domain goes to the last shard"
        );
    }

    #[test]
    fn range_from_rows_balances_counts() {
        let rows: Vec<Row> = (0..1000).map(|i| row(i, (i * i % 997) as f64)).collect();
        let policy = ShardPolicy::range_from_rows(0, &rows, 4).unwrap();
        let r = ShardRouter::new(policy, 4).unwrap();
        let mut counts = [0usize; 4];
        for rw in &rows {
            counts[r.route(rw)] += 1;
        }
        for c in counts {
            assert!(
                (150..350).contains(&c),
                "unbalanced quantile split: {counts:?}"
            );
        }
    }

    #[test]
    fn overlap_pruning_is_tight_but_safe() {
        let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
        let r = ShardRouter::new(policy, 4).unwrap();
        assert_eq!(r.overlapping(&range_query(5.0, 20.0)), vec![0]);
        assert_eq!(r.overlapping(&range_query(10.0, 30.0)), vec![0, 1]);
        assert_eq!(
            r.overlapping(&range_query(25.0, 25.0)),
            vec![1],
            "closed predicate"
        );
        assert_eq!(r.overlapping(&range_query(-50.0, 500.0)), vec![0, 1, 2, 3]);
        // Hash policy cannot prune.
        let all = ShardRouter::new(ShardPolicy::HashById, 4).unwrap();
        assert_eq!(all.overlapping(&range_query(5.0, 6.0)).len(), 4);
    }

    #[test]
    fn snapshot_routing_matches_the_router() {
        for policy in [
            ShardPolicy::HashById,
            ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
        ] {
            let r = ShardRouter::new(policy.clone(), 4).unwrap();
            let snap = RoutingSnapshot {
                generation: 0,
                shards: 4,
                policy,
            };
            for id in 0..1_000 {
                let rw = row(id, (id % 131) as f64);
                let s = r.route(&rw);
                assert_eq!(snap.route(&rw), Some(s));
                assert_eq!(r.policy().place(rw.as_ref(), 4), s);
            }
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(ShardRouter::new(ShardPolicy::HashById, 0).is_err());
        assert!(ShardRouter::new(
            ShardPolicy::Range {
                column: 0,
                bounds: vec![1.0]
            },
            4
        )
        .is_err());
        assert!(ShardRouter::new(
            ShardPolicy::Range {
                column: 0,
                bounds: vec![2.0, 1.0, 3.0]
            },
            4
        )
        .is_err());
        assert!(ShardPolicy::range_equal_width(0, 5.0, 5.0, 2).is_err());
        assert!(ShardPolicy::range_equal_width(0, f64::NEG_INFINITY, 5.0, 2).is_err());
    }
}
