//! Shared shard-placement and bootstrap helpers.
//!
//! Seed derivation, value→slab placement, and the partition-then-build
//! path were historically duplicated between [`crate::engine`]
//! (`ClusterEngine::bootstrap`) and [`crate::rebalance`] (bounds redraw,
//! migration targets); this module is their single home so the two layers
//! can never drift apart on where a row belongs or how a shard's engine
//! is seeded.

use crate::engine::Shard;
use crate::router::ShardRouter;
use janus_common::{DetHashMap, JanusError, Result, Row, RowId};
use janus_core::{JanusEngine, SynopsisConfig};

/// Decorrelates shard engine seeds from the base seed (SplitMix64's golden
/// constant, the same mixer hash routing uses).
pub fn shard_seed(base: u64, shard: usize) -> u64 {
    base ^ (shard as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)
}

/// Index of the half-open slab `[bounds[i-1], bounds[i])` containing `x`
/// (outer slabs unbounded) — the one value→shard rule range routing,
/// overlap pruning, and rebalance bounds redraw all share.
///
/// For the small boundary arrays real clusters run with, a branchless
/// popcount over `bounds[i] <= x` beats the binary search: no
/// data-dependent branches, and the comparison loop autovectorizes.
/// Both paths compute the same count (`bounds` is ascending, so the
/// predicate is monotone), and a NaN `x` fails every `<=` in both, so
/// NaN routes to shard 0 either way.
#[inline]
pub fn shard_of_value(bounds: &[f64], x: f64) -> usize {
    if bounds.len() <= 64 {
        bounds.iter().map(|b| usize::from(*b <= x)).sum()
    } else {
        bounds.partition_point(|b| *b <= x)
    }
}

/// The synopsis configuration shard `shard` runs with: the base config
/// with its seed mixed per shard so shard samples are independent.
pub fn shard_config(base: &SynopsisConfig, shard: usize) -> SynopsisConfig {
    let mut config = base.clone();
    config.seed = shard_seed(base.seed, shard);
    config
}

/// Per-shard row buckets plus the authoritative row→shard directory.
pub type PartitionedRows = (Vec<Vec<Row>>, DetHashMap<RowId, usize>);

/// Routes `rows` through `router` into per-shard buckets and builds the
/// authoritative row→shard directory, rejecting duplicate row ids.
/// Buckets and the directory are pre-sized for the batch.
pub fn partition_rows(router: &mut ShardRouter, rows: Vec<Row>) -> Result<PartitionedRows> {
    let shards = router.shards();
    let mut per_shard: Vec<Vec<Row>> = (0..shards)
        .map(|_| Vec::with_capacity(rows.len().div_ceil(shards)))
        .collect();
    let mut directory: DetHashMap<RowId, usize> =
        DetHashMap::with_capacity_and_hasher(rows.len(), Default::default());
    for row in rows {
        let shard = router.route(&row);
        if directory.insert(row.id, shard).is_some() {
            return Err(JanusError::InvalidConfig(format!(
                "duplicate row id {} in bootstrap data",
                row.id
            )));
        }
        per_shard[shard].push(row);
    }
    Ok((per_shard, directory))
}

/// Bootstraps one engine per bucket, each with its per-shard seed, at
/// consumption offset zero.
pub(crate) fn build_shards(base: &SynopsisConfig, per_shard: Vec<Vec<Row>>) -> Result<Vec<Shard>> {
    per_shard
        .into_iter()
        .enumerate()
        .map(|(i, rows)| {
            Ok(Shard {
                engine: JanusEngine::bootstrap(shard_config(base, i), rows)?,
                offset: 0,
            })
        })
        .collect()
}

/// Bootstraps `count` follower engines per shard bucket. Followers use
/// the *same* per-shard config (seed included) and rows as their primary:
/// the engine is deterministic in its input sequence, so a follower that
/// tails the primary's topic is bit-identical to the primary at equal
/// offsets — the invariant replica reads and promotion rely on.
pub(crate) fn build_replicas(
    base: &SynopsisConfig,
    per_shard: &[Vec<Row>],
    count: usize,
) -> Result<Vec<Vec<Shard>>> {
    per_shard
        .iter()
        .enumerate()
        .map(|(i, rows)| {
            (0..count)
                .map(|_| {
                    Ok(Shard {
                        engine: JanusEngine::bootstrap(shard_config(base, i), rows.clone())?,
                        offset: 0,
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardPolicy;
    use janus_common::{AggregateFunction, QueryTemplate};

    #[test]
    fn shard_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..16).map(|i| shard_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 16, "per-shard seeds must not collide");
        assert_eq!(
            seeds,
            (0..16).map(|i| shard_seed(42, i)).collect::<Vec<_>>()
        );
        assert_ne!(shard_seed(42, 0), 42, "shard 0 is decorrelated too");
    }

    #[test]
    fn shard_of_value_matches_half_open_slabs() {
        let bounds = [10.0, 20.0, 30.0];
        assert_eq!(shard_of_value(&bounds, -1.0), 0);
        assert_eq!(shard_of_value(&bounds, 10.0), 1, "boundary is half-open");
        assert_eq!(shard_of_value(&bounds, 19.99), 1);
        assert_eq!(shard_of_value(&bounds, 1e12), 3);
        assert_eq!(shard_of_value(&[], 5.0), 0, "one shard owns everything");
    }

    #[test]
    fn partition_rows_rejects_duplicates_and_fills_directory() {
        let mut router = ShardRouter::new(ShardPolicy::RoundRobin, 3).unwrap();
        let rows: Vec<Row> = (0..9).map(|i| Row::new(i, vec![i as f64])).collect();
        let (per_shard, directory) = partition_rows(&mut router, rows).unwrap();
        assert_eq!(
            per_shard.iter().map(Vec::len).collect::<Vec<_>>(),
            [3, 3, 3]
        );
        assert_eq!(directory.len(), 9);
        assert_eq!(directory[&0], 0);
        assert_eq!(directory[&4], 1);

        let mut router = ShardRouter::new(ShardPolicy::HashById, 2).unwrap();
        let dup = vec![Row::new(7, vec![1.0]), Row::new(7, vec![2.0])];
        assert!(partition_rows(&mut router, dup).is_err());
    }

    #[test]
    fn build_shards_seeds_each_engine_independently() {
        let template = QueryTemplate::new(AggregateFunction::Sum, 0, vec![0]);
        let mut base = SynopsisConfig::paper_default(template, 7);
        base.leaf_count = 4;
        base.sample_rate = 0.5;
        let buckets: Vec<Vec<Row>> = (0..2)
            .map(|s| {
                (0..100)
                    .map(|i| Row::new(s * 100 + i, vec![i as f64]))
                    .collect()
            })
            .collect();
        let shards = build_shards(&base, buckets).unwrap();
        assert_eq!(shards.len(), 2);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.engine.population(), 100);
            assert_eq!(shard.engine.config().seed, shard_seed(7, i));
            assert_eq!(shard.offset, 0);
        }
    }
}
