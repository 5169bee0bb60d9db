//! Shared shard-placement and bootstrap helpers.
//!
//! Seed derivation, value→slab placement, and the partition-then-build
//! path were historically duplicated between [`crate::engine`]
//! (`ClusterEngine::bootstrap`) and [`crate::rebalance`] (bounds redraw,
//! migration targets); this module is their single home so the two layers
//! can never drift apart on where a row belongs or how a shard's engine
//! is seeded.

use crate::directory::PlacementSink;
use crate::host::ShardHost;
use crate::router::ShardRouter;
use janus_common::{JanusError, Result, Row};
use janus_core::{JanusEngine, SynopsisConfig};

/// Decorrelates shard engine seeds from the base seed (SplitMix64's golden
/// constant, the same mixer hash routing uses).
pub fn shard_seed(base: u64, shard: usize) -> u64 {
    base ^ (shard as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)
}

/// Index of the half-open slab `[bounds[i-1], bounds[i])` containing `x`
/// (outer slabs unbounded) — the one value→shard rule range placement
/// ([`crate::ShardPolicy::place`]) and overlap pruning share.
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

/// Routes `rows` through `router` into per-shard buckets, placing each
/// row in `directory` as it goes (one probe per row) and rejecting
/// duplicate row ids. Buckets are pre-sized for the batch; the caller
/// sizes the directory.
pub(crate) fn partition_rows(
    router: &ShardRouter,
    rows: Vec<Row>,
    directory: &mut impl PlacementSink,
) -> Result<Vec<Vec<Row>>> {
    let shards = router.shards();
    let mut per_shard: Vec<Vec<Row>> = (0..shards)
        .map(|_| Vec::with_capacity(rows.len().div_ceil(shards)))
        .collect();
    for row in rows {
        let shard = router.route(&row);
        if directory.place(row.id, shard).is_some() {
            return Err(JanusError::InvalidConfig(format!(
                "duplicate row id {} in bootstrap data",
                row.id
            )));
        }
        per_shard[shard].push(row);
    }
    Ok(per_shard)
}

/// Bootstraps one primary and `replicas` followers per bucket, all at
/// offset zero. Followers use the *same* per-shard config (seed
/// included) and rows as their primary: the engine is deterministic in
/// its input sequence, so a follower that tails the primary's topic is
/// bit-identical to the primary at equal offsets — the invariant replica
/// reads and promotion rely on.
pub(crate) fn build_shards(
    base: &SynopsisConfig,
    per_shard: Vec<Vec<Row>>,
    replicas: usize,
) -> Result<(Vec<ShardHost>, Vec<Vec<ShardHost>>)> {
    let host = |shard, rows| -> Result<ShardHost> {
        let engine = JanusEngine::bootstrap(shard_config(base, shard), rows)?;
        Ok(ShardHost::new(engine, 0))
    };
    // All followers first, then the primaries consume their buckets: the
    // heap layout this order leaves keeps peak RSS lower under a later
    // bulk load than building each shard's hosts together does.
    let followers = (per_shard.iter().enumerate())
        .map(|(shard, rows)| (0..replicas).map(|_| host(shard, rows.clone())).collect())
        .collect::<Result<_>>()?;
    let primaries = (per_shard.into_iter().enumerate())
        .map(|(shard, rows)| host(shard, rows))
        .collect::<Result<_>>()?;
    Ok((primaries, followers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardPolicy;
    use janus_common::{AggregateFunction, DetHashMap, QueryTemplate};

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
        let policy = ShardPolicy::Range {
            column: 0,
            bounds: vec![3.0, 6.0],
        };
        let router = ShardRouter::new(policy, 3).unwrap();
        let rows: Vec<Row> = (0..9).map(|i| Row::new(i, vec![i as f64])).collect();
        let mut directory = DetHashMap::default();
        let per_shard = partition_rows(&router, rows, &mut directory).unwrap();
        assert_eq!(
            per_shard.iter().map(Vec::len).collect::<Vec<_>>(),
            [3, 3, 3]
        );
        assert_eq!(directory.len(), 9);
        assert_eq!(directory[&0], 0);
        assert_eq!(directory[&4], 1);

        let router = ShardRouter::new(ShardPolicy::HashById, 2).unwrap();
        let dup = vec![Row::new(7, vec![1.0]), Row::new(7, vec![2.0])];
        assert!(partition_rows(&router, dup, &mut DetHashMap::default()).is_err());
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
        let (shards, _) = build_shards(&base, buckets, 0).unwrap();
        assert_eq!(shards.len(), 2);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.read().population(), 100);
            assert_eq!(shard.read().config().seed, shard_seed(7, i));
            assert_eq!(shard.applied(), 0);
        }
    }
}
