//! Shared shard-placement and bootstrap helpers.
//!
//! Seed derivation, value→slab placement, and the route-fill-build path
//! were historically duplicated between [`crate::engine`]
//! (`ClusterEngine::bootstrap`) and [`crate::rebalance`] (bounds redraw,
//! migration targets); this module is their single home so the two layers
//! can never drift apart on where a row belongs or how a shard's engine
//! is seeded.
//!
//! ## The bootstrap fill
//!
//! A bootstrap routes its rows into per-shard buckets (`route_rows`)
//! without touching the row directory, then fills the directory bucket
//! by bucket on the scatter pool while the caller hosts the shards
//! ([`PlacedBuckets`]): one pool job places bucket `s + 1`'s ids while
//! the caller builds shard `s`'s engine (in process) or encodes its
//! `Host` frame (over TCP). The directory travels with the job that fills
//! it and comes back with the bucket, so the fill takes no lock anyone
//! else waits on and allocates nothing per row; engines and frames are
//! built on the calling thread, where their memory is allocated. This is
//! the one place a bootstrap places ids.

use crate::directory::{PlacementSink, StripedDirectory};
use crate::host::ShardHost;
use crate::router::ShardRouter;
use crate::scatter::{Pending, ScatterPool};
use janus_common::{JanusError, Result, Row, RowId};
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

/// Routes `rows` through `router` into per-shard buckets, in arrival
/// order, touching no directory. Buckets are pre-sized for the batch.
pub(crate) fn route_rows(router: &ShardRouter, rows: Vec<Row>) -> Vec<Vec<Row>> {
    let shards = router.shards();
    let mut per_shard: Vec<Vec<Row>> = (0..shards)
        .map(|_| Vec::with_capacity(rows.len().div_ceil(shards)))
        .collect();
    for row in rows {
        per_shard[router.route(&row)].push(row);
    }
    per_shard
}

/// A bucket and the directory, on their way back from the job that
/// placed the bucket's ids: the first id found already placed, if any.
type Placing = Pending<(StripedDirectory, Vec<Row>, Option<RowId>)>;

/// The bootstrap buckets in shard order, each yielded once its ids are
/// placed in the row directory (see the module docs). Yielding bucket `s`
/// has already handed bucket `s + 1` to a pool job, so the caller hosts
/// shard `s` while the next bucket is placed; only bucket 0's fill is not
/// hidden. A duplicate row id ends the buckets with `InvalidConfig`.
pub struct PlacedBuckets<'p> {
    pool: &'p ScatterPool,
    /// Buckets not yet handed to a job, with their shard.
    rest: std::iter::Enumerate<std::vec::IntoIter<Vec<Row>>>,
    /// The job placing the next bucket; `None` once every bucket is
    /// placed or one failed.
    placing: Option<Placing>,
    /// The directory, while no job holds it.
    directory: Option<StripedDirectory>,
    /// The id that ended the fill.
    duplicate: Option<RowId>,
}

impl<'p> PlacedBuckets<'p> {
    /// Starts filling the pre-sized, empty `directory` from `buckets` on
    /// `pool`'s workers (bucket `s` on worker `s`, which must exist).
    pub(crate) fn start(
        pool: &'p ScatterPool,
        directory: StripedDirectory,
        buckets: Vec<Vec<Row>>,
    ) -> Self {
        let mut placed = PlacedBuckets {
            pool,
            rest: buckets.into_iter().enumerate(),
            placing: None,
            directory: Some(directory),
            duplicate: None,
        };
        placed.place_next();
        placed
    }

    /// Hands the next bucket and the directory to a pool job, if a
    /// bucket is left.
    fn place_next(&mut self) {
        let Some((shard, bucket)) = self.rest.next() else {
            return;
        };
        let directory = self.directory.take().expect("no job holds the directory");
        self.placing = Some(self.pool.beside(shard, move || {
            let duplicate = place_bucket(&directory, shard, &bucket);
            (directory, bucket, duplicate)
        }));
    }

    /// Places every bucket the caller did not take, and returns the
    /// filled directory, or the duplicate id that ended the fill.
    pub(crate) fn finish(mut self) -> Result<StripedDirectory> {
        for bucket in self.by_ref() {
            drop(bucket?);
        }
        match self.duplicate {
            Some(id) => Err(duplicate_id(id)),
            None => Ok(self.directory.expect("every job handed it back")),
        }
    }
}

impl Iterator for PlacedBuckets<'_> {
    type Item = Result<Vec<Row>>;

    fn next(&mut self) -> Option<Result<Vec<Row>>> {
        let (directory, bucket, duplicate) = self.placing.take()?.wait();
        self.directory = Some(directory);
        if let Some(id) = duplicate {
            self.duplicate = Some(id);
            return Some(Err(duplicate_id(id)));
        }
        self.place_next();
        Some(Ok(bucket))
    }
}

fn duplicate_id(id: RowId) -> JanusError {
    JanusError::InvalidConfig(format!("duplicate row id {id} in bootstrap data"))
}

/// Places each of `bucket`'s ids on `shard` under one acquisition of
/// every stripe, stopping at the first id already placed, which it
/// returns. One probe per row, and no allocation per row: the directory
/// was sized for every bootstrap row.
fn place_bucket(directory: &StripedDirectory, shard: usize, bucket: &[Row]) -> Option<RowId> {
    let mut all = directory.write_all();
    let mut ids = bucket.iter().map(|row| row.id);
    ids.find(|&id| all.place_vacant(id, || shard).is_none())
}

/// Bootstraps one primary and `replicas` followers per bucket, all at
/// offset zero, building each bucket as it arrives (in shard order).
/// Followers use the *same* per-shard config (seed included) and rows as
/// their primary: the engine is deterministic in its input sequence, so a
/// follower that tails the primary's topic is bit-identical to the
/// primary at equal offsets — the invariant replica reads and promotion
/// rely on.
pub(crate) fn build_shards(
    base: &SynopsisConfig,
    buckets: impl Iterator<Item = Result<Vec<Row>>>,
    replicas: usize,
) -> Result<(Vec<ShardHost>, Vec<Vec<ShardHost>>)> {
    let host = |shard, rows| -> Result<ShardHost> {
        let engine = JanusEngine::bootstrap(shard_config(base, shard), rows)?;
        Ok(ShardHost::new(engine, 0))
    };
    // One order for every caller: a shard's followers from copies of its
    // bucket, then its primary, which consumes the bucket, while the pool
    // places the next one. No benchmark workload runs followers, so the
    // peak RSS this order leaves under a later replicated bulk load is
    // unmeasured.
    let (mut primaries, mut followers) = (Vec::new(), Vec::new());
    for (shard, rows) in buckets.enumerate() {
        let rows = rows?;
        let copies = (0..replicas).map(|_| host(shard, rows.clone()));
        followers.push(copies.collect::<Result<Vec<_>>>()?);
        primaries.push(host(shard, rows)?);
    }
    Ok((primaries, followers))
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

    /// Routes `rows` and fills a directory from every bucket, one pool
    /// job ahead of the caller.
    fn fill(router: &ShardRouter, rows: Vec<Row>) -> Result<(Vec<Vec<Row>>, StripedDirectory)> {
        let pool = ScatterPool::start("t", router.shards());
        let directory = StripedDirectory::with_capacity(router.shards(), rows.len());
        let mut placed = PlacedBuckets::start(&pool, directory, route_rows(router, rows));
        let buckets = placed.by_ref().collect::<Result<Vec<_>>>()?;
        Ok((buckets, placed.finish()?))
    }

    #[test]
    fn the_bootstrap_fill_rejects_duplicates_and_fills_the_directory() {
        let policy = ShardPolicy::Range {
            column: 0,
            bounds: vec![3.0, 6.0],
        };
        let router = ShardRouter::new(policy, 3).unwrap();
        let rows: Vec<Row> = (0..9).map(|i| Row::new(i, vec![i as f64])).collect();
        let (per_shard, directory) = fill(&router, rows).unwrap();
        assert_eq!(
            per_shard.iter().map(Vec::len).collect::<Vec<_>>(),
            [3, 3, 3]
        );
        assert_eq!(directory.len(), 9);
        assert_eq!(directory.probe(0), Some(0));
        assert_eq!(directory.probe(4), Some(1));
        let counts: Vec<u64> = (0..3).map(|shard| directory.count(shard)).collect();
        assert_eq!(counts, [3, 3, 3]);

        let router = ShardRouter::new(ShardPolicy::HashById, 2).unwrap();
        let dup = vec![Row::new(7, vec![1.0]), Row::new(7, vec![2.0])];
        assert!(fill(&router, dup).is_err());
    }

    #[test]
    fn a_duplicate_in_a_later_bucket_ends_the_fill_there() {
        let policy = ShardPolicy::Range {
            column: 0,
            bounds: vec![10.0, 20.0, 30.0],
        };
        let router = ShardRouter::new(policy, 4).unwrap();
        // Id 5 is in shard 0's slab and again in shard 3's.
        let rows: Vec<Row> = (0..40)
            .map(|i| Row::new(i, vec![i as f64]))
            .chain(std::iter::once(Row::new(5, vec![35.0])))
            .collect();
        let pool = ScatterPool::start("t", 4);
        let directory = StripedDirectory::with_capacity(4, rows.len());
        let mut placed = PlacedBuckets::start(&pool, directory, route_rows(&router, rows));
        for _ in 0..3 {
            assert_eq!(placed.next().unwrap().unwrap().len(), 10);
        }
        let Some(Err(JanusError::InvalidConfig(message))) = placed.next() else {
            panic!("shard 3's bucket holds the duplicate");
        };
        assert_eq!(message, "duplicate row id 5 in bootstrap data");
        assert!(placed.next().is_none());
        assert!(placed.finish().is_err());
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
        let (shards, _) = build_shards(&base, buckets.into_iter().map(Ok), 0).unwrap();
        assert_eq!(shards.len(), 2);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.read().population(), 100);
            assert_eq!(shard.read().config().seed, shard_seed(7, i));
            assert_eq!(shard.applied(), 0);
        }
    }
}
