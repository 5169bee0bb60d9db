//! Cluster-level rebalancing: the row-count skew trigger and the
//! snapshot-shipping migration that repairs it.
//!
//! Shard-local re-optimization (β-drift, under-representation) keeps each
//! synopsis sharp, but it cannot fix *placement* skew: under range routing
//! a hot slab keeps absorbing the stream (the §6.8 skewed-insert scenario,
//! lifted to the cluster level). The cluster therefore watches shard row
//! counts and, when the largest shard reaches `skew_factor` times the
//! median (and the hysteresis gates in
//! [`crate::ClusterEngine::maybe_rebalance`] pass), re-draws the
//! placement:
//!
//! * **Range policy** — new equal-count boundaries are estimated from the
//!   shards' pooled samples ([`janus_core::JanusEngine::reservoir`]),
//!   read in place: weighted by population, they are a
//!   population-proportional sketch of every shard, so their quantiles
//!   approximate global quantiles without scanning any archive. Rows on
//!   the wrong side of the new bounds then migrate.
//! * **Hash policy** — placement ignores row values, so the donor
//!   (largest) shard ships the top of its routing-value range — exactly
//!   enough rows by rank to equalize donor and receiver — to the
//!   receiver (smallest) shard. Queries touch every shard under
//!   this policy, so correctness is unaffected; only balance improves.
//!
//! ## Snapshot shipping
//!
//! The seed migrated row-by-row: every move was a `delete` on the donor
//! engine and an `insert` on the receiver — per-row synopsis maintenance,
//! reservoir churn (each delete of a sampled row can force a full
//! re-sample), and the same op stream replayed again on *every* follower.
//! The migration is now shipment-shaped: moves are grouped per shard, and
//! each affected shard's post-migration engine is **rebuilt once** from
//! its new row set (survivors in archive order + arrivals in move order —
//! deterministic, seeded with the shard's own config, catch-up completed),
//! then **shipped to its followers** as a synopsis snapshot + archive rows
//! through the existing restore machinery
//! ([`janus_core::JanusEngine::fork_via_snapshot`]), which reproduces the
//! primary bit for bit — the exact invariant replica reads and promotion
//! rely on. Unaffected shards are untouched. Cost is one bulk build per
//! affected shard plus one restore per follower, independent of how many
//! individual rows moved.

use crate::bootstrap::shard_config;
use crate::directory::PlacementSink;
use crate::router::{ShardPolicy, ShardRouter};
use janus_common::{DetHashSet, Result, Row, RowId};
use janus_core::{JanusEngine, SynopsisConfig};

/// What a migration did.
#[derive(Clone, Debug, PartialEq)]
pub struct RebalanceReport {
    /// Rows that changed shard.
    pub rows_moved: usize,
    /// Range boundaries after the migration (`None` for discrete
    /// policies, which keep no boundaries).
    pub new_bounds: Option<Vec<f64>>,
    /// Donor shard of a discrete-policy split (`None` for the range
    /// policy's global boundary redraw).
    pub donor: Option<usize>,
    /// Receiver shard of a discrete-policy split.
    pub receiver: Option<usize>,
}

/// True when the largest shard holds at least `factor` times the median
/// shard population (and there is something meaningful to move).
pub fn skew_exceeds(populations: &[usize], factor: f64) -> bool {
    if populations.len() < 2 {
        return false;
    }
    let max = *populations.iter().max().expect("non-empty");
    max >= 2 && (max as f64) >= factor * (median_population(populations) as f64)
}

/// The skew ratio the trigger and its hysteresis compare: largest shard
/// population over the (lower) median population, both clamped sane.
/// `1.0` for clusters too small to be skewed.
pub fn skew_ratio(populations: &[usize]) -> f64 {
    if populations.len() < 2 {
        return 1.0;
    }
    let max = *populations.iter().max().expect("non-empty");
    max as f64 / median_population(populations) as f64
}

/// Lower median, clamped to at least 1: for even counts the upper median
/// includes the maximum itself (for 2 shards it *is* the maximum), which
/// would make the trigger compare the hot shard against itself and never
/// fire.
fn median_population(populations: &[usize]) -> usize {
    let mut sorted = populations.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() - 1) / 2].max(1)
}

/// Runs the migration appropriate for the router's policy. Returns `None`
/// when the cluster has a single shard (nothing to move). Takes the
/// shards as exclusive references so the lock-sharded engine can hand in
/// its per-shard write guards.
pub(crate) fn rebalance(
    router: &mut ShardRouter,
    shards: &mut [&mut JanusEngine],
    replicas: &mut [Vec<&mut JanusEngine>],
    directory: &mut dyn PlacementSink,
    base: &SynopsisConfig,
) -> Result<Option<RebalanceReport>> {
    if shards.len() < 2 {
        return Ok(None);
    }
    match router.policy().clone() {
        ShardPolicy::Range { column, .. } => {
            range_redraw(router, shards, replicas, directory, base, column).map(Some)
        }
        ShardPolicy::HashById => discrete_split(shards, replicas, directory, base).map(Some),
    }
}

/// Range policy: re-estimate equal-count bounds from the shards' pooled
/// samples, swap in the router they draw, and migrate the rows it places
/// elsewhere.
fn range_redraw(
    router: &mut ShardRouter,
    shards: &mut [&mut JanusEngine],
    replicas: &mut [Vec<&mut JanusEngine>],
    directory: &mut dyn PlacementSink,
    base: &SynopsisConfig,
    column: usize,
) -> Result<RebalanceReport> {
    // Global quantiles from the pooled samples. Reservoirs are capped
    // at their bootstrap size while shard populations drift, so each
    // sampled value represents `population / sample_count` live rows of
    // its shard — the weights make the pooled sketch
    // population-proportional again.
    let mut weighted: Vec<(f64, f64)> = Vec::new();
    for shard in shards.iter() {
        let sample = shard.reservoir();
        if sample.is_empty() {
            continue;
        }
        let weight = shard.population() as f64 / sample.len() as f64;
        weighted.extend(sample.iter().map(|r| (r.value(column), weight)));
    }
    weighted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let n_shards = shards.len();
    let bounds: Vec<f64> = if weighted.is_empty() {
        vec![0.0; n_shards - 1]
    } else {
        let total: f64 = weighted.iter().map(|(_, w)| w).sum();
        let mut bounds = Vec::with_capacity(n_shards - 1);
        let mut cumulative = 0.0;
        let mut next = weighted.iter();
        for i in 1..n_shards {
            let target = total * i as f64 / n_shards as f64;
            let mut boundary = weighted.last().expect("non-empty").0;
            for (value, weight) in next.by_ref() {
                cumulative += weight;
                if cumulative >= target {
                    boundary = *value;
                    break;
                }
            }
            bounds.push(boundary);
        }
        bounds
    };
    let policy = ShardPolicy::Range {
        column,
        bounds: bounds.clone(),
    };
    *router = ShardRouter::new(policy, n_shards)?;

    // Collect misplaced rows per (from, to) and ship them. The scan is
    // zero-copy: only rows that actually move materialize.
    let mut moves: Vec<(usize, usize, Row)> = Vec::new();
    for (from, shard) in shards.iter().enumerate() {
        shard.archive().for_each_row(|row| {
            let to = router.policy().place(row, n_shards);
            if to != from {
                moves.push((from, to, row.to_row()));
            }
        });
    }
    let rows_moved = moves.len();
    apply_moves(shards, replicas, directory, base, moves)?;
    Ok(RebalanceReport {
        rows_moved,
        new_bounds: Some(bounds),
        donor: None,
        receiver: None,
    })
}

/// Hash policy: ship the top of the largest shard's routing-value
/// range to the smallest shard — exactly enough rows, *by rank*, to
/// equalize the two. Splitting by rank rather than at a value threshold
/// keeps duplicate-heavy (even constant) columns from shipping the whole
/// shard and oscillating.
fn discrete_split(
    shards: &mut [&mut JanusEngine],
    replicas: &mut [Vec<&mut JanusEngine>],
    directory: &mut dyn PlacementSink,
    base: &SynopsisConfig,
) -> Result<RebalanceReport> {
    let populations: Vec<usize> = shards.iter().map(|s| s.population()).collect();
    let donor = populations
        .iter()
        .enumerate()
        .max_by_key(|(i, p)| (**p, usize::MAX - *i))
        .expect("non-empty")
        .0;
    let receiver = populations
        .iter()
        .enumerate()
        .min_by_key(|(i, p)| (**p, *i))
        .expect("non-empty")
        .0;
    let move_count = populations[donor].saturating_sub(populations[receiver]) / 2;
    if donor == receiver || move_count == 0 {
        return Ok(RebalanceReport {
            rows_moved: 0,
            new_bounds: None,
            donor: Some(donor),
            receiver: Some(receiver),
        });
    }
    let column = base.template.predicate_columns[0];
    // Rank the donor's rows by (routing value, id) — the id tiebreak makes
    // the split deterministic — and ship the top `move_count` by rank.
    // Only the 16-byte sort keys are collected from the zero-copy scan;
    // just the rows that actually move materialize afterwards.
    let donor_archive = shards[donor].archive();
    let mut keys: Vec<(f64, RowId)> = Vec::with_capacity(donor_archive.len());
    donor_archive.for_each_row(|row| keys.push((row.value(column), row.id)));
    keys.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let moves: Vec<(usize, usize, Row)> = keys
        .into_iter()
        .rev()
        .take(move_count)
        .map(|(_, id)| {
            let row = donor_archive
                .get(id)
                .expect("ranked id is live in the donor archive");
            (donor, receiver, row)
        })
        .collect();
    let rows_moved = moves.len();
    apply_moves(shards, replicas, directory, base, moves)?;
    Ok(RebalanceReport {
        rows_moved,
        new_bounds: None,
        donor: Some(donor),
        receiver: Some(receiver),
    })
}

/// Applies `(from, to, row)` migrations by shipment (see the module
/// docs): moves are grouped per shard, each affected shard's engine is
/// rebuilt once from its post-migration row set, its followers receive
/// the rebuilt primary as snapshot + rows via the restore machinery
/// (bit-identical by the restore contract), and the directory is fixed
/// per moved row. Shards no move touches keep their engines — and their
/// synopsis state — untouched. Installation is all-or-nothing: every
/// rebuild is staged before any engine or directory entry changes, so a
/// mid-migration failure leaves the cluster exactly as it was.
fn apply_moves(
    shards: &mut [&mut JanusEngine],
    replicas: &mut [Vec<&mut JanusEngine>],
    directory: &mut dyn PlacementSink,
    base: &SynopsisConfig,
    moves: Vec<(usize, usize, Row)>,
) -> Result<()> {
    if moves.is_empty() {
        return Ok(());
    }
    let n = shards.len();
    let mut departing: Vec<DetHashSet<RowId>> = vec![DetHashSet::default(); n];
    let mut arriving: Vec<Vec<Row>> = vec![Vec::new(); n];
    let mut placements: Vec<(RowId, usize)> = Vec::new();
    for (from, to, row) in moves {
        placements.push((row.id, to));
        departing[from].insert(row.id);
        arriving[to].push(row);
    }
    // Stage every rebuild before installing anything: a failed build (or
    // follower fork) aborts the migration with engines and directory
    // exactly as they were — no window where the directory names a shard
    // the rows never reached.
    let mut staged: Vec<(usize, JanusEngine, Vec<JanusEngine>)> = Vec::new();
    for shard in 0..n {
        if departing[shard].is_empty() && arriving[shard].is_empty() {
            continue;
        }
        // Post-migration row set: survivors in archive order, then
        // arrivals in move order — deterministic input, deterministic
        // (seeded) build. Survivors materialize straight off the
        // zero-copy scan.
        let mut rows: Vec<Row> =
            Vec::with_capacity(shards[shard].population() + arriving[shard].len());
        shards[shard].archive().for_each_row(|r| {
            if !departing[shard].contains(&r.id) {
                rows.push(r.to_row());
            }
        });
        rows.append(&mut arriving[shard]);
        let engine = JanusEngine::bootstrap(shard_config(base, shard), rows)?;
        let followers = (0..replicas[shard].len())
            .map(|_| engine.fork_via_snapshot())
            .collect::<Result<Vec<_>>>()?;
        staged.push((shard, engine, followers));
    }
    for (shard, engine, followers) in staged {
        for (follower, engine) in replicas[shard].iter_mut().zip(followers) {
            **follower = engine;
        }
        *shards[shard] = engine;
    }
    for (id, to) in placements {
        directory.place(id, to);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{ShardPolicy, ShardRouter};
    use janus_common::{AggregateFunction, QueryTemplate};

    #[test]
    fn skew_trigger_fires_at_factor_times_median() {
        assert!(!skew_exceeds(&[100], 2.0), "single shard never triggers");
        assert!(!skew_exceeds(&[100, 110, 120, 130], 2.0));
        assert!(skew_exceeds(&[100, 110, 120, 260], 2.0));
        assert!(skew_exceeds(&[0, 0, 0, 2], 2.0), "empty median clamps to 1");
        assert!(
            !skew_exceeds(&[0, 0, 0, 1], 2.0),
            "a single row is not skew"
        );
        assert!(!skew_exceeds(&[], 2.0));
        assert!(
            skew_exceeds(&[100, 10_000], 2.0),
            "two-shard clusters compare against the smaller shard"
        );
        assert!(!skew_exceeds(&[100, 150], 2.0));
    }

    #[test]
    fn skew_ratio_matches_the_trigger_arithmetic() {
        assert_eq!(skew_ratio(&[100]), 1.0, "too small to be skewed");
        assert_eq!(skew_ratio(&[100, 300]), 3.0);
        assert_eq!(skew_ratio(&[100, 110, 120, 240]), 240.0 / 110.0);
        assert_eq!(skew_ratio(&[0, 50]), 50.0, "empty median clamps to 1");
    }

    fn test_config(seed: u64) -> SynopsisConfig {
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let mut c = SynopsisConfig::paper_default(template, seed);
        c.leaf_count = 4;
        c.sample_rate = 0.1;
        c.catchup_ratio = 1.0;
        c.auto_repartition = false;
        c
    }

    fn shard_of(rows: Vec<Row>, seed: u64) -> JanusEngine {
        JanusEngine::bootstrap(test_config(seed), rows).unwrap()
    }

    /// Duplicate-heavy routing columns must not oscillate: the rank-based
    /// split converges even when every routing value is identical.
    #[test]
    fn discrete_split_converges_on_constant_column() {
        let constant_rows = |ids: std::ops::Range<u64>| -> Vec<Row> {
            ids.map(|i| Row::new(i, vec![5.0, 1.0])).collect()
        };
        let mut shards = [
            shard_of(constant_rows(0..4_000), 1),
            shard_of(constant_rows(10_000..10_500), 2),
        ];
        let mut shard_refs: Vec<&mut JanusEngine> = shards.iter_mut().collect();
        let mut router = ShardRouter::new(ShardPolicy::HashById, 2).unwrap();
        let mut directory: janus_common::DetHashMap<RowId, usize> = Default::default();
        let base = test_config(3);

        let mut replica_refs: Vec<Vec<&mut JanusEngine>> = vec![Vec::new(), Vec::new()];
        let report = rebalance(
            &mut router,
            &mut shard_refs,
            &mut replica_refs,
            &mut directory,
            &base,
        )
        .unwrap()
        .expect("two shards migrate");
        assert_eq!(report.rows_moved, 1_750, "exactly equalizing half moves");
        let pops: Vec<usize> = shards.iter().map(|s| s.population()).collect();
        assert_eq!(pops, vec![2_250, 2_250]);
        assert!(!skew_exceeds(&pops, 2.0), "balanced after one migration");

        // A second pass finds nothing to move — no oscillation.
        let mut shard_refs: Vec<&mut JanusEngine> = shards.iter_mut().collect();
        let mut replica_refs: Vec<Vec<&mut JanusEngine>> = vec![Vec::new(), Vec::new()];
        let report = rebalance(
            &mut router,
            &mut shard_refs,
            &mut replica_refs,
            &mut directory,
            &base,
        )
        .unwrap()
        .expect("report still produced");
        assert_eq!(report.rows_moved, 0);
    }

    /// Followers come out of a migration bit-identical to their rebuilt
    /// primaries — the shipped snapshot *is* the primary.
    #[test]
    fn shipped_followers_match_their_primaries() {
        let value_rows = |ids: std::ops::Range<u64>, v: f64| -> Vec<Row> {
            ids.map(|i| Row::new(i, vec![v + (i % 10) as f64, 1.0]))
                .collect()
        };
        let mut shards = [
            shard_of(value_rows(0..3_000, 0.0), 1),
            shard_of(value_rows(10_000..10_400, 50.0), 2),
        ];
        let mut followers = [
            shard_of(value_rows(0..3_000, 0.0), 1),
            shard_of(value_rows(10_000..10_400, 50.0), 2),
        ];
        let mut router = ShardRouter::new(ShardPolicy::HashById, 2).unwrap();
        let mut directory: janus_common::DetHashMap<RowId, usize> = Default::default();
        let base = test_config(3);
        let mut shard_refs: Vec<&mut JanusEngine> = shards.iter_mut().collect();
        let mut replica_refs: Vec<Vec<&mut JanusEngine>> =
            followers.iter_mut().map(|f| vec![f]).collect();
        let report = rebalance(
            &mut router,
            &mut shard_refs,
            &mut replica_refs,
            &mut directory,
            &base,
        )
        .unwrap()
        .expect("two shards migrate");
        assert!(report.rows_moved > 0);
        for (primary, follower) in shards.iter().zip(&followers) {
            assert_eq!(
                primary.population(),
                follower.population(),
                "shipped follower must mirror its primary"
            );
            let ps = primary.save_synopsis().to_bytes();
            let fs = follower.save_synopsis().to_bytes();
            assert_eq!(ps, fs, "snapshots must be bit-identical");
        }
    }
}
