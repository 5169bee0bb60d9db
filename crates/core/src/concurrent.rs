//! Multi-threaded update application (§6.3).
//!
//! The paper processes insertions/deletions with a pool of 12 worker
//! threads and notes that "each stratum is independent ... race conditions
//! only happen if two workers are working on the same node". This module
//! implements that sharding discipline deterministically:
//!
//! 1. **Parallel phase** — the batch is classified against the (read-only)
//!    tree: each worker owns the leaves with `leaf_id % threads ==
//!    worker_id` and aggregates, per leaf, the insert/delete moment deltas
//!    and MIN/MAX value lists of its updates. No shared mutation.
//! 2. **Serial phase** — the per-leaf deltas are folded into the tree with
//!    one ancestor propagation per touched leaf, and the reservoir/archive
//!    bookkeeping (inherently sequential because of the global sample) is
//!    replayed in arrival order.
//!
//! The result is bit-for-bit identical to the sequential engine with
//! triggers disabled, which the tests verify.

use crate::engine::JanusEngine;
use janus_common::{DetHashMap, JanusError, Moments, Result, Row, RowId, RowRef};
use std::time::{Duration, Instant};

/// One update of a mixed workload — also the record type of a cluster
/// shard topic (`janus_cluster::ShardOp` is this enum).
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// Insert this tuple.
    Insert(Row),
    /// Delete the tuple with this id.
    Delete(RowId),
}

impl Update {
    /// A borrowed view of this update.
    #[inline]
    pub fn as_ref(&self) -> UpdateRef<'_> {
        match self {
            Update::Insert(row) => UpdateRef::Insert(row.as_ref()),
            Update::Delete(id) => UpdateRef::Delete(*id),
        }
    }
}

/// A borrowed [`Update`]: what [`JanusEngine::apply_update_refs`] applies,
/// so a batch decoded flat (ids plus one value buffer) reaches the engine
/// without one owned row per record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UpdateRef<'a> {
    /// Insert this tuple.
    Insert(RowRef<'a>),
    /// Delete the tuple with this id.
    Delete(RowId),
}

impl<'a> From<&'a Update> for UpdateRef<'a> {
    #[inline]
    fn from(update: &'a Update) -> Self {
        update.as_ref()
    }
}

/// Outcome of a parallel batch application.
#[derive(Debug)]
pub struct BatchReport {
    /// Updates applied.
    pub applied: usize,
    /// Updates skipped because the sequential engine would have rejected
    /// them at that point of the batch: an insert of an id that is live,
    /// a delete of one that is not.
    pub skipped: usize,
    /// Wall time of the parallel classification phase.
    pub parallel_phase: Duration,
    /// Wall time of the serial fold + sampling phase.
    pub serial_phase: Duration,
}

impl BatchReport {
    /// Total wall time.
    pub fn total(&self) -> Duration {
        self.parallel_phase + self.serial_phase
    }

    /// Updates per second over the whole batch.
    pub fn throughput(&self) -> f64 {
        let secs = self.total().as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.applied as f64 / secs
        }
    }
}

/// Per-leaf aggregation produced by one worker.
#[derive(Default)]
struct LeafDelta {
    inserted: Moments,
    deleted: Moments,
    inserted_values: Vec<f64>,
    deleted_values: Vec<f64>,
}

/// Applies a batch of updates to the engine using `threads` workers for
/// the classification/aggregation phase (see module docs).
///
/// Re-partitioning triggers are not evaluated inside the batch; call the
/// engine's trigger path between batches if desired. The parallel phase
/// classifies against one tree, so an engine with more than one template
/// is rejected with [`JanusError::InvalidConfig`].
pub fn apply_batch(
    engine: &mut JanusEngine,
    updates: Vec<Update>,
    threads: usize,
) -> Result<BatchReport> {
    if engine.template_count() > 1 {
        return Err(JanusError::InvalidConfig(format!(
            "apply_batch drives one partition tree, not {}",
            engine.template_count()
        )));
    }
    let threads = threads.max(1);

    // Resolve every update against the archive *as of its position in the
    // batch* (archive reads are cheap and the lookups must precede archive
    // mutation): `in_batch` overlays the ids this batch has touched so far
    // with the row they hold now, `None` once deleted. An update the
    // sequential engine would reject there resolves to `None` and reaches
    // neither the tree deltas nor the sampling replay.
    let mut in_batch: DetHashMap<RowId, Option<&Row>> = DetHashMap::default();
    let resolved: Vec<Option<Row>> = updates
        .iter()
        .map(|u| match u {
            Update::Insert(row) => {
                let live = match in_batch.get(&row.id) {
                    Some(held) => held.is_some(),
                    None => engine.archive().contains(row.id),
                };
                if live {
                    None
                } else {
                    in_batch.insert(row.id, Some(row));
                    Some(row.clone())
                }
            }
            Update::Delete(id) => match in_batch.insert(*id, None) {
                Some(held) => held.cloned(),
                None => engine.archive().get(*id),
            },
        })
        .collect();
    let skipped = resolved.iter().filter(|r| r.is_none()).count();

    // ---------------- parallel phase ----------------
    let started = Instant::now();
    let dpt = engine.dpt();
    let leaf_count_hint = dpt.live_node_count();
    let mut shards: Vec<std::collections::HashMap<usize, LeafDelta>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let resolved = &resolved;
            let updates = &updates;
            handles.push(scope.spawn(move || {
                let mut local: std::collections::HashMap<usize, LeafDelta> =
                    std::collections::HashMap::with_capacity(leaf_count_hint.min(1024));
                let mut point: Vec<f64> = Vec::new();
                for (u, row) in updates.iter().zip(resolved) {
                    let Some(row) = row else { continue };
                    dpt.project_into(row, &mut point);
                    let leaf = dpt.leaf_of(&point);
                    if leaf % threads != worker {
                        continue;
                    }
                    let a = dpt.agg_value(row.as_ref());
                    let delta = local.entry(leaf).or_default();
                    match u {
                        Update::Insert(_) => {
                            delta.inserted.add(a);
                            delta.inserted_values.push(a);
                        }
                        Update::Delete(_) => {
                            delta.deleted.add(a);
                            delta.deleted_values.push(a);
                        }
                    }
                }
                local
            }));
        }
        for h in handles {
            shards.push(h.join().expect("worker panicked"));
        }
    });
    let parallel_phase = started.elapsed();

    // ---------------- serial phase ----------------
    let started = Instant::now();
    let mut applied = 0usize;
    for shard in shards {
        for (leaf, delta) in shard {
            applied += delta.inserted_values.len() + delta.deleted_values.len();
            engine.apply_leaf_delta_internal(
                leaf,
                delta.inserted,
                delta.deleted,
                &delta.inserted_values,
                &delta.deleted_values,
            );
        }
    }
    // Archive + reservoir bookkeeping in arrival order.
    for (u, row) in updates.iter().zip(&resolved) {
        let Some(row) = row else { continue };
        match u {
            Update::Insert(_) => engine.apply_insert_sampling(row.clone())?,
            Update::Delete(_) => engine.apply_delete_sampling(row),
        }
    }
    let serial_phase = started.elapsed();

    Ok(BatchReport {
        applied,
        skipped,
        parallel_phase,
        serial_phase,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynopsisConfig;
    use janus_common::{AggregateFunction, Query, QueryTemplate, RangePredicate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rows(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let x = rng.gen::<f64>() * 100.0;
                Row::new(i, vec![x, x * 3.0])
            })
            .collect()
    }

    fn config(seed: u64) -> SynopsisConfig {
        let mut cfg = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]),
            seed,
        );
        cfg.leaf_count = 16;
        cfg.sample_rate = 0.05;
        cfg.catchup_ratio = 0.5;
        cfg.auto_repartition = false;
        cfg
    }

    fn mixed_updates(n: usize, start_id: u64, live: &[u64], seed: u64) -> Vec<Update> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        let mut next = start_id;
        let mut deletable: Vec<u64> = live.to_vec();
        for _ in 0..n {
            if rng.gen_bool(0.85) || deletable.is_empty() {
                let x = rng.gen::<f64>() * 100.0;
                out.push(Update::Insert(Row::new(next, vec![x, x * 3.0])));
                next += 1;
            } else {
                let at = rng.gen_range(0..deletable.len());
                out.push(Update::Delete(deletable.swap_remove(at)));
            }
        }
        out
    }

    #[test]
    fn parallel_batch_matches_sequential_engine() {
        let data = rows(4_000, 1);
        let updates = mixed_updates(1_500, 10_000, &(0..4_000).collect::<Vec<_>>(), 2);

        // Sequential reference.
        let mut seq = crate::engine::JanusEngine::bootstrap(config(5), data.clone()).unwrap();
        for u in updates.clone() {
            match u {
                Update::Insert(r) => seq.insert(r).unwrap(),
                Update::Delete(id) => {
                    seq.delete(id).unwrap();
                }
            }
        }

        // Parallel batch.
        let mut par = crate::engine::JanusEngine::bootstrap(config(5), data).unwrap();
        let report = apply_batch(&mut par, updates, 4).unwrap();
        assert!(report.applied > 0);

        let q = Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            RangePredicate::new(vec![0.0], vec![100.0]).unwrap(),
        )
        .unwrap();
        let a = seq.query(&q).unwrap().unwrap().value;
        let b = par.query(&q).unwrap().unwrap().value;
        assert!((a - b).abs() < 1e-6, "sequential {a} vs parallel {b}");
        assert_eq!(seq.population(), par.population());
    }

    #[test]
    fn throughput_report_is_sane() {
        let data = rows(2_000, 3);
        let mut engine = crate::engine::JanusEngine::bootstrap(config(7), data).unwrap();
        let updates = mixed_updates(1_000, 50_000, &[], 4);
        let report = apply_batch(&mut engine, updates, 2).unwrap();
        assert_eq!(report.applied, 1_000);
        assert!(report.throughput() > 0.0);
        assert!(report.total() >= report.parallel_phase);
    }

    #[test]
    fn rejected_updates_leave_no_trace_in_the_tree() {
        let row = |id: u64, x: f64| Row::new(id, vec![x, x * 3.0]);
        let updates = vec![
            Update::Insert(row(5, 10.0)), // id already live
            Update::Insert(row(9_000, 20.0)),
            Update::Insert(row(9_000, 30.0)), // repeated in the batch
            Update::Delete(17),
            Update::Delete(17),      // deleted twice
            Update::Delete(424_242), // never existed
            Update::Insert(row(9_001, 40.0)),
            Update::Delete(9_001), // inserted earlier in the batch: applies
            Update::Delete(23),
            Update::Insert(row(23, 50.0)), // deleted earlier in the batch: applies
        ];
        let data = rows(2_000, 11);
        let mut seq = crate::engine::JanusEngine::bootstrap(config(13), data.clone()).unwrap();
        let (applied, skipped, _) = seq.apply_update_refs(&updates, true);
        assert_eq!((applied, skipped), (6, 4));

        let mut par = crate::engine::JanusEngine::bootstrap(config(13), data).unwrap();
        let report = apply_batch(&mut par, updates, 3).unwrap();
        assert_eq!((report.applied, report.skipped), (applied, skipped));
        assert_eq!(par.population(), seq.population());
        for (lo, hi) in [
            (f64::NEG_INFINITY, f64::INFINITY),
            (0.0, 25.0),
            (15.0, 60.0),
        ] {
            let q = Query::new(
                AggregateFunction::Count,
                1,
                vec![0],
                RangePredicate::new(vec![lo], vec![hi]).unwrap(),
            )
            .unwrap();
            assert_eq!(
                par.query(&q).unwrap().unwrap().value,
                seq.query(&q).unwrap().unwrap().value,
                "COUNT over [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn deleting_missing_ids_is_skipped() {
        let data = rows(500, 5);
        let mut engine = crate::engine::JanusEngine::bootstrap(config(9), data).unwrap();
        let updates = vec![Update::Delete(999_999), Update::Delete(999_998)];
        let report = apply_batch(&mut engine, updates, 2).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(engine.population(), 500);
    }

    #[test]
    fn an_engine_over_two_templates_is_refused() {
        let configs = vec![config(9), config(10)];
        let mut engine = JanusEngine::bootstrap_templates(configs, rows(500, 5)).unwrap();
        let refused = apply_batch(&mut engine, vec![Update::Delete(0)], 2);
        assert!(matches!(refused, Err(JanusError::InvalidConfig(_))));
        assert_eq!(engine.population(), 500);
    }
}
