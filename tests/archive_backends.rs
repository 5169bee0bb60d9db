//! Representation-equivalence suite for the columnar archive rework: the
//! in-memory columnar backend and the segmented file-backed spill store
//! must be *observationally indistinguishable* — from each other, and
//! from the seed's `Vec<Row>` + `swap_remove` representation, which the
//! reference model below replays op for op.
//!
//! Everything a consumer can see is pinned to the bit: slot/export
//! order, every seeded sampling stream (`sample_distinct`,
//! `sample_with_replacement`, `shuffled`), whole-engine evolution under
//! mixed updates, snapshot round trips, and cluster checkpoint/restore
//! answers across all three routing policies (whose restored followers
//! now fork from one shared archive instead of cloning the checkpoint
//! rows per replica).

use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{seq::index::sample as index_sample, Rng, SeedableRng};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "janus-backend-suite-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_backend(tag: &str, seg_rows: usize) -> (ArchiveBackendKind, PathBuf) {
    let root = scratch_dir(tag);
    (
        ArchiveBackendKind::FileSpill {
            root: root.clone(),
            seg_rows,
        },
        root,
    )
}

fn row(id: u64) -> Row {
    Row::new(id, vec![(id % 97) as f64, (id * 7 % 31) as f64])
}

/// The seed representation, replayed literally: a `Vec<Row>` with
/// `swap_remove` deletion and the seed's exact sampling implementations.
#[derive(Default)]
struct SeedModel {
    rows: Vec<Row>,
}

impl SeedModel {
    fn insert(&mut self, row: Row) -> bool {
        if self.rows.iter().any(|r| r.id == row.id) {
            return false;
        }
        self.rows.push(row);
        true
    }

    fn delete(&mut self, id: u64) -> Option<Row> {
        let at = self.rows.iter().position(|r| r.id == id)?;
        Some(self.rows.swap_remove(at))
    }

    fn sample_distinct(&self, n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = n.min(self.rows.len());
        if n == 0 {
            return Vec::new();
        }
        index_sample(&mut rng, self.rows.len(), n)
            .into_iter()
            .map(|i| self.rows[i].clone())
            .collect()
    }

    fn sample_with_replacement(&self, n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        if self.rows.is_empty() {
            return Vec::new();
        }
        (0..n)
            .map(|_| self.rows[rng.gen_range(0..self.rows.len())].clone())
            .collect()
    }

    fn shuffled(&self, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows = self.rows.clone();
        rows.shuffle(&mut rng);
        rows
    }
}

/// Drives the same mixed op sequence into the seed model and both
/// backends, checking all observable streams at every phase boundary.
#[test]
fn sampling_streams_match_the_seed_representation() {
    let (file_kind, root) = file_backend("streams", 32);
    let mut model = SeedModel::default();
    let mut mem = ArchiveStore::new();
    let mut file = ArchiveStore::open(&file_kind).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;

    for phase in 0u64..4 {
        for _ in 0..500 {
            if rng.gen_bool(0.7) || live.len() < 8 {
                let r = row(next);
                assert!(model.insert(r.clone()));
                assert!(mem.insert(r.clone()).unwrap());
                assert!(file.insert(r).unwrap());
                live.push(next);
                next += 1;
            } else {
                let at = rng.gen_range(0..live.len());
                let id = live.swap_remove(at);
                let expected = model.delete(id);
                assert_eq!(mem.delete(id).unwrap(), expected);
                assert_eq!(file.delete(id).unwrap(), expected);
            }
        }
        let seed = 0xabc ^ phase;
        // Export order (= slot order) and every sampling stream, to the bit.
        assert_eq!(mem.to_rows(), model.rows, "columnar slot order");
        assert_eq!(file.to_rows(), model.rows, "file slot order");
        for store in [&mem, &file] {
            assert_eq!(
                store.sample_distinct(100, seed),
                model.sample_distinct(100, seed),
                "sample_distinct ({})",
                store.backend_name()
            );
            assert_eq!(
                store.sample_with_replacement(64, seed),
                model.sample_with_replacement(64, seed),
                "sample_with_replacement ({})",
                store.backend_name()
            );
            assert_eq!(
                store.shuffled(seed),
                model.shuffled(seed),
                "shuffled ({})",
                store.backend_name()
            );
        }
    }
    drop(file);
    let _ = std::fs::remove_dir_all(root);
}

fn exact_config(seed: u64, backend: ArchiveBackendKind) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = 16;
    c.sample_rate = 0.03;
    c.catchup_ratio = 0.3;
    c.auto_repartition = true;
    c.archive_backend = backend;
    c
}

fn engine_rows(n: usize, seed: u64) -> Vec<Row> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|i| {
            let x = rng.gen::<f64>() * 100.0;
            Row::new(i, vec![x, x * 3.0 + rng.gen::<f64>() * 5.0])
        })
        .collect()
}

fn probe_queries() -> Vec<Query> {
    [
        (AggregateFunction::Sum, 0.0, 100.0),
        (AggregateFunction::Count, 12.5, 77.5),
        (AggregateFunction::Avg, 20.0, 60.0),
        (AggregateFunction::Min, 0.0, 100.0),
        (AggregateFunction::Max, 35.0, 45.0),
    ]
    .into_iter()
    .map(|(agg, lo, hi)| {
        Query::new(
            agg,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    })
    .collect()
}

fn estimate_bits(e: &Estimate) -> (u64, u64, u64, usize) {
    (
        e.value.to_bits(),
        e.catchup_variance.to_bits(),
        e.sample_variance.to_bits(),
        e.samples_used,
    )
}

/// Whole-engine equivalence: two engines differing only in archive
/// backend must evolve bit-identically — bootstrap, mixed updates,
/// resample-forcing deletions, queries, snapshots, exact evaluation.
#[test]
fn engines_evolve_bit_identically_across_backends() {
    let (file_kind, root) = file_backend("engine", 512);
    let mut mem = JanusEngine::bootstrap(
        exact_config(9, ArchiveBackendKind::Memory),
        engine_rows(6_000, 1),
    )
    .unwrap();
    let mut file =
        JanusEngine::bootstrap(exact_config(9, file_kind), engine_rows(6_000, 1)).unwrap();
    assert_eq!(file.archive().backend_name(), "file-segmented");

    let mut rng = SmallRng::seed_from_u64(2);
    let mut live: Vec<u64> = (0..6_000).collect();
    let mut next = 10_000u64;
    for step in 0..4_000u64 {
        if rng.gen_bool(0.6) || live.len() < 64 {
            let x = rng.gen::<f64>() * 100.0;
            let r = Row::new(next, vec![x, x * 3.0]);
            mem.insert(r.clone()).unwrap();
            file.insert(r).unwrap();
            live.push(next);
            next += 1;
        } else {
            let at = rng.gen_range(0..live.len());
            let id = live.swap_remove(at);
            mem.delete(id).unwrap();
            file.delete(id).unwrap();
        }
        if step % 1_000 == 999 {
            for q in &probe_queries() {
                let a = mem.query(q).unwrap();
                let b = file.query(q).unwrap();
                match (a, b) {
                    (Some(x), Some(y)) => {
                        assert_eq!(
                            estimate_bits(&x),
                            estimate_bits(&y),
                            "step {step} {}",
                            q.agg
                        )
                    }
                    (x, y) => assert_eq!(x.is_none(), y.is_none()),
                }
                assert_eq!(mem.evaluate_exact(q), file.evaluate_exact(q));
            }
        }
    }
    // Deletion storm: drain most of the table so the reservoir floor
    // breaches and both engines run the §4.2 resample — which samples
    // fresh rows straight off each backend's slot order.
    while live.len() > 400 {
        let at = rng.gen_range(0..live.len());
        let id = live.swap_remove(at);
        mem.delete(id).unwrap();
        file.delete(id).unwrap();
    }
    assert!(
        mem.stats().resamples >= 1,
        "the workload must exercise the §4.2 resample path"
    );
    for q in &probe_queries() {
        let a = mem.query(q).unwrap();
        let b = file.query(q).unwrap();
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(estimate_bits(&x), estimate_bits(&y), "post-storm {}", q.agg)
            }
            (x, y) => assert_eq!(x.is_none(), y.is_none()),
        }
    }
    assert_eq!(mem.export_rows(), file.export_rows(), "export order");
    assert_eq!(
        mem.save_synopsis().to_bytes(),
        file.save_synopsis().to_bytes(),
        "snapshots must be bit-identical"
    );
    // Forks of a spilling engine are bit-identical too (fork is the
    // replica-construction path).
    let forked = file.fork_via_snapshot().unwrap();
    assert_eq!(
        forked.save_synopsis().to_bytes(),
        mem.save_synopsis().to_bytes()
    );
    drop(file);
    let _ = std::fs::remove_dir_all(root);
}

fn policies() -> Vec<ShardPolicy> {
    vec![
        ShardPolicy::HashById,
        ShardPolicy::RoundRobin,
        ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
    ]
}

fn cluster_probe(cluster: &ClusterEngine) -> Vec<(u64, u64, u64, usize)> {
    probe_queries()
        .iter()
        .map(|q| {
            let e = cluster.query(q).unwrap().expect("non-empty selection");
            estimate_bits(&e)
        })
        .collect()
}

/// Cluster checkpoint/restore across all three routing policies, with
/// replicas — the restored followers fork from one shared archive; their
/// answers (primary- and replica-served alike) must equal an
/// uninterrupted twin's to the bit.
#[test]
fn cluster_restore_is_bit_identical_across_policies() {
    for policy in policies() {
        let make = |seed| {
            let mut cfg = ClusterConfig::new(
                exact_config(seed, ArchiveBackendKind::Memory),
                4,
                policy.clone(),
            )
            .with_replicas(1);
            cfg.skew_factor = None;
            cfg
        };
        let original = ClusterEngine::bootstrap(make(4), engine_rows(8_000, 3)).unwrap();
        let twin = ClusterEngine::bootstrap(make(4), engine_rows(8_000, 3)).unwrap();

        // Publish + pump a deterministic stream into both.
        let mut rng = SmallRng::seed_from_u64(6);
        for i in 0..3_000u64 {
            let x = rng.gen::<f64>() * 100.0;
            let r = Row::new(100_000 + i, vec![x, x * 3.0]);
            original.publish_insert(r.clone()).unwrap();
            twin.publish_insert(r).unwrap();
        }
        original.pump_all().unwrap();
        twin.pump_all().unwrap();
        for shard in 0..4 {
            while original.pump_replicas(shard, 4_096) > 0 {}
            while twin.pump_replicas(shard, 4_096) > 0 {}
        }

        // Checkpoint → drop → restore from checkpoint + surviving topics.
        let checkpoint = original.checkpoint();
        let topics = original.topics();
        drop(original);
        let restored = ClusterEngine::restore(make(4), checkpoint, topics).unwrap();
        assert_eq!(
            cluster_probe(&restored),
            cluster_probe(&twin),
            "{policy:?}: restored answers diverged"
        );
        for shard in 0..4 {
            assert_eq!(restored.replica_count(shard), 1, "{policy:?}: replica lost");
        }
        // Replica-served reads stay exact after the shared-archive fork:
        // probe enough times that the round-robin cursor visits replicas.
        for _ in 0..3 {
            assert_eq!(cluster_probe(&restored), cluster_probe(&twin));
        }
        assert!(
            restored.stats().replica_queries > 0,
            "{policy:?}: replicas must serve a share of the probes"
        );
    }
}

/// A spill-backed *cluster*: every shard archives to disk, and the
/// cluster still answers bit-identically to an in-memory one.
#[test]
fn spill_backed_cluster_matches_memory_cluster() {
    let (file_kind, root) = file_backend("cluster", 1_024);
    let mem_cfg = ClusterConfig::new(
        exact_config(11, ArchiveBackendKind::Memory),
        2,
        ShardPolicy::HashById,
    );
    let file_cfg = ClusterConfig::new(
        exact_config(11, ArchiveBackendKind::Memory),
        2,
        ShardPolicy::HashById,
    )
    .with_archive_backend(file_kind);
    let mem = ClusterEngine::bootstrap(mem_cfg, engine_rows(4_000, 8)).unwrap();
    let file = ClusterEngine::bootstrap(file_cfg, engine_rows(4_000, 8)).unwrap();
    for i in 0..1_000u64 {
        let r = Row::new(50_000 + i, vec![(i % 100) as f64, i as f64]);
        mem.publish_insert(r.clone()).unwrap();
        file.publish_insert(r).unwrap();
    }
    mem.pump_all().unwrap();
    file.pump_all().unwrap();
    assert_eq!(cluster_probe(&mem), cluster_probe(&file));
    drop(file);
    let _ = std::fs::remove_dir_all(root);
}

/// Crash-safety of the segmented store, via the public API: a torn final
/// segment (unrenamed `.tmp`) is invisible after reopen and the sealed
/// prefix replays bit-exactly — including replayed tombstones.
#[test]
fn torn_spill_segment_is_invisible_after_reopen() {
    let dir = scratch_dir("torn");
    {
        let mut store =
            ArchiveStore::with_backend(Box::new(SegmentedFileArchive::open(&dir, 16).unwrap()));
        // Ops 0..15 (inserts 0..14 + delete 3) fill and seal segment 0;
        // ops 16..31 (inserts 15..30) seal segment 1; inserts 31 and 32
        // stay in the unsealed tail.
        for i in 0..15u64 {
            store.insert(row(i)).unwrap();
        }
        store.delete(3).unwrap();
        for i in 15..33u64 {
            store.insert(row(i)).unwrap();
        }
        // Crash mid-seal: a torn tmp the process never renamed, then no
        // clean shutdown (the unsealed tail dies with the process).
        std::fs::write(dir.join(".seg-000002.tmp"), b"torn").unwrap();
        std::mem::forget(store);
    }
    // The sealed prefix is exactly the first 32 ops, replayed through
    // the seed model.
    let mut model = SeedModel::default();
    for i in 0..15u64 {
        model.insert(row(i));
    }
    model.delete(3);
    for i in 15..31u64 {
        model.insert(row(i));
    }
    let reopened =
        ArchiveStore::with_backend(Box::new(SegmentedFileArchive::open(&dir, 16).unwrap()));
    assert_eq!(reopened.to_rows(), model.rows, "sealed prefix replay");
    assert!(!reopened.contains(3), "sealed tombstone replays");
    assert!(!reopened.contains(31), "unsealed tail is gone");
    assert!(!reopened.contains(32), "unsealed tail is gone");
    let _ = std::fs::remove_dir_all(dir);
}

/// A row of the wrong arity is a typed error on both backends, not a
/// panic in the shard thread that applies it: the archive, the synopsis
/// and every answer are exactly as they were before the bad insert.
#[test]
fn a_row_of_the_wrong_arity_is_rejected_on_both_backends() {
    let (file_kind, root) = file_backend("arity", 512);
    for kind in [ArchiveBackendKind::Memory, file_kind] {
        let mut engine =
            JanusEngine::bootstrap(exact_config(5, kind), engine_rows(3_000, 3)).unwrap();
        let before: Vec<_> = probe_queries()
            .iter()
            .map(|q| engine.query(q).unwrap().map(|e| estimate_bits(&e)))
            .collect();
        let snapshot = engine.save_synopsis().to_bytes();
        for values in [vec![1.0], vec![1.0, 2.0, 3.0]] {
            let err = engine.insert(Row::new(50_000, values)).unwrap_err();
            assert!(
                matches!(err, janus::common::JanusError::InvalidConfig(_)),
                "{err}"
            );
        }
        assert_eq!(engine.population(), 3_000);
        assert!(!engine.archive().contains(50_000));
        let after: Vec<_> = probe_queries()
            .iter()
            .map(|q| engine.query(q).unwrap().map(|e| estimate_bits(&e)))
            .collect();
        assert_eq!(before, after, "{}", engine.archive().backend_name());
        assert_eq!(engine.save_synopsis().to_bytes(), snapshot);
        // The id stays free: the same row at the right arity lands.
        engine.insert(Row::new(50_000, vec![1.0, 2.0])).unwrap();
        assert_eq!(engine.population(), 3_001);
    }
    let _ = std::fs::remove_dir_all(root);
}

/// The reference every bulk build must match: `rows` inserted one at a
/// time, in order, into a fresh store of `kind`.
fn per_row_build(kind: &ArchiveBackendKind, rows: &[Row]) -> janus::common::Result<ArchiveStore> {
    let mut store = ArchiveStore::open(kind)?;
    for r in rows {
        store.insert(r.clone())?;
    }
    Ok(store)
}

/// Everything a consumer can see of a store: slot order, the slot of
/// every id asked about, and every seeded stream.
type Observed = (Vec<Row>, Vec<Option<usize>>, Vec<Row>, Vec<Row>, Vec<Row>);

fn observe(store: &ArchiveStore, ids: &[u64], seed: u64) -> Observed {
    (
        store.to_rows(),
        ids.iter().map(|&id| store.slot_of(id)).collect(),
        store.sample_distinct(64, seed),
        store.sample_with_replacement(64, seed),
        store.shuffled_prefix(seed, 150),
    )
}

/// Clean rows `0..700`, with each `(at, row)` of `odd` spliced in just
/// before clean row `at`.
fn rows_with(odd: &[(usize, Row)]) -> Vec<Row> {
    let mut odd = odd.to_vec();
    odd.sort_by_key(|(at, _)| *at);
    let mut rows: Vec<Row> = (0..700).map(row).collect();
    for (at, r) in odd.into_iter().rev() {
        rows.insert(at, r);
    }
    rows
}

/// `ArchiveStore::from_rows_in` builds in bulk in memory and row by row
/// on a spill store; on every input both must be exactly the per-row
/// build — slots, index, streams, and every update afterwards —
/// including a repeated id (the first occurrence wins) and a repeated id
/// of the wrong arity (ignored, as per-row `insert` probes the index
/// before the arity).
#[test]
fn bulk_builds_match_per_row_builds_on_both_backends() {
    let (file_kind, root) = file_backend("bulk", 64);
    let cases = [
        ("clean", rows_with(&[])),
        (
            "repeated ids",
            rows_with(&[
                (1, Row::new(0, vec![-1.0, -1.0])),
                (300, Row::new(17, vec![-2.0, -3.0])),
                (700, Row::new(699, vec![-4.0, -5.0])),
            ]),
        ),
        (
            "repeated ids of another arity",
            rows_with(&[
                (350, Row::new(33, vec![1.0, 2.0, 3.0])),
                (351, Row::new(34, vec![-1.0, -1.0])),
                (500, Row::new(5, vec![7.0])),
            ]),
        ),
    ];
    for (case, rows) in cases {
        let mut ids: Vec<u64> = rows.iter().map(|r| r.id).collect();
        ids.extend([700, 9_999]);
        let mut reference = per_row_build(&ArchiveBackendKind::Memory, &rows).unwrap();
        let mut stores = vec![
            ArchiveStore::from_rows_in(&ArchiveBackendKind::Memory, rows.clone()).unwrap(),
            ArchiveStore::from_rows(rows.clone()),
            ArchiveStore::from_rows_in(&file_kind, rows.clone()).unwrap(),
            per_row_build(&file_kind, &rows).unwrap(),
        ];
        for seed in [3, 0xfeed] {
            let expected = observe(&reference, &ids, seed);
            for (i, store) in stores.iter().enumerate() {
                assert_eq!(observe(store, &ids, seed), expected, "{case}: build {i}");
            }
        }
        // A delete/insert stream afterwards evolves every build alike.
        let mut rng = SmallRng::seed_from_u64(0xb01c);
        let mut next = 700u64;
        for _ in 0..400 {
            let (id, insert) = if rng.gen_bool(0.5) {
                next += 1;
                (next, true)
            } else {
                (rng.gen_range(0..next), false)
            };
            let expected = if insert {
                reference.insert(row(id)).unwrap().then_some(row(id))
            } else {
                reference.delete(id).unwrap()
            };
            for store in &mut stores {
                let got = if insert {
                    store.insert(row(id)).unwrap().then_some(row(id))
                } else {
                    store.delete(id).unwrap()
                };
                assert_eq!(got, expected, "{case}: op on {id}");
            }
        }
        ids.extend(701..=next);
        let expected = observe(&reference, &ids, 11);
        for (i, store) in stores.iter().enumerate() {
            assert_eq!(
                observe(store, &ids, 11),
                expected,
                "{case}: build {i} after updates"
            );
        }
    }
    let _ = std::fs::remove_dir_all(root);
}

/// A new id of the wrong arity fails a bulk build with the per-row
/// build's error, on both backends, wherever it sits.
#[test]
fn bulk_builds_reject_a_new_id_of_another_arity_like_per_row_builds() {
    let (file_kind, root) = file_backend("bulk-arity", 64);
    for at in [1, 350, 700] {
        // A repeated id of another arity first (ignored), where it can be.
        let rows = rows_with(&[
            (4.max(at / 2), Row::new(3, vec![0.0])),
            (at, Row::new(9_999, vec![1.0, 2.0, 3.0])),
        ]);
        let expected = per_row_build(&ArchiveBackendKind::Memory, &rows)
            .err()
            .expect("per-row build rejects the row")
            .to_string();
        assert!(expected.contains("row 9999"), "{expected}");
        for kind in [&ArchiveBackendKind::Memory, &file_kind] {
            let bulk = ArchiveStore::from_rows_in(kind, rows.clone()).err();
            assert_eq!(bulk.map(|e| e.to_string()), Some(expected.clone()));
            let per_row = per_row_build(kind, &rows).err();
            assert_eq!(per_row.map(|e| e.to_string()), Some(expected.clone()));
        }
    }
    let _ = std::fs::remove_dir_all(root);
}
