//! Representation-equivalence suite for the columnar archive: it must be
//! *observationally indistinguishable* from the seed's `Vec<Row>` +
//! `swap_remove` representation, which the reference model below replays
//! op for op.
//!
//! Everything a consumer can see is pinned to the bit: slot/export
//! order, every seeded sampling stream (`sample_distinct`,
//! `sample_with_replacement`, `shuffled`), bulk builds against per-row
//! builds, wrong-arity rejection, and cluster checkpoint/restore answers
//! across all three routing policies (whose restored followers fork from
//! one shared archive instead of cloning the checkpoint rows per
//! replica).

use janus::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{seq::index::sample as index_sample, Rng, SeedableRng};

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

/// Drives the same mixed op sequence into the seed model and the archive,
/// checking all observable streams at every phase boundary.
#[test]
fn sampling_streams_match_the_seed_representation() {
    let mut model = SeedModel::default();
    let mut mem = ArchiveStore::new();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;

    for phase in 0u64..4 {
        for _ in 0..500 {
            if rng.gen_bool(0.7) || live.len() < 8 {
                let r = row(next);
                assert!(model.insert(r.clone()));
                assert!(mem.insert(r).unwrap());
                live.push(next);
                next += 1;
            } else {
                let at = rng.gen_range(0..live.len());
                let id = live.swap_remove(at);
                let expected = model.delete(id);
                assert_eq!(mem.delete(id), expected);
            }
        }
        let seed = 0xabc ^ phase;
        // Export order (= slot order) and every sampling stream, to the bit.
        assert_eq!(mem.to_rows(), model.rows, "columnar slot order");
        assert_eq!(
            mem.sample_distinct(100, seed),
            model.sample_distinct(100, seed),
            "sample_distinct"
        );
        assert_eq!(
            mem.sample_with_replacement(64, seed),
            model.sample_with_replacement(64, seed),
            "sample_with_replacement"
        );
        assert_eq!(mem.shuffled(seed), model.shuffled(seed), "shuffled");
    }
}

fn exact_config(seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = 16;
    c.sample_rate = 0.03;
    c.catchup_ratio = 0.3;
    c.auto_repartition = true;
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

fn policies() -> Vec<ShardPolicy> {
    vec![
        ShardPolicy::HashById,
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
            let mut cfg =
                ClusterConfig::new(exact_config(seed), 4, policy.clone()).with_replicas(1);
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

/// A row of the wrong arity is a typed error, not a panic in the shard
/// thread that applies it: the archive, the synopsis and every answer are
/// exactly as they were before the bad insert.
#[test]
fn a_row_of_the_wrong_arity_is_rejected_on_both_backends() {
    let mut engine = JanusEngine::bootstrap(exact_config(5), engine_rows(3_000, 3)).unwrap();
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
    assert_eq!(before, after);
    assert_eq!(engine.save_synopsis().to_bytes(), snapshot);
    // The id stays free: the same row at the right arity lands.
    engine.insert(Row::new(50_000, vec![1.0, 2.0])).unwrap();
    assert_eq!(engine.population(), 3_001);
}

/// The reference every bulk build must match: `rows` inserted one at a
/// time, in order, into a fresh store.
fn per_row_build(rows: &[Row]) -> janus::common::Result<ArchiveStore> {
    let mut store = ArchiveStore::new();
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

/// `ArchiveStore::try_from_rows` and `ArchiveStore::from_rows` build in
/// bulk; on every input both must be exactly the per-row build — slots,
/// index, streams, and every update afterwards —
/// including a repeated id (the first occurrence wins) and a repeated id
/// of the wrong arity (ignored, as per-row `insert` probes the index
/// before the arity).
#[test]
fn bulk_builds_match_per_row_builds_on_both_backends() {
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
        let mut reference = per_row_build(&rows).unwrap();
        let mut stores = vec![
            ArchiveStore::try_from_rows(rows.clone()).unwrap(),
            ArchiveStore::from_rows(rows.clone()),
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
                reference.delete(id)
            };
            for store in &mut stores {
                let got = if insert {
                    store.insert(row(id)).unwrap().then_some(row(id))
                } else {
                    store.delete(id)
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
}

/// A new id of the wrong arity fails a bulk build with the per-row
/// build's error, wherever it sits.
#[test]
fn bulk_builds_reject_a_new_id_of_another_arity_like_per_row_builds() {
    for at in [1, 350, 700] {
        // A repeated id of another arity first (ignored), where it can be.
        let rows = rows_with(&[
            (4.max(at / 2), Row::new(3, vec![0.0])),
            (at, Row::new(9_999, vec![1.0, 2.0, 3.0])),
        ]);
        let expected = per_row_build(&rows)
            .err()
            .expect("per-row build rejects the row")
            .to_string();
        assert!(expected.contains("row 9999"), "{expected}");
        let bulk = ArchiveStore::try_from_rows(rows).err();
        assert_eq!(bulk.map(|e| e.to_string()), Some(expected));
    }
}

/// The seed model and the archive under one random op stream, with the
/// model's slot of each id kept beside it so its deletes need no scan.
struct BoundaryRun {
    model: SeedModel,
    slot: std::collections::HashMap<u64, usize>,
    mem: ArchiveStore,
    rng: SmallRng,
    live: Vec<u64>,
    next: u64,
    /// Deletes that left the model a whole number of blocks long.
    emptied: usize,
}

impl BoundaryRun {
    fn len(&self) -> usize {
        self.model.rows.len()
    }

    /// One insert (with probability `p`, or when nothing is live) or one
    /// delete of a random live row, into both sides.
    fn step(&mut self, p: f64) {
        if self.rng.gen_bool(p) || self.live.is_empty() {
            let r = row(self.next);
            self.slot.insert(self.next, self.len());
            self.model.rows.push(r.clone());
            assert!(self.mem.insert(r).unwrap());
            self.live.push(self.next);
            self.next += 1;
        } else {
            let id = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            let at = self.slot.remove(&id).unwrap();
            let expected = self.model.rows.swap_remove(at);
            if let Some(moved) = self.model.rows.get(at) {
                self.slot.insert(moved.id, at);
            }
            if self
                .len()
                .is_multiple_of(janus::storage::ARCHIVE_BLOCK_ROWS)
            {
                self.emptied += 1;
            }
            assert_eq!(self.mem.delete(id), Some(expected));
        }
    }

    fn check(&self, seed: u64) {
        let (model, mem) = (&self.model, &self.mem);
        assert_eq!(mem.to_rows(), model.rows, "slot order at {}", self.len());
        for (slot, r) in model.rows.iter().enumerate() {
            assert_eq!(mem.slot_of(r.id), Some(slot));
        }
        assert_eq!(mem.slot_of(self.next), None);
        assert_eq!(
            mem.sample_distinct(100, seed),
            model.sample_distinct(100, seed)
        );
        assert_eq!(
            mem.sample_with_replacement(64, seed),
            model.sample_with_replacement(64, seed)
        );
        assert_eq!(
            mem.shuffled_prefix(seed, 200),
            model.shuffled(seed)[..200.min(self.len())]
        );
    }
}

/// The seed model's op stream driven past three block boundaries and
/// back: around each boundary the deletes empty the last block and the
/// inserts refill it, over and over. Slot order, slots, and every seeded
/// stream stay the model's, to the bit.
#[test]
fn block_boundaries_keep_the_seed_representation() {
    let block = janus::storage::ARCHIVE_BLOCK_ROWS;
    let mut run = BoundaryRun {
        model: SeedModel::default(),
        slot: Default::default(),
        mem: ArchiveStore::new(),
        rng: SmallRng::seed_from_u64(0xb0b),
        live: Vec::new(),
        next: 0,
        emptied: 0,
    };
    // Up past three boundaries, 80/20 inserts to deletes.
    while run.len() < 3 * block + 300 {
        run.step(0.8);
    }
    run.check(1);
    // Back down, swinging across each boundary four times on the way.
    for (i, boundary) in (1..=3).rev().map(|k| k * block).enumerate() {
        for _ in 0..4 {
            while run.len() > boundary - 40 {
                run.step(0.2);
            }
            while run.len() < boundary + 40 {
                run.step(0.8);
            }
        }
        while run.len() > boundary - 300 {
            run.step(0.2);
        }
        run.check(2 + i as u64);
    }
    assert!(
        run.emptied >= 12,
        "the last block emptied {} times",
        run.emptied
    );
}

/// A bulk build whose repeated id has its first occurrence in block 0 and
/// a later one in block 2 closes that gap across blocks: it equals the
/// per-row build, before and after an update stream whose deletes move
/// rows from the last block into the first.
#[test]
fn bulk_builds_close_a_gap_across_blocks_like_per_row_builds() {
    let block = janus::storage::ARCHIVE_BLOCK_ROWS;
    let mut rows: Vec<Row> = (0..(2 * block + 500) as u64).map(row).collect();
    rows.insert(2 * block + 100, Row::new(7, vec![-1.0, -2.0]));
    rows.insert(block + 3, Row::new(block as u64 - 1, vec![-3.0, -4.0]));
    let ids: Vec<u64> = (0..(2 * block + 600) as u64).step_by(13).collect();
    let mut reference = per_row_build(&rows).unwrap();
    let mut stores = vec![
        ArchiveStore::try_from_rows(rows.clone()).unwrap(),
        ArchiveStore::from_rows(rows),
    ];
    for (i, store) in stores.iter().enumerate() {
        assert_eq!(
            observe(store, &ids, 5),
            observe(&reference, &ids, 5),
            "build {i}"
        );
    }
    let mut rng = SmallRng::seed_from_u64(0x9a9);
    for _ in 0..600 {
        let id = if rng.gen_bool(0.3) {
            rng.gen_range(2 * block as u64..2 * block as u64 + 600)
        } else {
            rng.gen_range(0..block as u64)
        };
        let expected = reference.delete(id).or_else(|| {
            reference.insert(row(id)).unwrap();
            None
        });
        for store in &mut stores {
            let got = store.delete(id).or_else(|| {
                store.insert(row(id)).unwrap();
                None
            });
            assert_eq!(got, expected, "op on {id}");
        }
    }
    for (i, store) in stores.iter().enumerate() {
        assert_eq!(
            observe(store, &ids, 6),
            observe(&reference, &ids, 6),
            "build {i} after updates"
        );
    }
}
