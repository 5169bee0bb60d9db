//! The bulk loader pinned against the per-row publish path: a parallel
//! shard-affine load must be *observationally invisible* — drained state
//! bit-identical to publishing every dataset row one at a time in
//! canonical order — across all three routing policies and across
//! loader thread counts; and a load killed mid-flight must resume from
//! its journal to the same bits an uninterrupted twin reaches.

use janus::common::JanusError;
use janus::data::partitioned::{list_chunks, read_chunk};
use janus::prelude::*;
use janus::storage::LoadProgress;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn exact_config(seed: u64) -> SynopsisConfig {
    let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
    let mut c = SynopsisConfig::paper_default(template, seed);
    c.leaf_count = 16;
    c.sample_rate = 0.03;
    c.catchup_ratio = 1.0;
    c.auto_repartition = false;
    c
}

fn seed_rows(n: u64) -> Vec<Row> {
    (0..n)
        .map(|i| Row::new(1_000_000 + i, vec![(i % 100) as f64, (i % 13) as f64]))
        .collect()
}

fn make_cluster(shards: usize, policy: ShardPolicy) -> ClusterEngine {
    ClusterEngine::bootstrap(
        ClusterConfig::new(exact_config(7), shards, policy),
        seed_rows(2_000),
    )
    .unwrap()
}

fn dataset(tag: &str, rows: usize, chunk_rows: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("janus-bulk-load-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_partitioned(&dir, &PartitionedSpec::uniform_sorted(rows, chunk_rows, 17)).unwrap();
    dir
}

/// Publishes the dataset per-row in canonical order — the reference
/// stream every load must be indistinguishable from.
fn publish_per_row(cluster: &ClusterEngine, dir: &Path) -> usize {
    let mut published = 0;
    for path in list_chunks(dir).unwrap() {
        for row in read_chunk(&path).unwrap().1 {
            cluster.publish_insert(row).unwrap();
            published += 1;
        }
    }
    cluster.pump_all().unwrap();
    published
}

fn query(agg: AggregateFunction, lo: f64, hi: f64) -> Query {
    Query::new(
        agg,
        1,
        vec![0],
        RangePredicate::new(vec![lo], vec![hi]).unwrap(),
    )
    .unwrap()
}

fn probe_queries() -> Vec<Query> {
    vec![
        query(AggregateFunction::Count, f64::NEG_INFINITY, f64::INFINITY),
        query(AggregateFunction::Sum, f64::NEG_INFINITY, f64::INFINITY),
        query(AggregateFunction::Avg, f64::NEG_INFINITY, f64::INFINITY),
        query(AggregateFunction::Min, 0.0, 100.0),
        query(AggregateFunction::Max, 0.0, 100.0),
        query(AggregateFunction::Sum, 12.5, 77.5),
        query(AggregateFunction::Count, 35.0, 45.0),
    ]
}

fn estimate_bits(est: &Estimate) -> (u64, u64, u64, usize) {
    (
        est.value.to_bits(),
        est.catchup_variance.to_bits(),
        est.sample_variance.to_bits(),
        est.samples_used,
    )
}

fn assert_same_answers(a: &ClusterEngine, b: &ClusterEngine, context: &str) {
    assert_eq!(a.population(), b.population(), "{context}: population");
    assert_eq!(
        a.shard_populations(),
        b.shard_populations(),
        "{context}: per-shard placement"
    );
    for q in probe_queries() {
        let ea = a.query(&q).unwrap();
        let eb = b.query(&q).unwrap();
        match (ea, eb) {
            (Some(x), Some(y)) => assert_eq!(
                estimate_bits(&x),
                estimate_bits(&y),
                "{context}: {} [{:?}] diverged",
                q.agg,
                q.range
            ),
            (x, y) => assert_eq!(x.is_none(), y.is_none(), "{context}: {}", q.agg),
        }
    }
}

fn policies() -> Vec<ShardPolicy> {
    vec![
        ShardPolicy::HashById,
        ShardPolicy::RoundRobin,
        ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap(),
    ]
}

/// The tentpole equivalence: for every routing policy and for 1 and 3
/// loader threads, a bulk load drains to state bit-identical to the
/// per-row publish of the same dataset in canonical order.
#[test]
fn bulk_load_matches_per_row_publish_bit_for_bit() {
    let dir = dataset("equiv", 4_000, 256);
    for policy in policies() {
        let reference = make_cluster(4, policy.clone());
        assert_eq!(publish_per_row(&reference, &dir), 4_000);
        for threads in [1usize, 3] {
            let loaded = make_cluster(4, policy.clone());
            let report = BulkLoader::new(&loaded, &dir)
                .with_config(LoadConfig {
                    threads,
                    batch_rows: 177, // odd size: splits runs across files
                    ..LoadConfig::default()
                })
                .load()
                .unwrap();
            assert_eq!(report.rows_published, 4_000, "{policy:?} x{threads}");
            assert_eq!(report.rows_rejected, 0, "{policy:?} x{threads}");
            let expect_routed = !matches!(policy, ShardPolicy::RoundRobin);
            assert_eq!(report.routed, expect_routed, "{policy:?}");
            assert_eq!(
                report.threads,
                if expect_routed { threads } else { 1 },
                "{policy:?}"
            );
            assert_same_answers(&reference, &loaded, &format!("{policy:?} x{threads}"));
            // Ingest counters agree with the per-row path too.
            assert_eq!(
                reference.stats().inserts,
                loaded.stats().inserts,
                "{policy:?} x{threads}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal store that trips a stop flag after `after` journal writes —
/// a deterministic mid-load "kill" for the restart tests.
struct TrippingStore<'a> {
    inner: &'a dyn CheckpointStore,
    stop: &'a AtomicBool,
    puts: AtomicU64,
    after: u64,
}

impl CheckpointStore for TrippingStore<'_> {
    fn put(&self, id: u64, payload: &str) -> janus::common::Result<()> {
        self.inner.put(id, payload)?;
        if self.puts.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
            self.stop.store(true, Ordering::Relaxed);
        }
        Ok(())
    }
    fn get(&self, id: u64) -> Option<String> {
        self.inner.get(id)
    }
    fn ids(&self) -> Vec<u64> {
        self.inner.ids()
    }
    fn remove(&self, id: u64) -> janus::common::Result<()> {
        self.inner.remove(id)
    }
}

/// The killed-load satellite: interrupt a journaled load mid-flight,
/// resume from the `FileCheckpointStore` journal in a fresh loader, and
/// the recovered cluster is bit-identical to an uninterrupted twin —
/// with every dataset row accounted for exactly once across the two
/// runs (skipped by journal, rejected as an already-published
/// re-attempt, or newly published).
#[test]
fn killed_load_resumes_exactly_once_bit_identically() {
    let dir = dataset("kill", 4_000, 128);
    let journal_dir =
        std::env::temp_dir().join(format!("janus-bulk-load-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();

    let uninterrupted = make_cluster(4, policy.clone());
    let full = BulkLoader::new(&uninterrupted, &dir)
        .with_config(LoadConfig {
            threads: 2,
            batch_rows: 64,
            ..LoadConfig::default()
        })
        .load()
        .unwrap();
    assert_eq!(full.rows_published, 4_000);

    // Run 1: journal every batch; the store kills the load after 12
    // journal writes (~768 of 4000 rows).
    let killed = make_cluster(4, policy.clone());
    let file_store = FileCheckpointStore::open(&journal_dir).unwrap();
    let stop = AtomicBool::new(false);
    let tripping = TrippingStore {
        inner: &file_store,
        stop: &stop,
        puts: AtomicU64::new(0),
        after: 12,
    };
    let first = BulkLoader::new(&killed, &dir)
        .with_config(LoadConfig {
            threads: 2,
            batch_rows: 64,
            checkpoint_batches: 1,
            ..LoadConfig::default()
        })
        .with_journal(&tripping)
        .load_with_stop(&stop)
        .unwrap();
    assert!(first.interrupted, "the stop flag must land mid-load");
    assert!(
        first.rows_published < 4_000,
        "an interrupted load must leave work behind"
    );

    // Simulated process restart: a fresh store handle over the same
    // directory, a fresh loader over the same cluster.
    let reopened = FileCheckpointStore::open(&journal_dir).unwrap();
    let (_, journal) = LoadProgress::load_latest(&reopened).unwrap().unwrap();
    assert!(
        journal.total_published() <= first.rows_published as u64,
        "flush-after-publish: the journal can only under-count"
    );
    let second = BulkLoader::new(&killed, &dir)
        .with_config(LoadConfig {
            threads: 2,
            batch_rows: 64,
            checkpoint_batches: 1,
            ..LoadConfig::default()
        })
        .with_journal(&reopened)
        .load()
        .unwrap();
    assert!(!second.interrupted);
    assert!(second.routed, "journal still matches the live router");
    assert!(second.rows_skipped > 0, "the journal prefix is skipped");
    assert_eq!(
        first.rows_published + second.rows_published,
        4_000,
        "topic appends across the two runs cover the dataset exactly once"
    );
    assert_eq!(
        second.rows_skipped as usize + second.rows_rejected + second.rows_published,
        4_000,
        "run 2 accounts for every dataset row"
    );

    killed.pump_all().unwrap();
    assert_same_answers(&uninterrupted, &killed, "killed+resumed vs twin");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// A journal whose routing snapshot no longer matches the live cluster
/// (a rebalance moved the bounds in between) resumes through the classic
/// re-routing path: no fast-path claims are trusted, yet every row still
/// lands exactly once.
#[test]
fn stale_journal_falls_back_to_classic_rerouting() {
    let dir = dataset("stale", 3_000, 128);
    let policy = ShardPolicy::range_equal_width(0, 0.0, 100.0, 4).unwrap();
    let cluster = make_cluster(4, policy);
    let store = MemoryCheckpointStore::new();

    // Kill an initial journaled load early.
    let stop = AtomicBool::new(false);
    let tripping = TrippingStore {
        inner: &store,
        stop: &stop,
        puts: AtomicU64::new(0),
        after: 6,
    };
    let first = BulkLoader::new(&cluster, &dir)
        .with_config(LoadConfig {
            threads: 2,
            batch_rows: 64,
            checkpoint_batches: 1,
            ..LoadConfig::default()
        })
        .with_journal(&tripping)
        .load_with_stop(&stop)
        .unwrap();
    assert!(first.interrupted);
    assert!(first.routed);

    // Skew the cluster hard enough to migrate: the rebalance bumps the
    // generation and redraws the range bounds the journal was cut under.
    let skew: Vec<ShardOp> = (0..12_000u64)
        .map(|i| ShardOp::Insert(Row::new(5_000_000 + i, vec![99.0, 1.0])))
        .collect();
    cluster.publish_batch(skew);
    cluster.pump_all().unwrap();
    let moved = cluster.maybe_rebalance().unwrap().expect("skew triggers");
    assert!(moved.rows_moved > 0);

    // Resume: claims come from the stale journal, publishes re-route.
    let second = BulkLoader::new(&cluster, &dir)
        .with_journal(&store)
        .with_config(LoadConfig {
            threads: 2,
            batch_rows: 64,
            ..LoadConfig::default()
        })
        .load()
        .unwrap();
    assert!(!second.routed, "stale snapshot must demote to classic");
    assert_eq!(
        first.rows_published + second.rows_published,
        3_000,
        "exactly-once across the rebalance"
    );
    cluster.pump_all().unwrap();
    assert_eq!(cluster.population(), 2_000 + 3_000 + 12_000);
    let count = cluster
        .query(&query(
            AggregateFunction::Count,
            f64::NEG_INFINITY,
            f64::INFINITY,
        ))
        .unwrap()
        .unwrap();
    assert_eq!(count.value, (2_000 + 3_000 + 12_000) as f64);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Routed inserters race per-row deleters of the very ids being inserted.
/// A delete either misses (`RowNotFound`, retried) or lands strictly
/// after its row's insert in the same shard topic — the router lock is
/// the only thing ordering the two, so a delete that slipped between a
/// routed publish's directory pass and its topic append would surface
/// here as a delete-before-insert record (and a failed strict pump).
#[test]
fn routed_inserts_racing_per_row_deletes_keep_topic_order() {
    const THREADS: u64 = 3;
    const PER_THREAD: u64 = 1_500;
    let cluster = make_cluster(4, ShardPolicy::HashById);
    let ids = |t: u64| t * PER_THREAD..(t + 1) * PER_THREAD;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cluster = &cluster;
            scope.spawn(move || {
                let rows: Vec<Row> = ids(t)
                    .map(|id| Row::new(id, vec![(id % 100) as f64, 1.0]))
                    .collect();
                for chunk in rows.chunks(48) {
                    let snapshot = cluster.routing_snapshot();
                    let mut groups: Vec<(usize, Vec<Row>)> =
                        (0..snapshot.shards).map(|s| (s, Vec::new())).collect();
                    for row in chunk {
                        groups[snapshot.route(row).unwrap()].1.push(row.clone());
                    }
                    let report = cluster
                        .publish_batch_routed(snapshot.generation, groups)
                        .unwrap();
                    assert_eq!(report.rejected, 0, "ids are disjoint per thread");
                }
            });
            scope.spawn(move || {
                for id in ids(t).step_by(2) {
                    loop {
                        match cluster.publish_delete(id) {
                            Ok(()) => break,
                            Err(JanusError::RowNotFound(_)) => std::thread::yield_now(),
                            Err(e) => panic!("delete of {id}: {e}"),
                        }
                    }
                }
            });
        }
    });
    cluster.pump_all().expect("no delete outran its insert");
    let inserted = (THREADS * PER_THREAD) as usize;
    assert_eq!(cluster.population(), 2_000 + inserted / 2);
    assert_eq!(cluster.directory_len(), 2_000 + inserted / 2);

    let topics = cluster.topics();
    let mut deletes = 0;
    for shard in 0..cluster.shards() {
        let mut inserted_here = std::collections::HashSet::new();
        for op in topics.poll(shard, 0, usize::MAX) {
            match op {
                ShardOp::Insert(row) => assert!(inserted_here.insert(row.id)),
                ShardOp::Delete(id) => {
                    assert!(
                        inserted_here.contains(&id),
                        "delete of {id} ahead of its insert"
                    );
                    deletes += 1;
                }
            }
        }
    }
    assert_eq!(deletes, inserted / 2);
}
