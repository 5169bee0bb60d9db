//! Stand-alone layer probes: each layer's public functions timed from
//! outside, on data of the run's own seed, in every traced run.
//!
//! A workload that exercises a layer itself records what it observed and
//! the probe leaves that value alone ([`Outcome::layer_default`]); the
//! probes fill in everything else, so that every traced run of every
//! workload prints every per-layer metric. Each timing is the best of
//! [`REPS`] repetitions, for the reason `stats` gives.

use crate::inputs::Inputs;
use crate::report::Outcome;
use crate::stats::Samples;
use crate::workloads::remote_fleet::Fleet;
use crate::workloads::{synopsis_config, SHARDS, SLICE};
use crate::Ctx;
use janus_cluster::{
    ClusterConfig, ClusterEngine, QueryOptions, ShardOp, ShardPolicy, ShardRouter,
};
use janus_common::{kernels, merge, Estimate, Query, Rect, Row, ScanPartial};
use janus_core::JanusEngine;
use janus_data::write_rows_chunked;
use janus_index::dynamic::DynamicIndex;
use janus_index::range_tree::StaticRangeTree;
use janus_index::IndexPoint;
use janus_load::{BulkLoader, LoadConfig};
use janus_net::wire::{decode_payload, encode_frame};
use janus_net::{Frame, RemoteConfig};
use janus_sampling::DynamicReservoir;
use janus_storage::{ArchiveStore, CheckpointStore, MemoryCheckpointStore, ShardedLog};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each probe; the fastest is reported.
const REPS: usize = 3;

/// Seconds of the fastest of [`REPS`] runs of `f` (which returns its own
/// timed span, so that set-up inside `f` stays out of it).
fn best_s(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

pub fn run_all(inputs: &Inputs, ctx: &Ctx, out: &mut Outcome) {
    let n = ctx.sizing.probe_rows.min(inputs.rows.len());
    let (base, fresh) = inputs.rows[..n].split_at(n / 2);
    common(inputs, out);
    index_and_sampling(inputs, base, fresh, out);
    storage(inputs, base, fresh, out);
    core(inputs, base, fresh, out);
    let fanout_us = cluster(inputs, base, fresh, out);
    load(inputs, ctx, base, fresh, out);
    net(inputs, base, fresh, fanout_us, out);
}

/// `common`: the scan kernel over the whole dataset as one dense block,
/// and the merges a 4-shard gather performs.
fn common(inputs: &Inputs, out: &mut Outcome) {
    let arity = inputs.rows[0].arity();
    let block: Vec<f64> = inputs
        .rows
        .iter()
        .flat_map(|r| r.values.iter().copied())
        .collect();
    let queries = &inputs.queries[..inputs.queries.len().min(4)];
    let scan_s = best_s(|| {
        timed(|| {
            for q in queries {
                let mut partial = ScanPartial::EMPTY;
                kernels::scan_columns(q, &block, arity, &mut partial);
                black_box(partial);
            }
        })
        .1
    });
    out.layer_default(
        "common.scan_rows_per_s",
        (inputs.rows.len() * queries.len()) as f64 / scan_s,
    );
    let parts: Vec<Estimate> = (0..SHARDS)
        .map(|i| Estimate {
            sample_variance: 1.0 + i as f64,
            ..Estimate::exact(10.0 * (i + 1) as f64)
        })
        .collect();
    let rounds = 200_000;
    let merge_s = best_s(|| {
        timed(|| {
            for _ in 0..rounds {
                let sum = merge::merge_additive(black_box(&parts));
                let count = merge::merge_additive(black_box(&parts));
                black_box(merge::combine_avg(&sum, &count));
            }
        })
        .1
    });
    out.layer_default("common.merge_ns", merge_s * 1e9 / rounds as f64);
}

/// `index` and `sampling` at the size the engine runs them: a reservoir of
/// 1% of the table, and the dynamized range tree over its points.
fn index_and_sampling(inputs: &Inputs, base: &[Row], fresh: &[Row], out: &mut Outcome) {
    let m = (base.len() / 100).max(16);
    let point =
        |r: &Row| IndexPoint::new(vec![r.value(inputs.key_col)], r.id, r.value(inputs.agg_col));
    let resident: Vec<IndexPoint> = base.iter().take(2 * m).map(point).collect();
    let arriving: Vec<IndexPoint> = fresh.iter().take(2 * m).map(point).collect();
    let rects: Vec<Rect> = inputs
        .queries
        .iter()
        .map(|q| Rect::new(q.range.lo().to_vec(), q.range.hi().to_vec()).expect("lo <= hi"))
        .collect();
    let (mut insert_s, mut delete_s, mut moments_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let mut index: DynamicIndex<StaticRangeTree> = DynamicIndex::bulk_load(1, resident.clone());
        let points = arriving.clone();
        insert_s = insert_s.min(timed(|| points.into_iter().for_each(|p| index.insert(p))).1);
        moments_s = moments_s.min(
            timed(|| {
                rects.iter().for_each(|r| {
                    black_box(index.moments_in(r));
                })
            })
            .1,
        );
        let points = arriving.clone();
        delete_s = delete_s.min(
            timed(|| {
                points.into_iter().for_each(|p| {
                    black_box(index.delete(p));
                })
            })
            .1,
        );
    }
    out.layer_default("index.insert_ns", insert_s * 1e9 / arriving.len() as f64);
    out.layer_default("index.delete_ns", delete_s * 1e9 / arriving.len() as f64);
    out.layer_default("index.moments_in_ns", moments_s * 1e9 / rects.len() as f64);

    let (mut offer_s, mut delete_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let mut reservoir = DynamicReservoir::with_m(m, inputs.seed);
        reservoir.reset(base[..2 * m].to_vec());
        let rows = fresh.to_vec();
        let population = base.len();
        offer_s = offer_s.min(
            timed(|| {
                for (i, row) in rows.into_iter().enumerate() {
                    black_box(reservoir.offer(row, population + i + 1));
                }
            })
            .1,
        );
        delete_s = delete_s.min(
            timed(|| {
                fresh.iter().for_each(|r| {
                    black_box(reservoir.delete(r.id));
                })
            })
            .1,
        );
    }
    out.layer_default("sampling.offer_ns", offer_s * 1e9 / fresh.len() as f64);
    out.layer_default("sampling.delete_ns", delete_s * 1e9 / fresh.len() as f64);
}

/// `storage`: the archive's update and scan paths and the per-shard topics.
fn storage(inputs: &Inputs, base: &[Row], fresh: &[Row], out: &mut Outcome) {
    let queries = &inputs.queries[..inputs.queries.len().min(16)];
    let (mut insert_s, mut delete_s, mut scan_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let mut archive = ArchiveStore::from_rows(base.iter().cloned());
        let rows = fresh.to_vec();
        insert_s = insert_s.min(
            timed(|| {
                rows.into_iter().for_each(|r| {
                    archive.insert(r).expect("insert");
                })
            })
            .1,
        );
        scan_s = scan_s.min(
            timed(|| {
                queries.iter().for_each(|q| {
                    black_box(archive.scan_partial(q));
                })
            })
            .1,
        );
        delete_s = delete_s.min(
            timed(|| {
                fresh
                    .iter()
                    .for_each(|r| drop(archive.delete(r.id).expect("delete")))
            })
            .1,
        );
    }
    out.layer_default(
        "storage.archive_insert_ns",
        insert_s * 1e9 / fresh.len() as f64,
    );
    out.layer_default(
        "storage.archive_delete_ns",
        delete_s * 1e9 / fresh.len() as f64,
    );
    out.layer_default(
        "storage.archive_scan_rows_per_s",
        ((base.len() + fresh.len()) * queries.len()) as f64 / scan_s,
    );

    let (mut append_s, mut poll_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let log: ShardedLog<ShardOp> = ShardedLog::new(SHARDS);
        let batches: Vec<Vec<ShardOp>> = fresh
            .chunks(SLICE)
            .map(|c| c.iter().cloned().map(ShardOp::Insert).collect())
            .collect();
        append_s = append_s.min(
            timed(|| {
                for (i, batch) in batches.into_iter().enumerate() {
                    log.publish_batch(i % SHARDS, batch);
                }
            })
            .1,
        );
        poll_s = poll_s.min(
            timed(|| {
                for shard in 0..SHARDS {
                    let mut offset = 0u64;
                    loop {
                        let got = log.poll(shard, offset, SLICE);
                        if got.is_empty() {
                            break;
                        }
                        offset += got.len() as u64;
                        black_box(got);
                    }
                }
            })
            .1,
        );
    }
    out.layer_default(
        "storage.topic_append_rows_per_s",
        fresh.len() as f64 / append_s,
    );
    out.layer_default("storage.topic_poll_rows_per_s", fresh.len() as f64 / poll_s);
}

/// `core`: one engine bootstrapped on `base`, streamed `fresh`, queried,
/// re-planned and re-optimised.
fn core(inputs: &Inputs, base: &[Row], fresh: &[Row], out: &mut Outcome) {
    let config = synopsis_config(inputs, base.len());
    let (mut bootstrap_s, mut insert_s, mut delete_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut stall_ns = 0u64;
    let mut engine = None;
    for _ in 0..REPS {
        let rows = base.to_vec();
        let (built, took) =
            timed(|| JanusEngine::bootstrap(config.clone(), rows).expect("bootstrap"));
        bootstrap_s = bootstrap_s.min(took);
        let mut built = built;
        let rows = fresh.to_vec();
        let mut worst = 0u64;
        let took = timed(|| {
            for row in rows {
                let t0 = Instant::now();
                built.insert(row).expect("insert");
                worst = worst.max(t0.elapsed().as_nanos() as u64);
            }
        })
        .1;
        insert_s = insert_s.min(took);
        let victims = &fresh[..fresh.len() / 4];
        let took = timed(|| {
            for row in victims {
                let t0 = Instant::now();
                built.delete(row.id).expect("delete");
                worst = worst.max(t0.elapsed().as_nanos() as u64);
            }
        })
        .1;
        delete_s = delete_s.min(took / victims.len() as f64);
        stall_ns = stall_ns.max(worst);
        engine = Some(built);
    }
    let mut engine = engine.expect("REPS > 0");
    out.layer_default("core.bootstrap_s", bootstrap_s);
    out.layer_default("core.insert_ns", insert_s * 1e9 / fresh.len() as f64);
    out.layer_default("core.delete_ns", delete_s * 1e9);
    out.layer_default("core.update_stall_max_ms", stall_ns as f64 / 1e6);

    let (mut query_ns, mut answer_ns) = (Samples::default(), Samples::default());
    for _ in 0..REPS {
        for q in &inputs.queries {
            let t0 = Instant::now();
            black_box(engine.query(q).expect("query"));
            query_ns.push(t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            black_box(engine.dpt().answer(q, engine.reservoir()).expect("answer"));
            answer_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    out.layer_default("core.query_us", query_ns.us(0.5));
    out.layer_default("core.dpt_answer_us", answer_ns.us(0.5));
    let stats = engine.stats();
    out.layer_default("core.repartitions", stats.repartitions as f64);
    out.layer_default(
        "core.partial_repartitions",
        stats.partial_repartitions as f64,
    );
    out.layer_default(
        "core.rejected_repartitions",
        stats.rejected_repartitions as f64,
    );
    out.layer_default("core.resamples", stats.resamples as f64);
    out.layer_default("core.catchup_applied", stats.catchup_applied as f64);

    let plan_s = best_s(|| {
        let points = engine.snapshot_sample_points();
        timed(|| drop(black_box(engine.plan_repartition(points).expect("plan")))).1
    });
    out.layer_default("core.plan_repartition_s", plan_s);
    let reopt_s = timed(|| engine.reinitialize().expect("reinitialize")).1;
    out.layer_default("core.reopt_s", reopt_s);
    let mut catchup_rate = 0.0f64;
    for _ in 0..REPS {
        let mut cold = JanusEngine::bootstrap_without_catchup(config.clone(), base.to_vec())
            .expect("bootstrap");
        let (applied, took) = timed(|| cold.advance_catchup(base.len()));
        catchup_rate = catchup_rate.max(applied as f64 / took);
    }
    out.layer_default("core.catchup_rows_per_s", catchup_rate);
}

/// `cluster`: a 4-shard hash cluster (every query fans out) and a range
/// cluster (single-target queries); returns the fan-out query median in
/// microseconds for `net.hop_overhead_us`.
fn cluster(inputs: &Inputs, base: &[Row], fresh: &[Row], out: &mut Outcome) -> f64 {
    let synopsis = synopsis_config(inputs, base.len() / SHARDS);
    let hash = ClusterConfig::new(synopsis.clone(), SHARDS, ShardPolicy::HashById);
    let opts = QueryOptions::default().no_cache();

    let route_s = best_s(|| {
        let mut router = ShardRouter::new(ShardPolicy::HashById, SHARDS).expect("router");
        timed(|| {
            fresh.iter().for_each(|r| {
                black_box(router.route(r));
            })
        })
        .1
    });
    out.layer_default("cluster.route_ns", route_s * 1e9 / fresh.len() as f64);

    let (mut bootstrap_s, mut publish_s, mut routed_s, mut pump_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut kept = None;
    for _ in 0..REPS {
        let (built, took) =
            timed(|| ClusterEngine::bootstrap(hash.clone(), base.to_vec()).expect("bootstrap"));
        bootstrap_s = bootstrap_s.min(took);
        let batches: Vec<Vec<ShardOp>> = fresh
            .chunks(SLICE)
            .map(|c| c.iter().cloned().map(ShardOp::Insert).collect())
            .collect();
        publish_s = publish_s.min(
            timed(|| {
                for batch in batches {
                    assert_eq!(built.publish_batch(batch).rejected, 0);
                }
            })
            .1,
        );
        pump_s = pump_s.min(timed(|| built.pump_all().expect("pump")).1);

        let routed = ClusterEngine::bootstrap(hash.clone(), base.to_vec()).expect("bootstrap");
        let snapshot = routed.routing_snapshot();
        let grouped: Vec<Vec<(usize, Vec<Row>)>> = fresh
            .chunks(SLICE)
            .map(|chunk| {
                let mut groups: Vec<Vec<Row>> = vec![Vec::new(); SHARDS];
                for row in chunk {
                    groups[snapshot.route(row).expect("hash routes statelessly")].push(row.clone());
                }
                groups
                    .into_iter()
                    .enumerate()
                    .filter(|(_, g)| !g.is_empty())
                    .collect()
            })
            .collect();
        routed_s = routed_s.min(
            timed(|| {
                for groups in grouped {
                    let report = routed
                        .publish_batch_routed(snapshot.generation, groups)
                        .expect("routed publish");
                    assert_eq!(report.rejected, 0);
                }
            })
            .1,
        );
        kept = Some(built);
    }
    let hashed = kept.expect("REPS > 0");
    out.layer_default("cluster.bootstrap_s", bootstrap_s);
    out.layer_default("cluster.publish_rows_per_s", fresh.len() as f64 / publish_s);
    out.layer_default(
        "cluster.publish_routed_rows_per_s",
        fresh.len() as f64 / routed_s,
    );
    out.layer_default("cluster.pump_rows_per_s", fresh.len() as f64 / pump_s);

    // One scatter taken apart: pruning, the slowest shard's synopsis
    // answer (a gather waits for it), and what is left — queue wait, wake,
    // gather and merge, the coordinator's self time.
    let router = ShardRouter::new(ShardPolicy::HashById, SHARDS).expect("router");
    let (mut overlap_ns, mut fanout_ns, mut slowest_ns) =
        (Samples::default(), Samples::default(), Samples::default());
    for _ in 0..REPS {
        for q in &inputs.queries {
            let t0 = Instant::now();
            let targets = black_box(router.overlapping(q));
            overlap_ns.push(t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            black_box(hashed.query_with(q, opts).expect("query"));
            fanout_ns.push(t0.elapsed().as_nanos() as u64);
            let mut slowest = 0u64;
            for shard in targets {
                let t0 = Instant::now();
                black_box(hashed.with_shard_engine(shard, |e| e.dpt().answer(q, e.reservoir())))
                    .expect("answer");
                slowest = slowest.max(t0.elapsed().as_nanos() as u64);
            }
            slowest_ns.push(slowest);
        }
    }
    let fanout_us = fanout_ns.us(0.5);
    let overlap_us = overlap_ns.us(0.5);
    let slowest_us = slowest_ns.us(0.5);
    out.layer_default("cluster.overlapping_ns", overlap_us * 1e3);
    out.layer_default("cluster.query_us_fanout", fanout_us);
    out.layer_default("cluster.shard_answer_max_us", slowest_us);
    out.layer_default(
        "cluster.scatter_overhead_us",
        fanout_us - overlap_us - slowest_us,
    );
    let stats = hashed.stats();
    out.layer_default(
        "cluster.subqueries_per_query",
        stats.subqueries as f64 / stats.queries.max(1) as f64,
    );
    out.layer_default("cluster.partial_answers", stats.partial_answers as f64);

    // Checkpoint of the whole cluster into an in-memory store.
    let store = MemoryCheckpointStore::new();
    let save_s = best_s(|| timed(|| hashed.checkpoint().save(&store, 0).expect("save")).1);
    out.layer_default("storage.checkpoint_save_s", save_s);
    out.layer_default(
        "storage.checkpoint_bytes",
        store.get(0).map_or(0, |payload| payload.len()) as f64,
    );

    // Range routing: queries that fall inside one shard's slab are served
    // inline, without the scatter pool; and a second ask is a cache hit.
    let all: Vec<Row> = base.iter().chain(fresh).cloned().collect();
    let policy = ShardPolicy::range_from_rows(inputs.key_col, &all, SHARDS).expect("range policy");
    let ranged = ClusterEngine::bootstrap(
        ClusterConfig::new(synopsis, SHARDS, policy.clone())
            .with_answer_cache(inputs.queries.len()),
        all,
    )
    .expect("bootstrap");
    let router = ShardRouter::new(policy, SHARDS).expect("router");
    let single: Vec<&Query> = inputs
        .queries
        .iter()
        .filter(|q| router.overlapping(q).len() == 1)
        .collect();
    let (mut single_ns, mut hit_ns) = (Samples::default(), Samples::default());
    for q in &single {
        for _ in 0..REPS {
            let t0 = Instant::now();
            black_box(ranged.query_with(q, opts).expect("query"));
            single_ns.push(t0.elapsed().as_nanos() as u64);
        }
        ranged.query(q).expect("prime the cache");
        let t0 = Instant::now();
        black_box(ranged.query(q).expect("cached query"));
        hit_ns.push(t0.elapsed().as_nanos() as u64);
    }
    if !single.is_empty() {
        out.layer_default("cluster.query_us_1target", single_ns.us(0.5));
        out.layer_default("cluster.cache_hit_us", hit_ns.us(0.5));
    }
    let stats = ranged.stats();
    out.layer_default(
        "cluster.cache_hit_rate",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
    fanout_us
}

/// `load`: the bulk loader at one and two threads into fresh clusters.
fn load(inputs: &Inputs, ctx: &Ctx, base: &[Row], fresh: &[Row], out: &mut Outcome) {
    let dir = ctx
        .out_dir
        .join(format!("probe-chunks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_rows_chunked(&dir, fresh, 16 * SLICE).expect("write chunk files");
    let config = ClusterConfig::new(
        synopsis_config(inputs, base.len() / SHARDS),
        SHARDS,
        ShardPolicy::HashById,
    );
    let mut rejected = 0usize;
    for (threads, name) in [(1, "load.rows_per_s_1t"), (2, "load.rows_per_s_2t")] {
        let load_s = best_s(|| {
            let target =
                ClusterEngine::bootstrap(config.clone(), base.to_vec()).expect("bootstrap");
            let (report, took) = timed(|| {
                BulkLoader::new(&target, &dir)
                    .with_config(LoadConfig {
                        threads,
                        batch_rows: SLICE,
                        ..LoadConfig::default()
                    })
                    .load()
                    .expect("bulk load")
            });
            rejected += report.rows_rejected;
            took
        });
        out.layer_default(name, fresh.len() as f64 / load_s);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.layer_default("load.rows_rejected", rejected as f64);
}

/// `net`: the codec on its own, then a fleet bootstrapped on `base`,
/// shipped `fresh`, and queried — against `fanout_us`, the same queries on
/// the same data in process.
fn net(inputs: &Inputs, base: &[Row], fresh: &[Row], fanout_us: f64, out: &mut Outcome) {
    let query_frames: Vec<Frame> = inputs
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| Frame::Query {
            id: i as u64,
            shard: (i % SHARDS) as u32,
            moments: false,
            min_applied: 0,
            tenant: 0,
            deadline_ms: 0,
            query: q.clone(),
        })
        .collect();
    let batch_frames: Vec<Frame> = fresh
        .chunks(SLICE)
        .take(32)
        .enumerate()
        .map(|(i, c)| Frame::PublishBatch {
            shard: (i % SHARDS) as u32,
            first_offset: (i * SLICE) as u64,
            ops: c.iter().cloned().map(ShardOp::Insert).collect(),
        })
        .collect();
    let codec = |frames: &[Frame]| {
        let mut encoded = Vec::new();
        let encode_s = best_s(|| {
            let (bytes, took) = timed(|| frames.iter().map(encode_frame).collect::<Vec<_>>());
            encoded = bytes;
            took
        });
        let decode_s = best_s(|| {
            timed(|| {
                for bytes in &encoded {
                    black_box(decode_payload(&bytes[4..]).expect("decode"));
                }
            })
            .1
        });
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        let n = frames.len().max(1) as f64;
        (encode_s * 1e9 / n, decode_s * 1e9 / n, bytes)
    };
    let (encode_ns, decode_ns, _) = codec(&query_frames);
    out.layer_default("net.encode_ns_query", encode_ns);
    out.layer_default("net.decode_ns_query", decode_ns);
    let (encode_ns, decode_ns, bytes) = codec(&batch_frames);
    out.layer_default("net.encode_ns_batch", encode_ns);
    out.layer_default("net.decode_ns_batch", decode_ns);
    let rows_framed: usize = batch_frames
        .iter()
        .map(|f| match f {
            Frame::PublishBatch { ops, .. } => ops.len(),
            _ => 0,
        })
        .sum();
    out.layer_default(
        "net.frame_bytes_per_row",
        bytes as f64 / rows_framed.max(1) as f64,
    );

    let synopsis = synopsis_config(inputs, base.len() / SHARDS);
    let config = RemoteConfig::new(synopsis, SHARDS, ShardPolicy::HashById);
    let (mut bootstrap_s, mut publish_s, mut drain_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut query_ns = Samples::default();
    let mut stats = None;
    for _ in 0..REPS {
        let (fleet, took) = Fleet::start(config.clone(), base.to_vec());
        bootstrap_s = bootstrap_s.min(took);
        let batches: Vec<Vec<ShardOp>> = fresh
            .chunks(SLICE)
            .map(|c| c.iter().cloned().map(ShardOp::Insert).collect())
            .collect();
        let publish = timed(|| {
            for batch in batches {
                assert_eq!(fleet.remote.publish_batch(batch).rejected, 0);
            }
        })
        .1;
        let drain = timed(|| fleet.remote.drain()).1;
        // Shipping runs behind `publish_batch`, so the rate that counts
        // is rows per second until the drain barrier.
        if publish + drain < publish_s + drain_s {
            (publish_s, drain_s) = (publish, drain);
        }
        for q in &inputs.queries[..inputs.queries.len().min(500)] {
            let t0 = Instant::now();
            black_box(fleet.remote.query(q).expect("query"));
            query_ns.push(t0.elapsed().as_nanos() as u64);
        }
        stats = Some(fleet.remote.stats());
        fleet.stop();
    }
    let stats = stats.expect("REPS > 0");
    out.layer_default("net.bootstrap_s", bootstrap_s);
    out.layer_default(
        "net.publish_rows_per_s",
        fresh.len() as f64 / (publish_s + drain_s),
    );
    out.layer_default("net.drain_s", drain_s);
    let query_us = query_ns.us(0.5);
    out.layer_default("net.query_us", query_us);
    out.layer_default("net.hop_overhead_us", query_us - fanout_us);
    out.layer_default("net.link_retries", stats.link_retries as f64);
    out.layer_default("net.failovers", stats.failovers as f64);
}
