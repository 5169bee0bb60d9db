//! `live_mixed` — writers beside readers: a `LiveCluster` over 4 *range*
//! shards on `pickup_time`, answer cache on (256 entries for a working set
//! of 512 rectangles asked uniformly).
//!
//! One generator thread pushes updates through the `RequestLog` in
//! 1,024-op slices at a fixed rate, 90% inserts in arrival order — they
//! land on the newest shard — and 10% deletes of recent rows, and waits
//! after each slice until `drain()` says it is applied and query-visible.
//! The other issues `query_with` *open loop*: Poisson arrivals at a fixed
//! rate, each latency timed from its due time. Both offered rates are fixed
//! so that what moves is the cost of a read beside writes and of a write
//! beside reads, and so that no metric worsens merely because another
//! improved: a read-path gain bought by holding shard locks longer, or an
//! ingest gain that starves readers, shows as a loss here. The rates the
//! workload reports are therefore not the offered ones, which are
//! constants, but work over the time a generator spent *waiting for the
//! program*: updates over publish-to-visible time, queries over time
//! inside `query_with`.
//! It is also the only workload where routing prunes, the cache can hit
//! (rectangles that lie wholly in history) and gets invalidated (those
//! that touch the live shard).
//!
//! Three departures from the issue's sketch, each forced by what the seed
//! code does:
//!
//! * Shard bounds are the quartiles of the *bootstrap* rows, not of the
//!   whole dataset: an engine sizes its reservoir once, at bootstrap, so a
//!   shard that starts empty would answer from 32 samples for ever.
//! * Ingest is paced, not closed-loop. At saturation (about 730k ops/s)
//!   the hot shard's pump worker re-takes its write lock before a waiting
//!   reader is scheduled, and a read of that shard waits until ingest ends
//!   (measured: p50 0.3 s, whatever the query rate). Offered at a fifth of
//!   that, the pump idles between chunks and reads get in.
//! * Queries are uniform over a working set twice the cache's size, not
//!   Zipf(1.1) over all 2,000: under Zipf the ten most popular rectangles
//!   draw a third of the traffic, so the seed decided whether the typical
//!   read was a cache hit, a one-shard read or a three-shard scatter
//!   (p50 243–550 µs across seeds, against ±19% for one seed).

use super::{
    accuracy_pass, in_process_twin, is_failure, mismatches, open_loop, record_queries,
    record_updates, replay_scatter, synopsis_config, Answer, Clock, Issued, WallClock, SHARDS,
    SLICE, STREAM_SEED,
};
use crate::inputs::{DeletePool, Inputs, OpStream, PoissonArrivals, Rng};
use crate::oracle::Oracle;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, Phase, Samples, Window};
use crate::trace::{Tracer, NONE};
use crate::Ctx;
use janus_cluster::{
    ClusterConfig, ClusterEngine, LiveCluster, LiveConfig, QueryOptions, ShardOp, ShardPolicy,
    ShardRouter,
};
use janus_storage::RequestLog;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Answer-cache capacity: half the working set of rectangles.
const CACHE_ENTRIES: usize = 256;

/// Latency limit of the `cluster.slo_miss_rate` layer metric: 2 ms.
const SLO_NS: u64 = 2_000_000;

/// What the query thread saw besides latencies (traced runs only).
#[derive(Default)]
struct Sampled {
    backlog_rows: Samples,
    frontend_lag: Samples,
    hit_ns: Samples,
    hits: u64,
    lookups: u64,
}

pub fn run(inputs: &Inputs, ctx: &Ctx) -> Outcome {
    let size = &ctx.sizing;
    let mut out = Outcome::new(Tracer::new(ctx.trace, Instant::now()));
    let bootstrap_rows = size.rows / 2;

    let started = Instant::now();
    let policy =
        ShardPolicy::range_from_rows(inputs.key_col, &inputs.rows[..bootstrap_rows], SHARDS)
            .expect("range policy");
    let ShardPolicy::Range { bounds, .. } = &policy else {
        unreachable!("range_from_rows returns a range policy")
    };
    let hot_from = *bounds.last().expect("4 shards have 3 bounds");
    let stream = OpStream::generate(
        inputs,
        bootstrap_rows,
        size.live_ops,
        0.1,
        DeletePool::KeyAtLeast(hot_from),
        Rng::fork(STREAM_SEED, 0x11fe),
    );
    out.input_digest = inputs.digest(&stream.ops);
    let working_set = &inputs.queries[..inputs.queries.len().min(2 * CACHE_ENTRIES)];
    out.extra_gen_s = started.elapsed().as_secs_f64();

    let base = synopsis_config(inputs, bootstrap_rows / SHARDS);
    let config = ClusterConfig::new(base, SHARDS, policy.clone()).with_answer_cache(CACHE_ENTRIES);
    let router = ShardRouter::new(policy, SHARDS).expect("router");
    let opts = QueryOptions::default();

    let set_up = || {
        let rows = inputs.rows[..bootstrap_rows].to_vec();
        let requests = RequestLog::shared();
        let started = Instant::now();
        let cluster = ClusterEngine::bootstrap(config.clone(), rows).expect("bootstrap");
        let live = LiveCluster::wrap(cluster, Arc::clone(&requests), LiveConfig::default())
            .expect("live wrap");
        (live, requests, started.elapsed().as_secs_f64())
    };
    let mut setup_s = Vec::new();
    let (mut update_passes, mut service_passes, mut due_passes) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut lateness = Samples::default();
    let mut sampled = Sampled::default();
    let mut live = None;
    for _ in 0..size.live_passes {
        drop(live.take());
        let ops = stream.ops.clone();
        // Two set-ups are timed per pass, as on `engine_stream`.
        setup_s.push(set_up().2);
        let (fresh, requests, took) = set_up();
        setup_s.push(took);

        let n_ops = ops.len();
        let drained = AtomicBool::new(false);
        let phase = Instant::now();
        // Both generators sleep to within 80 us of a due time and spin
        // the rest: a generator that spun through whole gaps would hold
        // one of the two cores (measured: +60% on the median read).
        let clock = WallClock {
            start: phase,
            spin_ns: 80_000,
        };
        let mut publisher_tracer = out.tracer.sibling();
        let mut query_tracer = out.tracer.sibling();
        // The same arrivals and picks in every pass: passes must be
        // identical for the best of them to mean the least disturbed.
        let arrivals = PoissonArrivals::new(size.live_query_rate, Rng::fork(inputs.seed, 0x9015));
        let mut picks = Rng::fork(inputs.seed, 0x21ff);
        let (cuts, (issued, failed)) = std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                let tracer = &mut publisher_tracer;
                let root = tracer.open("harness.timed", NONE, NONE);
                let mut cuts = Vec::new();
                let mut cut = Cut::default();
                let mut published = 0usize;
                let mut ops = ops.into_iter();
                while published < n_ops {
                    // Paced: a slice falls due every `SLICE / rate` seconds.
                    let span = tracer.open("harness.wait", root, NONE);
                    clock.wait_until((published as f64 / size.live_update_rate * 1e9) as u64);
                    tracer.close(span, 0);
                    let slice = SLICE.min(n_ops - published);
                    let started = Instant::now();
                    let span = tracer.open("storage.request_log_publish", root, published as u32);
                    for op in ops.by_ref().take(slice) {
                        match op {
                            ShardOp::Insert(row) => requests.publish_insert(row),
                            ShardOp::Delete(id) => requests.publish_delete(id),
                        };
                    }
                    tracer.close(span, slice);
                    tracer.call("cluster.live_drain", root, published as u32, slice, || {
                        fresh.drain()
                    });
                    cut.busy_ns += started.elapsed().as_nanos() as u64;
                    cut.ops += slice;
                    published += slice;
                    // A short tail joins the last full window.
                    if published == n_ops
                        || (published.is_multiple_of(size.live_window_ops)
                            && n_ops - published >= size.live_window_ops)
                    {
                        cut.at_ns = clock.now_ns();
                        cuts.push(std::mem::take(&mut cut));
                    }
                }
                drained.store(true, Ordering::Release);
                tracer.close(root, n_ops);
                cuts
            });
            let asker = scope.spawn(|| {
                let tracer = &mut query_tracer;
                let clock_offset_ns = tracer.now_ns().saturating_sub(clock.now_ns());
                let root = tracer.open("harness.timed", NONE, NONE);
                let mut failed = 0u64;
                let engine = fresh.engine();
                let issued = open_loop(
                    &clock,
                    arrivals,
                    || drained.load(Ordering::Acquire),
                    |i| {
                        let query = &working_set[picks.below(working_set.len())];
                        let req = i as u32;
                        // A traced run also reads the backlog and the
                        // cache counters where the reader stands. This
                        // thread is the only client, so a moved hit
                        // counter is its own hit.
                        let traced = tracer.is_on();
                        let hits_before = if traced {
                            sampled.backlog_rows.push(engine.pending());
                            sampled.frontend_lag.push(fresh.frontend_lag());
                            engine.stats().cache_hits
                        } else {
                            0
                        };
                        let t0 = Instant::now();
                        let answer = tracer.call("cluster.query_with", root, req, 1, || {
                            engine.query_with(query, opts)
                        });
                        let took = t0.elapsed().as_nanos() as u64;
                        failed += is_failure(&answer) as u64;
                        if traced {
                            sampled.lookups += 1;
                            if engine.stats().cache_hits > hits_before {
                                sampled.hits += 1;
                                sampled.hit_ns.push(took);
                            }
                            if (i + 1).is_multiple_of(size.replay_every) {
                                let span = tracer.open("harness.replay", root, req);
                                replay_scatter(engine, &router, query, tracer, span, req);
                                tracer.close(span, 1);
                            }
                        }
                    },
                );
                // The time this generator spent waiting for due times, so
                // that it is not mistaken for unattributed harness time.
                let mut idle_from = 0u64;
                for r in &issued {
                    tracer.record(
                        "harness.wait",
                        root,
                        clock_offset_ns + idle_from,
                        clock_offset_ns + r.started_ns,
                    );
                    idle_from = r.ended_ns;
                }
                tracer.close(root, issued.len());
                (issued, failed)
            });
            (
                publisher.join().expect("publisher panicked"),
                asker.join().expect("query thread panicked"),
            )
        });
        out.timed_wall_s += phase.elapsed().as_secs_f64() * 2.0;
        out.tracer.absorb(publisher_tracer);
        out.tracer.absorb(query_tracer);
        out.attempted += (n_ops + issued.len()) as u64;
        let live_stats = fresh.live_stats();
        out.failed += failed + live_stats.rejected_requests + live_stats.records_skipped;
        for r in &issued {
            lateness.push(r.lateness_ns());
        }
        let (updates, service, due) = windows_of(&cuts, &issued);
        if update_passes.is_empty() {
            out.e2e.set("peak_rss_mb", peak_rss_mb());
        }
        update_passes.push(updates);
        service_passes.push(service);
        due_passes.push(due);
        live = Some(fresh);
    }
    let live = live.expect("at least one pass");
    record_updates(&mut out, &Phase::from_passes(update_passes));
    // The median read is reported by its service time, the tail from the
    // time each read fell *due*. Timed from due, the median mostly measures
    // how late a sleeping generator thread wakes on a busy 2-core box
    // (spread 60% across seeds, against 15% for the service time); in the
    // tail the due time is what matters — a stall is charged to every read
    // it delayed — and the generator's own lateness is reported beside it.
    record_queries(&mut out, &mut Phase::from_passes(service_passes), 1);
    let mut pooled = Phase::from_passes(due_passes).pooled();
    out.layers
        .set("run.query_p99_us", pooled.us_supported(0.99));
    out.layers
        .set("cluster.query_p999_us", pooled.us_supported(0.999));
    // A failed read has no latency that could meet the limit, and none failed.
    out.layers
        .set("cluster.slo_miss_rate", pooled.share_above(SLO_NS));
    out.layers
        .set("harness.lateness_p99_us", lateness.us_supported(0.99));

    // Quiescent end state: accuracy, population, and bit-identity with a
    // synchronous cluster fed the same operations.
    let engine = live.engine();
    let oracle = Oracle::new(stream.live_after);
    out.population = (engine.population() as u64, oracle.rows() as u64);
    let answers = accuracy_pass(
        &mut out,
        inputs,
        ctx,
        &oracle,
        |q| engine.query_with(q, opts).map_err(|e| e.to_string()),
        Some(&mut |q| engine.evaluate_exact(q)),
    );
    let twin = in_process_twin(
        config.clone(),
        inputs.rows[..bootstrap_rows].to_vec(),
        &stream.ops,
    );
    let twin_answers: Vec<Answer> = inputs
        .queries
        .iter()
        .map(|q| twin.query_with(q, opts).map_err(|e| e.to_string()))
        .collect();
    out.twin_mismatches = Some(
        mismatches(&answers, &twin_answers)
            + (engine.shard_populations() != twin.shard_populations()) as usize,
    );
    let stats = engine.stats();
    out.layers
        .set("cluster.partial_answers", stats.partial_answers as f64);
    drop(live);
    let setup_s = median(setup_s);
    out.e2e.set("setup_s", setup_s);
    if ctx.trace {
        let layers = &mut out.layers;
        layers.set("cluster.bootstrap_s", setup_s);
        layers.set(
            "cluster.subqueries_per_query",
            stats.subqueries as f64 / stats.queries.max(1) as f64,
        );
        layers.set(
            "cluster.cache_hit_rate",
            sampled.hits as f64 / sampled.lookups.max(1) as f64,
        );
        if !sampled.hit_ns.is_empty() {
            layers.set("cluster.cache_hit_us", sampled.hit_ns.us(0.5));
        }
        let q = sampled.backlog_rows.supported_q(0.99);
        layers.set(
            "cluster.backlog_p99_rows",
            sampled.backlog_rows.raw(q) as f64,
        );
        layers.set(
            "cluster.frontend_lag_p99",
            sampled.frontend_lag.raw(q) as f64,
        );
    }
    out
}

/// The end of one window of a pass, as the publisher saw it.
#[derive(Clone, Debug, Default)]
struct Cut {
    /// Phase clock when the window's last slice had become visible.
    at_ns: u64,
    /// Time from the first publish of each slice to the end of its
    /// `drain()`, summed over the window's slices.
    busy_ns: u64,
    ops: usize,
}

/// Cuts one pass into windows. An update window is the publisher's: its
/// operations over the time it spent waiting for them to become visible.
/// A query window holds the queries that fell *due* before the cut (the
/// last one also takes the stragglers), once by service time and once by
/// latency from the due time; its wall is the time spent inside the calls.
fn windows_of(cuts: &[Cut], issued: &[Issued]) -> (Vec<Window>, Vec<Window>, Vec<Window>) {
    let mut updates = Vec::with_capacity(cuts.len());
    let mut service = Vec::with_capacity(cuts.len());
    let mut due = Vec::with_capacity(cuts.len());
    let mut next = 0usize;
    for (i, cut) in cuts.iter().enumerate() {
        let last = i + 1 == cuts.len();
        updates.push(Window {
            wall_ns: cut.busy_ns,
            work: cut.ops as u64,
            latencies: Samples::default(),
        });
        let (mut by_service, mut by_due) = (Samples::default(), Samples::default());
        let mut in_calls_ns = 0u64;
        while next < issued.len() && (issued[next].due_ns < cut.at_ns || last) {
            by_service.push(issued[next].service_ns());
            by_due.push(issued[next].latency_ns());
            in_calls_ns += issued[next].service_ns();
            next += 1;
        }
        for (windows, latencies) in [(&mut service, by_service), (&mut due, by_due)] {
            windows.push(Window {
                wall_ns: in_calls_ns,
                work: latencies.len() as u64,
                latencies,
            });
        }
    }
    (updates, service, due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_follow_the_publisher_and_queries_go_by_due_time() {
        let at = |due_ns, service| Issued {
            due_ns,
            started_ns: due_ns + 1,
            ended_ns: due_ns + 1 + service,
        };
        // 250 ops in windows of 100: cuts after 100 and 200 ops and at the end.
        let cut = |at_ns, busy_ns, ops| Cut {
            at_ns,
            busy_ns,
            ops,
        };
        let cuts = [
            cut(1_000, 300, 100),
            cut(2_500, 450, 100),
            cut(4_000, 200, 50),
        ];
        let issued = [
            at(10, 5),
            at(999, 6),
            at(1_000, 7),
            at(2_499, 8),
            at(3_000, 9),
            at(4_100, 1),
        ];
        let (updates, service, due) = windows_of(&cuts, &issued);
        let shape: Vec<(u64, u64)> = updates.iter().map(|w| (w.wall_ns, w.work)).collect();
        assert_eq!(shape, [(300, 100), (450, 100), (200, 50)]);
        // The straggler due after the last cut still belongs to the last window.
        let shape: Vec<(u64, u64)> = service.iter().map(|w| (w.wall_ns, w.work)).collect();
        assert_eq!(shape, [(11, 2), (15, 2), (10, 2)]);
        assert_eq!(service[1].latencies.sum_ns(), 15);
        // From the due time every read also waited 1 ns for the generator.
        assert_eq!(due[1].latencies.sum_ns(), 17);
    }
}
