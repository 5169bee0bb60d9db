//! `engine_stream` — the paper's own §6 setting: one `JanusEngine`, one
//! thread, closed loop. Bootstrap on the first half of the rows, then a
//! stream of 80% inserts (arrival order) and 20% deletes (uniform over
//! live rows), with the whole query set asked in a burst after every
//! window of updates. `core`, `index`, `sampling` and `storage::archive`
//! do all the work and `cluster`/`net` do none, and the skewed stream
//! makes the re-partition triggers fire — so a DPT, reservoir or
//! max-variance optimisation shows here and nowhere else.

use super::{
    accuracy_pass, is_failure, record_queries, record_updates, synopsis_config, STREAM_SEED,
};
use crate::inputs::{DeletePool, Inputs, OpStream, Rng};
use crate::oracle::Oracle;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, Phase, Samples, Window};
use crate::trace::{Tracer, NONE};
use crate::Ctx;
use janus_cluster::ShardOp;
use janus_core::JanusEngine;
use std::time::Instant;

pub fn run(inputs: &Inputs, ctx: &Ctx) -> Outcome {
    let size = &ctx.sizing;
    let mut out = Outcome::new(Tracer::new(ctx.trace, Instant::now()));
    let bootstrap_rows = size.rows / 2;

    let started = Instant::now();
    let stream = OpStream::generate(
        inputs,
        bootstrap_rows,
        size.stream_ops,
        0.2,
        DeletePool::AllLive,
        Rng::fork(STREAM_SEED, 0xe5),
    );
    out.input_digest = inputs.digest(&stream.ops);
    let order = Rng::fork(inputs.seed, 0xb5).permutation(inputs.queries.len());
    out.extra_gen_s = started.elapsed().as_secs_f64();

    let config = synopsis_config(inputs, bootstrap_rows);
    let set_up = || {
        let rows = inputs.rows[..bootstrap_rows].to_vec();
        let started = Instant::now();
        let engine = JanusEngine::bootstrap(config.clone(), rows).expect("bootstrap");
        (engine, started.elapsed().as_secs_f64())
    };
    let n_ops = stream.ops.len();
    let mut setup_s = Vec::new();
    let (mut update_passes, mut query_passes) = (Vec::new(), Vec::new());
    let mut replay_ns = Samples::default();
    let mut engine = None;
    let mut failed = 0u64;
    for _ in 0..size.passes {
        // Set-up: bootstrap (sample, partition, build the DPT, catch up to
        // the goal) on a fresh copy of the first half.
        drop(engine.take());
        let ops = stream.ops.clone();
        // A bootstrap takes a fifth of a second and its time moves with
        // the allocator's state (0.16–0.38 s inside one run), so two are
        // timed per pass, both in memory the previous engine just freed.
        setup_s.push(set_up().1);
        let (mut fresh, took) = set_up();
        setup_s.push(took);

        let (mut update_windows, mut query_windows) = (Vec::new(), Vec::new());
        let phase = Instant::now();
        let root = out.tracer.open("harness.timed", NONE, NONE);
        let mut ops = ops.into_iter();
        let (mut done, mut asked) = (0usize, 0usize);
        while done < n_ops {
            let chunk = size.burst_every.min(n_ops - done);
            let started = Instant::now();
            for (i, op) in ops.by_ref().take(chunk).enumerate() {
                let req = (done + i) as u32;
                let ok = match op {
                    ShardOp::Insert(row) => out
                        .tracer
                        .call("core.insert", root, req, 1, || fresh.insert(row).is_ok()),
                    ShardOp::Delete(id) => out
                        .tracer
                        .call("core.delete", root, req, 1, || fresh.delete(id).is_ok()),
                };
                failed += !ok as u64;
            }
            update_windows.push(Window {
                wall_ns: started.elapsed().as_nanos() as u64,
                work: chunk as u64,
                latencies: Samples::default(),
            });
            done += chunk;

            let mut burst = Samples::with_capacity(size.burst_queries);
            let started = Instant::now();
            for _ in 0..size.burst_queries {
                let query = &inputs.queries[order[asked % order.len()]];
                let req = (n_ops + asked) as u32;
                let t0 = Instant::now();
                let span = out.tracer.open("core.query", root, req);
                let answer = fresh.query(query);
                out.tracer.close(span, 1);
                burst.push(t0.elapsed().as_nanos() as u64);
                failed += is_failure(&answer) as u64;
                asked += 1;
                if out.tracer.is_on() && asked % size.replay_every == 0 {
                    // The synopsis descent on its own, without the
                    // engine's template dispatch around it.
                    let replay = out.tracer.open("harness.replay", root, req);
                    let t0 = Instant::now();
                    let inner = out.tracer.open("core.dpt_answer", replay, req);
                    let _ = std::hint::black_box(fresh.dpt().answer(query, fresh.reservoir()));
                    out.tracer.close(inner, 1);
                    replay_ns.push(t0.elapsed().as_nanos() as u64);
                    out.tracer.close(replay, 1);
                }
            }
            query_windows.push(Window {
                wall_ns: started.elapsed().as_nanos() as u64,
                work: size.burst_queries as u64,
                latencies: burst,
            });
        }
        out.tracer.close(root, n_ops + asked);
        out.timed_wall_s += phase.elapsed().as_secs_f64();
        out.attempted += (n_ops + asked) as u64;
        if update_passes.is_empty() {
            out.e2e.set("peak_rss_mb", peak_rss_mb());
        }
        update_passes.push(update_windows);
        query_passes.push(query_windows);
        engine = Some(fresh);
    }
    let mut engine = engine.expect("at least one pass");
    out.failed = failed;
    record_updates(&mut out, &Phase::from_passes(update_passes));
    let mut queries = Phase::from_passes(query_passes);
    record_queries(&mut out, &mut queries, 1);

    // Quiescent end state (the same after every pass): accuracy against
    // the oracle, population, and the program's exact scan against the
    // oracle. `query` needs `&mut` for its counter; the synopsis answer it
    // delegates to does not.
    let oracle = Oracle::new(stream.live_after);
    out.population = (engine.population() as u64, oracle.rows() as u64);
    let stats = engine.stats();
    accuracy_pass(
        &mut out,
        inputs,
        ctx,
        &oracle,
        |q| {
            engine
                .dpt()
                .answer(q, engine.reservoir())
                .map_err(|e| e.to_string())
        },
        Some(&mut |q| engine.evaluate_exact(q)),
    );

    let setup_s = median(setup_s);
    out.e2e.set("setup_s", setup_s);
    if ctx.trace {
        let (_, insert_ns, insert_max) = out.tracer.durations("core.insert");
        let (_, delete_ns, delete_max) = out.tracer.durations("core.delete");
        let query_us = queries.latency_us(0.5);
        let layers = &mut out.layers;
        layers.set("core.bootstrap_s", setup_s);
        layers.set("core.insert_ns", insert_ns);
        layers.set("core.delete_ns", delete_ns);
        layers.set(
            "core.update_stall_max_ms",
            insert_max.max(delete_max) as f64 / 1e6,
        );
        layers.set("core.query_us", query_us);
        if !replay_ns.is_empty() {
            layers.set("core.dpt_answer_us", replay_ns.us(0.5));
        }
        layers.set("core.repartitions", stats.repartitions as f64);
        layers.set(
            "core.partial_repartitions",
            stats.partial_repartitions as f64,
        );
        layers.set(
            "core.rejected_repartitions",
            stats.rejected_repartitions as f64,
        );
        layers.set("core.resamples", stats.resamples as f64);
        layers.set("core.catchup_applied", stats.catchup_applied as f64);
        // Re-optimisation from scratch at the end of the stream (paper
        // Fig. 5 right); after the accuracy pass so it cannot flatter it.
        let started = Instant::now();
        engine.reinitialize().expect("reinitialize");
        layers.set("core.reopt_s", started.elapsed().as_secs_f64());
    }
    out
}
