//! `cluster_scatter` — a `ClusterEngine` of 4 hash shards (every query
//! fans out to all 4), answer cache off, no ingest during the timed phase:
//! 2 closed-loop clients issue `query_with` back to back. Per-shard
//! synopsis answers are a fraction of a scatter's cost, so the coordinator
//! (route → scatter queue → gather → merge) is most of the wall time — the
//! regime ROADMAP items 3 and 4 are about. `core` does little here, and
//! `load` owns set-up: the second half of the rows arrives through
//! `BulkLoader` from chunk files.

use super::{
    accuracy_pass, closed_loop_pass, is_failure, median_setup_s, pooled_clients, record_queries,
    replay_scatter, synopsis_config, CLIENTS, SHARDS, SLICE,
};
use crate::inputs::Inputs;
use crate::oracle::Oracle;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use janus_cluster::{ClusterConfig, ClusterEngine, QueryOptions, ShardPolicy, ShardRouter};
use janus_data::write_rows_chunked;
use janus_load::{BulkLoader, LoadConfig};
use std::time::Instant;

pub fn run(inputs: &Inputs, ctx: &Ctx) -> Outcome {
    let size = &ctx.sizing;
    let mut out = Outcome::new(Tracer::new(ctx.trace, Instant::now()));
    out.input_digest = inputs.digest(&[]);
    let bootstrap_rows = size.rows / 2;
    let config = ClusterConfig::new(
        synopsis_config(inputs, bootstrap_rows / SHARDS),
        SHARDS,
        ShardPolicy::HashById,
    );

    // The second half of the rows as chunk files (harness I/O, untimed).
    let started = Instant::now();
    let dir = ctx.out_dir.join(format!("chunks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_rows_chunked(&dir, &inputs.rows[bootstrap_rows..], 16 * SLICE)
        .expect("write chunk files");
    out.extra_gen_s = started.elapsed().as_secs_f64();

    // Set-up: bootstrap on the first half, bulk-load the second. The load
    // is also the only writing this workload does, so its rate — chunk
    // read → routed publish → pump, until every row is visible — is the
    // workload's update throughput (best of the set-ups, as the windows of
    // the other workloads are best of their passes).
    let loaded = size.rows - bootstrap_rows;
    let (mut attempted, mut failed, mut rejected) = (0u64, 0u64, 0usize);
    let (mut bootstrap_s, mut load_s) = (Vec::new(), Vec::new());
    let mut set_up = || {
        let rows = inputs.rows[..bootstrap_rows].to_vec();
        let started = Instant::now();
        let built = ClusterEngine::bootstrap(config.clone(), rows).expect("bootstrap");
        let booted = started.elapsed().as_secs_f64();
        let load = BulkLoader::new(&built, &dir)
            .with_config(LoadConfig {
                threads: 1,
                batch_rows: SLICE,
                ..LoadConfig::default()
            })
            .load()
            .expect("bulk load");
        let total = started.elapsed().as_secs_f64();
        bootstrap_s.push(booted);
        load_s.push(total - booted);
        attempted += loaded as u64;
        failed += (loaded - load.rows_published.min(loaded)) as u64;
        rejected += load.rows_rejected;
        (built, total)
    };
    // The query phase runs on the first system built. The other set-ups
    // (see `Sizing::setup_reps`) are built and dropped between its passes:
    // that spreads both over the run, so that a slow spell of the host
    // cannot cover every pass or every set-up.
    let (cluster, first_setup_s) = set_up();
    let mut setup_s = vec![first_setup_s];

    // Timed phase.
    let opts = QueryOptions::default().no_cache();
    let router = ShardRouter::new(cluster.policy(), SHARDS).expect("router");
    let mut per_client = Default::default();
    for pass in 0..size.passes {
        closed_loop_pass(
            &mut out,
            &mut per_client,
            inputs,
            ctx,
            size.scatter_windows,
            size.scatter_window_queries,
            |query, tracer, parent, req| {
                let answer = tracer.call("cluster.query_with", parent, req, 1, || {
                    cluster.query_with(query, opts)
                });
                is_failure(&answer)
            },
            |query, tracer, parent, req| {
                replay_scatter(&cluster, &router, query, tracer, parent, req)
            },
        );
        if pass == 0 {
            // Before a second system exists beside the first.
            out.e2e.set("peak_rss_mb", peak_rss_mb());
        }
        if setup_s.len() < size.setup_reps {
            setup_s.push(set_up().1);
        }
    }
    record_queries(&mut out, &mut pooled_clients(per_client), CLIENTS);

    // Quiescent end state.
    let pair = |row: &janus_common::Row| (row.value(inputs.key_col), row.value(inputs.agg_col));
    let oracle = Oracle::new(inputs.rows.iter().map(pair).collect());
    out.population = (cluster.population() as u64, oracle.rows() as u64);
    accuracy_pass(
        &mut out,
        inputs,
        ctx,
        &oracle,
        |q| cluster.query_with(q, opts).map_err(|e| e.to_string()),
        Some(&mut |q| cluster.evaluate_exact(q)),
    );
    let stats = cluster.stats();
    out.layers
        .set("cluster.partial_answers", stats.partial_answers as f64);
    if ctx.trace {
        out.layers.set(
            "cluster.subqueries_per_query",
            stats.subqueries as f64 / stats.queries.max(1) as f64,
        );
    }
    drop(cluster);

    let setup_s = median_setup_s(setup_s, size.setup_reps, || set_up().1);
    let _ = std::fs::remove_dir_all(&dir);
    out.e2e.set("setup_s", setup_s);
    let best_load_s = load_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.e2e
        .set("update_rows_per_s", loaded as f64 / best_load_s);
    out.plain.set(
        "update_rows_per_s",
        (loaded * load_s.len()) as f64 / load_s.iter().sum::<f64>(),
    );
    out.attempted += attempted;
    out.failed += failed + rejected as u64;
    out.layers.set("load.rows_rejected", rejected as f64);
    if ctx.trace {
        out.layers.set("cluster.bootstrap_s", median(bootstrap_s));
    }
    out
}
