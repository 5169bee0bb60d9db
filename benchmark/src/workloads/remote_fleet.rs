//! `remote_fleet` — two in-process `NodeServer`s over localhost TCP behind
//! a `RemoteCluster` of 4 hash shards. Phase A ships updates with
//! `publish_batch` (1,024 per batch), draining after every window so each
//! window's operations are applied and query-visible when its clock stops;
//! phase B is 2 closed-loop clients issuing `query`. The phases run one
//! after the other (concurrency is `live_mixed`'s job). Frame encode,
//! socket, decode and the second, hand-copied coordinator in `net::remote`
//! dominate; `cluster_scatter` bypasses all of them, so a wire or
//! coordinator-unification change shows here and predicts "no change"
//! there.

use super::{
    accuracy_pass, closed_loop_pass, in_process_twin, is_failure, median_setup_s, mismatches,
    pooled_clients, record_queries, record_updates, synopsis_config, Answer, CLIENTS, SHARDS,
    SLICE, STREAM_SEED,
};
use crate::inputs::{DeletePool, Inputs, OpStream, Rng};
use crate::oracle::Oracle;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{Phase, Samples, Window};
use crate::trace::{Tracer, NONE};
use crate::Ctx;
use janus_cluster::{ClusterConfig, ShardPolicy};
use janus_net::wire::{decode_payload, encode_frame};
use janus_net::{local_fleet, Frame, NodeServer, RemoteCluster, RemoteConfig};
use std::time::Instant;

/// Nodes in the fleet.
const NODES: usize = 2;

/// A running fleet and its coordinator.
pub struct Fleet {
    pub remote: RemoteCluster,
    servers: Vec<NodeServer>,
}

impl Fleet {
    /// Starts `NODES` servers on loopback and bootstraps the coordinator
    /// over them; returns the fleet and how long that took.
    pub fn start(config: RemoteConfig, rows: Vec<janus_common::Row>) -> (Fleet, f64) {
        let started = Instant::now();
        let servers = local_fleet(NODES).expect("start node servers");
        let addrs: Vec<_> = servers.iter().map(NodeServer::addr).collect();
        let remote = RemoteCluster::bootstrap(config, rows, &addrs).expect("remote bootstrap");
        let took = started.elapsed().as_secs_f64();
        (Fleet { remote, servers }, took)
    }

    /// Stops the nodes and the coordinator and waits for every thread.
    pub fn stop(self) {
        self.remote.shutdown_nodes();
        self.remote.shutdown();
        for server in self.servers {
            server.wait();
        }
    }
}

pub fn run(inputs: &Inputs, ctx: &Ctx) -> Outcome {
    let size = &ctx.sizing;
    let mut out = Outcome::new(Tracer::new(ctx.trace, Instant::now()));
    let bootstrap_rows = size.rows / 2;

    let started = Instant::now();
    let stream = OpStream::generate(
        inputs,
        bootstrap_rows,
        size.remote_ops,
        0.1,
        DeletePool::AllLive,
        Rng::fork(STREAM_SEED, 0xf1ee7),
    );
    out.input_digest = inputs.digest(&stream.ops);
    out.extra_gen_s = started.elapsed().as_secs_f64();

    let base = synopsis_config(inputs, bootstrap_rows / SHARDS);
    let config = RemoteConfig::new(base.clone(), SHARDS, ShardPolicy::HashById);
    let window_ops = size.remote_window_batches * SLICE;

    let mut setup_s = Vec::new();
    let mut update_passes = Vec::new();
    let mut per_client = Default::default();
    let mut fleet = None;
    for pass in 0..size.passes {
        // A pass needs a fresh fleet, so set-up is measured once per pass.
        if let Some(old) = fleet.take() {
            Fleet::stop(old);
        }
        let rows = inputs.rows[..bootstrap_rows].to_vec();
        let ops = stream.ops.clone();
        let (fresh, took) = Fleet::start(config.clone(), rows);
        setup_s.push(took);

        // Phase A: ship the updates, window by window.
        let mut windows = Vec::new();
        let phase = Instant::now();
        let root = out.tracer.open("harness.timed", NONE, NONE);
        let mut batch_no = 0u32;
        for window in ops.chunks(window_ops) {
            let started = Instant::now();
            for batch in window.chunks(SLICE) {
                let report =
                    out.tracer
                        .call("net.publish_batch", root, batch_no, batch.len(), || {
                            fresh.remote.publish_batch(batch.iter().cloned())
                        });
                out.failed += (batch.len() - report.published.min(batch.len())) as u64;
                batch_no += 1;
            }
            out.tracer.call("net.drain", root, NONE, window.len(), || {
                fresh.remote.drain()
            });
            windows.push(Window {
                wall_ns: started.elapsed().as_nanos() as u64,
                work: window.len() as u64,
                latencies: Samples::default(),
            });
        }
        out.tracer.close(root, ops.len());
        out.timed_wall_s += phase.elapsed().as_secs_f64();
        out.attempted += ops.len() as u64;
        update_passes.push(windows);

        // Phase B: closed-loop queries against the drained fleet, whose
        // state is the same in every pass. Running a pass of each phase in
        // turn spreads both over the run, so that a slow spell of the host
        // cannot cover every pass of either.
        let remote = &fresh.remote;
        closed_loop_pass(
            &mut out,
            &mut per_client,
            inputs,
            ctx,
            size.remote_windows,
            size.remote_window_queries,
            |query, tracer, parent, req| {
                let answer = tracer.call("net.query", parent, req, 1, || remote.query(query));
                is_failure(&answer)
            },
            |query, tracer, parent, req| {
                // What one sub-query costs on the wire, without the socket.
                let frame = Frame::Query {
                    id: req as u64,
                    shard: 0,
                    moments: false,
                    min_applied: 0,
                    tenant: 0,
                    deadline_ms: 0,
                    query: query.clone(),
                };
                let bytes =
                    tracer.call("net.encode_frame", parent, req, 1, || encode_frame(&frame));
                tracer.call("net.decode_payload", parent, req, bytes.len(), || {
                    std::hint::black_box(decode_payload(&bytes[4..]).is_ok())
                });
            },
        );
        if pass == 0 {
            out.e2e.set("peak_rss_mb", peak_rss_mb());
        }
        fleet = Some(fresh);
    }
    let fleet = fleet.expect("at least one pass");
    let remote = &fleet.remote;
    record_updates(&mut out, &Phase::from_passes(update_passes));
    record_queries(&mut out, &mut pooled_clients(per_client), CLIENTS);

    // Quiescent end state: accuracy, population, and bit-identity with an
    // in-process cluster fed the same operations.
    let oracle = Oracle::new(stream.live_after);
    out.population = (
        remote.population().expect("population"),
        oracle.rows() as u64,
    );
    let answers = accuracy_pass(
        &mut out,
        inputs,
        ctx,
        &oracle,
        |q| remote.query(q).map_err(|e| e.to_string()),
        None,
    );
    let twin = in_process_twin(
        ClusterConfig::new(base, SHARDS, ShardPolicy::HashById),
        inputs.rows[..bootstrap_rows].to_vec(),
        &stream.ops,
    );
    let twin_answers: Vec<Answer> = inputs
        .queries
        .iter()
        .map(|q| twin.query(q).map_err(|e| e.to_string()))
        .collect();
    out.twin_mismatches = Some(mismatches(&answers, &twin_answers));
    let picks = [0, inputs.queries.len() / 2];
    out.oracle_disagreement =
        crate::oracle::cross_check(&inputs.queries, &oracle, &picks, |q| twin.evaluate_exact(q));

    let stats = remote.stats();
    out.failed += stats.rejected;
    out.layers
        .set("net.link_retries", stats.link_retries as f64);
    out.layers.set("net.failovers", stats.failovers as f64);
    out.layers
        .set("cluster.partial_answers", stats.partial_answers as f64);
    Fleet::stop(fleet);

    let setup_s = median_setup_s(setup_s, size.setup_reps, || {
        let (extra, took) = Fleet::start(config.clone(), inputs.rows[..bootstrap_rows].to_vec());
        extra.stop();
        took
    });
    out.e2e.set("setup_s", setup_s);
    if ctx.trace {
        out.layers.set("net.bootstrap_s", setup_s);
    }
    out
}
