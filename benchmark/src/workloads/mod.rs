//! The four workloads and what they share: sizing, the synopsis
//! configuration, the open-loop driver, and the quiescent accuracy pass.

pub mod cluster_scatter;
pub mod engine_stream;
pub mod live_mixed;
pub mod remote_fleet;

use crate::inputs::{Inputs, PoissonArrivals, Rng};
use crate::oracle::{self, Oracle};
use crate::report::Outcome;
use crate::stats::{Phase, Samples, Window};
use crate::trace::{SpanId, Tracer, NONE};
use crate::Ctx;
use janus_cluster::{ClusterConfig, ClusterEngine, ShardOp, ShardRouter};
use janus_common::{merge, Estimate, Query, Row};
use janus_core::SynopsisConfig;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order. Permanent: later issues
/// cite them.
pub const NAMES: [&str; 4] = [
    "engine_stream",
    "cluster_scatter",
    "live_mixed",
    "remote_fleet",
];

pub fn run(name: &str, inputs: &Inputs, ctx: &Ctx) -> Outcome {
    match name {
        "engine_stream" => engine_stream::run(inputs, ctx),
        "cluster_scatter" => cluster_scatter::run(inputs, ctx),
        "live_mixed" => live_mixed::run(inputs, ctx),
        "remote_fleet" => remote_fleet::run(inputs, ctx),
        other => unreachable!("workload {other} was validated at the command line"),
    }
}

/// Shards of every cluster workload.
pub const SHARDS: usize = 4;

/// Operations per published slice / batch.
pub const SLICE: usize = 1024;

/// Every count a run depends on. Phases are bounded by count, not by
/// time, so that accuracy and work counters repeat exactly for a seed;
/// the per-second rates in [`Sizing::full`] were tuned once on the 2-core
/// reference box so that the passes of a timed phase together last about
/// `--seconds`, and are frozen.
#[derive(Clone, Debug)]
pub struct Sizing {
    pub rows: usize,
    pub queries: usize,
    /// Identical passes of the timed phase (see `stats`).
    pub passes: usize,
    /// Set-ups timed per run where one takes a second or so
    /// (`cluster_scatter`, `remote_fleet`): the systems the passes need,
    /// and further ones built and dropped between or after the passes.
    /// The two workloads with a cheap set-up time two per pass.
    pub setup_reps: usize,
    /// `engine_stream`, per pass: updates, the updates per window, and the
    /// queries in the burst that closes each window.
    pub stream_ops: usize,
    pub burst_every: usize,
    pub burst_queries: usize,
    /// `cluster_scatter`, per pass and client: windows and their queries.
    pub scatter_windows: usize,
    pub scatter_window_queries: usize,
    /// `live_mixed`: its own number of passes (shorter ones: its latency
    /// is the noisiest number in the suite), then per pass the updates
    /// pushed through the request log, the updates per window, and the
    /// fixed rates (per second) at which updates are offered and queries
    /// fall due.
    pub live_passes: usize,
    pub live_ops: usize,
    pub live_window_ops: usize,
    pub live_update_rate: f64,
    pub live_query_rate: f64,
    /// `remote_fleet`, per pass: phase A updates and the batches per
    /// drained window; phase B windows per client and their queries.
    pub remote_ops: usize,
    pub remote_window_batches: usize,
    pub remote_windows: usize,
    pub remote_window_queries: usize,
    /// Queries per run whose truth is also computed by the program's own
    /// exact scan, to tie the harness oracle to it.
    pub cross_checks: usize,
    /// Traced runs replay every this-many-th timed query layer by layer,
    /// and write the spans of every this-many-th request to the file.
    pub replay_every: usize,
    pub trace_keep_every: u32,
    /// Size of the stand-alone layer probes (rows / ops per probe).
    pub probe_rows: usize,
}

impl Sizing {
    pub fn full(seconds: u64) -> Self {
        let s = seconds as usize;
        Sizing {
            rows: 1_000_000,
            queries: 2_000,
            passes: 4,
            setup_reps: 5,
            stream_ops: 24_000 * s,
            burst_every: 15_000,
            burst_queries: 1_000,
            scatter_windows: (3 * s).div_ceil(4),
            scatter_window_queries: 1_000,
            live_passes: 6,
            live_ops: 13 * SLICE * s / 2,
            live_window_ops: 13 * SLICE,
            live_update_rate: 40_000.0,
            live_query_rate: 2_000.0,
            remote_ops: 48 * SLICE * s,
            remote_window_batches: 48,
            remote_windows: (2 * s).div_ceil(3),
            remote_window_queries: 250,
            cross_checks: 8,
            replay_every: 64,
            trace_keep_every: 64,
            probe_rows: 200_000,
        }
    }

    /// Small enough for a debug-build unit test.
    pub fn smoke() -> Self {
        Sizing {
            rows: 24_000,
            queries: 120,
            passes: 2,
            setup_reps: 3,
            stream_ops: 4_000,
            burst_every: 1_000,
            burst_queries: 60,
            scatter_windows: 3,
            scatter_window_queries: 50,
            live_passes: 2,
            live_ops: 4 * SLICE,
            live_window_ops: SLICE,
            live_update_rate: 40_000.0,
            live_query_rate: 2_000.0,
            remote_ops: 4 * SLICE,
            remote_window_batches: 2,
            remote_windows: 2,
            remote_window_queries: 40,
            cross_checks: 4,
            replay_every: 16,
            trace_keep_every: 4,
            probe_rows: 4_000,
        }
    }
}

/// Seed of every synopsis. A constant, not `--seed`: it is a setting of
/// the program, not an input, and the partitioning it leads to moves query
/// cost by ±8% — variation between runs that no change to the code caused.
const SYNOPSIS_SEED: u64 = 0x1a05;

/// Seed of every update stream, a constant for the same reason: which rows
/// the deletes pick decides how often the re-partition triggers arm, and
/// with them the update rate (88k–226k updates/s across ten streams on
/// `engine_stream`). The updates are a recorded change log of the fixed
/// table; what `--seed` draws is the read traffic.
pub const STREAM_SEED: u64 = 0x5eed;

/// Bytes of synopsis memory granted per table row. The product's own
/// §5.5 rule (`SynopsisConfig::from_memory_budget`) turns it into the
/// paper's 1% pooled sample (64 bytes per sample of this template) and
/// `k = 0.5% · m` leaves; everything else is the shipped default.
const BUDGET_BYTES_PER_ROW: f64 = 0.64;

/// The synopsis of an engine bootstrapped on `engine_rows` rows.
pub fn synopsis_config(inputs: &Inputs, engine_rows: usize) -> SynopsisConfig {
    SynopsisConfig::from_memory_budget(
        inputs.template.clone(),
        (BUDGET_BYTES_PER_ROW * engine_rows as f64) as usize,
        engine_rows,
        SYNOPSIS_SEED,
    )
}

/// A program answer, with errors flattened to text so that answers from
/// different transports compare.
pub type Answer = Result<Option<Estimate>, String>;

/// Whether a timed answer counts as failed: an error, or a partial answer
/// (no workload sets a deadline, so none is expected).
pub fn is_failure<E>(answer: &Result<Option<Estimate>, E>) -> bool {
    match answer {
        Ok(Some(e)) => e.partial,
        Ok(None) => false,
        Err(_) => true,
    }
}

/// The program's own exact scan of one query.
pub type ExactScan<'a> = &'a mut dyn FnMut(&Query) -> Option<f64>;

/// Answers the whole query set once, untimed, at the quiescent end state,
/// scores it against the oracle, and ties the oracle to the program's own
/// exact scan on a few queries.
pub fn accuracy_pass(
    outcome: &mut Outcome,
    inputs: &Inputs,
    ctx: &Ctx,
    oracle: &Oracle,
    mut answer: impl FnMut(&Query) -> Answer,
    exact: Option<ExactScan<'_>>,
) -> Vec<Answer> {
    let answers: Vec<Answer> = inputs.queries.iter().map(&mut answer).collect();
    let accuracy = oracle::score(&inputs.queries, oracle, &answers);
    outcome.record_accuracy(accuracy, answers.len());
    if let Some(exact) = exact {
        let step = (inputs.queries.len() / ctx.sizing.cross_checks.max(1)).max(1);
        let picks: Vec<usize> = (0..inputs.queries.len()).step_by(step).collect();
        outcome.oracle_disagreement =
            oracle::cross_check(&inputs.queries, oracle, &picks, |q| exact(q));
    }
    answers
}

/// Positions where two answer sets differ in any bit.
pub fn mismatches(a: &[Answer], b: &[Answer]) -> usize {
    let bits = |e: &Estimate| {
        (
            e.value.to_bits(),
            e.catchup_variance.to_bits(),
            e.sample_variance.to_bits(),
            e.covered_nodes,
            e.partial_nodes,
            e.samples_used,
            e.partial,
        )
    };
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .filter(|(x, y)| match (x, y) {
            (Ok(Some(x)), Ok(Some(y))) => bits(x) != bits(y),
            (Ok(None), Ok(None)) => false,
            _ => true,
        })
        .count()
}

/// Fills the update rate from the update windows, each at its best pass,
/// and the plain estimate beside it.
pub fn record_updates(outcome: &mut Outcome, phase: &Phase) {
    outcome.e2e.set("update_rows_per_s", phase.rate_per_s());
    outcome
        .plain
        .set("update_rows_per_s", phase.plain_rate_per_s());
}

/// Fills the query metrics from the query windows of `clients` concurrent
/// clients (pooled in `phase`): the rate is one client's, each window at
/// its best pass, times the clients running side by side, and the median
/// latency the median window's; the tail percentiles, which a window is
/// too small for, are read off every window's fastest execution taken
/// together.
pub fn record_queries(outcome: &mut Outcome, phase: &mut Phase, clients: usize) {
    outcome
        .layers
        .set("run.query_per_s", phase.rate_per_s() * clients as f64);
    outcome
        .layers
        .set("run.query_p50_us", phase.latency_us(0.50));
    outcome
        .plain
        .set("query_per_s", phase.plain_rate_per_s() * clients as f64);
    outcome
        .plain
        .set("query_p50_us", phase.plain_latency_us(0.50));
    let mut pooled = phase.pooled();
    outcome
        .layers
        .set("run.query_p99_us", pooled.us_supported(0.99));
    outcome
        .layers
        .set("harness.query_samples", pooled.len() as f64);
    outcome
        .layers
        .set("cluster.query_p999_us", pooled.us_supported(0.999));
}

/// Times further set-ups with `build` (which drops what it built) until
/// `setup_s` holds `reps` of them, and returns the median of all.
pub fn median_setup_s(mut setup_s: Vec<f64>, reps: usize, mut build: impl FnMut() -> f64) -> f64 {
    while setup_s.len() < reps {
        setup_s.push(build());
    }
    crate::stats::median(setup_s)
}

/// One pass of the closed-loop query clients: `clients` threads, each
/// asking `windows` windows of `window_queries` queries back to back in its
/// own seeded order (the same in every pass). `ask(query, tracer, parent,
/// request)` issues one query and says whether it failed; a traced run
/// also calls `replay` (outside the latency) on every `replay_every`-th
/// request to decompose it layer by layer.
///
/// The pass's windows are appended to `per_client[client]` (pool them with
/// [`pooled_clients`] once every pass is in); attempts, failures, spans
/// and the timed wall are added to `outcome`. Workloads call this once per
/// pass, with their other work in between, so that the passes of a phase
/// are spread over the run and a slow spell of the host cannot cover all
/// of them.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop_pass(
    outcome: &mut Outcome,
    per_client: &mut [Vec<Vec<Window>>; CLIENTS],
    inputs: &Inputs,
    ctx: &Ctx,
    windows: usize,
    window_queries: usize,
    ask: impl Fn(&Query, &mut Tracer, SpanId, u32) -> bool + Sync,
    replay: impl Fn(&Query, &mut Tracer, SpanId, u32) + Sync,
) {
    let start = std::sync::Barrier::new(CLIENTS);
    let phase = Instant::now();
    let results: Vec<(Vec<Window>, u64, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut tracer = outcome.tracer.sibling();
                let (ask, replay, start) = (&ask, &replay, &start);
                scope.spawn(move || {
                    let order =
                        Rng::fork(inputs.seed, 0xc11e + c as u64).permutation(inputs.queries.len());
                    let mut done = Vec::with_capacity(windows);
                    let mut failed = 0u64;
                    start.wait();
                    let root = tracer.open("harness.timed", NONE, NONE);
                    let mut asked = 0usize;
                    for _ in 0..windows {
                        let mut latencies = Samples::with_capacity(window_queries);
                        let started = Instant::now();
                        for _ in 0..window_queries {
                            let query = &inputs.queries[order[asked % order.len()]];
                            let req = (asked * CLIENTS + c) as u32;
                            let t0 = Instant::now();
                            failed += ask(query, &mut tracer, root, req) as u64;
                            latencies.push(t0.elapsed().as_nanos() as u64);
                            asked += 1;
                            if tracer.is_on() && asked.is_multiple_of(ctx.sizing.replay_every) {
                                let span = tracer.open("harness.replay", root, req);
                                replay(query, &mut tracer, span, req);
                                tracer.close(span, 1);
                            }
                        }
                        done.push(Window {
                            wall_ns: started.elapsed().as_nanos() as u64,
                            work: window_queries as u64,
                            latencies,
                        });
                    }
                    tracer.close(root, asked);
                    (done, failed, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect()
    });
    outcome.timed_wall_s += phase.elapsed().as_secs_f64() * CLIENTS as f64;
    for (c, (done, failed, tracer)) in results.into_iter().enumerate() {
        outcome.attempted += (windows * window_queries) as u64;
        outcome.failed += failed;
        outcome.tracer.absorb(tracer);
        per_client[c].push(done);
    }
}

/// The windows of every client's passes as one phase.
pub fn pooled_clients(per_client: [Vec<Vec<Window>>; CLIENTS]) -> Phase {
    let mut phase = Phase::default();
    for passes in per_client {
        phase.add(Phase::from_passes(passes));
    }
    phase
}

/// Closed-loop query clients (the load generator's two threads).
pub const CLIENTS: usize = 2;

/// Replays one scatter layer by layer under `parent`: shard pruning, each
/// shard's synopsis answer, and the merge of the parts.
pub fn replay_scatter(
    cluster: &ClusterEngine,
    router: &ShardRouter,
    query: &Query,
    tracer: &mut Tracer,
    parent: SpanId,
    req: u32,
) {
    let targets = tracer.call("cluster.overlapping", parent, req, 1, || {
        router.overlapping(query)
    });
    let mut parts = Vec::with_capacity(targets.len());
    for &shard in &targets {
        let part = tracer.call("core.dpt_answer", parent, req, 1, || {
            cluster.with_shard_engine(shard, |e| e.dpt().answer(query, e.reservoir()))
        });
        parts.extend(part.ok().flatten());
    }
    tracer.call("common.merge", parent, req, parts.len(), || {
        std::hint::black_box(merge::merge_additive(&parts))
    });
}

/// A synchronous in-process cluster bootstrapped on `rows` and fed `ops`
/// in the same slices — the reference the live and networked clusters
/// must agree with bit for bit once drained.
pub fn in_process_twin(config: ClusterConfig, rows: Vec<Row>, ops: &[ShardOp]) -> ClusterEngine {
    let twin = ClusterEngine::bootstrap(config, rows).expect("twin bootstrap");
    for batch in ops.chunks(SLICE) {
        let report = twin.publish_batch(batch.iter().cloned());
        assert_eq!(report.rejected, 0, "twin rejected an operation");
    }
    twin.pump_all().expect("twin pump");
    twin
}

/// A clock the open-loop driver can be tested against.
pub trait Clock {
    /// Nanoseconds since the phase started.
    fn now_ns(&self) -> u64;
    /// Returns no earlier than `due_ns` (immediately if it has passed).
    fn wait_until(&self, due_ns: u64);
}

/// Wall clock. Sleeps through a gap down to its last `spin_ns`, which it
/// spins through: a sleeping thread wakes tens to hundreds of microseconds
/// late on a busy box, a spinning one holds a core the program may want.
pub struct WallClock {
    pub start: Instant,
    pub spin_ns: u64,
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, due_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return;
            }
            let gap = due_ns - now;
            if gap > self.spin_ns {
                std::thread::sleep(Duration::from_nanos(gap - self.spin_ns));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One open-loop request: when it was due, when the generator got to it,
/// and when it completed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Issued {
    pub due_ns: u64,
    pub started_ns: u64,
    pub ended_ns: u64,
}

impl Issued {
    /// Completion minus *due* time: a stall is charged to every request
    /// that fell due during it, not only to the one that hit it.
    pub fn latency_ns(&self) -> u64 {
        self.ended_ns.saturating_sub(self.due_ns)
    }

    /// Start minus due time: how late the generator itself ran.
    pub fn lateness_ns(&self) -> u64 {
        self.started_ns.saturating_sub(self.due_ns)
    }

    /// Completion minus start: the call on its own.
    pub fn service_ns(&self) -> u64 {
        self.ended_ns.saturating_sub(self.started_ns)
    }
}

/// Issues requests on a Poisson schedule from one thread until `stop`
/// says so (checked before each request). `call(i)` issues the `i`-th
/// request synchronously.
pub fn open_loop(
    clock: &impl Clock,
    mut arrivals: PoissonArrivals,
    mut stop: impl FnMut() -> bool,
    mut call: impl FnMut(usize),
) -> Vec<Issued> {
    let mut issued = Vec::new();
    while !stop() {
        let due_ns = arrivals.next_due_ns();
        clock.wait_until(due_ns);
        let started_ns = clock.now_ns();
        call(issued.len());
        issued.push(Issued {
            due_ns,
            started_ns,
            ended_ns: clock.now_ns(),
        });
    }
    issued
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Rng;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        let clock = FakeClock(Cell::new(0));
        // 1,000 requests/s: due times about 1 ms apart.
        let arrivals = PoissonArrivals::new(1_000.0, Rng::new(5));
        let (service_ns, stall_ns) = (10_000, 20_000_000);
        let count = Cell::new(0usize);
        let issued = open_loop(
            &clock,
            arrivals,
            || count.get() == 40,
            |i| {
                count.set(i + 1);
                let cost = if i == 10 { stall_ns } else { service_ns };
                clock.0.set(clock.0.get() + cost);
            },
        );
        assert_eq!(issued.len(), 40);
        // Before the stall a request waits at most for its predecessor
        // (two arrivals can fall within one service time of each other).
        let on_time = |r: &Issued| {
            r.lateness_ns() < service_ns && r.latency_ns() == r.lateness_ns() + service_ns
        };
        assert!(issued[..10].iter().all(on_time));
        // About 20 requests fall due during the 20 ms stall. None of them
        // can start before it ends, so each is owed the rest of the stall
        // plus its own service; a timer started at *send* time would have
        // reported one slow request and 39 fast ones.
        let stall_end = issued[10].due_ns + stall_ns;
        let victims: Vec<&Issued> = issued[11..]
            .iter()
            .filter(|r| r.due_ns < stall_end)
            .collect();
        assert!(victims.len() >= 10, "{} victims", victims.len());
        for v in &victims {
            assert!(v.latency_ns() >= stall_end - v.due_ns + service_ns, "{v:?}");
            assert!(v.lateness_ns() >= stall_end - v.due_ns);
        }
        assert_eq!(issued[10].latency_ns(), stall_ns);
        // Once the backlog is worked off the generator is on time again.
        assert!(on_time(issued.last().unwrap()));
    }

    #[test]
    fn mismatches_sees_a_single_flipped_bit() {
        let a: Vec<Answer> = vec![Ok(Some(Estimate::exact(1.0))), Ok(None), Ok(None)];
        let mut b = a.clone();
        assert_eq!(mismatches(&a, &b), 0);
        b[0] = Ok(Some(Estimate::exact(f64::from_bits(1.0f64.to_bits() + 1))));
        assert_eq!(mismatches(&a, &b), 1);
        b[2] = Err("an error never matches".into());
        assert_eq!(mismatches(&a, &b), 2);
    }
}
