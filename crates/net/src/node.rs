//! The shard-hosting node daemon.
//!
//! A [`NodeServer`] is one member of a networked cluster: it hosts a
//! subset of shards, each as a [`JanusEngine`] plus the records of that
//! shard's topic it has received and not yet applied, and speaks the
//! [`crate::wire`] protocol over plain TCP. The coordinator
//! ([`crate::remote::RemoteCluster`]) pushes topic tails to it and waits
//! on its applies ([`Frame::PublishBatch`]), scatters sub-queries at it
//! ([`Frame::Query`]), probes liveness and applied offsets
//! ([`Frame::Heartbeat`]), and moves shards on or off it via checkpoint
//! shipping ([`Frame::FetchCheckpoint`] / [`Frame::Checkpoint`] /
//! [`Frame::Release`]).
//!
//! Each hosted shard is a streaming consumer of its topic tail: the
//! coordinator's topic is the durable copy, so the node keeps no second
//! one. A publish appends to the shard's FIFO of unapplied records, and a
//! dedicated pump thread pops up to `PUMP_CHUNK` of them and moves them
//! into the engine in offset order through [`ShardHost::apply`] — the
//! same host the in-process [`janus_cluster::LiveCluster`] pumps —
//! parking with bounded exponential backoff when idle and unparked by
//! the publish handler, so an idle node burns no cores. A node's memory
//! beyond its engines is therefore bounded by the coordinator's
//! publish-ahead window. After each applied chunk the pump bumps a
//! node-wide [`Progress`], on which an empty publish batch waits, so the
//! coordinator learns of an apply on the ship link as it happens rather
//! than at the next heartbeat. Queries answer through
//! [`ShardHost::answer`]'s freshness gate and checkpoints ship through
//! [`ShardHost::capture`]. Because records are applied in exactly the
//! topic order the coordinator assigned, a node's engine is
//! bit-identical to an in-process shard engine at the same offset.
//!
//! The lock order is the in-process one — primary host → replica set →
//! one replica — of which a node, hosting each shard once, uses only the
//! first rung: a host takes no other lock under its engine's, and the
//! `shards` map is never held while an engine is locked. A shard's tail
//! lock comes before its engine's (a checkpoint capture holds both);
//! the pump releases the tail before it applies.

use crate::wire::{self, Frame, QueryOutcome};
use janus_cluster::host::ShardHost;
use janus_cluster::notify::{Backoff, Progress, IDLE_MAX};
use janus_cluster::{ShardCheckpoint, ShardOp};
use janus_common::merge::SubAnswer;
use janus_common::{JanusError, Result};
use janus_core::{JanusEngine, SynopsisConfig};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound on an empty [`Frame::PublishBatch`]'s wait for the pump to move:
/// well under any sensible link read timeout, so a wedged pump costs the
/// shipper a short round, never a transport error.
const ACK_WAIT: Duration = Duration::from_millis(5);

/// Records a hosted shard's pump moves into its engine per drain.
const PUMP_CHUNK: usize = 1024;

/// Identity of one node daemon.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Stable node id reported in `HelloAck`.
    pub node_id: u64,
    /// Failure-domain label (rack / zone); the directory pins a shard's
    /// replicas to distinct domains.
    pub domain: String,
}

impl NodeConfig {
    /// A node identity.
    pub fn new(node_id: u64, domain: impl Into<String>) -> Self {
        NodeConfig {
            node_id,
            domain: domain.into(),
        }
    }
}

/// The records of a shard topic a node has received and not yet applied.
struct Tail {
    /// Unapplied records in topic order; the last sits at `received - 1`.
    ops: VecDeque<ShardOp>,
    /// Global topic offset up to which records have been received.
    received: u64,
}

/// One hosted shard: its unapplied tail and the host applying it.
struct ShardSlot {
    /// Global topic offset the slot started at — zero for
    /// bootstrap-hosted shards, the checkpoint's applied offset for
    /// shards installed from a shipped snapshot.
    base: u64,
    /// Fed by publish frames, emptied by the pump.
    tail: Mutex<Tail>,
    host: ShardHost,
    /// Set by `Release`; the pump thread exits on sight.
    retired: AtomicBool,
    /// Pump thread handle, for publish-side unparks.
    pump_thread: Mutex<Option<std::thread::Thread>>,
}

impl ShardSlot {
    /// Global topic offset up to which records have been received.
    fn received(&self) -> u64 {
        self.tail.lock().received
    }

    fn unpark_pump(&self) {
        if let Some(t) = self.pump_thread.lock().as_ref() {
            t.unpark();
        }
    }
}

struct NodeState {
    config: NodeConfig,
    shards: RwLock<HashMap<u32, Arc<ShardSlot>>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
    shutdown: AtomicBool,
    /// Bumped by every pump after each applied chunk, and by `Release`
    /// and shutdown — what an empty publish batch waits on.
    progress: Progress,
}

impl NodeState {
    fn slot(&self, shard: u32) -> Option<Arc<ShardSlot>> {
        self.shards.read().get(&shard).cloned()
    }

    /// Sorted `(shard, applied)` pairs for heartbeat acks.
    fn applied_offsets(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .shards
            .read()
            .iter()
            .map(|(s, slot)| (*s, slot.host.applied()))
            .collect();
        out.sort_unstable_by_key(|(s, _)| *s);
        out
    }

    /// Registers a freshly built slot and spawns its pump thread; errors,
    /// spawning nothing, when the shard is already hosted. The occupancy
    /// check and the insert share one `shards` write guard, so of two
    /// concurrent installs of one shard exactly one succeeds.
    fn install_slot(self: &Arc<Self>, shard: u32, engine: JanusEngine, base: u64) -> Result<()> {
        // The tail starts where the engine stands: its first record sits
        // at global offset `base`, the offset the engine has applied.
        let slot = Arc::new(ShardSlot {
            base,
            tail: Mutex::new(Tail {
                ops: VecDeque::new(),
                received: base,
            }),
            host: ShardHost::new(engine, base),
            retired: AtomicBool::new(false),
            pump_thread: Mutex::new(None),
        });
        {
            let mut shards = self.shards.write();
            if shards.contains_key(&shard) {
                return Err(JanusError::InvalidConfig(format!(
                    "shard {shard} already hosted"
                )));
            }
            shards.insert(shard, Arc::clone(&slot));
        }
        let state = Arc::clone(self);
        let pump_slot = Arc::clone(&slot);
        let handle = std::thread::Builder::new()
            .name(format!("janus-node-pump-{shard}"))
            .spawn(move || pump_loop(&state, &pump_slot))
            .expect("spawn pump thread");
        *slot.pump_thread.lock() = Some(handle.thread().clone());
        self.pumps.lock().push(handle);
        Ok(())
    }
}

/// Moves a slot's tail into its engine until shutdown/release.
fn pump_loop(state: &NodeState, slot: &ShardSlot) {
    let mut idle = Backoff::new();
    while !state.shutdown.load(Ordering::Acquire) && !slot.retired.load(Ordering::Acquire) {
        // Chaos hook: an injected fault here models a wedged applier —
        // a transient stall, never a wrong apply. `Stall` sleeps inside
        // `hit`; error kinds park one idle period and re-poll, so the
        // shard falls behind (stale reads, backpressure) but always
        // converges once the plan stops firing.
        if janus_common::faults::hit("node.pump").is_some() {
            std::thread::park_timeout(IDLE_MAX);
            continue;
        }
        let batch: Vec<ShardOp> = {
            let mut tail = slot.tail.lock();
            let take = tail.ops.len().min(PUMP_CHUNK);
            tail.ops.drain(..take).collect()
        };
        // An idle shard parks without taking its engine's write guard.
        if batch.is_empty() {
            idle.park();
            continue;
        }
        idle.reset();
        // Lossy (`skip_failed`), as the coordinator's row directory
        // already rejected what cannot apply: every popped record is
        // consumed.
        slot.host.apply(batch, true);
        state.progress.bump();
    }
}

fn err_frame(message: impl Into<String>) -> Frame {
    Frame::Error {
        message: message.into(),
    }
}

/// Handles one decoded request frame, producing the reply frame.
/// Returns `(reply, initiate_shutdown)`.
fn handle(state: &Arc<NodeState>, frame: Frame) -> (Frame, bool) {
    let reply = match frame {
        Frame::Hello { .. } => {
            let mut shards: Vec<u32> = state.shards.read().keys().copied().collect();
            shards.sort_unstable();
            Frame::HelloAck {
                node_id: state.config.node_id,
                domain: state.config.domain.clone(),
                shards,
            }
        }
        Frame::Heartbeat { seq } => Frame::HeartbeatAck {
            seq,
            applied: state.applied_offsets(),
        },
        Frame::Host {
            shard,
            config,
            rows,
        } => match host_shard(state, shard, config, rows) {
            Ok(()) => Frame::Ok,
            Err(e) => err_frame(format!("host shard {shard}: {e}")),
        },
        Frame::PublishBatch {
            shard,
            first_offset,
            ops,
        } => publish(state, shard, first_offset, ops),
        // `tenant` and `deadline_ms` are advisory on the node side: the
        // coordinator bills the query and enforces the deadline with a
        // socket read timeout, so the node just answers as fast as it can.
        // `moments` is implied by the aggregate, which is what the host
        // answers by: the coordinator sets it exactly for AVG.
        Frame::Query {
            id,
            shard,
            moments: _,
            min_applied,
            tenant: _,
            deadline_ms: _,
            query,
        } => Frame::Estimate {
            id,
            outcome: answer_query(state, shard, min_applied, &query),
        },
        Frame::FetchCheckpoint { shard } => match fetch_checkpoint(state, shard) {
            Ok(frame) => frame,
            Err(e) => err_frame(format!("checkpoint shard {shard}: {e}")),
        },
        Frame::Checkpoint {
            shard,
            config,
            payload,
        } => match install_checkpoint(state, shard, config, &payload) {
            Ok(()) => Frame::Ok,
            Err(e) => err_frame(format!("install shard {shard}: {e}")),
        },
        Frame::Release { shard } => match state.shards.write().remove(&shard) {
            Some(slot) => {
                slot.retired.store(true, Ordering::Release);
                slot.unpark_pump();
                state.progress.bump();
                Frame::Ok
            }
            None => err_frame(format!("release: shard {shard} not hosted")),
        },
        Frame::Population { shard } => match state.slot(shard) {
            Some(slot) => {
                let rows = slot.host.read().population() as u64;
                Frame::PopulationAck { shard, rows }
            }
            None => err_frame(format!("population: shard {shard} not hosted")),
        },
        Frame::Shutdown => return (Frame::Ok, true),
        other => err_frame(format!("unexpected frame at node: {other:?}")),
    };
    (reply, false)
}

fn host_shard(
    state: &Arc<NodeState>,
    shard: u32,
    config: SynopsisConfig,
    rows: Vec<janus_common::Row>,
) -> Result<()> {
    state.install_slot(shard, JanusEngine::bootstrap(config, rows)?, 0)
}

/// Accepts a run of topic records into the slot's tail. Replays are
/// idempotent: a batch whose prefix is already received is deduplicated
/// by offset, so the coordinator may re-ship after a reconnect without
/// double-applying. An empty batch asks for the apply instead: its ack
/// waits until the pump moves ([`await_apply`]).
fn publish(state: &Arc<NodeState>, shard: u32, first_offset: u64, ops: Vec<ShardOp>) -> Frame {
    let Some(slot) = state.slot(shard) else {
        return err_frame(format!("publish: shard {shard} not hosted"));
    };
    let ack_apply = ops.is_empty();
    let appended = {
        let mut tail = slot.tail.lock();
        let received = tail.received;
        if first_offset > received {
            return err_frame(format!(
                "publish gap on shard {shard}: batch starts at {first_offset}, node is at {received}"
            ));
        }
        if first_offset < slot.base {
            return err_frame(format!(
                "publish below shard {shard} base {}: batch starts at {first_offset}",
                slot.base
            ));
        }
        let skip = (received - first_offset) as usize;
        let appended = skip < ops.len();
        if appended {
            tail.received = first_offset + ops.len() as u64;
            tail.ops.extend(ops.into_iter().skip(skip));
        }
        appended
    };
    if appended {
        slot.unpark_pump();
    } else if ack_apply {
        await_apply(state, &slot);
    }
    Frame::PublishAck {
        shard,
        received: slot.received(),
        applied: slot.host.applied(),
    }
}

/// Waits until `slot`'s applied offset passes its value on arrival or
/// reaches the received offset, for at most [`ACK_WAIT`] (give or take
/// one backoff round), or until the node stops or the shard is released.
/// Holds no shard or engine lock while it waits.
fn await_apply(state: &NodeState, slot: &ShardSlot) {
    let arrived = slot.host.applied();
    let give_up = Instant::now() + ACK_WAIT;
    state.progress.wait_until(
        Backoff::capped(ACK_WAIT),
        || {
            state.shutdown.load(Ordering::Acquire)
                || slot.retired.load(Ordering::Acquire)
                || Instant::now() >= give_up
        },
        || {},
        || {
            let applied = slot.host.applied();
            applied > arrived || applied >= slot.received()
        },
    );
}

/// Answers one scattered sub-query behind the coordinator's freshness
/// gate ([`ShardHost::answer`]): a host that has applied less than
/// `min_applied` refuses with [`QueryOutcome::Stale`] instead of serving
/// a stale answer — the same contract in-process fresh followers obey.
fn answer_query(
    state: &Arc<NodeState>,
    shard: u32,
    min_applied: u64,
    query: &janus_common::Query,
) -> QueryOutcome {
    let Some(slot) = state.slot(shard) else {
        return QueryOutcome::Failed(format!("shard {shard} not hosted"));
    };
    match slot.host.answer(min_applied, query) {
        Err(applied) => QueryOutcome::Stale { applied },
        Ok(Ok(SubAnswer::Empty)) => QueryOutcome::Empty,
        Ok(Ok(SubAnswer::Estimate(e))) => QueryOutcome::Estimate(e),
        Ok(Ok(SubAnswer::Moments { sum, count })) => QueryOutcome::Moments { sum, count },
        Ok(Err(e)) => QueryOutcome::Failed(e.to_string()),
    }
}

/// Snapshots a hosted shard for checkpoint shipping: the same
/// synopsis-plus-archive pair [`JanusEngine::fork_via_snapshot`] ships
/// locally, encoded for transit — cross-node migration is the same
/// operation as the local rebuild.
fn fetch_checkpoint(state: &Arc<NodeState>, shard: u32) -> Result<Frame> {
    let slot = state
        .slot(shard)
        .ok_or_else(|| JanusError::Storage(format!("shard {shard} not hosted")))?;
    // The tail lock pins the received offset, so the checkpoint's
    // published offset is never behind its applied one.
    let tail = slot.tail.lock();
    let checkpoint = slot.host.capture(shard as usize, tail.received);
    drop(tail);
    let config = slot.host.read().config().clone();
    Ok(Frame::Checkpoint {
        shard,
        config,
        payload: checkpoint.to_bytes(),
    })
}

/// Installs a shipped shard checkpoint through the engine's restore
/// machinery and starts hosting at the checkpoint's applied offset; the
/// coordinator re-ships the topic tail from there.
fn install_checkpoint(
    state: &Arc<NodeState>,
    shard: u32,
    config: SynopsisConfig,
    payload: &[u8],
) -> Result<()> {
    let checkpoint = ShardCheckpoint::from_bytes(payload)?;
    let engine = JanusEngine::restore(config, checkpoint.archive_rows, &checkpoint.synopsis)?;
    state.install_slot(shard, engine, checkpoint.applied_offset)
}

/// A running node daemon: a TCP accept loop plus per-shard pump threads.
pub struct NodeServer {
    state: Arc<NodeState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Binds `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving. Returns once the listener is live; the actual
    /// address is [`NodeServer::addr`].
    pub fn start(bind: impl ToSocketAddrs, config: NodeConfig) -> std::io::Result<NodeServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(NodeState {
            config,
            shards: RwLock::new(HashMap::new()),
            pumps: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            progress: Progress::new(),
        });
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("janus-node-accept".into())
            .spawn(move || accept_loop(&accept_state, &listener, addr))?;
        Ok(NodeServer {
            state,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a peer sends [`Frame::Shutdown`] — the daemon main
    /// loop. Joins all worker threads before returning.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Initiates shutdown and joins all worker threads.
    pub fn stop(mut self) {
        begin_shutdown(&self.state, self.addr);
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Accept loop is down; release the pumps.
        for slot in self.state.shards.read().values() {
            slot.unpark_pump();
        }
        let pumps: Vec<_> = self.state.pumps.lock().drain(..).collect();
        for p in pumps {
            let _ = p.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            begin_shutdown(&self.state, self.addr);
            self.join_all();
        }
    }
}

/// Flags shutdown and pokes the blocking accept call with a throwaway
/// connection so the accept thread observes the flag.
fn begin_shutdown(state: &NodeState, addr: SocketAddr) {
    state.shutdown.store(true, Ordering::Release);
    state.progress.bump();
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

fn accept_loop(state: &Arc<NodeState>, listener: &TcpListener, addr: SocketAddr) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let conn_state = Arc::clone(state);
        // Connection handlers are detached: they exit on peer disconnect
        // or shutdown, and the process (or test) teardown reaps them.
        let _ = std::thread::Builder::new()
            .name("janus-node-conn".into())
            .spawn(move || serve_connection(&conn_state, stream, addr));
    }
}

fn serve_connection(state: &Arc<NodeState>, mut stream: TcpStream, addr: SocketAddr) {
    // Clean disconnect, torn frame, or malformed input all end the
    // connection; the peer re-establishes and re-ships.
    while let Ok(Some(frame)) = wire::read_frame(&mut stream) {
        // A stopping daemon answers nothing — the peer sees the
        // connection drop, exactly like a crashed process.
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let (reply, shutdown) = handle(state, frame);
        if wire::write_frame(&mut stream, &reply).is_err() {
            break;
        }
        if shutdown {
            begin_shutdown(state, addr);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{AggregateFunction, QueryTemplate, Row};

    fn test_config(seed: u64) -> SynopsisConfig {
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let mut c = SynopsisConfig::paper_default(template, seed);
        c.leaf_count = 8;
        c.sample_rate = 0.1;
        c.auto_repartition = false;
        c
    }

    fn rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(i, vec![i as f64, i as f64 * 2.0]))
            .collect()
    }

    #[test]
    fn host_publish_query_shutdown() {
        let server = NodeServer::start("127.0.0.1:0", NodeConfig::new(7, "rack-a")).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_nodelay(true).unwrap();

        let hello = wire::roundtrip(&mut conn, &Frame::Hello { node_id: 0 }).unwrap();
        assert_eq!(
            hello,
            Frame::HelloAck {
                node_id: 7,
                domain: "rack-a".into(),
                shards: vec![]
            }
        );

        let reply = wire::roundtrip(
            &mut conn,
            &Frame::Host {
                shard: 2,
                config: test_config(1),
                rows: rows(100),
            },
        )
        .unwrap();
        assert_eq!(reply, Frame::Ok);
        // A second Host of the hosted shard is refused before it spawns a
        // pump; the first engine keeps serving (the counts below).
        let again = Frame::Host {
            shard: 2,
            config: test_config(2),
            rows: rows(50),
        };
        let reply = wire::roundtrip(&mut conn, &again).unwrap();
        assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
        assert_eq!(server.state.pumps.lock().len(), 1);

        // Ship two records; the replayed prefix must deduplicate.
        let ops = vec![
            ShardOp::Insert(Row::new(1000, vec![5.0, 10.0])),
            ShardOp::Insert(Row::new(1001, vec![6.0, 12.0])),
        ];
        for first in [0u64, 0u64] {
            let ack = wire::roundtrip(
                &mut conn,
                &Frame::PublishBatch {
                    shard: 2,
                    first_offset: first,
                    ops: ops.clone(),
                },
            )
            .unwrap();
            match ack {
                Frame::PublishAck {
                    shard, received, ..
                } => {
                    assert_eq!(shard, 2);
                    assert_eq!(received, 2, "replay must not double-append");
                }
                other => panic!("unexpected ack {other:?}"),
            }
        }

        // An empty batch at the received offset acks the apply: it comes
        // back once the pump has moved, and is repeated until the node
        // reports both records applied (an idle host's first ack does).
        let ask_apply = Frame::PublishBatch {
            shard: 2,
            first_offset: 2,
            ops: vec![],
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match wire::roundtrip(&mut conn, &ask_apply).unwrap() {
                Frame::PublishAck {
                    shard: 2,
                    received: 2,
                    applied: 2,
                } => break,
                Frame::PublishAck {
                    shard: 2,
                    received: 2,
                    ..
                } if std::time::Instant::now() < deadline => {}
                other => panic!("unexpected apply ack {other:?}"),
            }
        }
        // Applied records are freed, not kept beside the engine.
        assert!(server.state.slot(2).unwrap().tail.lock().ops.is_empty());

        // Count rows through the fresh gate.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let outcome = loop {
            let q = janus_common::Query::new(
                AggregateFunction::Count,
                1,
                vec![0],
                janus_common::RangePredicate::new(vec![f64::NEG_INFINITY], vec![f64::INFINITY])
                    .unwrap(),
            )
            .unwrap();
            let reply = wire::roundtrip(
                &mut conn,
                &Frame::Query {
                    id: 9,
                    shard: 2,
                    moments: false,
                    min_applied: 2,
                    tenant: 0,
                    deadline_ms: 0,
                    query: q,
                },
            )
            .unwrap();
            match reply {
                Frame::Estimate {
                    id: 9,
                    outcome: QueryOutcome::Stale { .. },
                } if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Frame::Estimate { id: 9, outcome } => break outcome,
                other => panic!("unexpected reply {other:?}"),
            }
        };
        match outcome {
            QueryOutcome::Estimate(e) => assert_eq!(e.value, 102.0),
            other => panic!("unexpected outcome {other:?}"),
        }

        let pop = wire::roundtrip(&mut conn, &Frame::Population { shard: 2 }).unwrap();
        assert_eq!(
            pop,
            Frame::PopulationAck {
                shard: 2,
                rows: 102
            }
        );

        assert_eq!(
            wire::roundtrip(&mut conn, &Frame::Shutdown).unwrap(),
            Frame::Ok
        );
        server.wait();
    }

    #[test]
    fn checkpoint_ships_bit_identical_state() {
        let server = NodeServer::start("127.0.0.1:0", NodeConfig::new(1, "a")).unwrap();
        let twin = NodeServer::start("127.0.0.1:0", NodeConfig::new(2, "b")).unwrap();
        let mut src = TcpStream::connect(server.addr()).unwrap();
        let mut dst = TcpStream::connect(twin.addr()).unwrap();

        assert_eq!(
            wire::roundtrip(
                &mut src,
                &Frame::Host {
                    shard: 0,
                    config: test_config(3),
                    rows: rows(500),
                }
            )
            .unwrap(),
            Frame::Ok
        );
        let shipped = wire::roundtrip(&mut src, &Frame::FetchCheckpoint { shard: 0 }).unwrap();
        assert!(matches!(shipped, Frame::Checkpoint { shard: 0, .. }));
        assert_eq!(wire::roundtrip(&mut dst, &shipped).unwrap(), Frame::Ok);
        // Installing it again is refused, spawning no second pump.
        let again = wire::roundtrip(&mut dst, &shipped).unwrap();
        assert!(matches!(again, Frame::Error { .. }), "{again:?}");
        assert_eq!(twin.state.pumps.lock().len(), 1);

        let q = janus_common::Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            janus_common::RangePredicate::new(vec![100.0], vec![400.0]).unwrap(),
        )
        .unwrap();
        let ask = |conn: &mut TcpStream| match wire::roundtrip(
            conn,
            &Frame::Query {
                id: 1,
                shard: 0,
                moments: false,
                min_applied: 0,
                tenant: 0,
                deadline_ms: 0,
                query: q.clone(),
            },
        )
        .unwrap()
        {
            Frame::Estimate {
                outcome: QueryOutcome::Estimate(e),
                ..
            } => e,
            other => panic!("unexpected {other:?}"),
        };
        let a = ask(&mut src);
        let b = ask(&mut dst);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());

        server.stop();
        twin.stop();
    }

    /// While one reader holds a hosted shard's read guard (and has
    /// answered under it), a `Query` frame for the same shard must be
    /// answered: an exclusive engine lock in `answer_query` would wait for
    /// the guard to drop, which the `recv_timeout` reports as a failure.
    #[test]
    fn a_query_frame_is_answered_while_another_reader_is_inside_the_shard() {
        let server = crate::local_fleet(1).unwrap().remove(0);
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let host = Frame::Host {
            shard: 0,
            config: test_config(5),
            rows: rows(500),
        };
        assert_eq!(wire::roundtrip(&mut conn, &host).unwrap(), Frame::Ok);
        let query = janus_common::Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            janus_common::RangePredicate::new(vec![100.0], vec![400.0]).unwrap(),
        )
        .unwrap();
        let ask = Frame::Query {
            id: 1,
            shard: 0,
            moments: false,
            min_applied: 0,
            tenant: 0,
            deadline_ms: 0,
            query: query.clone(),
        };

        let slot = server.state.slot(0).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let inside = slot.host.read();
        let local = inside.query(&query).unwrap().unwrap();
        let remote = std::thread::spawn(move || {
            done_tx
                .send(wire::roundtrip(&mut conn, &ask).unwrap())
                .unwrap();
        });
        let reply = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the node's query path waited for a reader to leave");
        drop(inside);
        remote.join().unwrap();
        match reply {
            Frame::Estimate {
                outcome: QueryOutcome::Estimate(e),
                ..
            } => assert_eq!(e.value.to_bits(), local.value.to_bits()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(slot.host.read().stats().queries, 2);
        server.stop();
    }
}
