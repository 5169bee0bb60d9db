//! The shard-hosting node daemon.
//!
//! A [`NodeServer`] is one member of a networked cluster: it hosts a
//! subset of shards, each as a [`JanusEngine`] plus a local tail copy of
//! that shard's topic, and speaks the [`crate::wire`] protocol over
//! plain TCP. The coordinator ([`crate::remote::RemoteCluster`]) pushes
//! topic tails to it ([`Frame::PublishBatch`]),
//! scatters sub-queries at it ([`Frame::Query`]), probes liveness and
//! applied offsets ([`Frame::Heartbeat`]), and moves shards on or off it
//! via checkpoint shipping ([`Frame::FetchCheckpoint`] /
//! [`Frame::Checkpoint`] / [`Frame::Release`]).
//!
//! Each hosted shard runs the same pump discipline as the in-process
//! [`janus_cluster::LiveCluster`]: a dedicated pump thread drains the
//! local topic copy into the engine in offset order through
//! [`JanusEngine::apply_update_batch`], parking with bounded exponential
//! backoff when idle and unparked by the publish handler — so an idle
//! node burns no cores. Because records are applied in exactly the
//! topic order the coordinator assigned, a node's engine is
//! bit-identical to an in-process shard engine at the same offset.

use crate::wire::{self, Frame, QueryOutcome};
use janus_cluster::notify::{Backoff, IDLE_MAX};
use janus_cluster::{ShardCheckpoint, ShardOp};
use janus_common::Result;
use janus_core::{JanusEngine, SynopsisConfig};
use janus_storage::TopicLog;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Identity and tuning for one node daemon.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Stable node id reported in `HelloAck`.
    pub node_id: u64,
    /// Failure-domain label (rack / zone); the directory pins a shard's
    /// replicas to distinct domains.
    pub domain: String,
    /// Records per pump drain.
    pub pump_chunk: usize,
}

impl NodeConfig {
    /// A node identity with default tuning.
    pub fn new(node_id: u64, domain: impl Into<String>) -> Self {
        NodeConfig {
            node_id,
            domain: domain.into(),
            pump_chunk: 1024,
        }
    }
}

/// One hosted shard: the engine, its local topic tail copy, and the
/// pump's progress through it.
struct ShardSlot {
    /// Global topic offset of the first record in `log` — zero for
    /// bootstrap-hosted shards, the checkpoint's applied offset for
    /// shards installed from a shipped snapshot.
    base: u64,
    /// Local copy of the shard topic's tail, fed by publish frames.
    log: TopicLog<ShardOp>,
    engine: RwLock<JanusEngine>,
    /// Global topic offset applied into the engine. Stored while the
    /// engine's write guard is still held, so any reader holding the lock sees
    /// an offset consistent with the engine's state (checkpoints pair
    /// the two without a race).
    applied: AtomicU64,
    /// Set by `Release`; the pump thread exits on sight.
    retired: AtomicBool,
    /// Pump thread handle, for publish-side unparks.
    pump_thread: Mutex<Option<std::thread::Thread>>,
}

impl ShardSlot {
    /// Global topic offset up to which records are locally durable.
    fn received(&self) -> u64 {
        self.base + self.log.len() as u64
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
            .map(|(s, slot)| (*s, slot.applied.load(Ordering::Acquire)))
            .collect();
        out.sort_unstable_by_key(|(s, _)| *s);
        out
    }

    /// Registers a freshly built slot and spawns its pump thread.
    fn install_slot(self: &Arc<Self>, shard: u32, slot: Arc<ShardSlot>) {
        self.shards.write().insert(shard, Arc::clone(&slot));
        let state = Arc::clone(self);
        let pump_slot = Arc::clone(&slot);
        let handle = std::thread::Builder::new()
            .name(format!("janus-node-pump-{shard}"))
            .spawn(move || pump_loop(&state, &pump_slot))
            .expect("spawn pump thread");
        *slot.pump_thread.lock() = Some(handle.thread().clone());
        self.pumps.lock().push(handle);
    }
}

/// Drains a slot's local topic into its engine until shutdown/release.
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
        let applied = slot.applied.load(Ordering::Acquire);
        let batch = slot
            .log
            .poll(applied - slot.base, state.config.pump_chunk.max(1));
        if batch.is_empty() {
            idle.park();
            continue;
        }
        idle.reset();
        let mut engine = slot.engine.write();
        let (done, skipped, _first_error) = engine.apply_update_batch(batch, true);
        // Store under the write guard: see `ShardSlot::applied`.
        slot.applied
            .store(applied + (done + skipped) as u64, Ordering::Release);
        drop(engine);
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
        Frame::Query {
            id,
            shard,
            moments,
            min_applied,
            tenant: _,
            deadline_ms: _,
            query,
        } => Frame::Estimate {
            id,
            outcome: answer_query(state, shard, moments, min_applied, &query),
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
                Frame::Ok
            }
            None => err_frame(format!("release: shard {shard} not hosted")),
        },
        Frame::Population { shard } => match state.slot(shard) {
            Some(slot) => {
                let rows = slot.engine.read().population() as u64;
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
    if state.shards.read().contains_key(&shard) {
        return Err(janus_common::JanusError::InvalidConfig(format!(
            "shard {shard} already hosted"
        )));
    }
    let engine = JanusEngine::bootstrap(config, rows)?;
    let slot = Arc::new(ShardSlot {
        base: 0,
        log: TopicLog::new(),
        engine: RwLock::new(engine),
        applied: AtomicU64::new(0),
        retired: AtomicBool::new(false),
        pump_thread: Mutex::new(None),
    });
    state.install_slot(shard, slot);
    Ok(())
}

/// Accepts a run of topic records. Replays are idempotent: a batch whose
/// prefix is already received is deduplicated by offset, so the
/// coordinator may re-ship after a reconnect without double-applying.
fn publish(state: &Arc<NodeState>, shard: u32, first_offset: u64, ops: Vec<ShardOp>) -> Frame {
    let Some(slot) = state.slot(shard) else {
        return err_frame(format!("publish: shard {shard} not hosted"));
    };
    let received = slot.received();
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
    if skip < ops.len() {
        slot.log.append_batch(ops.into_iter().skip(skip));
        slot.unpark_pump();
    }
    Frame::PublishAck {
        shard,
        received: slot.received(),
        applied: slot.applied.load(Ordering::Acquire),
    }
}

/// Answers one scattered sub-query, enforcing the coordinator's
/// freshness gate: if the engine has applied less than `min_applied`
/// the node refuses with [`QueryOutcome::Stale`] instead of serving a
/// stale answer — the same contract in-process fresh followers obey.
fn answer_query(
    state: &Arc<NodeState>,
    shard: u32,
    moments: bool,
    min_applied: u64,
    query: &janus_common::Query,
) -> QueryOutcome {
    let Some(slot) = state.slot(shard) else {
        return QueryOutcome::Failed(format!("shard {shard} not hosted"));
    };
    let engine = slot.engine.read();
    let applied = slot.applied.load(Ordering::Acquire);
    if applied < min_applied {
        return QueryOutcome::Stale { applied };
    }
    if moments {
        match engine.answer_sum_count(query) {
            Ok((sum, count)) => QueryOutcome::Moments { sum, count },
            Err(e) => QueryOutcome::Failed(e.to_string()),
        }
    } else {
        match engine.query(query) {
            Ok(Some(e)) => QueryOutcome::Estimate(e),
            Ok(None) => QueryOutcome::Empty,
            Err(e) => QueryOutcome::Failed(e.to_string()),
        }
    }
}

/// Snapshots a hosted shard for checkpoint shipping: the same
/// synopsis-plus-archive pair [`JanusEngine::fork_via_snapshot`] ships
/// locally, serialized for transit — cross-node migration is the same
/// operation as the local rebuild.
fn fetch_checkpoint(state: &Arc<NodeState>, shard: u32) -> Result<Frame> {
    let slot = state
        .slot(shard)
        .ok_or_else(|| janus_common::JanusError::Storage(format!("shard {shard} not hosted")))?;
    let engine = slot.engine.read();
    let applied = slot.applied.load(Ordering::Acquire);
    let checkpoint = ShardCheckpoint::capture(shard as usize, &engine, applied, slot.received());
    let config = engine.config().clone();
    drop(engine);
    let payload = serde_json::to_vec(&checkpoint)
        .map_err(|e| janus_common::JanusError::Storage(format!("serialize checkpoint: {e}")))?;
    Ok(Frame::Checkpoint {
        shard,
        config,
        payload,
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
    if state.shards.read().contains_key(&shard) {
        return Err(janus_common::JanusError::InvalidConfig(format!(
            "shard {shard} already hosted"
        )));
    }
    let checkpoint: ShardCheckpoint = serde_json::from_slice(payload)
        .map_err(|e| janus_common::JanusError::Storage(format!("parse checkpoint: {e}")))?;
    let engine = JanusEngine::restore(config, checkpoint.archive_rows, &checkpoint.synopsis)?;
    let slot = Arc::new(ShardSlot {
        base: checkpoint.applied_offset,
        log: TopicLog::new(),
        engine: RwLock::new(engine),
        applied: AtomicU64::new(checkpoint.applied_offset),
        retired: AtomicBool::new(false),
        pump_thread: Mutex::new(None),
    });
    state.install_slot(shard, slot);
    Ok(())
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

        // Wait for the pump, then count rows through the fresh gate.
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
        let inside = slot.engine.read();
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
        assert_eq!(slot.engine.read().stats().queries, 2);
        server.stop();
    }
}
