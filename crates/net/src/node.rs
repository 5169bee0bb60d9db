//! The shard-hosting node daemon.
//!
//! A [`NodeServer`] is one member of a networked cluster: it hosts a
//! subset of shards, each as a [`ShardHost`] — a [`JanusEngine`] and the
//! topic offset it has applied — and speaks the [`crate::wire`] protocol
//! over plain TCP. The coordinator ([`crate::remote::RemoteCluster`])
//! ships topic records to it ([`Frame::PublishBatch`]), scatters
//! sub-queries at it ([`Frame::Query`]), probes liveness and applied
//! offsets ([`Frame::Heartbeat`]), and moves shards on or off it via
//! checkpoint shipping ([`Frame::FetchCheckpoint`] / [`Frame::Checkpoint`]
//! / [`Frame::Release`]).
//!
//! The coordinator's topic is the durable copy of every record, so a node
//! keeps none: the connection thread that decodes a publish batch applies
//! it through [`ShardHost::apply_from`] — the host the in-process
//! [`janus_cluster::LiveCluster`] pumps — and acks with the applied
//! offset, so a node's memory beyond its engines is the one batch in
//! hand. As every other node frame, a publish is done when it is acked.
//!
//! Per publish batch a node allocates one buffer, the frame's payload
//! ([`wire::read_payload`]), sized by the frame and freed after it, so a
//! large frame such as a bootstrap [`Frame::Host`] stays resident no
//! longer than it is handled. The records are decoded flat
//! ([`wire::decode_publish_batch`]) into a [`wire::FlatBatch`] that each
//! connection reuses, and applied by reference: the engine copies an
//! insert's values into its archive and materialises a row only when
//! its reservoir admits it, so no allocation is made per record.
//! Replays deduplicate by offset and a batch past the applied offset is
//! refused as a gap. Queries answer through [`ShardHost::answer`]'s
//! freshness gate and checkpoints ship through [`ShardHost::capture`].
//! Because records are applied in exactly the topic order the
//! coordinator assigned, a node's engine is bit-identical to an
//! in-process shard engine at the same offset.
//!
//! The lock order is the in-process one — primary host → replica set →
//! one replica — of which a node, hosting each shard once, uses only the
//! first rung: a host takes no other lock under its engine's, and the
//! `shards` map is never held while an engine is locked.

use crate::wire::{self, FlatBatch, Frame, QueryOutcome};
use janus_cluster::host::ShardHost;
use janus_cluster::notify::IDLE_MAX;
use janus_cluster::ShardCheckpoint;
use janus_common::merge::SubAnswer;
use janus_common::{JanusError, Result};
use janus_core::{JanusEngine, SynopsisConfig};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

struct NodeState {
    config: NodeConfig,
    shards: RwLock<HashMap<u32, Arc<ShardHost>>>,
    shutdown: AtomicBool,
}

impl NodeState {
    fn host(&self, shard: u32) -> Option<Arc<ShardHost>> {
        self.shards.read().get(&shard).cloned()
    }

    /// Sorted `(shard, applied)` pairs for heartbeat acks.
    fn applied_offsets(&self) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .shards
            .read()
            .iter()
            .map(|(s, host)| (*s, host.applied()))
            .collect();
        out.sort_unstable_by_key(|(s, _)| *s);
        out
    }

    /// Hosts `engine`, which has applied its topic up to `applied`, as
    /// `shard`; errors when the shard is already hosted. The occupancy
    /// check and the insert share one `shards` write guard, so of two
    /// concurrent installs of one shard exactly one succeeds.
    fn install(&self, shard: u32, engine: JanusEngine, applied: u64) -> Result<()> {
        let mut shards = self.shards.write();
        if shards.contains_key(&shard) {
            return Err(JanusError::InvalidConfig(format!(
                "shard {shard} already hosted"
            )));
        }
        shards.insert(shard, Arc::new(ShardHost::new(engine, applied)));
        Ok(())
    }
}

fn err_frame(message: impl Into<String>) -> Frame {
    Frame::Error {
        message: message.into(),
    }
}

/// Handles one decoded request frame, producing the reply frame.
/// Returns `(reply, initiate_shutdown)`.
fn handle(state: &NodeState, frame: Frame) -> (Frame, bool) {
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
            Some(_) => Frame::Ok,
            None => err_frame(format!("release: shard {shard} not hosted")),
        },
        Frame::Population { shard } => match state.host(shard) {
            Some(host) => {
                let rows = host.read().population() as u64;
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
    state: &NodeState,
    shard: u32,
    config: SynopsisConfig,
    rows: Vec<janus_common::Row>,
) -> Result<()> {
    state.install(shard, JanusEngine::bootstrap(config, rows)?, 0)
}

/// Applies a run of topic records, decoded flat, to the shard's engine
/// on the calling connection thread and acks the applied offset.
/// Replays are idempotent: a batch whose prefix is already applied is
/// deduplicated by offset, so the coordinator may re-ship after a
/// reconnect without double-applying. A batch past the applied offset is
/// refused as a gap.
fn publish(state: &NodeState, batch: &FlatBatch) -> Frame {
    let (shard, first_offset) = (batch.shard(), batch.first_offset());
    let Some(host) = state.host(shard) else {
        return err_frame(format!("publish: shard {shard} not hosted"));
    };
    // Chaos hook: any fault injected here models a wedged applier — the
    // apply stalls for one idle period, never goes wrong — so the shard
    // falls behind (stale reads, backpressure) but always converges once
    // the plan stops firing.
    if janus_common::faults::hit("node.pump").is_some() {
        std::thread::sleep(IDLE_MAX);
    }
    // Lossy (`skip_failed`), as the coordinator's row directory already
    // rejected what cannot apply: every shipped record is consumed.
    match host.apply_from(first_offset, batch.ops(), true) {
        Ok(applied) => Frame::PublishAck {
            shard,
            received: applied,
            applied,
        },
        Err(applied) => err_frame(format!(
            "publish gap on shard {shard}: batch starts at {first_offset}, node is at {applied}"
        )),
    }
}

/// Answers one scattered sub-query behind the coordinator's freshness
/// gate ([`ShardHost::answer`]): a host that has applied less than
/// `min_applied` refuses with [`QueryOutcome::Stale`] instead of serving
/// a stale answer — the same contract in-process fresh followers obey.
fn answer_query(
    state: &NodeState,
    shard: u32,
    min_applied: u64,
    query: &janus_common::Query,
) -> QueryOutcome {
    let Some(host) = state.host(shard) else {
        return QueryOutcome::Failed(format!("shard {shard} not hosted"));
    };
    match host.answer(min_applied, query) {
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
fn fetch_checkpoint(state: &NodeState, shard: u32) -> Result<Frame> {
    let host = state
        .host(shard)
        .ok_or_else(|| JanusError::Storage(format!("shard {shard} not hosted")))?;
    let checkpoint = host.capture(shard as usize);
    let config = host.read().config().clone();
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
    state: &NodeState,
    shard: u32,
    config: SynopsisConfig,
    payload: &[u8],
) -> Result<()> {
    let checkpoint = ShardCheckpoint::from_bytes(payload)?;
    let engine = JanusEngine::restore(config, checkpoint.archive_rows, &checkpoint.synopsis)?;
    state.install(shard, engine, checkpoint.applied_offset)
}

/// A running node daemon: a TCP accept loop plus one thread per
/// connection.
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
    /// loop. Joins the accept thread before returning.
    pub fn wait(mut self) {
        self.join_accept();
    }

    /// Initiates shutdown and joins the accept thread.
    pub fn stop(mut self) {
        begin_shutdown(&self.state, self.addr);
        self.join_accept();
    }

    fn join_accept(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            begin_shutdown(&self.state, self.addr);
            self.join_accept();
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

fn serve_connection(state: &NodeState, mut stream: TcpStream, addr: SocketAddr) {
    // Publish batches decode into this one batch, reused from frame to
    // frame; every other frame decodes owned and goes through `handle`.
    let mut batch = FlatBatch::default();
    // Clean disconnect, torn frame, or malformed input all end the
    // connection; the peer re-establishes and re-ships.
    while let Ok(Some(payload)) = wire::read_payload(&mut stream) {
        // A stopping daemon answers nothing — the peer sees the
        // connection drop, exactly like a crashed process.
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let (reply, shutdown) = if wire::is_publish_batch(&payload) {
            if wire::decode_publish_batch(&payload, &mut batch).is_err() {
                break;
            }
            drop(payload);
            (publish(state, &batch), false)
        } else {
            let Ok(frame) = wire::decode_payload(&payload) else {
                break;
            };
            drop(payload);
            handle(state, frame)
        };
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
    use janus_cluster::ShardOp;
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
        // A second Host of the hosted shard is refused; the first engine
        // keeps serving (the counts below).
        let again = Frame::Host {
            shard: 2,
            config: test_config(2),
            rows: rows(50),
        };
        let reply = wire::roundtrip(&mut conn, &again).unwrap();
        assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");
        assert_eq!(server.state.shards.read().len(), 1);

        // Ship two records; the ack reports them applied, and the replayed
        // prefix must deduplicate.
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
            assert_eq!(
                ack,
                Frame::PublishAck {
                    shard: 2,
                    received: 2,
                    applied: 2,
                },
                "replay must not double-apply"
            );
        }

        // A batch past the applied offset would leave a gap: refused.
        let gap = Frame::PublishBatch {
            shard: 2,
            first_offset: 3,
            ops: vec![ShardOp::Insert(Row::new(1003, vec![7.0, 14.0]))],
        };
        let reply = wire::roundtrip(&mut conn, &gap).unwrap();
        assert!(matches!(reply, Frame::Error { .. }), "{reply:?}");

        // Count rows through the fresh gate, which the ack already passed.
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
                outcome: QueryOutcome::Estimate(e),
            } => assert_eq!(e.value, 102.0),
            other => panic!("unexpected reply {other:?}"),
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
        // Installing it again is refused, hosting no second copy.
        let again = wire::roundtrip(&mut dst, &shipped).unwrap();
        assert!(matches!(again, Frame::Error { .. }), "{again:?}");
        assert_eq!(twin.state.shards.read().len(), 1);

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

        let host = server.state.host(0).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let inside = host.read();
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
        assert_eq!(host.read().stats().queries, 2);
        server.stop();
    }
}
