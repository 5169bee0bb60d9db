//! Length-prefixed binary wire protocol for the networked cluster.
//!
//! Every frame on the wire is
//!
//! ```text
//! [u32 LE length][u8 version][u8 kind][body ...][u32 LE crc32]
//! ```
//!
//! where `length` counts the version byte, the kind byte, the body, and
//! the 4-byte CRC trailer (so a frame occupies `4 + length` bytes
//! total). The trailer is the CRC32 (IEEE) of the version byte, the
//! kind byte, and the body; a frame whose checksum does not match is
//! rejected with [`JanusError::Protocol`] *before* any field is parsed,
//! so a flipped bit anywhere in transit can kill the connection but can
//! never mis-parse into a structurally valid frame. All integers are
//! little-endian; floats travel as their IEEE-754 bit patterns, so
//! estimates survive the wire bit-exactly — the property the cluster's
//! equivalence tests pin. Collections are `u32` count-prefixed; strings
//! are count-prefixed UTF-8.
//!
//! The decoder is hardened against hostile or torn input: a length
//! prefix above [`MAX_FRAME_LEN`] (or below the 6-byte
//! version/kind/CRC envelope) is rejected *before* any body allocation,
//! collection counts are checked against the bytes actually present
//! before a `Vec` is reserved, unknown versions/kinds/tags error out,
//! and a payload with trailing bytes after its last field is
//! malformed. [`FrameDecoder`] is the
//! incremental path (feed arbitrary byte slices, frames pop out as they
//! complete — reads split across buffer boundaries are the normal
//! case); [`read_frame`] / [`write_frame`] are the blocking-socket
//! convenience pair built on the same codec.

use janus_cluster::ShardOp;
use janus_common::QueryTemplate;
use janus_common::{
    crc32, faults, AggregateFunction, Estimate, JanusError, Query, RangePredicate, Result, Row,
};
use janus_core::SynopsisConfig;
use janus_storage::ArchiveBackendKind;
use std::io::{Read, Write};

/// Protocol version carried in every frame header. Version 2 added the
/// tenant/deadline fields on [`Frame::Query`] and the partiality flag on
/// every transported [`Estimate`]; version 3 added the end-to-end CRC32
/// trailer on every frame.
pub const WIRE_VERSION: u8 = 3;

/// Upper bound on a frame's declared length. A prefix above this is a
/// protocol error and is rejected before any allocation happens, so a
/// garbage or adversarial header cannot make a node reserve gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Result of answering one scattered sub-query on a node.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome {
    /// The shard holds no matching data (`Ok(None)` from the engine).
    Empty,
    /// A single estimate (COUNT/SUM/MIN/MAX path).
    Estimate(Estimate),
    /// SUM and COUNT moments for the coordinator-side AVG ratio.
    Moments {
        /// SUM moment.
        sum: Estimate,
        /// COUNT moment.
        count: Estimate,
    },
    /// The replica is behind the freshness gate the coordinator asked
    /// for; the caller should fall back to the primary.
    Stale {
        /// Topic offset the node had applied when it refused.
        applied: u64,
    },
    /// The engine returned an error.
    Failed(String),
}

/// One protocol message. See the module docs for the on-wire layout.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Connection greeting: the coordinator introduces itself.
    Hello {
        /// Coordinator-chosen connection id (diagnostic only).
        node_id: u64,
    },
    /// Greeting reply: the node's identity and placement facts.
    HelloAck {
        /// The node's stable id.
        node_id: u64,
        /// Failure domain the node was started in (rack/zone label).
        domain: String,
        /// Shards the node currently hosts.
        shards: Vec<u32>,
    },
    /// Liveness probe; doubles as the applied-offset poll.
    Heartbeat {
        /// Echo-back sequence number.
        seq: u64,
    },
    /// Heartbeat reply with per-hosted-shard applied offsets.
    HeartbeatAck {
        /// Sequence number from the probe.
        seq: u64,
        /// `(shard, applied_topic_offset)` for every hosted shard.
        applied: Vec<(u32, u64)>,
    },
    /// Start hosting `shard`, bootstrapped from `rows` under `config`
    /// (the per-shard seed is already mixed into `config.seed`).
    Host {
        /// Shard id.
        shard: u32,
        /// Fully-resolved per-shard synopsis configuration.
        config: SynopsisConfig,
        /// Bootstrap partition for this shard.
        rows: Vec<Row>,
    },
    /// Ship a contiguous run of topic records starting at
    /// `first_offset` — the tail-replication path.
    PublishBatch {
        /// Shard id.
        shard: u32,
        /// Topic offset of `ops[0]`.
        first_offset: u64,
        /// The records, in topic order.
        ops: Vec<ShardOp>,
    },
    /// Publish acknowledgement: the node's durable and applied horizons.
    PublishAck {
        /// Shard id.
        shard: u32,
        /// Topic records accepted into the node's local tail copy.
        received: u64,
        /// Topic records applied into the shard engine.
        applied: u64,
    },
    /// Scatter one sub-query to the node hosting `shard`.
    Query {
        /// Correlation id echoed in the reply.
        id: u64,
        /// Shard id.
        shard: u32,
        /// `true` requests SUM/COUNT moments (AVG path) instead of a
        /// single estimate.
        moments: bool,
        /// Freshness gate: the node must have applied at least this
        /// topic offset or answer [`QueryOutcome::Stale`].
        min_applied: u64,
        /// Tenant the query is billed to (0 = the untenanted default).
        tenant: u32,
        /// Milliseconds the coordinator is willing to wait for this
        /// sub-answer (0 = no deadline). Advisory on the node side; the
        /// coordinator enforces it with a socket read timeout.
        deadline_ms: u64,
        /// The sub-query.
        query: Query,
    },
    /// Gather reply for a scattered sub-query.
    Estimate {
        /// Correlation id from the [`Frame::Query`].
        id: u64,
        /// The answer.
        outcome: QueryOutcome,
    },
    /// Ask the node to snapshot a hosted shard (checkpoint shipping).
    FetchCheckpoint {
        /// Shard id.
        shard: u32,
    },
    /// A shipped shard checkpoint: install it and start hosting. The
    /// payload is a JSON-serialized `ShardCheckpoint` — the same bytes
    /// the file-backed checkpoint store persists, framed for transit.
    Checkpoint {
        /// Shard id.
        shard: u32,
        /// Per-shard synopsis configuration for the restore.
        config: SynopsisConfig,
        /// JSON `ShardCheckpoint` bytes.
        payload: Vec<u8>,
    },
    /// Stop hosting `shard` and drop its local state (post-migration).
    Release {
        /// Shard id.
        shard: u32,
    },
    /// Ask for a hosted shard's exact archive population.
    Population {
        /// Shard id.
        shard: u32,
    },
    /// Population reply.
    PopulationAck {
        /// Shard id.
        shard: u32,
        /// Rows in the shard's archive.
        rows: u64,
    },
    /// Generic success reply.
    Ok,
    /// Generic failure reply.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Graceful daemon shutdown request.
    Shutdown,
}

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
const KIND_HEARTBEAT: u8 = 3;
const KIND_HEARTBEAT_ACK: u8 = 4;
const KIND_HOST: u8 = 5;
// 6 was the single-record `Publish`; reserved, never reassigned.
const KIND_PUBLISH_BATCH: u8 = 7;
const KIND_PUBLISH_ACK: u8 = 8;
const KIND_QUERY: u8 = 9;
const KIND_ESTIMATE: u8 = 10;
const KIND_FETCH_CHECKPOINT: u8 = 11;
const KIND_CHECKPOINT: u8 = 12;
const KIND_RELEASE: u8 = 13;
const KIND_POPULATION: u8 = 14;
const KIND_POPULATION_ACK: u8 = 15;
const KIND_OK: u8 = 16;
const KIND_ERROR: u8 = 17;
const KIND_SHUTDOWN: u8 = 18;

fn perr(msg: impl Into<String>) -> JanusError {
    JanusError::Protocol(msg.into())
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn count(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize, "collection too large for wire");
        self.u32(n as u32);
    }
    fn str(&mut self, s: &str) {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.count(b.len());
        self.buf.extend_from_slice(b);
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.count(xs.len());
        for x in xs {
            self.f64(*x);
        }
    }
    fn usizes(&mut self, xs: &[usize]) {
        self.count(xs.len());
        for x in xs {
            self.usize(*x);
        }
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn agg(&mut self, agg: AggregateFunction) {
        self.u8(match agg {
            AggregateFunction::Count => 0,
            AggregateFunction::Sum => 1,
            AggregateFunction::Avg => 2,
            AggregateFunction::Min => 3,
            AggregateFunction::Max => 4,
        });
    }
    fn row(&mut self, row: &Row) {
        self.u64(row.id);
        self.f64s(&row.values);
    }
    fn rows(&mut self, rows: &[Row]) {
        self.count(rows.len());
        for r in rows {
            self.row(r);
        }
    }
    fn op(&mut self, op: &ShardOp) {
        match op {
            ShardOp::Insert(row) => {
                self.u8(0);
                self.row(row);
            }
            ShardOp::Delete(id) => {
                self.u8(1);
                self.u64(*id);
            }
        }
    }
    fn ops(&mut self, ops: &[ShardOp]) {
        self.count(ops.len());
        for op in ops {
            self.op(op);
        }
    }
    fn estimate(&mut self, e: &Estimate) {
        self.f64(e.value);
        self.f64(e.catchup_variance);
        self.f64(e.sample_variance);
        self.usize(e.covered_nodes);
        self.usize(e.partial_nodes);
        self.usize(e.samples_used);
        self.bool(e.partial);
    }
    fn query(&mut self, q: &Query) {
        self.agg(q.agg);
        self.usize(q.agg_column);
        self.usizes(&q.predicate_columns);
        self.f64s(q.range.lo());
        self.f64s(q.range.hi());
    }
    fn config(&mut self, c: &SynopsisConfig) {
        self.agg(c.template.agg);
        self.usize(c.template.agg_column);
        self.usizes(&c.template.predicate_columns);
        self.usize(c.leaf_count);
        self.f64(c.sample_rate);
        self.f64(c.catchup_ratio);
        self.usize(c.minmax_k);
        self.f64(c.beta);
        self.f64(c.delta);
        self.f64(c.rho);
        self.u64(c.seed);
        self.bool(c.auto_repartition);
        self.usize(c.trigger_check_interval);
        self.usize(c.catchup_chunk);
        self.usize(c.catchup_per_update);
        match &c.archive_backend {
            ArchiveBackendKind::Memory => self.u8(0),
            ArchiveBackendKind::FileSpill { root, seg_rows } => {
                self.u8(1);
                self.str(&root.to_string_lossy());
                self.usize(*seg_rows);
            }
        }
    }
    fn outcome(&mut self, o: &QueryOutcome) {
        match o {
            QueryOutcome::Empty => self.u8(0),
            QueryOutcome::Estimate(e) => {
                self.u8(1);
                self.estimate(e);
            }
            QueryOutcome::Moments { sum, count } => {
                self.u8(2);
                self.estimate(sum);
                self.estimate(count);
            }
            QueryOutcome::Stale { applied } => {
                self.u8(3);
                self.u64(*applied);
            }
            QueryOutcome::Failed(msg) => {
                self.u8(4);
                self.str(msg);
            }
        }
    }
}

/// Encodes `frame` into its full on-wire byte sequence (length prefix
/// included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc {
        buf: vec![0, 0, 0, 0, WIRE_VERSION, 0],
    };
    let kind = match frame {
        Frame::Hello { node_id } => {
            e.u64(*node_id);
            KIND_HELLO
        }
        Frame::HelloAck {
            node_id,
            domain,
            shards,
        } => {
            e.u64(*node_id);
            e.str(domain);
            e.count(shards.len());
            for s in shards {
                e.u32(*s);
            }
            KIND_HELLO_ACK
        }
        Frame::Heartbeat { seq } => {
            e.u64(*seq);
            KIND_HEARTBEAT
        }
        Frame::HeartbeatAck { seq, applied } => {
            e.u64(*seq);
            e.count(applied.len());
            for (shard, off) in applied {
                e.u32(*shard);
                e.u64(*off);
            }
            KIND_HEARTBEAT_ACK
        }
        Frame::Host {
            shard,
            config,
            rows,
        } => {
            e.u32(*shard);
            e.config(config);
            e.rows(rows);
            KIND_HOST
        }
        Frame::PublishBatch {
            shard,
            first_offset,
            ops,
        } => {
            e.u32(*shard);
            e.u64(*first_offset);
            e.ops(ops);
            KIND_PUBLISH_BATCH
        }
        Frame::PublishAck {
            shard,
            received,
            applied,
        } => {
            e.u32(*shard);
            e.u64(*received);
            e.u64(*applied);
            KIND_PUBLISH_ACK
        }
        Frame::Query {
            id,
            shard,
            moments,
            min_applied,
            tenant,
            deadline_ms,
            query,
        } => {
            e.u64(*id);
            e.u32(*shard);
            e.bool(*moments);
            e.u64(*min_applied);
            e.u32(*tenant);
            e.u64(*deadline_ms);
            e.query(query);
            KIND_QUERY
        }
        Frame::Estimate { id, outcome } => {
            e.u64(*id);
            e.outcome(outcome);
            KIND_ESTIMATE
        }
        Frame::FetchCheckpoint { shard } => {
            e.u32(*shard);
            KIND_FETCH_CHECKPOINT
        }
        Frame::Checkpoint {
            shard,
            config,
            payload,
        } => {
            e.u32(*shard);
            e.config(config);
            e.bytes(payload);
            KIND_CHECKPOINT
        }
        Frame::Release { shard } => {
            e.u32(*shard);
            KIND_RELEASE
        }
        Frame::Population { shard } => {
            e.u32(*shard);
            KIND_POPULATION
        }
        Frame::PopulationAck { shard, rows } => {
            e.u32(*shard);
            e.u64(*rows);
            KIND_POPULATION_ACK
        }
        Frame::Ok => KIND_OK,
        Frame::Error { message } => {
            e.str(message);
            KIND_ERROR
        }
        Frame::Shutdown => KIND_SHUTDOWN,
    };
    e.buf[5] = kind;
    let crc = crc32(&e.buf[4..]);
    e.buf.extend_from_slice(&crc.to_le_bytes());
    let len = (e.buf.len() - 4) as u32;
    e.buf[..4].copy_from_slice(&len.to_le_bytes());
    // Chaos hook: flips one bit *after* the checksum was stamped, so an
    // injected corruption models in-flight damage the CRC must catch.
    // Only the payload (version/kind/body/crc) is fair game: the length
    // prefix is framing, whose integrity the transport owns (a flipped
    // length would stall the peer waiting for bytes that never come,
    // not corrupt data) — end-to-end CRC guards everything after it.
    faults::maybe_corrupt("wire.encode", &mut e.buf[4..]);
    e.buf
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(perr(format!(
                "truncated frame: needed {n} more bytes, had {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| perr(format!("value {v} overflows usize")))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(perr(format!("invalid bool tag {other}"))),
        }
    }
    /// Reads a collection count and refuses counts that could not
    /// possibly fit in the remaining bytes (each element occupies at
    /// least `min_elem` bytes) — so a hostile count cannot trigger a
    /// huge allocation.
    fn count(&mut self, min_elem: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(perr(format!(
                "collection count {n} exceeds {} remaining payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| perr("string is not valid UTF-8"))
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }
    fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn usizes(&mut self) -> Result<Vec<usize>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.usize()).collect()
    }
    fn agg(&mut self) -> Result<AggregateFunction> {
        Ok(match self.u8()? {
            0 => AggregateFunction::Count,
            1 => AggregateFunction::Sum,
            2 => AggregateFunction::Avg,
            3 => AggregateFunction::Min,
            4 => AggregateFunction::Max,
            other => return Err(perr(format!("invalid aggregate tag {other}"))),
        })
    }
    fn row(&mut self) -> Result<Row> {
        let id = self.u64()?;
        let values = self.f64s()?;
        Ok(Row::new(id, values))
    }
    fn rows(&mut self) -> Result<Vec<Row>> {
        let n = self.count(12)?;
        (0..n).map(|_| self.row()).collect()
    }
    fn op(&mut self) -> Result<ShardOp> {
        Ok(match self.u8()? {
            0 => ShardOp::Insert(self.row()?),
            1 => ShardOp::Delete(self.u64()?),
            other => return Err(perr(format!("invalid shard-op tag {other}"))),
        })
    }
    fn ops(&mut self) -> Result<Vec<ShardOp>> {
        let n = self.count(9)?;
        (0..n).map(|_| self.op()).collect()
    }
    fn estimate(&mut self) -> Result<Estimate> {
        Ok(Estimate {
            value: self.f64()?,
            catchup_variance: self.f64()?,
            sample_variance: self.f64()?,
            covered_nodes: self.usize()?,
            partial_nodes: self.usize()?,
            samples_used: self.usize()?,
            partial: self.bool()?,
        })
    }
    fn query(&mut self) -> Result<Query> {
        let agg = self.agg()?;
        let agg_column = self.usize()?;
        let predicate_columns = self.usizes()?;
        let lo = self.f64s()?;
        let hi = self.f64s()?;
        let range =
            RangePredicate::new(lo, hi).map_err(|e| perr(format!("invalid query range: {e}")))?;
        Query::new(agg, agg_column, predicate_columns, range)
            .map_err(|e| perr(format!("invalid query: {e}")))
    }
    fn config(&mut self) -> Result<SynopsisConfig> {
        let agg = self.agg()?;
        let agg_column = self.usize()?;
        let predicate_columns = self.usizes()?;
        let template = QueryTemplate::new(agg, agg_column, predicate_columns);
        let mut c = SynopsisConfig::paper_default(template, 0);
        c.leaf_count = self.usize()?;
        c.sample_rate = self.f64()?;
        c.catchup_ratio = self.f64()?;
        c.minmax_k = self.usize()?;
        c.beta = self.f64()?;
        c.delta = self.f64()?;
        c.rho = self.f64()?;
        c.seed = self.u64()?;
        c.auto_repartition = self.bool()?;
        c.trigger_check_interval = self.usize()?;
        c.catchup_chunk = self.usize()?;
        c.catchup_per_update = self.usize()?;
        c.archive_backend = match self.u8()? {
            0 => ArchiveBackendKind::Memory,
            1 => {
                let root = std::path::PathBuf::from(self.str()?);
                let seg_rows = self.usize()?;
                ArchiveBackendKind::FileSpill { root, seg_rows }
            }
            other => return Err(perr(format!("invalid archive-backend tag {other}"))),
        };
        Ok(c)
    }
    fn outcome(&mut self) -> Result<QueryOutcome> {
        Ok(match self.u8()? {
            0 => QueryOutcome::Empty,
            1 => QueryOutcome::Estimate(self.estimate()?),
            2 => QueryOutcome::Moments {
                sum: self.estimate()?,
                count: self.estimate()?,
            },
            3 => QueryOutcome::Stale {
                applied: self.u64()?,
            },
            4 => QueryOutcome::Failed(self.str()?),
            other => return Err(perr(format!("invalid query-outcome tag {other}"))),
        })
    }
}

/// Validates a length prefix before any body is read or allocated.
fn check_len(len: usize) -> Result<()> {
    if len < 6 {
        return Err(perr(format!(
            "frame length {len} below the 6-byte version/kind/crc envelope"
        )));
    }
    if len > MAX_FRAME_LEN {
        return Err(perr(format!(
            "frame length {len} exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"
        )));
    }
    Ok(())
}

/// Decodes one frame payload (the bytes *after* the length prefix:
/// version, kind, body, CRC trailer). The checksum is verified before
/// any field is parsed; trailing bytes are a protocol error.
pub fn decode_payload(payload: &[u8]) -> Result<Frame> {
    if payload.len() < 6 {
        return Err(perr(format!(
            "frame payload of {} bytes is below the 6-byte envelope",
            payload.len()
        )));
    }
    let (covered, trailer) = payload.split_at(payload.len() - 4);
    let want = u32::from_le_bytes(trailer.try_into().unwrap());
    let got = crc32(covered);
    if got != want {
        return Err(perr(format!(
            "frame CRC mismatch: computed {got:08x}, trailer says {want:08x} — \
             corrupt frame, dropping the connection"
        )));
    }
    let mut d = Dec {
        buf: covered,
        pos: 0,
    };
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(perr(format!(
            "unsupported wire version {version} (expected {WIRE_VERSION})"
        )));
    }
    let kind = d.u8()?;
    let frame = match kind {
        KIND_HELLO => Frame::Hello { node_id: d.u64()? },
        KIND_HELLO_ACK => {
            let node_id = d.u64()?;
            let domain = d.str()?;
            let n = d.count(4)?;
            let shards = (0..n).map(|_| d.u32()).collect::<Result<Vec<_>>>()?;
            Frame::HelloAck {
                node_id,
                domain,
                shards,
            }
        }
        KIND_HEARTBEAT => Frame::Heartbeat { seq: d.u64()? },
        KIND_HEARTBEAT_ACK => {
            let seq = d.u64()?;
            let n = d.count(12)?;
            let applied = (0..n)
                .map(|_| Ok((d.u32()?, d.u64()?)))
                .collect::<Result<Vec<_>>>()?;
            Frame::HeartbeatAck { seq, applied }
        }
        KIND_HOST => Frame::Host {
            shard: d.u32()?,
            config: d.config()?,
            rows: d.rows()?,
        },
        KIND_PUBLISH_BATCH => Frame::PublishBatch {
            shard: d.u32()?,
            first_offset: d.u64()?,
            ops: d.ops()?,
        },
        KIND_PUBLISH_ACK => Frame::PublishAck {
            shard: d.u32()?,
            received: d.u64()?,
            applied: d.u64()?,
        },
        KIND_QUERY => Frame::Query {
            id: d.u64()?,
            shard: d.u32()?,
            moments: d.bool()?,
            min_applied: d.u64()?,
            tenant: d.u32()?,
            deadline_ms: d.u64()?,
            query: d.query()?,
        },
        KIND_ESTIMATE => Frame::Estimate {
            id: d.u64()?,
            outcome: d.outcome()?,
        },
        KIND_FETCH_CHECKPOINT => Frame::FetchCheckpoint { shard: d.u32()? },
        KIND_CHECKPOINT => Frame::Checkpoint {
            shard: d.u32()?,
            config: d.config()?,
            payload: d.bytes()?,
        },
        KIND_RELEASE => Frame::Release { shard: d.u32()? },
        KIND_POPULATION => Frame::Population { shard: d.u32()? },
        KIND_POPULATION_ACK => Frame::PopulationAck {
            shard: d.u32()?,
            rows: d.u64()?,
        },
        KIND_OK => Frame::Ok,
        KIND_ERROR => Frame::Error { message: d.str()? },
        KIND_SHUTDOWN => Frame::Shutdown,
        other => return Err(perr(format!("unknown frame kind {other}"))),
    };
    if d.remaining() != 0 {
        return Err(perr(format!(
            "{} trailing bytes after frame body",
            d.remaining()
        )));
    }
    Ok(frame)
}

/// Incremental frame decoder for non-blocking or chunked transports.
///
/// Feed it byte slices in whatever sizes the wire delivers them;
/// [`FrameDecoder::try_next`] yields a frame as soon as one is complete.
/// A frame split across arbitrarily many `feed` calls decodes identically
/// to one delivered whole. Oversized or undersized length prefixes error
/// immediately on header receipt — before the body arrives, and without
/// reserving body-sized memory.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed, or an error for a malformed stream (the decoder is not
    /// recoverable after an error — resync is a transport concern).
    pub fn try_next(&mut self) -> Result<Option<Frame>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        check_len(len)?;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = decode_payload(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------
// Blocking-socket convenience pair
// ---------------------------------------------------------------------

fn io_err(what: &str, e: std::io::Error) -> JanusError {
    perr(format!("{what}: {e}"))
}

/// Writes one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    faults::check_protocol("net.write")?;
    w.write_all(&encode_frame(frame))
        .map_err(|e| io_err("write frame", e))
}

/// Reads one frame from a blocking stream. Returns `Ok(None)` on a
/// clean end-of-stream at a frame boundary; EOF mid-frame is a protocol
/// error. The body buffer is only allocated after the length prefix
/// passes validation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    faults::check_protocol("net.read")?;
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(perr("connection closed mid frame header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err("read frame header", e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    check_len(len)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| io_err("read frame body", e))?;
    decode_payload(&payload).map(Some)
}

/// Writes `frame` and reads the reply — the client-side request/response
/// helper. A clean EOF instead of a reply is a protocol error.
pub fn roundtrip(stream: &mut (impl Read + Write), frame: &Frame) -> Result<Frame> {
    write_frame(stream, frame)?;
    read_frame(stream)?.ok_or_else(|| perr("connection closed before reply"))
}

fn is_read_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// [`read_frame`] for a stream carrying a socket read timeout. A timeout
/// that strikes **before the first header byte** returns
/// [`JanusError::Deadline`] — the peer is slow, not broken, and the
/// stream is still at a frame boundary so the connection remains usable.
/// Once any byte of a frame has arrived the frame is known to be in
/// flight, so timeouts mid-frame *retry the read* instead of erroring:
/// the caller may overshoot its deadline by one small frame, but the
/// stream can never desynchronize mid-frame.
pub fn read_frame_deadline(r: &mut impl Read) -> Result<Option<Frame>> {
    faults::check_protocol("net.read")?;
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(perr("connection closed mid frame header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_read_timeout(&e) && got == 0 => return Err(JanusError::Deadline),
            Err(e) if is_read_timeout(&e) => continue,
            Err(e) => return Err(io_err("read frame header", e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    check_len(len)?;
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(perr("connection closed mid frame body")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_read_timeout(&e) => continue,
            Err(e) => return Err(io_err("read frame body", e)),
        }
    }
    decode_payload(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_via_incremental_decoder() {
        let frame = Frame::PublishBatch {
            shard: 3,
            first_offset: 41,
            ops: vec![
                ShardOp::Insert(Row::new(7, vec![1.5, -2.5])),
                ShardOp::Delete(9),
            ],
        };
        let bytes = encode_frame(&frame);
        let mut dec = FrameDecoder::new();
        for b in &bytes {
            assert!(dec.try_next().unwrap().is_none());
            dec.feed(std::slice::from_ref(b));
        }
        assert_eq!(dec.try_next().unwrap(), Some(frame));
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn oversized_length_prefix_errors_before_body() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(u32::MAX).to_le_bytes());
        assert!(matches!(dec.try_next(), Err(JanusError::Protocol(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Hand-build a payload with a stray byte after the body and a
        // *valid* CRC over it, so the trailing-byte check (not the
        // checksum) is what rejects it.
        let encoded = encode_frame(&Frame::Ok);
        let mut payload = encoded[4..encoded.len() - 4].to_vec();
        payload.push(0xff);
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(dec.try_next().is_err());
    }

    #[test]
    fn flipped_bit_fails_the_frame_crc_with_a_typed_error() {
        let frame = Frame::PublishBatch {
            shard: 1,
            first_offset: 7,
            ops: vec![ShardOp::Insert(Row::new(3, vec![0.5]))],
        };
        let mut bytes = encode_frame(&frame);
        bytes[6] ^= 0x10; // damage the body, leave the length intact
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        match dec.try_next() {
            Err(JanusError::Protocol(msg)) => assert!(msg.contains("CRC")),
            other => panic!("corrupt frame must fail CRC, got {other:?}"),
        }
    }

    #[test]
    fn the_retired_publish_kind_stays_unassigned() {
        // Kind 6 was the single-record `Publish`: a peer still sending it
        // gets a typed error, never another frame's decoder.
        let mut payload = vec![WIRE_VERSION, 6];
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        match decode_payload(&payload) {
            Err(JanusError::Protocol(msg)) => assert!(msg.contains("unknown frame kind 6")),
            other => panic!("kind 6 must not decode, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }).unwrap(), None);
    }
}
