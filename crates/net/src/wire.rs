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
//! never mis-parse into a structurally valid frame. Fields use the
//! workspace's one binary codec ([`janus_common::codec`]): little-endian
//! integers, floats as their IEEE-754 bit patterns (so estimates survive
//! the wire bit-exactly — the property the cluster's equivalence tests
//! pin), `u32` count-prefixed collections and UTF-8 strings.
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
//! convenience pair built on the same codec, and [`write_encoded`] sends
//! bytes [`encode_frame`] produced once for several peers.
//!
//! **Publish batches.** A [`Frame::PublishBatch`] record is a `u8` tag
//! (0 insert, 1 delete), the row id and, for an insert, the row's
//! count-prefixed values. That layout is written once ([`encode_frame`]
//! and [`encode_publish_batch`] call one writer) and parsed once (the
//! owned [`decode_payload`] and the flat [`decode_publish_batch`] call
//! one parser). The two batch-only paths are the ship path's:
//! [`encode_publish_batch`] encodes records straight from a topic's
//! in-place read into a buffer the shipper reuses, and
//! [`decode_publish_batch`] decodes into a [`FlatBatch`] — ids plus one
//! `f64` buffer — that a node's connection reuses from batch to batch.
//! So per batch a node allocates the frame's payload buffer
//! ([`read_payload`]) and nothing per record: the engine copies an
//! insert's values into its archive and materialises a row only for the
//! reservoir's admissions.

use janus_cluster::{ShardOp, ShardOpRef};
use janus_common::codec::{self, Dec, Decode, Enc, Encode};
use janus_common::{faults, Estimate, JanusError, Query, Result, Row, RowId, RowRef};
use janus_core::SynopsisConfig;
use std::io::{Read, Write};

/// Protocol version carried in every frame header. Version 2 added the
/// tenant/deadline fields on [`Frame::Query`] and the partiality flag on
/// every transported [`Estimate`]; version 3 added the end-to-end CRC32
/// trailer on every frame; version 4 made the [`Frame::Checkpoint`]
/// payload a sealed binary `ShardCheckpoint` blob; version 5 dropped the
/// archive-backend field from the [`SynopsisConfig`] that
/// [`Frame::Host`] and [`Frame::Checkpoint`] carry.
pub const WIRE_VERSION: u8 = 5;

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
    /// `first_offset` — the tail-replication path. The node applies the
    /// records past its applied offset before it acks; a run that starts
    /// past that offset is refused as a gap.
    PublishBatch {
        /// Shard id.
        shard: u32,
        /// Topic offset of `ops[0]`.
        first_offset: u64,
        /// The records, in topic order.
        ops: Vec<ShardOp>,
    },
    /// Publish acknowledgement: the node's applied horizon.
    PublishAck {
        /// Shard id.
        shard: u32,
        /// Topic offset up to which the node has received records. A
        /// node applies what it receives before it acks, so this always
        /// equals `applied`.
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
    /// payload is `ShardCheckpoint::to_bytes` — the same sealed codec
    /// blob layout the checkpoint stores persist, framed for transit.
    Checkpoint {
        /// Shard id.
        shard: u32,
        /// Per-shard synopsis configuration for the restore.
        config: SynopsisConfig,
        /// Encoded `ShardCheckpoint` blob.
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

/// [`Frame::PublishBatch`] record tags.
const RECORD_INSERT: u8 = 0;
const RECORD_DELETE: u8 = 1;
/// Fewest bytes one record occupies — a tag and an id — which the
/// record count is checked against before anything is reserved.
const RECORD_MIN_LEN: usize = 9;

fn perr(msg: impl Into<String>) -> JanusError {
    JanusError::Protocol(msg.into())
}

/// Appends one [`Frame::PublishBatch`] record — the one writer of the
/// record layout.
#[inline]
fn put_record(e: &mut Enc, op: &ShardOp) {
    match op {
        ShardOp::Insert(row) => {
            e.u8(RECORD_INSERT);
            e.u64(row.id);
            e.count(row.values.len());
            for &v in &row.values {
                e.f64(v);
            }
        }
        ShardOp::Delete(id) => {
            e.u8(RECORD_DELETE);
            e.u64(*id);
        }
    }
}

/// Appends a [`Frame::PublishBatch`] body: shard, first offset and the
/// `count` records `runs` hands out, count-prefixed.
#[inline]
fn put_publish_batch<'a>(
    e: &mut Enc,
    shard: u32,
    first_offset: u64,
    count: usize,
    runs: impl IntoIterator<Item = &'a [ShardOp]>,
) {
    e.u32(shard);
    e.u64(first_offset);
    e.count(count);
    let mut written = 0;
    for run in runs {
        for op in run {
            put_record(e, op);
        }
        written += run.len();
    }
    debug_assert_eq!(written, count, "publish batch count and records disagree");
}

/// One [`Frame::PublishBatch`] record as it lies in a payload: an
/// insert's values are still their little-endian bytes.
enum RecordView<'a> {
    Insert { id: RowId, values: &'a [u8] },
    Delete(RowId),
}

/// An insert's values from their little-endian bytes.
#[inline]
fn le_f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
}

/// Reads one [`Frame::PublishBatch`] record — the one parser under
/// [`decode_payload`] and [`decode_publish_batch`].
#[inline]
fn parse_record<'a>(d: &mut Dec<'a>) -> Result<RecordView<'a>> {
    Ok(match d.u8()? {
        RECORD_INSERT => {
            let id = d.u64()?;
            let n = d.count(8)?;
            RecordView::Insert {
                id,
                values: d.take(8 * n)?,
            }
        }
        RECORD_DELETE => RecordView::Delete(d.u64()?),
        other => return Err(d.error(format!("invalid shard-op tag {other}"))),
    })
}

/// Reads a [`Frame::PublishBatch`] body's shard, first offset and record
/// count; the count is checked against the bytes left before the caller
/// reserves anything for it.
#[inline]
fn parse_batch_head(d: &mut Dec<'_>) -> Result<(u32, u64, usize)> {
    Ok((d.u32()?, d.u64()?, d.count(RECORD_MIN_LEN)?))
}

impl Encode for QueryOutcome {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        match self {
            QueryOutcome::Empty => e.u8(0),
            QueryOutcome::Estimate(est) => {
                e.u8(1);
                est.encode(e);
            }
            QueryOutcome::Moments { sum, count } => {
                e.u8(2);
                sum.encode(e);
                count.encode(e);
            }
            QueryOutcome::Stale { applied } => {
                e.u8(3);
                e.u64(*applied);
            }
            QueryOutcome::Failed(msg) => {
                e.u8(4);
                e.str(msg);
            }
        }
    }
}

impl Decode for QueryOutcome {
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(match d.u8()? {
            0 => QueryOutcome::Empty,
            1 => QueryOutcome::Estimate(d.get()?),
            2 => QueryOutcome::Moments {
                sum: d.get()?,
                count: d.get()?,
            },
            3 => QueryOutcome::Stale { applied: d.u64()? },
            4 => QueryOutcome::Failed(d.str()?),
            other => return Err(d.error(format!("invalid query-outcome tag {other}"))),
        })
    }
}

/// Encodes `frame` into its full on-wire byte sequence (length prefix
/// included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    // A fresh buffer starts at the header's exact capacity: it doubles
    // from there, and the capacity a multi-megabyte `Host` frame ends at
    // moves glibc's mmap and trim thresholds once it is freed, which
    // moved `peak_rss_mb` on a networked bootstrap by 5%.
    let mut e = Enc {
        buf: FRAME_HEADER.to_vec(),
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
            e.put(shards);
            KIND_HELLO_ACK
        }
        Frame::Heartbeat { seq } => {
            e.u64(*seq);
            KIND_HEARTBEAT
        }
        Frame::HeartbeatAck { seq, applied } => {
            e.u64(*seq);
            e.put(applied);
            KIND_HEARTBEAT_ACK
        }
        Frame::Host {
            shard,
            config,
            rows,
        } => {
            e.u32(*shard);
            e.put(config);
            e.put(rows);
            KIND_HOST
        }
        Frame::PublishBatch {
            shard,
            first_offset,
            ops,
        } => {
            put_publish_batch(&mut e, *shard, *first_offset, ops.len(), [ops.as_slice()]);
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
            e.put(query);
            KIND_QUERY
        }
        Frame::Estimate { id, outcome } => {
            e.u64(*id);
            e.put(outcome);
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
            e.put(config);
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
    seal_frame(&mut e.buf, kind);
    e.buf
}

/// Encodes a [`Frame::PublishBatch`] of the `count` records `runs` hands
/// out into `buf`, which is cleared first and keeps its capacity — the
/// shipper's encode straight from a topic's in-place read
/// ([`janus_storage::TopicLog::read`]), so each record is copied once,
/// into the frame. The bytes are [`encode_frame`]'s for the same frame,
/// through the same `wire.encode` failpoint.
pub fn encode_publish_batch<'a>(
    buf: &mut Vec<u8>,
    shard: u32,
    first_offset: u64,
    count: usize,
    runs: impl IntoIterator<Item = &'a [ShardOp]>,
) {
    let mut e = Enc {
        buf: std::mem::take(buf),
    };
    begin_frame(&mut e.buf);
    put_publish_batch(&mut e, shard, first_offset, count, runs);
    seal_frame(&mut e.buf, KIND_PUBLISH_BATCH);
    *buf = e.buf;
}

/// A frame's first bytes: the length prefix and the kind byte are
/// placeholders [`seal_frame`] fills in.
const FRAME_HEADER: [u8; 6] = [0, 0, 0, 0, WIRE_VERSION, 0];

/// Resets `buf` to a [`FRAME_HEADER`].
fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&FRAME_HEADER);
}

/// Stamps `kind`, the CRC trailer and the length prefix on a frame
/// begun with a [`FRAME_HEADER`].
fn seal_frame(buf: &mut Vec<u8>, kind: u8) {
    buf[5] = kind;
    codec::seal(buf, 4);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    // Chaos hook: flips one bit *after* the checksum was stamped, so an
    // injected corruption models in-flight damage the CRC must catch.
    // Only the payload (version/kind/body/crc) is fair game: the length
    // prefix is framing, whose integrity the transport owns (a flipped
    // length would stall the peer waiting for bytes that never come,
    // not corrupt data) — end-to-end CRC guards everything after it.
    faults::maybe_corrupt("wire.encode", &mut buf[4..]);
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
    let (kind, mut d) = open_payload(payload)?;
    let frame = match kind {
        KIND_HELLO => Frame::Hello { node_id: d.u64()? },
        KIND_HELLO_ACK => Frame::HelloAck {
            node_id: d.u64()?,
            domain: d.str()?,
            shards: d.get()?,
        },
        KIND_HEARTBEAT => Frame::Heartbeat { seq: d.u64()? },
        KIND_HEARTBEAT_ACK => Frame::HeartbeatAck {
            seq: d.u64()?,
            applied: d.get()?,
        },
        KIND_HOST => Frame::Host {
            shard: d.u32()?,
            config: d.get()?,
            rows: d.get()?,
        },
        KIND_PUBLISH_BATCH => {
            let (shard, first_offset, count) = parse_batch_head(&mut d)?;
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                ops.push(match parse_record(&mut d)? {
                    RecordView::Insert { id, values } => {
                        ShardOp::Insert(Row::new(id, le_f64s(values).collect()))
                    }
                    RecordView::Delete(id) => ShardOp::Delete(id),
                });
            }
            Frame::PublishBatch {
                shard,
                first_offset,
                ops,
            }
        }
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
            query: d.get()?,
        },
        KIND_ESTIMATE => Frame::Estimate {
            id: d.u64()?,
            outcome: d.get()?,
        },
        KIND_FETCH_CHECKPOINT => Frame::FetchCheckpoint { shard: d.u32()? },
        KIND_CHECKPOINT => Frame::Checkpoint {
            shard: d.u32()?,
            config: d.get()?,
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
    d.finish()?;
    Ok(frame)
}

/// Checks a payload's envelope — its size, then its CRC trailer, then
/// its version — and returns its kind and a decoder over its body.
fn open_payload(payload: &[u8]) -> Result<(u8, Dec<'_>)> {
    if payload.len() < 6 {
        return Err(perr(format!(
            "frame payload of {} bytes is below the 6-byte envelope",
            payload.len()
        )));
    }
    let covered = codec::unseal(payload, |why| {
        perr(format!(
            "frame {why} — corrupt frame, dropping the connection"
        ))
    })?;
    let mut d = Dec::new(covered, JanusError::Protocol);
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(perr(format!(
            "unsupported wire version {version} (expected {WIRE_VERSION})"
        )));
    }
    let kind = d.u8()?;
    Ok((kind, d))
}

/// Whether `payload` (as [`read_payload`] returns it) says it is a
/// [`Frame::PublishBatch`]. Its CRC is not checked here: a damaged kind
/// byte sends the payload to a decoder that refuses it either way.
pub fn is_publish_batch(payload: &[u8]) -> bool {
    payload.get(1) == Some(&KIND_PUBLISH_BATCH)
}

/// A [`Frame::PublishBatch`] decoded flat: per record its id and value
/// count (none for a delete), and one `f64` buffer holding every
/// insert's values in record order. [`decode_publish_batch`] refills it
/// in place, so a batch reused from frame to frame allocates nothing
/// once it has held one as large.
#[derive(Debug, Default)]
pub struct FlatBatch {
    shard: u32,
    first_offset: u64,
    records: Vec<(RowId, Option<u32>)>,
    values: Vec<f64>,
}

impl FlatBatch {
    /// The shard the batch is for.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Topic offset of the first record.
    pub fn first_offset(&self) -> u64 {
        self.first_offset
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in topic order, borrowed from the batch.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = ShardOpRef<'_>> + '_ {
        let mut at = 0;
        self.records.iter().map(move |&(id, arity)| match arity {
            None => ShardOpRef::Delete(id),
            Some(n) => {
                let values = &self.values[at..at + n as usize];
                at += n as usize;
                ShardOpRef::Insert(RowRef::new(id, values))
            }
        })
    }
}

/// Decodes a [`Frame::PublishBatch`] payload into `batch`, replacing
/// what it held. It makes every check [`decode_payload`] makes, in the
/// same order — size, CRC, version, kind, each record count against the
/// bytes left before anything is reserved, record tags, trailing bytes —
/// through the same record parser, and accepts exactly the
/// `PublishBatch` payloads that [`decode_payload`] accepts. A payload of
/// another kind is a [`JanusError::Protocol`] error. After an error the
/// batch's contents are unspecified.
pub fn decode_publish_batch(payload: &[u8], batch: &mut FlatBatch) -> Result<()> {
    let (kind, mut d) = open_payload(payload)?;
    if kind != KIND_PUBLISH_BATCH {
        return Err(perr(format!(
            "frame kind {kind} where a publish batch was expected"
        )));
    }
    let (shard, first_offset, count) = parse_batch_head(&mut d)?;
    batch.records.clear();
    batch.values.clear();
    batch.records.reserve(count);
    for _ in 0..count {
        batch.records.push(match parse_record(&mut d)? {
            RecordView::Insert { id, values } => {
                batch.values.extend(le_f64s(values));
                (id, Some((values.len() / 8) as u32))
            }
            RecordView::Delete(id) => (id, None),
        });
    }
    d.finish()?;
    batch.shard = shard;
    batch.first_offset = first_offset;
    Ok(())
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
    write_encoded(w, &encode_frame(frame))
}

/// Writes one frame already encoded by [`encode_frame`] — the one write
/// under every frame, so a frame encoded once and sent to several peers
/// passes the same `net.write` failpoint as any other.
pub fn write_encoded(w: &mut impl Write, bytes: &[u8]) -> Result<()> {
    faults::check_protocol("net.write")?;
    w.write_all(bytes).map_err(|e| io_err("write frame", e))
}

/// Reads one frame from a blocking stream. Returns `Ok(None)` on a
/// clean end-of-stream at a frame boundary; EOF mid-frame is a protocol
/// error. The body buffer is only allocated after the length prefix
/// passes validation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    read_frame_with(r, false)
}

/// Writes `frame` and reads the reply — the client-side request/response
/// helper. A clean EOF instead of a reply is a protocol error.
pub fn roundtrip(stream: &mut (impl Read + Write), frame: &Frame) -> Result<Frame> {
    write_frame(stream, frame)?;
    read_frame(stream)?.ok_or_else(|| perr("connection closed before reply"))
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
    read_frame_with(r, true)
}

/// The one frame reader under [`read_frame`] and
/// [`read_frame_deadline`] (`bounded`).
fn read_frame_with(r: &mut impl Read, bounded: bool) -> Result<Option<Frame>> {
    match read_payload_with(r, bounded)? {
        Some(payload) => decode_payload(&payload).map(Some),
        None => Ok(None),
    }
}

/// Reads one frame's payload — version, kind, body and CRC trailer, the
/// bytes [`decode_payload`] and [`decode_publish_batch`] take — off a
/// blocking stream without decoding it, into a buffer allocated for this
/// frame once its length prefix passes validation. `Ok(None)` on a clean
/// end-of-stream at a frame boundary; EOF mid-frame is a protocol error.
pub fn read_payload(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    read_payload_with(r, false)
}

/// [`read_payload`], bounded as [`read_frame_deadline`] when `bounded`.
fn read_payload_with(r: &mut impl Read, bounded: bool) -> Result<Option<Vec<u8>>> {
    faults::check_protocol("net.read")?;
    let mut header = [0u8; 4];
    match fill(r, &mut header, bounded, true)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(perr("connection closed mid frame header")),
    }
    let len = u32::from_le_bytes(header) as usize;
    check_len(len)?;
    let mut payload = vec![0u8; len];
    if fill(r, &mut payload, bounded, false)? < len {
        return Err(perr("connection closed mid frame body"));
    }
    Ok(Some(payload))
}

/// Reads `buf` full and returns the bytes read, fewer only at
/// end-of-stream. Interrupted reads retry. Unbounded, a read timeout is
/// an I/O error; `bounded`, it is [`JanusError::Deadline`] while nothing
/// of the frame has arrived (`at_start` and no byte yet) and is retried
/// after that.
fn fill(r: &mut impl Read, buf: &mut [u8], bounded: bool, at_start: bool) -> Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if bounded && is_read_timeout(&e) && at_start && got == 0 => {
                return Err(JanusError::Deadline)
            }
            Err(e) if bounded && is_read_timeout(&e) => continue,
            Err(e) => return Err(io_err("read frame", e)),
        }
    }
    Ok(got)
}

fn is_read_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::crc32;

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
    fn a_frame_of_another_version_is_refused_typed() {
        // A well-formed frame with a valid CRC, stamped by a peer speaking
        // another protocol version: refused before its kind is read.
        for version in [WIRE_VERSION - 1, WIRE_VERSION + 1] {
            let mut payload = vec![version, KIND_OK];
            let crc = crc32(&payload);
            payload.extend_from_slice(&crc.to_le_bytes());
            match decode_payload(&payload) {
                Err(JanusError::Protocol(msg)) => {
                    assert!(msg.contains("unsupported wire version"), "{msg}")
                }
                other => panic!("version {version} must be refused, got {other:?}"),
            }
        }
        let mut current = vec![WIRE_VERSION, KIND_OK];
        let crc = crc32(&current);
        current.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_payload(&current).unwrap(), Frame::Ok);
    }

    /// The trailer below is zlib's `crc32` of the frame's version, kind
    /// and body bytes (at version 4 it matched the bytewise CRC32 this
    /// codec shipped with): a checksum that only agrees with itself would
    /// still pass every round trip and bit-flip test, but not this.
    #[test]
    fn a_1024_row_publish_batch_keeps_its_crc_trailer() {
        use janus_common::faults::mix64;
        let unit = |k: u64| (mix64(k) >> 11) as f64 / (1u64 << 53) as f64;
        let ops = (0..1024u64)
            .map(|id| {
                ShardOp::Insert(Row::new(
                    id,
                    (0..5).map(|c| unit(id * 5 + c) * 1e3).collect(),
                ))
            })
            .collect();
        let bytes = encode_frame(&Frame::PublishBatch {
            shard: 2,
            first_offset: 4096,
            ops,
        });
        assert_eq!(bytes.len(), 54_298);
        assert_eq!(bytes[bytes.len() - 4..], 0xF36E_316Cu32.to_le_bytes());
    }

    #[test]
    fn a_pre_encoded_frame_writes_the_bytes_write_frame_writes() {
        use janus_common::{AggregateFunction, QueryTemplate};
        let rows: Vec<Row> = (0..1024u64)
            .map(|id| Row::new(id, vec![id as f64 * 0.5, -(id as f64)]))
            .collect();
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let frames = [
            Frame::Host {
                shard: 3,
                config: SynopsisConfig::paper_default(template, 9),
                rows: rows.clone(),
            },
            Frame::PublishBatch {
                shard: 1,
                first_offset: 2048,
                ops: rows.into_iter().map(ShardOp::Insert).collect(),
            },
        ];
        for frame in &frames {
            let (mut framed, mut encoded) = (Vec::new(), Vec::new());
            write_frame(&mut framed, frame).unwrap();
            write_encoded(&mut encoded, &encode_frame(frame)).unwrap();
            assert_eq!(framed, encoded);
            assert_eq!(decode_payload(&encoded[4..]).unwrap(), *frame);
        }
    }

    #[test]
    fn read_frame_clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }).unwrap(), None);
    }

    /// The largest shard `move_shard` can ship is `MAX_FRAME_LEN /
    /// bytes_per_row` rows, since a migration is one `Frame::Checkpoint`.
    /// A 5-column row is 52 codec bytes in the archive; the synopsis
    /// (1% sample, 10% catch-up queue, 128-leaf tree) adds the rest.
    #[test]
    fn a_shipped_5_column_shard_checkpoint_is_61_bytes_per_row() {
        use janus_cluster::ShardCheckpoint;
        use janus_common::{AggregateFunction, QueryTemplate};
        use janus_core::JanusEngine;
        use rand::{rngs::SmallRng, Rng, SeedableRng};

        const ROWS: u64 = 10_000;
        let mut rng = SmallRng::seed_from_u64(12);
        let rows = (0..ROWS)
            .map(|id| Row::new(id, (0..5).map(|_| rng.gen::<f64>() * 1e3).collect()))
            .collect();
        let template = QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]);
        let engine = JanusEngine::bootstrap(SynopsisConfig::paper_default(template, 12), rows)
            .expect("bootstrap");
        let checkpoint = ShardCheckpoint {
            shard: 0,
            applied_offset: 0,
            published_offset: 0,
            synopsis: engine.save_synopsis(),
            archive_rows: engine.export_rows(),
        };
        let frame = encode_frame(&Frame::Checkpoint {
            shard: 0,
            config: engine.config().clone(),
            payload: checkpoint.to_bytes(),
        });
        let bytes_per_row = frame.len() as f64 / ROWS as f64;
        println!(
            "{bytes_per_row:.2} bytes per row; largest movable shard {} rows",
            (MAX_FRAME_LEN as f64 / bytes_per_row) as u64
        );
        assert!(
            (bytes_per_row - 61.0).abs() < 0.5,
            "{bytes_per_row} bytes per row"
        );
    }
}
