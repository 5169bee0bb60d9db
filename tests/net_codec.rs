//! Wire-codec property tests: every frame type round-trips through the
//! encoder, the incremental decoder (fed one byte at a time, so every
//! possible split point is exercised), and the blocking reader — and the
//! decoder rejects malformed input (truncated frames, garbage headers,
//! oversized length prefixes) without panicking or allocating for a
//! body it will never accept.

use janus::common::{
    AggregateFunction, Estimate, JanusError, Query, QueryTemplate, RangePredicate, Row,
};
use janus::core::SynopsisConfig;
use janus::net::wire::{
    decode_payload, encode_frame, read_frame, Frame, FrameDecoder, QueryOutcome, MAX_FRAME_LEN,
};
use janus::prelude::ShardOp;
use proptest::prelude::*;

const AGGS: [AggregateFunction; 5] = [
    AggregateFunction::Count,
    AggregateFunction::Sum,
    AggregateFunction::Avg,
    AggregateFunction::Min,
    AggregateFunction::Max,
];

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_estimate() -> impl Strategy<Value = Estimate> {
    (
        -1.0e9f64..1.0e9,
        0.0f64..1.0e6,
        0.0f64..1.0e6,
        0usize..1_000,
        (0usize..1_000, any::<bool>()),
    )
        .prop_map(
            |(value, vc, vs, covered, (partial, was_partial))| Estimate {
                value,
                catchup_variance: vc,
                sample_variance: vs,
                covered_nodes: covered,
                partial_nodes: partial,
                samples_used: covered + partial,
                partial: was_partial,
            },
        )
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        0u64..1_000_000,
        prop::collection::vec(-1.0e6f64..1.0e6, 1..5),
    )
        .prop_map(|(id, values)| Row::new(id, values))
}

fn arb_op() -> impl Strategy<Value = ShardOp> {
    (arb_row(), any::<bool>()).prop_map(|(row, delete)| {
        if delete {
            ShardOp::Delete(row.id)
        } else {
            ShardOp::Insert(row)
        }
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (0usize..AGGS.len(), -100.0f64..100.0, 0.0f64..200.0).prop_map(|(agg, lo, width)| {
        Query::new(
            AGGS[agg],
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![lo + width]).unwrap(),
        )
        .unwrap()
    })
}

fn arb_config() -> impl Strategy<Value = SynopsisConfig> {
    (
        0usize..AGGS.len(),
        0u64..1_000_000,
        2usize..512,
        (0.001f64..0.5, 0.0f64..1.0),
    )
        .prop_map(|(agg, seed, leaves, (rate, ratio))| {
            let template = QueryTemplate::new(AGGS[agg], 1, vec![0]);
            let mut c = SynopsisConfig::paper_default(template, seed);
            c.leaf_count = leaves;
            c.sample_rate = rate;
            c.catchup_ratio = ratio;
            c.auto_repartition = seed % 2 == 0;
            c.minmax_k = (seed % 64) as usize + 1;
            c
        })
}

fn arb_outcome() -> impl Strategy<Value = QueryOutcome> {
    (0usize..5, arb_estimate(), arb_estimate(), 0u64..1_000_000).prop_map(|(tag, a, b, applied)| {
        match tag {
            0 => QueryOutcome::Empty,
            1 => QueryOutcome::Estimate(a),
            2 => QueryOutcome::Moments { sum: a, count: b },
            3 => QueryOutcome::Stale { applied },
            _ => QueryOutcome::Failed(format!("engine failure {applied}")),
        }
    })
}

// ---------------------------------------------------------------------
// The round-trip harness: whole-buffer decode, byte-at-a-time
// incremental decode, and the blocking reader must all reproduce the
// frame exactly.
// ---------------------------------------------------------------------

fn assert_round_trips(frame: Frame) {
    let bytes = encode_frame(&frame);

    let whole = decode_payload(&bytes[4..]).expect("whole-buffer decode");
    assert_eq!(whole, frame, "whole-buffer decode diverged");

    let mut dec = FrameDecoder::new();
    for (i, b) in bytes.iter().enumerate() {
        dec.feed(std::slice::from_ref(b));
        let got = dec.try_next().expect("incremental decode");
        if i + 1 < bytes.len() {
            assert!(
                got.is_none(),
                "frame complete after {} of {} bytes",
                i + 1,
                bytes.len()
            );
        } else {
            assert_eq!(got, Some(frame.clone()), "incremental decode diverged");
        }
    }

    let mut cursor = &bytes[..];
    let read = read_frame(&mut cursor).expect("blocking read");
    assert_eq!(read, Some(frame), "blocking read diverged");
    assert_eq!(
        read_frame(&mut cursor).expect("clean EOF"),
        None,
        "reader must see a clean end-of-stream after the frame"
    );
}

proptest! {
    #[test]
    fn hello_round_trips(node_id in 0u64..u64::MAX) {
        assert_round_trips(Frame::Hello { node_id });
    }

    #[test]
    fn hello_ack_round_trips(
        node_id in 0u64..1_000,
        shards in prop::collection::vec(0u32..64, 0..8),
    ) {
        assert_round_trips(Frame::HelloAck {
            node_id,
            domain: format!("rack-{node_id}"),
            shards,
        });
    }

    #[test]
    fn heartbeat_round_trips(seq in 0u64..u64::MAX) {
        assert_round_trips(Frame::Heartbeat { seq });
    }

    #[test]
    fn heartbeat_ack_round_trips(
        seq in 0u64..1_000_000,
        applied in prop::collection::vec((0u32..64, 0u64..1_000_000), 0..8),
    ) {
        assert_round_trips(Frame::HeartbeatAck { seq, applied });
    }

    #[test]
    fn host_round_trips(
        shard in 0u32..64,
        config in arb_config(),
        rows in prop::collection::vec(arb_row(), 0..16),
    ) {
        assert_round_trips(Frame::Host { shard, config, rows });
    }

    #[test]
    fn publish_batch_round_trips(
        shard in 0u32..64,
        first_offset in 0u64..1_000_000,
        ops in prop::collection::vec(arb_op(), 0..32),
    ) {
        assert_round_trips(Frame::PublishBatch { shard, first_offset, ops });
    }

    #[test]
    fn publish_ack_round_trips(
        shard in 0u32..64,
        received in 0u64..1_000_000,
        applied in 0u64..1_000_000,
    ) {
        assert_round_trips(Frame::PublishAck { shard, received, applied });
    }

    #[test]
    fn query_round_trips(
        id in 0u64..1_000_000,
        shard in 0u32..64,
        moments in any::<bool>(),
        min_applied in 0u64..1_000_000,
        tenant in 0u32..1_000,
        deadline_ms in 0u64..100_000,
        query in arb_query(),
    ) {
        assert_round_trips(Frame::Query {
            id, shard, moments, min_applied, tenant, deadline_ms, query,
        });
    }

    #[test]
    fn estimate_round_trips(id in 0u64..1_000_000, outcome in arb_outcome()) {
        assert_round_trips(Frame::Estimate { id, outcome });
    }

    #[test]
    fn fetch_checkpoint_round_trips(shard in 0u32..u32::MAX) {
        assert_round_trips(Frame::FetchCheckpoint { shard });
    }

    #[test]
    fn checkpoint_round_trips(
        shard in 0u32..64,
        config in arb_config(),
        payload in prop::collection::vec(0u32..256, 0..512),
    ) {
        let payload: Vec<u8> = payload.into_iter().map(|b| b as u8).collect();
        assert_round_trips(Frame::Checkpoint { shard, config, payload });
    }

    #[test]
    fn release_round_trips(shard in 0u32..u32::MAX) {
        assert_round_trips(Frame::Release { shard });
    }

    #[test]
    fn population_round_trips(shard in 0u32..u32::MAX) {
        assert_round_trips(Frame::Population { shard });
    }

    #[test]
    fn population_ack_round_trips(shard in 0u32..64, rows in 0u64..u64::MAX) {
        assert_round_trips(Frame::PopulationAck { shard, rows });
    }

    #[test]
    fn error_round_trips(code in 0u64..1_000_000) {
        assert_round_trips(Frame::Error { message: format!("failure #{code} — details") });
    }

    /// Estimates cross the wire via `f64::to_bits`, so even values a
    /// decimal text round trip would corrupt survive exactly.
    #[test]
    fn estimate_values_survive_bit_exactly(
        mantissa in 0u64..(1u64 << 52),
        id in 0u64..1_000,
    ) {
        let tricky = f64::from_bits((1023u64 << 52) | mantissa); // [1, 2) — full mantissa
        let mut est = Estimate::exact(tricky);
        est.sample_variance = f64::from_bits(mantissa | 1) * 1.0e-300; // subnormal-ish
        let frame = Frame::Estimate { id, outcome: QueryOutcome::Estimate(est) };
        let decoded = decode_payload(&encode_frame(&frame)[4..]).unwrap();
        let Frame::Estimate { outcome: QueryOutcome::Estimate(got), .. } = decoded else {
            panic!("wrong frame kind back");
        };
        prop_assert_eq!(got.value.to_bits(), tricky.to_bits());
        prop_assert_eq!(got.sample_variance.to_bits(), est.sample_variance.to_bits());
    }

    /// Any truncation of a valid frame must fail loudly (or, for the
    /// incremental decoder, keep waiting) — never produce a frame.
    #[test]
    fn truncated_frames_never_decode(
        ops in prop::collection::vec(arb_op(), 1..8),
        cut_seed in 0usize..10_000,
    ) {
        let frame = Frame::PublishBatch { shard: 1, first_offset: 7, ops };
        let bytes = encode_frame(&frame);
        let cut = 4 + cut_seed % (bytes.len() - 4); // keep the length prefix, cut the payload
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes[..cut]);
        prop_assert_eq!(dec.try_next().expect("waiting, not an error"), None);

        // The blocking reader sees the same truncation as a torn
        // connection: that is an error, not a clean EOF.
        let mut cursor = &bytes[..cut];
        prop_assert!(read_frame(&mut cursor).is_err());
    }
}

// ---------------------------------------------------------------------
// Deterministic robustness cases
// ---------------------------------------------------------------------

/// Shutdown / Ok carry no payload; pin them outside proptest.
#[test]
fn bodyless_frames_round_trip() {
    assert_round_trips(Frame::Ok);
    assert_round_trips(Frame::Shutdown);
}

#[test]
fn oversized_length_prefix_is_rejected_before_the_body_arrives() {
    // A length prefix above MAX_FRAME_LEN must fail from the four
    // header bytes alone — the decoder may not wait for (or allocate)
    // a body it will never accept.
    for len in [MAX_FRAME_LEN as u32 + 1, u32::MAX, u32::MAX - 1, 1 << 30] {
        let mut dec = FrameDecoder::new();
        dec.feed(&len.to_le_bytes());
        let err = dec.try_next().expect_err("oversized prefix must error");
        assert!(
            matches!(err, JanusError::Protocol(_)),
            "want protocol error, got {err:?}"
        );

        let mut cursor = &len.to_le_bytes()[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}

#[test]
fn undersized_length_prefix_is_rejected() {
    // A frame needs at least version + kind.
    for len in [0u32, 1] {
        let mut dec = FrameDecoder::new();
        dec.feed(&len.to_le_bytes());
        assert!(dec.try_next().is_err(), "len {len} must be rejected");
    }
}

#[test]
fn garbage_headers_are_rejected() {
    // Wrong protocol version.
    let mut bad_version = encode_frame(&Frame::Ok);
    bad_version[4] = 99;
    assert!(decode_payload(&bad_version[4..]).is_err());

    // Unknown frame kind.
    let mut bad_kind = encode_frame(&Frame::Ok);
    bad_kind[5] = 0xEE;
    assert!(decode_payload(&bad_kind[4..]).is_err());

    // Pure noise.
    assert!(decode_payload(&[0xDE, 0xAD, 0xBE, 0xEF, 0x42]).is_err());
}

#[test]
fn trailing_bytes_after_a_valid_body_are_rejected() {
    let mut bytes = encode_frame(&Frame::Heartbeat { seq: 9 });
    bytes.push(0x00);
    // Fix up the length prefix to cover the trailing junk, then decode.
    let len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    assert!(decode_payload(&bytes[4..]).is_err());
}

#[test]
fn corrupt_collection_counts_cannot_force_allocation() {
    // Hand-build a PublishBatch whose op count claims u32::MAX entries
    // but whose body ends immediately: the count×min-element-size guard
    // must reject it instead of reserving gigabytes.
    let mut payload = vec![janus::net::wire::WIRE_VERSION, 7]; // kind 7 = PublishBatch
    payload.extend_from_slice(&1u32.to_le_bytes()); // shard
    payload.extend_from_slice(&0u64.to_le_bytes()); // first_offset
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // op count: lies
    let err = decode_payload(&payload).expect_err("bogus count must error");
    assert!(matches!(err, JanusError::Protocol(_)));
}

#[test]
fn interleaved_frames_decode_in_order_across_arbitrary_splits() {
    let frames = [
        Frame::Hello { node_id: 1 },
        Frame::PublishAck {
            shard: 2,
            received: 10,
            applied: 8,
        },
        Frame::Ok,
        Frame::Error {
            message: "x".into(),
        },
        Frame::Shutdown,
    ];
    let mut stream = Vec::new();
    for f in &frames {
        stream.extend_from_slice(&encode_frame(f));
    }
    // Feed in ragged chunks that straddle frame boundaries.
    for chunk in [3usize, 7, 11, 13] {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.try_next().expect("decode") {
                got.push(f);
            }
        }
        assert_eq!(got.as_slice(), frames.as_slice(), "chunk size {chunk}");
    }
}

// ---------------------------------------------------------------------
// The ship path's two batch codecs agree with the owned one
// ---------------------------------------------------------------------

/// A record as comparable bits: the id, and an insert's value bits.
fn record_bits(op: janus::cluster::ShardOpRef<'_>) -> (u64, Option<Vec<u64>>) {
    match op {
        janus::cluster::ShardOpRef::Insert(row) => (
            row.id,
            Some(row.values.iter().map(|v| v.to_bits()).collect()),
        ),
        janus::cluster::ShardOpRef::Delete(id) => (id, None),
    }
}

/// `body` (version, kind, fields) sealed with its CRC trailer, so a
/// damaged field reaches the parser instead of failing the checksum.
fn resealed(body: &[u8]) -> Vec<u8> {
    let mut payload = body.to_vec();
    payload.extend_from_slice(&janus::common::crc32(body).to_le_bytes());
    payload
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The shipper encodes a batch straight from a topic's in-place read,
    /// whose runs split at a block boundary anywhere in the batch; the
    /// bytes must be `encode_frame`'s for the same frame.
    #[test]
    fn an_in_place_publish_batch_encodes_the_bytes_encode_frame_does(
        shard in 0u32..64,
        ops in prop::collection::vec(arb_op(), 0..32),
        split in 0usize..33,
        stale in prop::collection::vec(0u32..256, 0..64),
    ) {
        use janus::storage::{TopicLog, BLOCK_RECORDS};
        let split = split.min(ops.len());
        let topic: TopicLog<ShardOp> = TopicLog::new();
        topic.append_batch((0..(BLOCK_RECORDS - split) as u64).map(ShardOp::Delete));
        let first_offset = topic.append_batch(ops.iter().cloned());
        // The shipper's buffer holds its previous frame.
        let mut buf: Vec<u8> = stale.into_iter().map(|b| b as u8).collect();
        let runs = topic
            .read(first_offset, usize::MAX, |count, runs| {
                janus::net::wire::encode_publish_batch(&mut buf, shard, first_offset, count, runs);
                count
            })
            .expect("read above the floor");
        prop_assert_eq!(runs, ops.len());
        let owned = encode_frame(&Frame::PublishBatch { shard, first_offset, ops });
        prop_assert_eq!(buf, owned);
    }

    /// The node's flat decode accepts exactly the `PublishBatch` payloads
    /// `decode_payload` accepts and yields the same records, whatever the
    /// damage: a truncation, a bit flip (CRC left stale), a byte, record
    /// count, kind or record tag rewritten under a fresh CRC, or trailing
    /// bytes.
    #[test]
    fn the_flat_decode_accepts_exactly_what_decode_payload_accepts(
        shard in 0u32..64,
        first_offset in 0u64..1_000_000,
        ops in prop::collection::vec(arb_op(), 0..16),
        warm in prop::collection::vec(arb_op(), 0..16),
        damage in 0usize..8,
        at in 0usize..100_000,
        value in any::<u32>(),
    ) {
        use janus::net::wire::{decode_publish_batch, FlatBatch};
        let bytes = encode_frame(&Frame::PublishBatch { shard, first_offset, ops });
        let payload = &bytes[4..];
        let body = &payload[..payload.len() - 4];
        let damaged = match damage {
            0 => payload.to_vec(),
            1 => payload[..at % payload.len()].to_vec(),
            2 => {
                let mut p = payload.to_vec();
                p[at % payload.len()] ^= 1 << (value % 8);
                p
            }
            3 => {
                let mut b = body.to_vec();
                b[at % body.len()] = value as u8;
                resealed(&b)
            }
            4 => {
                // The record count sits after version, kind, shard, offset.
                let mut b = body.to_vec();
                b[14..18].copy_from_slice(&value.to_le_bytes());
                resealed(&b)
            }
            5 => {
                let mut b = body.to_vec();
                b[1] = value as u8;
                resealed(&b)
            }
            6 => {
                // The first record's tag, when the batch has a record.
                let mut b = body.to_vec();
                if b.len() > 18 {
                    b[18] = 2 + (value % 254) as u8;
                }
                resealed(&b)
            }
            _ => {
                let mut b = body.to_vec();
                b.extend(value.to_le_bytes().iter().take(1 + at % 4));
                resealed(&b)
            }
        };

        let mut flat = FlatBatch::default();
        let warm_bytes = encode_frame(&Frame::PublishBatch { shard: 9, first_offset: 3, ops: warm });
        decode_publish_batch(&warm_bytes[4..], &mut flat).expect("a valid batch decodes");
        let owned = decode_payload(&damaged);
        let got = decode_publish_batch(&damaged, &mut flat);
        match (owned, got) {
            (Ok(Frame::PublishBatch { shard, first_offset, ops }), Ok(())) => {
                prop_assert_eq!((flat.shard(), flat.first_offset()), (shard, first_offset));
                prop_assert_eq!(flat.len(), ops.len());
                let flat_records: Vec<_> = flat.ops().map(record_bits).collect();
                let owned_records: Vec<_> = ops.iter().map(|op| record_bits(op.as_ref())).collect();
                prop_assert_eq!(flat_records, owned_records);
            }
            (Ok(Frame::PublishBatch { .. }), Err(e)) => {
                prop_assert!(false, "flat decode refused a batch decode_payload took: {e}");
            }
            (owned, Ok(())) => {
                prop_assert!(false, "flat decode took a payload decode_payload gave {owned:?}");
            }
            (_, Err(e)) => prop_assert!(matches!(e, JanusError::Protocol(_)), "{e:?}"),
        }
    }
}
