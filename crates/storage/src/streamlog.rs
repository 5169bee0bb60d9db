//! Kafka-like append-only topic logs with offset-based polling and
//! retention.
//!
//! The substitution contract: the behaviours the paper
//! exercises depend only on the log/offset/poll abstraction — ordered
//! request processing, batch polling with per-poll overhead, and the
//! inability to randomly access single records except by issuing a poll at
//! an offset. This module reproduces that abstraction in-process and
//! thread-safely.
//!
//! **Retention.** A topic stores its records in blocks of
//! [`BLOCK_RECORDS`] and keeps a base offset, like a Kafka log keeps
//! segments. Its owner drops whole leading blocks once every consumer
//! has moved past them ([`TopicLog::truncate_below`]), so a long-running
//! log holds what its slowest consumer still needs, not the whole stream.
//! Offsets never move: [`TopicLog::len`] stays the end offset, and
//! [`TopicLog::first_offset`] is the lowest offset still held. Polling
//! below it is a retention bug and panics; it never returns a suffix.
//! [`TopicLog::read`], the in-place read under `poll`, returns
//! [`BelowFloor`] there instead, for a consumer that can outlive its
//! records (a networked shipper whose copy fell behind a truncation).

use janus_common::{Estimate, Query, Row, RowId, TenantId};
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::Arc;

/// Records per topic block: the unit a topic allocates and drops. Every
/// block but the last is full, and each is allocated once at this
/// capacity, so an append never copies records.
pub const BLOCK_RECORDS: usize = 4096;

/// A topic's blocks and the offset of the first record they hold.
struct Blocks<T> {
    /// Offset of `blocks[0][0]`: a multiple of [`BLOCK_RECORDS`], since
    /// only whole blocks are dropped.
    base: u64,
    blocks: VecDeque<Vec<T>>,
    /// The end offset.
    end: u64,
    /// The newest truncated block, set aside for the next append to free
    /// — on the appending thread, which usually allocated its records, so
    /// the frees stay in that thread's malloc arena instead of contending
    /// with it from the truncating thread.
    retired: Option<Vec<T>>,
}

/// A read at an offset the topic no longer holds: [`TopicLog::truncate_below`]
/// dropped it while a consumer still needed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BelowFloor {
    /// The offset asked for.
    pub offset: u64,
    /// The topic's lowest retained offset at the time.
    pub first: u64,
}

impl std::fmt::Display for BelowFloor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "at offset {} below the topic's first retained offset {}",
            self.offset, self.first
        )
    }
}

/// The records one [`TopicLog::read`] hands out: contiguous runs, one
/// per block touched, in offset order.
pub struct Runs<'a, T> {
    blocks: &'a VecDeque<Vec<T>>,
    block: usize,
    slot: usize,
    left: usize,
}

impl<'a, T> Iterator for Runs<'a, T> {
    type Item = &'a [T];

    #[inline]
    fn next(&mut self) -> Option<&'a [T]> {
        if self.left == 0 {
            return None;
        }
        let records = &self.blocks[self.block];
        let take = self.left.min(records.len() - self.slot);
        let run = &records[self.slot..self.slot + take];
        self.left -= take;
        self.block += 1;
        self.slot = 0;
        Some(run)
    }
}

/// A thread-safe append-only log of records of type `T`.
///
/// Offsets are dense and start at zero, like Kafka partition offsets.
/// Records below [`TopicLog::first_offset`] have been dropped by
/// [`TopicLog::truncate_below`].
pub struct TopicLog<T: Clone> {
    entries: RwLock<Blocks<T>>,
}

impl<T: Clone> Default for TopicLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> TopicLog<T> {
    /// Creates an empty topic.
    pub fn new() -> Self {
        TopicLog {
            entries: RwLock::new(Blocks {
                base: 0,
                blocks: VecDeque::new(),
                end: 0,
                retired: None,
            }),
        }
    }

    /// Appends one record; returns its offset.
    pub fn append(&self, record: T) -> u64 {
        self.append_batch(std::iter::once(record))
    }

    /// Appends many records; returns the offset of the first.
    pub fn append_batch(&self, records: impl IntoIterator<Item = T>) -> u64 {
        let mut records = records.into_iter().peekable();
        let mut entries = self.entries.write();
        let first = entries.end;
        let mut added = 0usize;
        while records.peek().is_some() {
            if entries
                .blocks
                .back()
                .is_none_or(|b| b.len() == BLOCK_RECORDS)
            {
                entries.blocks.push_back(Vec::with_capacity(BLOCK_RECORDS));
            }
            let block = entries.blocks.back_mut().expect("a block with room");
            let before = block.len();
            block.extend(records.by_ref().take(BLOCK_RECORDS - before));
            added += block.len() - before;
        }
        entries.end += added as u64;
        let retired = entries.retired.take();
        drop(entries);
        drop(retired);
        first
    }

    /// Number of records ever appended: the end offset, whatever has
    /// been truncated.
    pub fn len(&self) -> usize {
        self.entries.read().end as usize
    }

    /// True when nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lowest offset still held; equals [`TopicLog::len`] when every
    /// record has been dropped.
    pub fn first_offset(&self) -> u64 {
        self.entries.read().base
    }

    /// Records held in memory: those from [`TopicLog::first_offset`] on,
    /// plus the truncated block, if any, that the next append frees.
    pub fn resident_len(&self) -> usize {
        let entries = self.entries.read();
        (entries.end - entries.base) as usize + entries.retired.as_ref().map_or(0, Vec::len)
    }

    /// Drops every whole block that lies below `floor` (clamped to the
    /// end offset); returns the records dropped. The caller guarantees no
    /// consumer will poll below `floor` again. When `floor` has not
    /// crossed a block boundary this is one read-locked check; otherwise
    /// the blocks are unlinked under the write lock and freed after it is
    /// released, so no append waits on the frees. The newest unlinked
    /// block is set aside for the next append to free instead (see
    /// [`TopicLog::resident_len`]); the block an earlier truncation set
    /// aside, if no append came for it, is freed here.
    pub fn truncate_below(&self, floor: u64) -> usize {
        let whole =
            |base: u64, end: u64| floor.min(end).saturating_sub(base) as usize / BLOCK_RECORDS;
        {
            let entries = self.entries.read();
            if whole(entries.base, entries.end) == 0 {
                return 0;
            }
        }
        let (n, freed) = {
            let mut entries = self.entries.write();
            let n = whole(entries.base, entries.end);
            entries.base += (n * BLOCK_RECORDS) as u64;
            let mut freed: Vec<Vec<T>> = entries.blocks.drain(..n).collect();
            let newest = freed.pop();
            freed.extend(std::mem::replace(&mut entries.retired, newest));
            (n, freed)
        };
        drop(freed);
        n * BLOCK_RECORDS
    }

    /// Reads up to `max_records` starting at `offset` in place: under the
    /// topic's read guard, `read` is given the record count first and
    /// then the records as contiguous runs, and its result is returned.
    /// The count is 0 when `offset` is at or past the end, or
    /// `max_records` is 0. Appends wait
    /// while `read` runs, so it should only copy.
    ///
    /// # Errors
    /// [`BelowFloor`] when `offset` is below [`TopicLog::first_offset`],
    /// and then `read` is not called.
    #[inline]
    pub fn read<R>(
        &self,
        offset: u64,
        max_records: usize,
        read: impl FnOnce(usize, Runs<'_, T>) -> R,
    ) -> Result<R, BelowFloor> {
        let entries = self.entries.read();
        let count = if offset >= entries.end || max_records == 0 {
            0
        } else if offset < entries.base {
            return Err(BelowFloor {
                offset,
                first: entries.base,
            });
        } else {
            (entries.end - offset).min(max_records as u64) as usize
        };
        let from = offset.saturating_sub(entries.base) as usize;
        let runs = Runs {
            blocks: &entries.blocks,
            block: from / BLOCK_RECORDS,
            slot: from % BLOCK_RECORDS,
            left: count,
        };
        Ok(read(count, runs))
    }

    /// Polls up to `max_records` starting at `offset`: a
    /// [`TopicLog::read`] that copies its runs into one vector. Returns
    /// an empty vector when `offset` is at or past the end — there is no
    /// blocking in this in-process model; consumers re-poll.
    ///
    /// # Panics
    /// Panics when `offset` is below [`TopicLog::first_offset`]: the
    /// records were dropped while a consumer still needed them (a
    /// retention bug).
    pub fn poll(&self, offset: u64, max_records: usize) -> Vec<T> {
        let polled = self.read(offset, max_records, |count, runs| {
            let mut out = Vec::with_capacity(count);
            for run in runs {
                out.extend_from_slice(run);
            }
            out
        });
        polled.unwrap_or_else(|below| panic!("poll {below}"))
    }
}

/// One request of the PSoup-style unified stream (§3.2): both data and
/// queries arrive on the same timeline.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `insert(tuple)` topic.
    Insert(Row),
    /// `delete(tuple)` topic (identified by row id).
    Delete(RowId),
    /// `execute(query)` topic: a query on behalf of a tenant, with the
    /// serving options the consumer should honor.
    /// [`RequestLog::publish_query`] publishes it for tenant 0 with no
    /// deadline on the bulk lane.
    Execute {
        /// Tenant the query is billed to.
        tenant: TenantId,
        /// Gather budget in milliseconds (0 = wait for every shard).
        deadline_ms: u64,
        /// Serve on the interactive (latency-sensitive) lane.
        interactive: bool,
        /// The query itself.
        query: Query,
    },
}

/// A query answer keyed by the unified-stream offset of the `Execute`
/// request it answers; `None` when the query was consumed but produced no
/// estimate (empty selection or an engine error). Responses are published
/// by whoever consumes the request log (e.g. a `LiveCluster` front-end
/// worker); clients correlate by request offset, and every consumed
/// `Execute` request yields exactly one response record — so "no record
/// yet" always means "not yet processed", never "empty answer".
pub type QueryResponse = (u64, Option<Estimate>);

/// The §3.2 request stream as one unified arrival-ordered request log
/// plus a response topic. The unified log is the source of truth for
/// processing order; the response topic carries `(request offset,
/// estimate)` answers back to clients, making the log a complete
/// request/response front end for a long-running service. Its consumer
/// may truncate `requests` below what it has consumed and can no longer
/// be asked to replay; `responses` is never truncated, since
/// [`RequestLog::find_response`] scans it from offset zero.
#[derive(Default)]
pub struct RequestLog {
    /// Unified arrival-ordered stream.
    pub requests: TopicLog<Request>,
    /// Query answers, keyed by the `Execute` request's unified offset.
    /// Publication order follows processing order, not request order.
    pub responses: TopicLog<QueryResponse>,
}

impl RequestLog {
    /// Creates an empty request log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared-ownership constructor for multi-threaded producers/consumers.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Publishes an insertion; returns its unified-stream offset.
    pub fn publish_insert(&self, row: Row) -> u64 {
        self.requests.append(Request::Insert(row))
    }

    /// Publishes a deletion; returns its unified-stream offset.
    pub fn publish_delete(&self, id: RowId) -> u64 {
        self.requests.append(Request::Delete(id))
    }

    /// Publishes a query; returns its unified-stream offset — the key its
    /// answer will carry on the response topic.
    pub fn publish_query(&self, query: Query) -> u64 {
        self.publish_query_for(0, query, 0, false)
    }

    /// Publishes a tenant-tagged query with serving options; returns its
    /// unified-stream offset. `deadline_ms == 0` means no deadline.
    pub fn publish_query_for(
        &self,
        tenant: TenantId,
        query: Query,
        deadline_ms: u64,
        interactive: bool,
    ) -> u64 {
        self.requests.append(Request::Execute {
            tenant,
            deadline_ms,
            interactive,
            query,
        })
    }

    /// Publishes the answer to the `Execute` request at `request_offset`
    /// (`None` for an empty selection or a failed query); returns the
    /// response topic offset.
    pub fn publish_response(&self, request_offset: u64, answer: Option<Estimate>) -> u64 {
        self.responses.append((request_offset, answer))
    }

    /// Polls up to `max_records` requests starting at `offset` — the
    /// consumption surface a front-end worker drives.
    pub fn poll_requests(&self, offset: u64, max_records: usize) -> Vec<Request> {
        self.requests.poll(offset, max_records)
    }

    /// Scans the response topic for the answer to the request published at
    /// `request_offset`: outer `None` means not yet answered, inner `None`
    /// means answered with an empty/failed result. Linear in the number of
    /// responses — a client convenience, not a hot path; services poll
    /// the topic with a cursor.
    pub fn find_response(&self, request_offset: u64) -> Option<Option<Estimate>> {
        let mut cursor = 0u64;
        loop {
            let batch = self.responses.poll(cursor, 1024);
            if batch.is_empty() {
                return None;
            }
            cursor += batch.len() as u64;
            if let Some((_, est)) = batch.into_iter().find(|(off, _)| *off == request_offset) {
                return Some(est);
            }
        }
    }

    /// End offset of the unified stream.
    pub fn end_offset(&self) -> u64 {
        self.requests.len() as u64
    }
}

/// One Kafka-like topic per shard, with dense per-topic offsets — the
/// ingest fabric of a sharded deployment (`janus-cluster`): a router
/// appends each record to exactly one shard topic, and each shard consumer
/// polls its own topic at its own offset, so per-shard catch-up is
/// independent and replay from any retained offset is deterministic. The
/// owner truncates each topic below the lowest offset any of its
/// consumers, or a restore, still needs.
pub struct ShardedLog<T: Clone> {
    topics: Vec<TopicLog<T>>,
}

impl<T: Clone> ShardedLog<T> {
    /// Creates `shards` empty topics.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded log needs at least one shard");
        ShardedLog {
            topics: (0..shards).map(|_| TopicLog::new()).collect(),
        }
    }

    /// Number of shard topics.
    pub fn shards(&self) -> usize {
        self.topics.len()
    }

    /// The topic of one shard.
    ///
    /// # Panics
    /// Panics when `shard` is out of range (a routing bug).
    pub fn topic(&self, shard: usize) -> &TopicLog<T> {
        &self.topics[shard]
    }

    /// Appends one record to `shard`'s topic; returns its offset there.
    pub fn publish(&self, shard: usize, record: T) -> u64 {
        self.topics[shard].append(record)
    }

    /// Appends many records to `shard`'s topic under one topic-lock
    /// acquisition; returns the offset of the first. This is the
    /// batch-first ingest surface: a router that has already grouped a
    /// publish batch per shard lands each group with one call instead of
    /// one lock round trip per record.
    pub fn publish_batch(&self, shard: usize, records: impl IntoIterator<Item = T>) -> u64 {
        self.topics[shard].append_batch(records)
    }

    /// Polls up to `max_records` of `shard`'s topic starting at `offset`.
    pub fn poll(&self, shard: usize, offset: u64, max_records: usize) -> Vec<T> {
        self.topics[shard].poll(offset, max_records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{AggregateFunction, RangePredicate};

    fn row(id: u64) -> Row {
        Row::new(id, vec![id as f64])
    }

    #[test]
    fn poll_respects_offsets_and_bounds() {
        let t = TopicLog::new();
        for i in 0..10 {
            assert_eq!(t.append(i), i as u64);
        }
        assert_eq!(t.poll(0, 3), vec![0, 1, 2]);
        assert_eq!(t.poll(8, 5), vec![8, 9]);
        assert!(t.poll(10, 5).is_empty());
        assert!(t.poll(100, 5).is_empty());
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn append_batch_returns_first_offset() {
        let t = TopicLog::new();
        t.append(0);
        let first = t.append_batch([1, 2, 3]);
        assert_eq!(first, 1);
        assert_eq!(t.poll(1, 10), vec![1, 2, 3]);
    }

    #[test]
    fn request_log_preserves_arrival_order() {
        let log = RequestLog::new();
        assert_eq!(log.publish_insert(row(1)), 0);
        assert_eq!(log.publish_delete(1), 1);
        let q = Query::new(
            AggregateFunction::Count,
            0,
            vec![0],
            RangePredicate::new(vec![0.0], vec![1.0]).unwrap(),
        )
        .unwrap();
        assert_eq!(log.publish_query(q.clone()), 2);
        let reqs = log.requests.poll(0, 10);
        assert_eq!(reqs.len(), 3);
        assert!(matches!(reqs[0], Request::Insert(_)));
        assert!(matches!(reqs[1], Request::Delete(1)));
        assert!(matches!(&reqs[2], Request::Execute { tenant: 0, query, .. } if *query == q));
    }

    #[test]
    fn sharded_log_keeps_topics_independent() {
        let log = ShardedLog::new(3);
        assert_eq!(log.shards(), 3);
        assert_eq!(log.publish(0, 10), 0);
        assert_eq!(log.publish(2, 20), 0, "offsets are per-topic");
        assert_eq!(log.publish(2, 21), 1);
        assert_eq!(log.poll(2, 0, 10), vec![20, 21]);
        assert_eq!(log.poll(2, 1, 10), vec![21]);
        assert!(log.poll(1, 0, 10).is_empty());
        assert_eq!(log.topic(0).len(), 1);
    }

    #[test]
    fn sharded_publish_batch_is_contiguous_per_topic() {
        let log = ShardedLog::new(2);
        log.publish(1, 7);
        assert_eq!(log.publish_batch(1, [8, 9, 10]), 1);
        assert_eq!(log.publish_batch(0, [1, 2]), 0);
        assert_eq!(log.poll(1, 0, 10), vec![7, 8, 9, 10]);
        assert_eq!(log.poll(0, 0, 10), vec![1, 2]);
        assert_eq!(
            log.publish_batch(0, std::iter::empty()),
            2,
            "empty batch is a no-op"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn sharded_log_rejects_zero_shards() {
        let _ = ShardedLog::<u64>::new(0);
    }

    #[test]
    fn responses_correlate_by_request_offset() {
        let log = RequestLog::new();
        let q = Query::new(
            AggregateFunction::Count,
            0,
            vec![0],
            RangePredicate::new(vec![0.0], vec![1.0]).unwrap(),
        )
        .unwrap();
        let first = log.publish_query(q.clone());
        let second = log.publish_query(q.clone());
        let third = log.publish_query(q);
        // Answers may land out of request order; correlation is by offset.
        log.publish_response(second, Some(Estimate::exact(2.0)));
        log.publish_response(first, Some(Estimate::exact(1.0)));
        log.publish_response(third, None);
        assert_eq!(log.find_response(first).unwrap().unwrap().value, 1.0);
        assert_eq!(log.find_response(second).unwrap().unwrap().value, 2.0);
        assert_eq!(
            log.find_response(third),
            Some(None),
            "consumed-but-empty is distinguishable from unanswered"
        );
        assert!(log.find_response(999).is_none());
        assert_eq!(log.responses.len(), 3);
    }

    /// `append_batch` must hand each producer a contiguous, exclusive
    /// offset range even under contention: polling `len` records at the
    /// returned first offset yields exactly that producer's batch.
    #[test]
    fn concurrent_append_batch_keeps_batches_contiguous() {
        use std::sync::Arc;
        let log = Arc::new(TopicLog::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut firsts = Vec::new();
                for b in 0..50u64 {
                    let batch: Vec<u64> = (0..20).map(|i| t * 10_000 + b * 100 + i).collect();
                    firsts.push((log.append_batch(batch.clone()), batch));
                }
                firsts
            }));
        }
        for h in handles {
            for (first, batch) in h.join().unwrap() {
                assert_eq!(log.poll(first, batch.len()), batch);
            }
        }
        assert_eq!(log.len(), 8 * 50 * 20);
    }

    #[test]
    fn poll_past_end_of_log_is_empty_not_fatal() {
        let t: TopicLog<u64> = TopicLog::new();
        assert!(t.poll(0, 16).is_empty(), "empty log");
        t.append_batch(0..8);
        assert!(t.poll(8, 1).is_empty(), "exactly at end");
        assert!(t.poll(u64::MAX, usize::MAX).is_empty(), "overflow-safe");
        assert_eq!(t.poll(6, usize::MAX).len(), 2, "max_records clamps");
        let s: ShardedLog<u64> = ShardedLog::new(2);
        s.publish(0, 1);
        assert!(s.poll(0, 5, 10).is_empty());
        assert!(s.poll(1, 0, 10).is_empty());
    }

    /// A reader advancing an offset cursor concurrently with a writer must
    /// observe every record exactly once, in append order — the consumed-
    /// offset contract `ClusterEngine::pump` and the `LiveCluster` pump
    /// workers rely on.
    #[test]
    fn polling_while_appending_sees_a_consistent_prefix() {
        use std::sync::Arc;
        const N: u64 = 20_000;
        let log = Arc::new(TopicLog::new());
        let writer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for i in 0..N {
                    if i % 3 == 0 {
                        log.append_batch([i]);
                    } else {
                        log.append(i);
                    }
                }
            })
        };
        let mut seen = Vec::new();
        let mut offset = 0u64;
        while seen.len() < N as usize {
            let batch = log.poll(offset, 257);
            offset += batch.len() as u64;
            seen.extend(batch);
            if seen.is_empty() {
                std::thread::yield_now();
            }
        }
        writer.join().unwrap();
        assert_eq!(seen, (0..N).collect::<Vec<_>>(), "in order, exactly once");
        assert!(log.poll(offset, 16).is_empty(), "cursor reached the end");
    }

    #[test]
    fn concurrent_producers_do_not_lose_records() {
        use std::sync::Arc;
        let log = Arc::new(TopicLog::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    log.append(t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 4000);
        let mut all = log.poll(0, 5000);
        all.sort_unstable();
        assert_eq!(all, (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn records_span_blocks_in_offset_order() {
        let t = TopicLog::new();
        let n = 3 * BLOCK_RECORDS as u64 + 17;
        assert_eq!(t.append_batch(0..BLOCK_RECORDS as u64 - 1), 0);
        assert_eq!(t.append(BLOCK_RECORDS as u64 - 1), BLOCK_RECORDS as u64 - 1);
        t.append_batch(BLOCK_RECORDS as u64..n);
        assert_eq!(t.len() as u64, n);
        assert_eq!(t.poll(0, usize::MAX), (0..n).collect::<Vec<_>>());
        let at = BLOCK_RECORDS as u64 - 3;
        assert_eq!(t.poll(at, 7), (at..at + 7).collect::<Vec<_>>());
        assert_eq!(t.poll(n - 2, 10), vec![n - 2, n - 1]);
    }

    #[test]
    fn truncation_drops_whole_blocks_only() {
        let t = TopicLog::new();
        let block = BLOCK_RECORDS as u64;
        t.append_batch(0..2 * block + 5);
        assert_eq!(t.truncate_below(block - 1), 0, "floor inside block 0");
        assert_eq!(t.first_offset(), 0);
        assert_eq!(t.truncate_below(block + 9), BLOCK_RECORDS);
        assert_eq!((t.first_offset(), t.len() as u64), (block, 2 * block + 5));
        assert_eq!(
            t.resident_len() as u64,
            2 * block + 5,
            "the dropped block waits for the next append to free it"
        );
        assert_eq!(
            t.poll(block, 2),
            vec![block, block + 1],
            "offsets never move"
        );
        assert_eq!(
            t.truncate_below(u64::MAX),
            BLOCK_RECORDS,
            "clamped to the end"
        );
        assert_eq!(t.first_offset(), 2 * block);
        assert_eq!(
            t.resident_len() as u64,
            block + 5,
            "a truncation frees the block an earlier one set aside"
        );
        assert_eq!(t.truncate_below(0), 0, "a lower floor is a no-op");
        assert_eq!(t.append(7), 2 * block + 5);
        assert_eq!(t.resident_len(), 6, "the append freed the set-aside block");
        assert_eq!(t.poll(2 * block + 4, 9), vec![2 * block + 4, 7]);
    }

    #[test]
    fn truncating_every_record_keeps_the_end_offset() {
        let t = TopicLog::new();
        let block = BLOCK_RECORDS as u64;
        t.append_batch(0..block);
        assert_eq!(t.truncate_below(block), BLOCK_RECORDS);
        assert_eq!((t.first_offset(), t.len()), (block, BLOCK_RECORDS));
        assert!(t.poll(block, 4).is_empty());
        assert_eq!(t.append(1), block);
        assert_eq!((t.resident_len(), t.poll(block, 4)), (1, vec![1]));
    }

    #[test]
    fn an_in_place_read_hands_out_block_runs_after_the_count() {
        let t = TopicLog::new();
        let block = BLOCK_RECORDS as u64;
        t.append_batch(0..2 * block + 5);
        let at = block - 3;
        let runs = t
            .read(at, BLOCK_RECORDS + 6, |count, runs| {
                (count, runs.map(<[u64]>::to_vec).collect::<Vec<_>>())
            })
            .unwrap();
        let (count, runs) = runs;
        assert_eq!(count, BLOCK_RECORDS + 6);
        assert_eq!(runs.len(), 3, "one run per block touched");
        assert_eq!(runs.concat(), (at..at + count as u64).collect::<Vec<_>>());
        let at_end = t.read(2 * block + 5, 9, |count, mut runs| {
            (count, runs.next().is_none())
        });
        assert_eq!(at_end, Ok((0, true)));
        t.truncate_below(block);
        assert_eq!(
            t.read(3, 1, |count, _| count),
            Err(BelowFloor {
                offset: 3,
                first: block
            }),
            "a read below the floor is a typed error, not a panic"
        );
    }

    #[test]
    #[should_panic(expected = "below the topic's first retained offset")]
    fn polling_below_the_floor_is_a_retention_bug() {
        let t = TopicLog::new();
        t.append_batch(0..BLOCK_RECORDS as u64 + 1);
        t.truncate_below(BLOCK_RECORDS as u64);
        let _ = t.poll(3, 1);
    }
}
