//! Kafka-like append-only topic logs with offset-based polling.
//!
//! The substitution contract: the behaviours the paper
//! exercises depend only on the log/offset/poll abstraction — ordered
//! request processing, batch polling with per-poll overhead, and the
//! inability to randomly access single records except by issuing a poll at
//! an offset. This module reproduces that abstraction in-process and
//! thread-safely.

use janus_common::{Estimate, Query, Row, RowId, TenantId};
use parking_lot::RwLock;
use std::sync::Arc;

/// A thread-safe append-only log of records of type `T`.
///
/// Offsets are dense and start at zero, like Kafka partition offsets.
pub struct TopicLog<T: Clone> {
    entries: RwLock<Vec<T>>,
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
            entries: RwLock::new(Vec::new()),
        }
    }

    /// Appends one record; returns its offset.
    pub fn append(&self, record: T) -> u64 {
        let mut entries = self.entries.write();
        entries.push(record);
        (entries.len() - 1) as u64
    }

    /// Appends many records; returns the offset of the first.
    pub fn append_batch(&self, records: impl IntoIterator<Item = T>) -> u64 {
        let mut entries = self.entries.write();
        let first = entries.len() as u64;
        entries.extend(records);
        first
    }

    /// Number of records in the topic (the end offset).
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when the topic holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Polls up to `max_records` starting at `offset`. Returns an empty
    /// vector when `offset` is at or past the end — there is no blocking in
    /// this in-process model; consumers re-poll.
    pub fn poll(&self, offset: u64, max_records: usize) -> Vec<T> {
        let entries = self.entries.read();
        let start = (offset as usize).min(entries.len());
        let end = start.saturating_add(max_records).min(entries.len());
        entries[start..end].to_vec()
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
    /// `execute(query)` topic.
    Execute(Query),
    /// `execute(query)` on behalf of a tenant, with the serving options
    /// the consumer should honor. [`Request::Execute`] is exactly
    /// `ExecuteFor { tenant: 0, deadline_ms: 0, interactive: false, .. }`
    /// and remains the untenanted fast path.
    ExecuteFor {
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

/// The three Kafka topics of §3.2 plus a unified arrival-ordered request
/// log and a response topic. The unified log is the source of truth for
/// processing order; the per-kind topics support offset-based sampling of
/// historical data (Appendix A uses the insert topic for initialization
/// and catch-up); the response topic carries `(request offset, estimate)`
/// answers back to clients, making the log a complete request/response
/// front end for a long-running service.
#[derive(Default)]
pub struct RequestLog {
    /// Unified arrival-ordered stream.
    pub requests: TopicLog<Request>,
    /// Insert-only view (the "historical data" topic samplers read).
    pub inserts: TopicLog<Row>,
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
        self.inserts.append(row.clone());
        self.requests.append(Request::Insert(row))
    }

    /// Publishes a deletion; returns its unified-stream offset.
    pub fn publish_delete(&self, id: RowId) -> u64 {
        self.requests.append(Request::Delete(id))
    }

    /// Publishes a query; returns its unified-stream offset — the key its
    /// answer will carry on the response topic.
    pub fn publish_query(&self, query: Query) -> u64 {
        self.requests.append(Request::Execute(query))
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
        self.requests.append(Request::ExecuteFor {
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
/// independent and replay from offset zero is deterministic.
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

    /// End offset of every shard topic, in shard order.
    pub fn end_offsets(&self) -> Vec<u64> {
        self.topics.iter().map(|t| t.len() as u64).collect()
    }

    /// Total records across all shard topics.
    pub fn total_len(&self) -> usize {
        self.topics.iter().map(TopicLog::len).sum()
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
        assert!(matches!(&reqs[2], Request::Execute(got) if *got == q));
        // Insert view only sees the insert.
        assert_eq!(log.inserts.len(), 1);
    }

    #[test]
    fn sharded_log_keeps_topics_independent() {
        let log = ShardedLog::new(3);
        assert_eq!(log.shards(), 3);
        assert_eq!(log.publish(0, 10), 0);
        assert_eq!(log.publish(2, 20), 0, "offsets are per-topic");
        assert_eq!(log.publish(2, 21), 1);
        assert_eq!(log.end_offsets(), vec![1, 0, 2]);
        assert_eq!(log.total_len(), 3);
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
        assert_eq!(log.end_offsets(), vec![2, 4]);
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
}
