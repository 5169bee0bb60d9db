//! The multi-threaded re-initialization protocol of §4.3 / Figure 4.
//!
//! [`LiveEngine`] wraps the synchronous [`JanusEngine`] behind a
//! `parking_lot::RwLock` and reproduces the paper's availability story:
//!
//! * a **background catch-up thread** continuously drains the catch-up
//!   queue in small chunks, so node estimates tighten while the caller
//!   processes data and queries;
//! * [`LiveEngine::reoptimize`] runs the §4.3 protocol: **(1)** the
//!   partition optimizer runs on a lock-free *snapshot* of the pooled
//!   sample while the old synopsis keeps answering queries and absorbing
//!   updates; **(2)** a short blocking write-lock swaps in the new synopsis
//!   (statistics seeded from the pooled sample); **(3-5)** the old synopsis
//!   is dropped, the reservoir re-sampled, and catch-up restarts in the
//!   background. Only step 2 blocks — "100s of milliseconds" in the
//!   paper's experiments, a single lock acquisition here.
//!
//! The wrapper is `Clone`-cheap (`Arc` internally) so producers, query
//! clients, and the re-optimizer can live on different threads.

use crate::engine::{EngineStats, JanusEngine};
use crate::SynopsisConfig;
use janus_common::{Estimate, Query, Result, Row, RowId};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Shared {
    engine: RwLock<JanusEngine>,
    shutdown: AtomicBool,
}

/// A thread-safe JanusAQP engine with background catch-up.
pub struct LiveEngine {
    shared: Arc<Shared>,
    catchup_thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveEngine {
    /// Bootstraps the engine (without running catch-up inline) and spawns
    /// the background catch-up thread.
    pub fn start(mut config: SynopsisConfig, rows: Vec<Row>) -> Result<Self> {
        // The background thread owns catch-up; disable the synchronous
        // engine's opportunistic interleaving to avoid double pumping.
        config.catchup_per_update = 0;
        let chunk = config.catchup_chunk.max(64);
        let engine = JanusEngine::bootstrap_without_catchup(config, rows)?;
        let shared = Arc::new(Shared {
            engine: RwLock::new(engine),
            shutdown: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let catchup_thread = std::thread::Builder::new()
            .name("janus-catchup".into())
            .spawn(move || {
                while !worker.shutdown.load(Ordering::Relaxed) {
                    let applied = worker.engine.write().advance_catchup(chunk);
                    if applied == 0 {
                        // Queue drained (until the next re-initialization):
                        // idle briefly instead of spinning on the lock.
                        std::thread::park_timeout(Duration::from_millis(2));
                    }
                }
            })
            .expect("spawn catch-up thread");
        Ok(LiveEngine {
            shared,
            catchup_thread: Some(catchup_thread),
        })
    }

    /// Inserts a tuple.
    pub fn insert(&self, row: Row) -> Result<()> {
        self.shared.engine.write().insert(row)
    }

    /// Deletes a tuple by id.
    pub fn delete(&self, id: RowId) -> Result<Row> {
        self.shared.engine.write().delete(id)
    }

    /// Answers a query (concurrent with other readers).
    pub fn query(&self, query: &Query) -> Result<Option<Estimate>> {
        self.shared.engine.read().query(query)
    }

    /// Ground-truth oracle (testing / experiments only).
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        self.shared.engine.read().evaluate_exact(query)
    }

    /// Current table size.
    pub fn population(&self) -> usize {
        self.shared.engine.read().population()
    }

    /// Operation counters.
    pub fn stats(&self) -> EngineStats {
        self.shared.engine.read().stats()
    }

    /// Catch-up progress of the current epoch.
    pub fn catchup_progress(&self) -> f64 {
        self.shared.engine.read().catchup_progress()
    }

    /// Blocks until the current catch-up epoch reaches its goal (testing
    /// convenience; production callers just keep working).
    pub fn wait_for_catchup(&self) {
        while self.catchup_progress() < 1.0 {
            if let Some(t) = &self.catchup_thread {
                t.thread().unpark();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The §4.3 online re-initialization: optimize on a snapshot without
    /// blocking, then swap under a short write lock. Returns the duration
    /// of the *blocking* step only.
    pub fn reoptimize(&self) -> Result<Duration> {
        // Phase 1 (non-blocking): snapshot + optimize. Readers and writers
        // proceed against the old synopsis meanwhile.
        let points = self.shared.engine.read().snapshot_sample_points();
        let outcome = self.shared.engine.read().plan_repartition(points)?;
        // Phase 2 (blocking): swap.
        let started = std::time::Instant::now();
        self.shared.engine.write().adopt_planned(outcome);
        let blocked = started.elapsed();
        // Phases 3-5 continue in the background catch-up thread.
        if let Some(t) = &self.catchup_thread {
            t.thread().unpark();
        }
        Ok(blocked)
    }

    /// Stops the background thread and returns the inner engine.
    pub fn shutdown(mut self) -> JanusEngine {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.catchup_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
        // The worker is gone; drop our Drop-carrying shell, then unwrap the
        // last Arc reference.
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(s) => s.engine.into_inner(),
            Err(_) => panic!("outstanding references to the live engine"),
        }
    }
}

impl Drop for LiveEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.catchup_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{AggregateFunction, QueryTemplate, RangePredicate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rows(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let x = rng.gen::<f64>() * 100.0;
                Row::new(i, vec![x, x * 2.0])
            })
            .collect()
    }

    fn config(seed: u64) -> SynopsisConfig {
        let mut cfg = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]),
            seed,
        );
        cfg.leaf_count = 16;
        cfg.sample_rate = 0.05;
        cfg.catchup_ratio = 0.4;
        cfg.catchup_chunk = 512;
        cfg
    }

    fn sum_query(lo: f64, hi: f64) -> Query {
        Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn background_catchup_completes_without_pumping() {
        let live = LiveEngine::start(config(1), rows(20_000, 1)).unwrap();
        live.wait_for_catchup();
        let q = sum_query(0.0, 100.0);
        let est = live.query(&q).unwrap().unwrap();
        let truth = live.evaluate_exact(&q).unwrap();
        assert!((est.value - truth).abs() / truth < 0.05);
        let engine = live.shutdown();
        assert!(engine.stats().catchup_applied > 0);
    }

    #[test]
    fn queries_are_served_during_reoptimization() {
        let live = LiveEngine::start(config(2), rows(30_000, 2)).unwrap();
        live.wait_for_catchup();
        let q = sum_query(10.0, 90.0);
        let truth_before = live.evaluate_exact(&q).unwrap();
        let blocked = live.reoptimize().unwrap();
        // Only the swap blocks, and it is short even in debug builds.
        assert!(blocked < Duration::from_secs(5));
        // Immediately after the swap, answers are still sane (statistics
        // were seeded from the pooled sample in the blocking step).
        let est = live.query(&q).unwrap().unwrap();
        assert!(
            (est.value - truth_before).abs() / truth_before < 0.25,
            "post-swap estimate drifted: {} vs {truth_before}",
            est.value
        );
        live.wait_for_catchup();
        let est = live.query(&q).unwrap().unwrap();
        let truth = live.evaluate_exact(&q).unwrap();
        assert!((est.value - truth).abs() / truth < 0.05);
        assert_eq!(live.stats().repartitions, 1);
        drop(live);
    }

    #[test]
    fn concurrent_producers_and_query_clients() {
        let live = Arc::new(LiveEngine::start(config(3), rows(10_000, 3)).unwrap());
        let mut handles = Vec::new();
        // Four producers.
        for t in 0..4u64 {
            let live = Arc::clone(&live);
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + t);
                for i in 0..1_000u64 {
                    let x = rng.gen::<f64>() * 100.0;
                    live.insert(Row::new(1_000_000 + t * 10_000 + i, vec![x, x * 2.0]))
                        .unwrap();
                }
            }));
        }
        // One query client, running concurrently.
        {
            let live = Arc::clone(&live);
            handles.push(std::thread::spawn(move || {
                let q = sum_query(0.0, 100.0);
                for _ in 0..50 {
                    let _ = live.query(&q).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(live.population(), 14_000);
        let q = sum_query(0.0, 100.0);
        let est = live.query(&q).unwrap().unwrap();
        let truth = live.evaluate_exact(&q).unwrap();
        assert!((est.value - truth).abs() / truth < 0.1);
        let live = Arc::try_unwrap(live).ok().expect("sole owner");
        let engine = live.shutdown();
        assert_eq!(engine.stats().inserts, 4_000);
    }

    #[test]
    fn reoptimize_while_updates_flow() {
        let live = Arc::new(LiveEngine::start(config(4), rows(15_000, 4)).unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        let producer = {
            let live = Arc::clone(&live);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(42);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let x = rng.gen::<f64>() * 100.0;
                    live.insert(Row::new(2_000_000 + i, vec![x, x * 2.0]))
                        .unwrap();
                    i += 1;
                }
                i
            })
        };
        for _ in 0..3 {
            live.reoptimize().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let produced = producer.join().unwrap();
        assert!(produced > 0);
        assert_eq!(live.stats().repartitions, 3);
        // Nothing was lost across the swaps.
        assert_eq!(live.population(), 15_000 + produced as usize);
    }

    /// While one reader holds the engine's read guard (and has answered
    /// under it), [`LiveEngine::query`] on another thread must complete:
    /// an exclusive lock there would wait for the guard to drop, which
    /// the `recv_timeout` reports as a failure instead of a hang.
    #[test]
    fn a_query_completes_while_another_reader_is_inside() {
        let mut live = LiveEngine::start(config(5), rows(5_000, 5)).unwrap();
        // Retire the catch-up thread: a writer queued behind the held read
        // guard would hold later readers back too.
        live.wait_for_catchup();
        live.shared.shutdown.store(true, Ordering::Relaxed);
        let catchup = live.catchup_thread.take().unwrap();
        catchup.thread().unpark();
        catchup.join().unwrap();

        let q = sum_query(0.0, 100.0);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let inside = live.shared.engine.read();
            inside.query(&q).unwrap().unwrap();
            let (live, q) = (&live, &q);
            s.spawn(move || done_tx.send(live.query(q).unwrap().unwrap()).unwrap());
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("LiveEngine::query waited for a reader to leave");
            drop(inside);
        });
        assert_eq!(live.stats().queries, 2);
    }
}
