//! Condvar-backed progress notification, and the one delivery loop.
//!
//! [`Progress`] is the cluster's wakeup primitive: producers (pump
//! workers, the live front end, network shippers) `bump()` a generation
//! counter whenever they make observable progress, and waiters
//! (`drain()`, backlog stalls, checkpoint barriers) block in
//! [`Workers::wait_until`] until their condition holds — parked on the
//! condvar, so a waiter costs nothing until the next bump.
//!
//! [`Backoff`] is the bounded doubling delay under every idle wait: the
//! timeout of a wait round, and the park of a worker loop that found
//! nothing to do.
//!
//! [`Workers`] owns the threads of one service start — `LiveCluster`'s
//! pumps and front end, `RemoteCluster`'s shippers and heartbeat — with
//! their stop flag and their [`Progress`], and runs the one delivery
//! loop ([`Workers::deliver`]) over [`ShardTransport::deliver`]. A thread
//! that ends by panic is recorded ([`Workers::dead`]) and ends every
//! barrier, so a dead pump or shipper fails its service's `drain` loudly
//! instead of leaving it waiting for records nobody will deliver. A
//! barrier's round unparks every nudged thread ([`Workers::wait_until`]),
//! or only the ones a barrier that knows what it waits on picks
//! (`Workers::wait_until_nudging`, `Workers::unpark_workers`): an idle
//! delivery worker unparked each round steps for nothing.

use crate::engine::ShardTransport;
use janus_common::{JanusError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// First idle wait: short, so wakeups stay snappy while traffic flows.
pub const IDLE_MIN: Duration = Duration::from_micros(200);
/// Idle-wait ceiling: cheap idling when nothing moves. Every wait is
/// also cut short by a [`Progress::bump`] or an unpark, so the cap only
/// bounds the missed-wakeup worst case, not the common-path latency.
pub const IDLE_MAX: Duration = Duration::from_millis(64);

/// A bounded doubling delay: [`IDLE_MIN`], then twice the previous one
/// up to the cap.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::capped(IDLE_MAX)
    }
}

impl Backoff {
    /// A backoff from [`IDLE_MIN`] to [`IDLE_MAX`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A backoff from [`IDLE_MIN`] to `cap` — for the wait whose timeout
    /// is a poll period rather than a missed-wakeup backstop.
    pub fn capped(cap: Duration) -> Self {
        Backoff {
            next: IDLE_MIN,
            cap,
        }
    }

    /// The delay to wait now; the one after it is twice as long, up to
    /// the cap.
    pub fn next_delay(&mut self) -> Duration {
        let delay = self.next;
        self.next = (delay * 2).min(self.cap);
        delay
    }

    /// Back to the shortest delay — call when the loop found work.
    pub fn reset(&mut self) {
        self.next = IDLE_MIN;
    }

    /// Parks the calling thread for [`Backoff::next_delay`]; an unpark
    /// ends the park early.
    pub fn park(&mut self) {
        std::thread::park_timeout(self.next_delay());
    }
}

/// A monotonically increasing generation counter paired with a condvar.
#[derive(Default, Debug)]
pub struct Progress {
    generation: Mutex<u64>,
    cv: Condvar,
}

impl Progress {
    /// A fresh counter at generation zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records progress: advances the generation and wakes all waiters.
    pub fn bump(&self) {
        let mut g = self.generation.lock().unwrap_or_else(|e| e.into_inner());
        *g += 1;
        drop(g);
        self.cv.notify_all();
    }

    /// The current generation, for a subsequent
    /// [`Progress::wait_past`].
    fn snapshot(&self) -> u64 {
        *self.generation.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until the generation moves past `seen` or `timeout`
    /// elapses, whichever is first. Returns `true` if progress was
    /// observed (callers re-check their condition either way).
    fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let mut g = self.generation.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = std::time::Instant::now() + timeout;
        while *g == seen {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _result) = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
        true
    }

    /// Blocks until `done()` holds (returns `true`) or `abort()` does
    /// (returns `false`) — the one race-free wait under every barrier,
    /// called through [`Workers::wait_until`].
    ///
    /// Each round checks `done`, calls `nudge` (unpark the workers the
    /// condition depends on, probe a peer), snapshots the generation,
    /// checks `done` **again** and then `abort`, and only then waits for
    /// the generation to move past the snapshot. Whoever changes the
    /// condition or raises the abort flag bumps the counter afterwards,
    /// so a bump that lands between those checks and the wait lifts the
    /// generation past the snapshot and the wait returns at once instead
    /// of sleeping through the wakeup. The wait is also bounded by
    /// `backoff`, which doubles from round to round up to its cap, so a
    /// producer that never bumps costs at most one cap of latency.
    fn wait_until(
        &self,
        mut backoff: Backoff,
        abort: impl Fn() -> bool,
        mut nudge: impl FnMut(),
        mut done: impl FnMut() -> bool,
    ) -> bool {
        loop {
            if done() {
                return true;
            }
            nudge();
            let seen = self.snapshot();
            if done() {
                return true;
            }
            if abort() {
                return false;
            }
            self.wait_past(seen, backoff.next_delay());
        }
    }
}

/// What one [`ShardTransport::deliver`] step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivered {
    /// Nothing to deliver: the worker parks on its [`Backoff`].
    Idle,
    /// Records moved: the worker goes again at once.
    Progressed,
    /// The worker has nothing left to deliver, ever: its node is dead.
    Done,
}

/// The threads of one service start, with their stop flag and the
/// [`Progress`] their barriers wait on. A stopped `Workers` stays
/// stopped: a service that starts again builds a new one, so the flag
/// belongs to the start and not to the engine under it.
pub struct Workers {
    stopping: AtomicBool,
    progress: Progress,
    /// Every thread started, and whether [`Workers::unpark_all`] wakes it.
    threads: parking_lot::Mutex<Vec<(JoinHandle<()>, bool)>>,
    /// The delivery workers [`Workers::deliver`] started, by worker index.
    delivery: parking_lot::Mutex<Vec<Thread>>,
    /// The name of the first thread that ended by panic.
    dead: parking_lot::Mutex<Option<String>>,
}

/// Held by every thread [`Workers::spawn`] starts: if the thread unwinds,
/// its drop records the thread's name, unless another died first, and
/// lifts every barrier.
struct PanicWatch<'a>(&'a Workers);

impl Drop for PanicWatch<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let name = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_owned();
            self.0.dead.lock().get_or_insert(name);
            self.0.progress.bump();
        }
    }
}

impl Workers {
    /// An owner with no thread yet.
    pub fn new() -> Arc<Self> {
        Arc::new(Workers {
            stopping: AtomicBool::new(false),
            progress: Progress::new(),
            threads: parking_lot::Mutex::new(Vec::new()),
            delivery: parking_lot::Mutex::new(Vec::new()),
            dead: parking_lot::Mutex::new(None),
        })
    }

    /// Starts `count` delivery workers over `transport`, worker `i` named
    /// `janus-{role}-{i}`, each asking for at most `max` records a step.
    pub fn deliver<T: ShardTransport>(
        self: &Arc<Self>,
        transport: &Arc<T>,
        count: usize,
        role: &str,
        max: usize,
    ) -> Result<()> {
        for worker in 0..count {
            let transport = Arc::clone(transport);
            let name = format!("janus-{role}-{worker}");
            let thread = self.spawn(name, true, move |w| w.run(&*transport, worker, max))?;
            self.delivery.lock().push(thread);
        }
        Ok(())
    }

    /// The one delivery loop. A worker that ends bumps the progress, since
    /// a barrier may have waited on the copies it served.
    fn run<T: ShardTransport>(&self, transport: &T, worker: usize, max: usize) {
        let mut idle = Backoff::new();
        while !self.stopping() {
            match transport.deliver(worker, max, &self.progress) {
                Delivered::Idle => idle.park(),
                Delivered::Progressed => idle.reset(),
                Delivered::Done => break,
            }
        }
        self.progress.bump();
    }

    /// Starts one thread named `name` running `body`. `nudged` says
    /// whether [`Workers::unpark_all`] wakes it; [`Workers::stop`] wakes
    /// every thread. If the thread cannot start, every thread started so
    /// far is stopped and the error returned.
    pub fn spawn(
        self: &Arc<Self>,
        name: String,
        nudged: bool,
        body: impl FnOnce(&Workers) + Send + 'static,
    ) -> Result<Thread> {
        let workers = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                let _watch = PanicWatch(&workers);
                body(&workers)
            })
            .map_err(|e| {
                self.stop();
                JanusError::Storage(format!("spawn {name}: {e}"))
            })?;
        let thread = handle.thread().clone();
        self.threads.lock().push((handle, nudged));
        Ok(thread)
    }

    /// Whether [`Workers::stop`] has been called.
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// The first thread of this start that ended by panic, if any.
    pub fn dead(&self) -> Option<String> {
        self.dead.lock().clone()
    }

    /// Panics naming the thread that died, if one did — for a barrier
    /// that gave up, so it fails loudly instead of returning as if done.
    pub fn assert_alive(&self, barrier: &str) {
        if let Some(name) = self.dead() {
            panic!("{barrier}: worker thread {name} panicked");
        }
    }

    /// Records progress a barrier may be waiting on.
    pub fn bump(&self) {
        self.progress.bump();
    }

    /// Unparks every thread started as nudged.
    pub fn unpark_all(&self) {
        for (thread, nudged) in self.threads.lock().iter() {
            if *nudged {
                thread.thread().unpark();
            }
        }
    }

    /// Unparks the delivery workers `wake` picks, by worker index: the
    /// ones with something to deliver.
    pub(crate) fn unpark_workers(&self, mut wake: impl FnMut(usize) -> bool) {
        for (worker, thread) in self.delivery.lock().iter().enumerate() {
            if wake(worker) {
                thread.unpark();
            }
        }
    }

    /// Blocks until `done` holds (`true`), or until the service stops or
    /// one of its threads has died by panic (`false`), unparking the
    /// nudged threads each round.
    pub fn wait_until(&self, done: impl FnMut() -> bool) -> bool {
        self.wait_until_nudging(Self::unpark_all, done)
    }

    /// [`Workers::wait_until`] whose rounds wake only the threads `nudge`
    /// unparks — for a barrier that knows which workers its condition
    /// waits on, so an idle one is not stepped each round.
    pub(crate) fn wait_until_nudging(
        &self,
        mut nudge: impl FnMut(&Self),
        done: impl FnMut() -> bool,
    ) -> bool {
        self.progress.wait_until(
            Backoff::new(),
            || self.stopping() || self.dead.lock().is_some(),
            || nudge(self),
            done,
        )
    }

    /// Sets the stop flag, lifts every barrier so it re-checks it, wakes
    /// every thread and joins them all, a panicked one included (its
    /// death stays recorded). Idempotent.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        self.progress.bump();
        self.delivery.lock().clear();
        let threads = std::mem::take(&mut *self.threads.lock());
        for (thread, _) in &threads {
            thread.thread().unpark();
        }
        for (thread, _) in threads {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bump_wakes_waiter_before_timeout() {
        let p = Arc::new(Progress::new());
        let seen = p.snapshot();
        let waiter = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.wait_past(seen, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        p.bump();
        let start = std::time::Instant::now();
        assert!(waiter.join().unwrap(), "waiter must see the bump");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wakeup must not wait out the long timeout"
        );
    }

    #[test]
    fn wait_past_times_out_without_progress() {
        let p = Progress::new();
        let seen = p.snapshot();
        assert!(!p.wait_past(seen, Duration::from_millis(10)));
    }

    #[test]
    fn bump_between_snapshot_and_wait_returns_immediately() {
        let p = Progress::new();
        let seen = p.snapshot();
        p.bump();
        let start = std::time::Instant::now();
        assert!(p.wait_past(seen, Duration::from_secs(30)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    /// A backoff whose every delay is `delay` — long enough that a test
    /// passing quickly proves the wait did not sleep it out.
    fn fixed(delay: Duration) -> Backoff {
        Backoff {
            next: delay,
            cap: delay,
        }
    }

    #[test]
    fn wait_until_catches_a_bump_between_recheck_and_wait() {
        let p = Progress::new();
        let mut checks = 0;
        let start = std::time::Instant::now();
        let held = p.wait_until(
            fixed(Duration::from_secs(30)),
            || false,
            || {},
            || {
                checks += 1;
                // The producer's bump lands right after the post-snapshot
                // re-check (the second one) saw the old state.
                if checks == 2 {
                    p.bump();
                }
                checks >= 3
            },
        );
        assert!(held);
        assert_eq!(checks, 3, "one wait round, ended by the bump");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wait_until_aborts_without_the_condition_holding() {
        let p = Arc::new(Progress::new());
        let abort = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (nudged_tx, nudged_rx) = std::sync::mpsc::channel();
        let waiter = {
            let (p, abort) = (Arc::clone(&p), Arc::clone(&abort));
            std::thread::spawn(move || {
                p.wait_until(
                    fixed(Duration::from_secs(30)),
                    || abort.load(std::sync::atomic::Ordering::Acquire),
                    || nudged_tx.send(()).expect("test alive"),
                    || false,
                )
            })
        };
        // The waiter is inside a round: whether the flag and its bump
        // land before its snapshot or after, it must not sleep them out.
        nudged_rx.recv().expect("waiter nudges before waiting");
        abort.store(true, std::sync::atomic::Ordering::Release);
        p.bump();
        let start = std::time::Instant::now();
        assert!(!waiter.join().unwrap(), "aborted, condition never held");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    /// A transport of `shards` empty shards whose worker 0 panics on its
    /// first step; the others idle and count their steps.
    struct PanicsOnWorkerZero {
        topics: Arc<janus_storage::ShardedLog<crate::ShardOp>>,
        steps: std::sync::atomic::AtomicU64,
    }

    impl ShardTransport for PanicsOnWorkerZero {
        fn topics(&self) -> &Arc<janus_storage::ShardedLog<crate::ShardOp>> {
            &self.topics
        }
        fn applied(&self, _shard: usize) -> u64 {
            0
        }
        fn backlog(&self, _shard: usize) -> u64 {
            0
        }
        fn serve(
            &self,
            _shard: usize,
            _query: &janus_common::Query,
            _expiry: Option<std::time::Instant>,
        ) -> Result<janus_common::merge::SubAnswer> {
            unreachable!("no query is asked")
        }
        fn deliver(&self, worker: usize, _max: usize, _progress: &Progress) -> Delivered {
            assert_ne!(worker, 0, "worker 0 fails");
            self.steps.fetch_add(1, Ordering::Relaxed);
            Delivered::Idle
        }
    }

    #[test]
    fn a_panicked_worker_ends_every_barrier_and_stop_joins_the_rest() {
        let transport = Arc::new(PanicsOnWorkerZero {
            topics: Arc::new(janus_storage::ShardedLog::new(3)),
            steps: Default::default(),
        });
        let workers = Workers::new();
        workers.deliver(&transport, 3, "test", 1).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = {
            let workers = Arc::clone(&workers);
            std::thread::spawn(move || done_tx.send(workers.wait_until(|| false)).unwrap())
        };
        let held = done_rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(held, Ok(false), "the barrier gives up on a dead worker");
        waiter.join().unwrap();
        assert_eq!(workers.dead().as_deref(), Some("janus-test-0"));
        let dies = std::panic::catch_unwind(|| workers.assert_alive("drain"));
        assert!(dies.is_err(), "a barrier that gave up on it fails loudly");

        // The surviving workers keep stepping until `stop` joins them.
        while transport.steps.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        workers.stop();
        assert!(workers.threads.lock().is_empty());
        let steps = transport.steps.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            transport.steps.load(Ordering::Relaxed),
            steps,
            "nothing steps after stop"
        );
        assert_eq!(workers.dead().as_deref(), Some("janus-test-0"));
    }

    /// A transport of two empty shards whose workers count their steps:
    /// worker 1 records progress on every step, as a pump applying a
    /// record does, and worker 0 never has anything to deliver.
    struct CountsSteps {
        topics: Arc<janus_storage::ShardedLog<crate::ShardOp>>,
        steps: [std::sync::atomic::AtomicU64; 2],
    }

    impl ShardTransport for CountsSteps {
        fn topics(&self) -> &Arc<janus_storage::ShardedLog<crate::ShardOp>> {
            &self.topics
        }
        fn applied(&self, _shard: usize) -> u64 {
            0
        }
        fn backlog(&self, _shard: usize) -> u64 {
            0
        }
        fn serve(
            &self,
            _shard: usize,
            _query: &janus_common::Query,
            _expiry: Option<std::time::Instant>,
        ) -> Result<janus_common::merge::SubAnswer> {
            unreachable!("no query is asked")
        }
        fn deliver(&self, worker: usize, _max: usize, progress: &Progress) -> Delivered {
            self.steps[worker].fetch_add(1, Ordering::Relaxed);
            if worker == 1 {
                progress.bump();
            }
            Delivered::Idle
        }
    }

    /// A barrier waiting on worker 1 alone steps idle worker 0 on its own
    /// backoff only when its nudge names worker 1, but about once a round
    /// when it unparks every worker. Each round ends on a step of worker
    /// 1, so both barriers run about `ROUNDS` rounds.
    #[test]
    fn a_barrier_that_names_its_worker_leaves_the_idle_one_parked() {
        const ROUNDS: u64 = 1_000;
        let idle_steps = |targeted: bool| {
            let transport = Arc::new(CountsSteps {
                topics: Arc::new(janus_storage::ShardedLog::new(2)),
                steps: Default::default(),
            });
            let workers = Workers::new();
            workers.deliver(&transport, 2, "test", 1).unwrap();
            let steps = |worker: usize| transport.steps[worker].load(Ordering::Relaxed);
            let (before, target) = (steps(0), steps(1) + ROUNDS);
            let done = || steps(1) >= target;
            let held = if targeted {
                workers.wait_until_nudging(|w| w.unpark_workers(|worker| worker == 1), done)
            } else {
                workers.wait_until(done)
            };
            assert!(held);
            let idle = steps(0) - before;
            workers.stop();
            idle
        };
        let (named, all) = (idle_steps(true), idle_steps(false));
        assert!(
            named * 4 < all && named < ROUNDS / 4,
            "idle worker stepped {named} times under a named nudge, {all} under unpark_all"
        );
    }

    #[test]
    fn backoff_doubles_up_to_its_cap() {
        let mut b = Backoff::capped(Duration::from_millis(1));
        let delays: Vec<Duration> = (0..5).map(|_| b.next_delay()).collect();
        assert_eq!(
            delays,
            [200, 400, 800, 1000, 1000].map(Duration::from_micros)
        );
        b.reset();
        assert_eq!(b.next_delay(), IDLE_MIN);

        let mut b = Backoff::new();
        let last = (0..12).map(|_| b.next_delay()).last();
        assert_eq!(last, Some(IDLE_MAX));

        // `wait_until` spends the same sequence: three rounds without a
        // bump wait out 200 + 400 + 800 microseconds.
        let p = Progress::new();
        let rounds = std::cell::Cell::new(0);
        let start = std::time::Instant::now();
        p.wait_until(
            Backoff::capped(Duration::from_millis(1)),
            || false,
            || rounds.set(rounds.get() + 1),
            || rounds.get() == 4,
        );
        assert!(start.elapsed() >= Duration::from_micros(1400));
    }
}
