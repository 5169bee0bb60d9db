//! Condvar-backed progress notification.
//!
//! [`Progress`] is the cluster's wakeup primitive: producers (pump
//! workers, the live front end, network shippers) `bump()` a generation
//! counter whenever they make observable progress, and waiters
//! (`drain()`, backlog stalls, checkpoint barriers) block in
//! [`Progress::wait_until`] until their condition holds — parked on the
//! condvar, so a waiter costs nothing until the next bump.
//!
//! [`Backoff`] is the bounded doubling delay under every idle wait: the
//! timeout of a [`Progress::wait_until`] round, and the park of a worker
//! loop that found nothing to do.

use std::sync::{Condvar, Mutex};
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
    /// (returns `false`) — the one race-free wait under every barrier.
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
    pub fn wait_until(
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
