//! The worker pool under every fan-out, and the one gather.
//!
//! A [`ScatterPool`] is N long-lived named threads, each fed by its own
//! channel of boxed closures. The pool knows nothing about shards,
//! queries or sockets: [`crate::ClusterEngine`] owns one (a worker per
//! shard: sub-queries and `pump` drains) and so does the networked
//! coordinator (a worker per shard: one TCP exchange per sub-query), and
//! both reach it only through [`ScatterPool::fan_out`] — the single
//! function in the tree that opens a reply channel, tags gather slots and
//! waits on a deadline. No thread is created per call.
//!
//! Workers take no lock of their own and never wait on each other, so the
//! pool adds no lock-order edge; whatever a job locks, it locks as if its
//! submitter had called it directly.
//!
//! ## Priority lanes
//!
//! Every job travels with a [`Priority`]. A worker drains its channel
//! into two local queues and always serves the interactive queue first,
//! so a dashboard query scattered behind a long run of bulk jobs
//! overtakes them at the *next* job boundary — jobs themselves are never
//! preempted, and jobs of equal priority keep strict arrival order, which
//! is why an all-bulk workload behaves exactly like a single queue.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Scheduling lane for one pool job. Everything defaults to [`Bulk`];
/// deadline-bound tenant queries ride [`Interactive`] and overtake queued
/// bulk work at job boundaries.
///
/// [`Bulk`]: Priority::Bulk
/// [`Interactive`]: Priority::Interactive
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Background lane: ingest pumps, analytical sweeps, anything
    /// without a deadline. The default.
    #[default]
    Bulk,
    /// Latency-sensitive lane, served before any queued bulk job.
    Interactive,
}

type Task = Box<dyn FnOnce() + Send>;

/// N long-lived worker threads, each fed by a channel of closures.
pub struct ScatterPool {
    senders: Vec<Sender<(Priority, Task)>>,
    handles: Vec<JoinHandle<()>>,
}

impl ScatterPool {
    /// Spawns `workers` threads named `{name}-{index}`.
    pub fn start(name: &str, workers: usize) -> Self {
        let (senders, handles) = (0..workers)
            .map(|index| {
                let (tx, rx) = std::sync::mpsc::channel();
                let worker = std::thread::Builder::new()
                    .name(format!("{name}-{index}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn pool worker");
                (tx, worker)
            })
            .unzip();
        ScatterPool { senders, handles }
    }

    fn submit(&self, worker: usize, priority: Priority, task: Task) {
        self.senders[worker]
            .send((priority, task))
            .expect("pool workers outlive the pool's owner");
    }

    /// Runs every `(worker, job)` pair on its worker in the `priority`
    /// lane and gathers the results **in submission order**: slot `i`
    /// holds job `i`'s return value, or `None` if it had not replied when
    /// the gather gave up. Jobs are submitted as the iterator yields them.
    ///
    /// * A single job runs inline on the calling thread — no hand-off, no
    ///   deadline (there is nothing to overlap the wait with).
    /// * With `deadline: None` the gather waits for every job, so every
    ///   slot is `Some`.
    /// * With a deadline the *first* reply is always awaited, however
    ///   late (a k-of-n merge needs one responder to extrapolate from);
    ///   the remaining replies are awaited until the deadline, and
    ///   anything already queued when it expires is still taken.
    ///   Stragglers' replies land on a dropped receiver.
    pub fn fan_out<T, F>(
        &self,
        priority: Priority,
        deadline: Option<Instant>,
        jobs: impl IntoIterator<Item = (usize, F)>,
    ) -> Vec<Option<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut jobs = jobs.into_iter().peekable();
        let Some(first) = jobs.next() else {
            return Vec::new();
        };
        if jobs.peek().is_none() {
            return vec![Some((first.1)())];
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let mut submitted = 0usize;
        for (slot, (worker, job)) in std::iter::once(first).chain(jobs).enumerate() {
            let reply = tx.clone();
            // A gather that gave up has dropped its receiver; that is
            // not the worker's problem.
            let task = move || drop(reply.send((slot, job())));
            self.submit(worker, priority, Box::new(task));
            submitted += 1;
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..submitted).map(|_| None).collect();
        let mut received = 0usize;
        while received < submitted {
            let message = match deadline {
                Some(deadline) if received > 0 => rx
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .ok(),
                _ => rx.recv().ok(),
            };
            // The deadline expired, or the channel closed: every job has
            // replied or died.
            let Some((slot, value)) = message else { break };
            slots[slot] = Some(value);
            received += 1;
        }
        // Deadline expired: take what raced in, wait for nobody.
        while let Ok((slot, value)) = rx.try_recv() {
            slots[slot] = Some(value);
        }
        slots
    }
}

impl Drop for ScatterPool {
    fn drop(&mut self) {
        // Closing the channels is the shutdown signal; workers finish
        // what is already queued first.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(jobs: &Receiver<(Priority, Task)>) {
    let mut interactive: VecDeque<Task> = VecDeque::new();
    let mut bulk: VecDeque<Task> = VecDeque::new();
    loop {
        // Block only when there is nothing local to run. A closed channel
        // still hands out what was sent before it closed, so the backlog
        // is finished before the worker exits.
        let awaited = if interactive.is_empty() && bulk.is_empty() {
            match jobs.recv() {
                Ok(job) => Some(job),
                Err(_) => return,
            }
        } else {
            None
        };
        // Scoop everything already sent, so an interactive job that
        // arrived behind queued bulk work overtakes it here.
        for (priority, task) in awaited.into_iter().chain(jobs.try_iter()) {
            match priority {
                Priority::Interactive => interactive.push_back(task),
                Priority::Bulk => bulk.push_back(task),
            }
        }
        if let Some(task) = interactive.pop_front().or_else(|| bulk.pop_front()) {
            task();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::{Arc, Mutex};

    type Job = Box<dyn FnOnce() -> usize + Send>;

    /// A job that blocks until the returned sender is dropped.
    fn gated(value: usize) -> (Sender<()>, Job) {
        let (open, gate) = channel::<()>();
        let job = move || {
            let _ = gate.recv();
            value
        };
        (open, Box::new(job))
    }

    #[test]
    fn results_come_back_in_submission_order_when_jobs_finish_in_reverse() {
        let pool = ScatterPool::start("t", 3);
        // Job 2 finishes and opens job 1, which finishes and opens job 0.
        let (open0, job0) = gated(10);
        let (open1, job1) = gated(11);
        let then_open0 = move || {
            let value = job1();
            drop(open0);
            value
        };
        let open1_first = move || {
            drop(open1);
            12
        };
        let jobs: Vec<(usize, Job)> = vec![
            (0, job0),
            (1, Box::new(then_open0)),
            (2, Box::new(open1_first)),
        ];
        let got = pool.fan_out(Priority::Bulk, None, jobs);
        assert_eq!(got, vec![Some(10), Some(11), Some(12)]);
        let none = Vec::<(usize, Job)>::new();
        assert!(pool.fan_out(Priority::Bulk, None, none).is_empty());
    }

    #[test]
    fn the_first_reply_is_awaited_past_the_deadline_and_a_straggler_is_dropped() {
        let pool = ScatterPool::start("t", 2);
        let (release, straggler) = gated(1);
        let jobs: Vec<(usize, Job)> = vec![(0, Box::new(|| 0)), (1, straggler)];
        // The deadline is behind every reply before the first job starts.
        let got = pool.fan_out(Priority::Interactive, Some(Instant::now()), jobs);
        assert_eq!(got, vec![Some(0), None]);
        drop(release);
    }

    #[test]
    fn a_reply_already_queued_when_the_deadline_expires_is_kept() {
        let pool = ScatterPool::start("t", 3);
        let (release, straggler) = gated(2);
        let (ran, both_ran) = channel();
        // Jobs are submitted as the iterator yields them, and a worker
        // sends a job's reply before it takes its next task: once a task
        // queued behind each of the first two jobs has run, both replies
        // are in the gather's channel — before the gather starts, with
        // its deadline already behind it.
        let late = std::iter::once_with(|| {
            for worker in 0..2 {
                let ran = ran.clone();
                let after_the_job = move || {
                    let _ = ran.send(());
                };
                pool.submit(worker, Priority::Bulk, Box::new(after_the_job));
            }
            assert_eq!(both_ran.iter().take(2).count(), 2);
            (2, straggler)
        });
        let instant: [(usize, Job); 2] = [(0, Box::new(|| 0)), (1, Box::new(|| 1))];
        let jobs = instant.into_iter().chain(late);
        let got = pool.fan_out(Priority::Bulk, Some(Instant::now()), jobs);
        assert_eq!(got, vec![Some(0), Some(1), None]);
        drop(release);
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let pool = ScatterPool::start("t", 2);
        let whoami = || std::thread::current().name().map(str::to_owned);
        // Worker 1 is named, the job still runs right here.
        let alone = pool.fan_out(Priority::Bulk, Some(Instant::now()), [(1, whoami)]);
        assert_eq!(alone, vec![Some(whoami())]);
        let pair = pool.fan_out(Priority::Bulk, None, [(1, whoami), (0, whoami)]);
        let names = ["t-1", "t-0"].map(|name| Some(Some(name.to_owned())));
        assert_eq!(pair, names);
    }

    #[test]
    fn an_interactive_job_overtakes_queued_bulk_jobs_and_drop_runs_the_backlog() {
        let pool = ScatterPool::start("t", 1);
        let (release, gate) = gated(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let log = |tag: &'static str| -> Task {
            let order = Arc::clone(&order);
            Box::new(move || order.lock().unwrap().push(tag))
        };
        let hold = move || {
            gate();
        };
        pool.submit(0, Priority::Bulk, Box::new(hold));
        pool.submit(0, Priority::Bulk, log("bulk-1"));
        pool.submit(0, Priority::Bulk, log("bulk-2"));
        pool.submit(0, Priority::Interactive, log("interactive"));
        // All four are sent before the first can finish, so the order is
        // fixed whenever the gate opens; opening it from another thread
        // lets the drop below start with the backlog still queued.
        let releaser = std::thread::spawn(move || drop(release));
        drop(pool);
        releaser.join().unwrap();
        assert_eq!(*order.lock().unwrap(), ["interactive", "bulk-1", "bulk-2"]);
    }
}
