//! Catch-up processing (§4.3).
//!
//! After a (re-)initialization, node statistics are only estimates. The
//! catch-up phase streams uniformly-shuffled historical rows from archival
//! storage into the tree, continuously tightening every current-epoch
//! node's estimate, until a user-chosen goal (e.g. `0.1·|D|` samples in the
//! paper's experiments) is reached. Queries issued early in the phase see
//! larger confidence intervals; by the end of the phase estimates for the
//! epoch snapshot are essentially exact.

use janus_common::Row;
use janus_storage::ArchiveStore;

/// A snapshot queue of shuffled historical rows: exactly the rows the
/// catch-up phase will apply to reach its sample goal, in order.
pub struct CatchupQueue {
    rows: Vec<Row>,
    pos: usize,
}

impl CatchupQueue {
    /// Creates a queue whose goal is to apply all of the pre-shuffled
    /// `rows`.
    pub fn new(rows: Vec<Row>) -> Self {
        CatchupQueue { rows, pos: 0 }
    }

    /// The catch-up phase of a (re-)initialization over `archive`: a goal
    /// of `⌈catchup_ratio·|D|⌉` rows (at most `|D|`) in the seeded shuffle
    /// order. Only those rows are materialized — the queue never reads
    /// past its goal, so the rest of the shuffle would be dead weight for
    /// the engine's lifetime.
    pub fn over_archive(archive: &ArchiveStore, catchup_ratio: f64, seed: u64) -> Self {
        let goal = (catchup_ratio * archive.len() as f64).ceil() as usize;
        Self::new(archive.shuffled_prefix(seed, goal))
    }

    /// An already-complete queue (used when the base is exact).
    pub fn completed() -> Self {
        Self::new(Vec::new())
    }

    /// Number of samples applied so far.
    pub fn applied(&self) -> usize {
        self.pos
    }

    /// The sample goal.
    pub fn goal(&self) -> usize {
        self.rows.len()
    }

    /// True once the goal has been reached.
    pub fn is_complete(&self) -> bool {
        self.pos >= self.rows.len()
    }

    /// Progress in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.rows.is_empty() {
            1.0
        } else {
            self.pos as f64 / self.rows.len() as f64
        }
    }

    /// The not-yet-applied remainder of the queue, in consumption order —
    /// what a synopsis snapshot persists so a restored engine resumes
    /// catch-up exactly where the original stood.
    pub fn remaining(&self) -> &[Row] {
        &self.rows[self.pos..]
    }

    /// Takes the next chunk of at most `n` rows toward the goal.
    pub fn next_chunk(&mut self, n: usize) -> &[Row] {
        let end = (self.pos + n).min(self.rows.len());
        let start = self.pos;
        self.pos = end;
        &self.rows[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Row> {
        (0..n as u64).map(|i| Row::new(i, vec![i as f64])).collect()
    }

    #[test]
    fn chunks_advance_to_goal_and_stop() {
        let mut q = CatchupQueue::new(rows(30));
        assert!(!q.is_complete());
        assert_eq!(q.next_chunk(20).len(), 20);
        assert!((q.progress() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(q.next_chunk(20).len(), 10, "clamped at goal");
        assert!(q.is_complete());
        assert!(q.next_chunk(20).is_empty());
        assert_eq!(q.applied(), 30);
    }

    #[test]
    fn archive_queue_holds_only_its_goal() {
        let archive = ArchiveStore::from_rows(rows(100));
        let q = CatchupQueue::over_archive(&archive, 0.25, 9);
        assert_eq!(q.goal(), 25);
        assert_eq!(q.remaining(), &archive.shuffled(9)[..25]);
        assert_eq!(CatchupQueue::over_archive(&archive, 2.5, 9).goal(), 100);
    }

    #[test]
    fn completed_queue_is_done() {
        let mut q = CatchupQueue::completed();
        assert!(q.is_complete());
        assert_eq!(q.progress(), 1.0);
        assert!(q.next_chunk(5).is_empty());
    }

    #[test]
    fn rows_come_out_in_order() {
        let mut q = CatchupQueue::new(rows(5));
        let ids: Vec<u64> = q.next_chunk(5).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
