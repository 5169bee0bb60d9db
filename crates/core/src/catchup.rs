//! Catch-up processing (§4.3).
//!
//! After a (re-)initialization, node statistics are only estimates. The
//! catch-up phase streams uniformly-shuffled historical rows from archival
//! storage into the tree, continuously tightening every current-epoch
//! node's estimate, until a user-chosen goal (e.g. `0.1·|D|` samples in the
//! paper's experiments) is reached. Queries issued early in the phase see
//! larger confidence intervals; by the end of the phase estimates for the
//! epoch snapshot are essentially exact.
//!
//! The queue is flat, in the archive's own layout: one id column and one
//! arity-strided value buffer, copied straight from the shuffled archive
//! slots ([`ArchiveStore::for_each_in`]) and handed out as
//! [`ArchiveColumns`] chunks of borrowed [`RowRef`]s. A `0.1·|D|` goal
//! is thus held in two allocations, not one heap `Row` per sample. Rows
//! materialize only where they cross an ownership boundary: a synopsis
//! snapshot saves the unconsumed remainder as `Vec<Row>`, and a restore
//! reads it back with [`CatchupQueue::from_rows`].
//!
//! The order is a [`SlotOrder`], the archive's seeded slot shuffle
//! (drawn over `u32` slot indices), of which the queue copies the first
//! `⌈catchup_ratio·|D|⌉` rows. A bootstrap draws it on the calling thread
//! while a helper thread builds the archive's id index (see
//! `JanusEngine`'s "Bootstrap"); a re-initialization
//! ([`CatchupQueue::over_archive`] from §5.4's `restart_catchup`) still
//! draws the whole shuffle, serially, for that prefix.

use janus_common::{JanusError, Result, Row, RowId, RowRef};
use janus_storage::{ArchiveColumns, ArchiveStore, SlotOrder};

/// A snapshot queue of shuffled historical rows: exactly the rows the
/// catch-up phase will apply to reach its sample goal, in order.
pub struct CatchupQueue {
    /// Row id of each queued sample, in consumption order.
    ids: Vec<RowId>,
    /// Arity-strided values; sample `i` owns `values[i*arity..(i+1)*arity]`.
    values: Vec<f64>,
    arity: usize,
    pos: usize,
}

impl CatchupQueue {
    /// An empty queue with room for exactly `goal` rows of `arity` values.
    fn with_capacity(goal: usize, arity: usize) -> Self {
        CatchupQueue {
            ids: Vec::with_capacity(goal),
            values: Vec::with_capacity(goal * arity),
            arity,
            pos: 0,
        }
    }

    fn push(&mut self, row: RowRef<'_>) {
        self.ids.push(row.id);
        self.values.extend_from_slice(row.values);
    }

    /// Creates a queue whose goal is to apply all of the pre-shuffled
    /// `rows`, in order — a restored snapshot's unconsumed remainder. The
    /// rows must share one arity.
    pub fn from_rows(rows: &[Row]) -> Result<Self> {
        let arity = rows.first().map_or(0, Row::arity);
        let mut queue = Self::with_capacity(rows.len(), arity);
        for row in rows {
            if row.arity() != arity {
                return Err(JanusError::InvalidConfig(format!(
                    "catch-up row {} has {} values; the queue holds rows of {arity}",
                    row.id,
                    row.arity()
                )));
            }
            queue.push(row.as_ref());
        }
        Ok(queue)
    }

    /// The catch-up phase of a (re-)initialization over `archive`: a goal
    /// of `⌈catchup_ratio·|D|⌉` rows (at most `|D|`) in the seeded shuffle
    /// order. Only those rows are copied — the queue never reads past its
    /// goal, so the rest of the shuffle would be dead weight for the
    /// engine's lifetime.
    pub fn over_archive(archive: &ArchiveStore, catchup_ratio: f64, seed: u64) -> Self {
        Self::in_order(archive, catchup_ratio, &archive.slot_order(seed))
    }

    /// [`CatchupQueue::over_archive`] in an order already drawn.
    pub fn in_order(archive: &ArchiveStore, catchup_ratio: f64, order: &SlotOrder) -> Self {
        let goal = ((catchup_ratio * archive.len() as f64).ceil() as usize).min(archive.len());
        let mut queue = Self::with_capacity(goal, archive.arity());
        archive.for_each_in(order, goal, |row| queue.push(row));
        queue
    }

    /// An already-complete queue (used when the base is exact).
    pub fn completed() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Number of samples applied so far.
    pub fn applied(&self) -> usize {
        self.pos
    }

    /// The sample goal.
    pub fn goal(&self) -> usize {
        self.ids.len()
    }

    /// True once the goal has been reached.
    pub fn is_complete(&self) -> bool {
        self.pos >= self.ids.len()
    }

    /// Progress in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.ids.is_empty() {
            1.0
        } else {
            self.pos as f64 / self.ids.len() as f64
        }
    }

    /// Queued samples `start..end` as a column view.
    fn span(&self, start: usize, end: usize) -> ArchiveColumns<'_> {
        ArchiveColumns {
            ids: &self.ids[start..end],
            values: &self.values[start * self.arity..end * self.arity],
            arity: self.arity,
        }
    }

    /// The not-yet-applied remainder of the queue, in consumption order —
    /// what a synopsis snapshot persists so a restored engine resumes
    /// catch-up exactly where the original stood.
    pub fn remaining(&self) -> ArchiveColumns<'_> {
        self.span(self.pos, self.ids.len())
    }

    /// Takes the next chunk of at most `n` rows toward the goal.
    pub fn next_chunk(&mut self, n: usize) -> ArchiveColumns<'_> {
        let start = self.pos;
        self.pos = (start + n).min(self.ids.len());
        self.span(start, self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Row> {
        (0..n as u64).map(|i| Row::new(i, vec![i as f64])).collect()
    }

    fn owned(view: ArchiveColumns<'_>) -> Vec<Row> {
        view.rows().map(|r| r.to_row()).collect()
    }

    #[test]
    fn chunks_advance_to_goal_and_stop() {
        let mut q = CatchupQueue::from_rows(&rows(30)).unwrap();
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
        assert_eq!(owned(q.remaining()), &archive.shuffled(9)[..25]);
        assert_eq!((q.ids.capacity(), q.values.capacity()), (25, 25));
        assert_eq!(CatchupQueue::over_archive(&archive, 2.5, 9).goal(), 100);
    }

    /// Saving a half-consumed queue (its remainder as rows, as a synopsis
    /// snapshot does) and restoring it resumes exactly where it stood.
    #[test]
    fn a_half_consumed_queue_survives_save_and_restore() {
        let archive = ArchiveStore::from_rows(
            (0..80u64).map(|i| Row::new(i, vec![i as f64, -(i as f64), 0.5])),
        );
        let mut q = CatchupQueue::over_archive(&archive, 0.5, 4);
        let shuffle = archive.shuffled(4);
        assert_eq!(owned(q.next_chunk(17)), &shuffle[..17]);
        let saved = owned(q.remaining());
        assert_eq!(saved, &shuffle[17..40]);
        let mut restored = CatchupQueue::from_rows(&saved).unwrap();
        assert_eq!(restored.goal(), 23);
        assert_eq!(owned(restored.next_chunk(5)), owned(q.next_chunk(5)));
        assert_eq!(owned(restored.remaining()), owned(q.remaining()));
        assert_eq!(owned(restored.next_chunk(100)), &shuffle[22..40]);
        assert!(restored.is_complete());
    }

    #[test]
    fn rows_of_mixed_arity_are_rejected() {
        let mixed = [Row::new(1, vec![1.0]), Row::new(2, vec![1.0, 2.0])];
        assert!(matches!(
            CatchupQueue::from_rows(&mixed),
            Err(JanusError::InvalidConfig(_))
        ));
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
        let mut q = CatchupQueue::from_rows(&rows(5)).unwrap();
        let ids: Vec<u64> = q.next_chunk(5).rows().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
