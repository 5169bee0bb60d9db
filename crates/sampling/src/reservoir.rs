//! Uniform reservoir sampling under insertions and deletions (§4.2).
//!
//! The reservoir targets `2m` samples and is allowed to shrink to `m`
//! under deletions before requiring a re-sample from archival storage:
//!
//! * **insert** — below target the new tuple is always admitted; at target
//!   it replaces a uniformly random resident with probability
//!   `|S| / |D|`, preserving uniformity over the evolving population
//!   (Gibbons–Matias–Poosala \[16], Vitter \[43]);
//! * **delete** — a tuple absent from the sample is ignored; a present one
//!   is evicted, unless the reservoir already sits at the floor `m`, in
//!   which case the caller must re-sample `2m` fresh tuples from the
//!   archive ([`DeleteOutcome::NeedsResample`]).

use janus_common::{DetHashMap, Row, RowId, RowRef};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of offering an inserted tuple to the reservoir.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The tuple was admitted; the reservoir grew by one.
    Added,
    /// The tuple replaced the resident with the given id.
    Replaced {
        /// Id of the evicted resident sample.
        evicted: RowId,
    },
    /// The tuple was not sampled.
    Skipped,
}

/// Result of propagating a deletion to the reservoir.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The deleted tuple was not in the sample; nothing changed.
    NotInSample,
    /// The deleted tuple was evicted from the sample.
    Removed,
    /// The reservoir sits at its floor `m`: the caller must re-sample
    /// (`reset`) from archival storage. The tuple was *not* removed.
    NeedsResample,
}

/// Pooled uniform reservoir with the paper's `m..=2m` size envelope.
pub struct DynamicReservoir {
    /// Target (maximum) size `2m`.
    target: usize,
    /// Floor `m` below which deletions force a re-sample.
    floor: usize,
    rows: Vec<Row>,
    index_of: DetHashMap<RowId, usize>,
    rng: SmallRng,
}

impl DynamicReservoir {
    /// Creates an empty reservoir with the given size envelope.
    ///
    /// # Panics
    /// Panics unless `0 < floor <= target`.
    pub fn new(floor: usize, target: usize, seed: u64) -> Self {
        assert!(floor > 0 && floor <= target, "need 0 < floor <= target");
        DynamicReservoir {
            target,
            floor,
            rows: Vec::with_capacity(target),
            index_of: DetHashMap::with_capacity_and_hasher(target, Default::default()),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Convenience constructor from the paper's `m` parameter: floor `m`,
    /// target `2m`.
    pub fn with_m(m: usize, seed: u64) -> Self {
        Self::new(m.max(1), (2 * m).max(1), seed)
    }

    /// Current number of samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the reservoir holds no samples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Target (maximum) size `2m`.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Floor `m`.
    pub fn floor(&self) -> usize {
        self.floor
    }

    /// True if the row with `id` is currently sampled.
    pub fn contains(&self, id: RowId) -> bool {
        self.index_of.contains_key(&id)
    }

    /// Borrow the sampled row with `id`, if present.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.index_of.get(&id).map(|&i| &self.rows[i])
    }

    /// Iterates over the current samples.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Offers an inserted tuple. `population` must be the size of the full
    /// dataset `|D|` *after* the insertion. A thin wrapper over
    /// [`DynamicReservoir::offer_ref`].
    pub fn offer(&mut self, row: Row, population: usize) -> InsertOutcome {
        self.offer_ref(row.as_ref(), population)
    }

    /// [`DynamicReservoir::offer`] of a borrowed tuple: a row is
    /// materialised only when it is admitted, and a replacement reuses
    /// the evicted resident's value buffer, so an insert the reservoir
    /// skips or admits at target allocates nothing.
    pub fn offer_ref(&mut self, row: RowRef<'_>, population: usize) -> InsertOutcome {
        debug_assert!(
            !self.index_of.contains_key(&row.id),
            "row {} already sampled",
            row.id
        );
        if self.rows.len() < self.target {
            self.index_of.insert(row.id, self.rows.len());
            self.rows.push(row.to_row());
            return InsertOutcome::Added;
        }
        // Admit with probability |S| / |D|.
        let p = self.rows.len() as f64 / population.max(1) as f64;
        if self.rng.gen::<f64>() < p {
            let at = self.rng.gen_range(0..self.rows.len());
            let resident = &mut self.rows[at];
            let evicted = resident.id;
            resident.id = row.id;
            resident.values.clear();
            resident.values.extend_from_slice(row.values);
            self.index_of.remove(&evicted);
            self.index_of.insert(row.id, at);
            InsertOutcome::Replaced { evicted }
        } else {
            InsertOutcome::Skipped
        }
    }

    /// Propagates the deletion of row `id` from the dataset.
    pub fn delete(&mut self, id: RowId) -> DeleteOutcome {
        let Some(&at) = self.index_of.get(&id) else {
            return DeleteOutcome::NotInSample;
        };
        if self.rows.len() <= self.floor {
            return DeleteOutcome::NeedsResample;
        }
        self.index_of.remove(&id);
        self.rows.swap_remove(at);
        if at < self.rows.len() {
            self.index_of.insert(self.rows[at].id, at);
        }
        DeleteOutcome::Removed
    }

    /// The admission RNG's raw state words — captured by synopsis
    /// snapshots so a restored reservoir makes bit-identical future
    /// admission/eviction decisions.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Resumes the admission RNG mid-stream from saved state words (the
    /// snapshot-restore counterpart of [`DynamicReservoir::rng_state`]).
    pub fn restore_rng(&mut self, state: [u64; 4]) {
        self.rng = SmallRng::from_state(state);
    }

    /// Replaces the sample set wholesale (the re-sample step of §4.2/§4.3).
    pub fn reset(&mut self, rows: Vec<Row>) {
        let distinct = self.try_reset(rows);
        debug_assert!(
            distinct.is_ok(),
            "duplicate row id {} in reset",
            distinct.unwrap_err()
        );
    }

    /// [`DynamicReservoir::reset`] from rows that may repeat an id:
    /// returns the first repeated id, after which the sample is unusable
    /// until the next reset.
    pub fn try_reset(&mut self, rows: Vec<Row>) -> Result<(), RowId> {
        self.index_of.clear();
        self.rows = rows;
        for (i, r) in self.rows.iter().enumerate() {
            if self.index_of.insert(r.id, i).is_some() {
                return Err(r.id);
            }
        }
        Ok(())
    }

    /// Current sampling rate `|S| / |D|` for the given population size.
    pub fn sampling_rate(&self, population: usize) -> f64 {
        if population == 0 {
            0.0
        } else {
            self.rows.len() as f64 / population as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64) -> Row {
        Row::new(id, vec![id as f64])
    }

    #[test]
    fn fills_to_target_then_replaces() {
        let mut r = DynamicReservoir::with_m(4, 1);
        for i in 0..8 {
            assert_eq!(r.offer(row(i), (i + 1) as usize), InsertOutcome::Added);
        }
        assert_eq!(r.len(), 8);
        let mut replaced = 0;
        let mut skipped = 0;
        for i in 8..5000 {
            match r.offer(row(i), (i + 1) as usize) {
                InsertOutcome::Replaced { .. } => replaced += 1,
                InsertOutcome::Skipped => skipped += 1,
                InsertOutcome::Added => panic!("reservoir over target"),
            }
            assert_eq!(r.len(), 8);
        }
        assert!(replaced > 0 && skipped > 0);
    }

    #[test]
    fn delete_absent_row_is_noop() {
        let mut r = DynamicReservoir::with_m(4, 2);
        for i in 0..8 {
            r.offer(row(i), (i + 1) as usize);
        }
        assert_eq!(r.delete(999), DeleteOutcome::NotInSample);
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn delete_shrinks_until_floor_then_demands_resample() {
        let mut r = DynamicReservoir::with_m(3, 3);
        for i in 0..6 {
            r.offer(row(i), (i + 1) as usize);
        }
        assert_eq!(r.delete(0), DeleteOutcome::Removed);
        assert_eq!(r.delete(1), DeleteOutcome::Removed);
        assert_eq!(r.delete(2), DeleteOutcome::Removed);
        assert_eq!(r.len(), 3);
        // At the floor: the next sampled deletion demands a re-sample.
        assert_eq!(r.delete(3), DeleteOutcome::NeedsResample);
        assert_eq!(r.len(), 3);
        assert!(r.contains(3));
    }

    #[test]
    fn reset_replaces_sample_set() {
        let mut r = DynamicReservoir::with_m(2, 4);
        for i in 0..4 {
            r.offer(row(i), (i + 1) as usize);
        }
        r.reset(vec![row(100), row(101)]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(100) && r.contains(101) && !r.contains(0));
        assert_eq!(r.get(100).unwrap().id, 100);
    }

    #[test]
    fn inclusion_probability_is_approximately_uniform() {
        // Stream 200 tuples through a reservoir of 20 many times; every
        // tuple should be retained with probability ~20/200 = 0.1.
        let trials = 2000;
        let mut hits = vec![0u32; 200];
        for t in 0..trials {
            let mut r = DynamicReservoir::new(10, 20, t as u64);
            for i in 0..200u64 {
                r.offer(row(i), (i + 1) as usize);
            }
            for s in r.iter() {
                hits[s.id as usize] += 1;
            }
        }
        let expected = trials as f64 * 20.0 / 200.0;
        for (id, &h) in hits.iter().enumerate() {
            let dev = (h as f64 - expected).abs() / expected;
            assert!(dev < 0.35, "tuple {id}: {h} hits vs expected {expected}");
        }
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let mut r = DynamicReservoir::with_m(8, 7);
        for i in 0..16 {
            r.offer(row(i), (i + 1) as usize);
        }
        // Delete several and verify every remaining id resolves correctly.
        for id in [0, 5, 15, 8] {
            assert_eq!(r.delete(id), DeleteOutcome::Removed);
        }
        for s in r.iter() {
            assert_eq!(r.get(s.id).unwrap().id, s.id);
        }
        assert_eq!(r.len(), 12);
    }

    #[test]
    fn rng_state_round_trip_preserves_future_decisions() {
        let mut a = DynamicReservoir::with_m(8, 77);
        let mut b = DynamicReservoir::with_m(8, 77);
        for i in 0..200 {
            a.offer(row(i), (i + 1) as usize);
            b.offer(row(i), (i + 1) as usize);
        }
        // Snapshot a's RNG into a *fresh-seeded* reservoir holding the
        // same rows: future outcomes must still match a's exactly.
        let mut c = DynamicReservoir::with_m(8, 1234);
        c.reset(a.iter().cloned().collect());
        c.restore_rng(a.rng_state());
        for i in 200..600 {
            let oa = a.offer(row(i), (i + 1) as usize);
            let ob = b.offer(row(i + 10_000), (i + 1) as usize);
            let oc = c.offer(row(i), (i + 1) as usize);
            assert_eq!(oa, oc, "restored RNG must replay a's decisions");
            // b drew the same stream from the same seed, so outcomes
            // (though for different ids) stay in lockstep too.
            match (oa, ob) {
                (InsertOutcome::Skipped, InsertOutcome::Skipped) => {}
                (InsertOutcome::Replaced { .. }, InsertOutcome::Replaced { .. }) => {}
                (x, y) => panic!("seeded twins diverged: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn sampling_rate_reports_ratio() {
        let mut r = DynamicReservoir::with_m(5, 9);
        for i in 0..10 {
            r.offer(row(i), 100);
        }
        assert!((r.sampling_rate(100) - 0.1).abs() < 1e-12);
        assert_eq!(r.sampling_rate(0), 0.0);
    }
}
