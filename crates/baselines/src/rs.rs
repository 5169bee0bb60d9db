//! Uniform Reservoir Sampling baseline (§6.1.3 "RS").
//!
//! A single uniform sample of the whole dataset, maintained with the same
//! insertion/deletion-capable reservoir as JanusAQP's pooled sample, and
//! queried with the plain Horvitz–Thompson estimators. Query latency scales
//! with the sample size (a full scan of the sample per query), which is why
//! Table 2 shows RS latencies growing with data progress.

use janus_common::{Estimate, JanusError, Query, Result, Row, RowId};
use janus_core::uniform_estimate;
use janus_sampling::{DeleteOutcome, DynamicReservoir, InsertOutcome};
use janus_storage::ArchiveStore;

/// The RS baseline: archive mirror + uniform reservoir.
pub struct ReservoirBaseline {
    archive: ArchiveStore,
    reservoir: DynamicReservoir,
    seed: u64,
    seed_counter: u64,
}

impl ReservoirBaseline {
    /// Builds the baseline over initial `rows` with sampling rate `rate`.
    pub fn bootstrap(rows: Vec<Row>, rate: f64, seed: u64) -> Result<Self> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(JanusError::InvalidConfig("rate must be in (0, 1]".into()));
        }
        let archive = ArchiveStore::from_rows(rows);
        let m = ((rate * archive.len() as f64).ceil() as usize).max(8);
        let mut reservoir = DynamicReservoir::with_m(m, seed ^ 0x25);
        reservoir.reset(archive.sample_distinct(2 * m, seed ^ 0x52));
        Ok(ReservoirBaseline {
            archive,
            reservoir,
            seed,
            seed_counter: 1,
        })
    }

    fn next_seed(&mut self) -> u64 {
        self.seed_counter = self.seed_counter.wrapping_add(0x9e37);
        self.seed ^ self.seed_counter
    }

    /// Current table size.
    pub fn population(&self) -> usize {
        self.archive.len()
    }

    /// Current sample size.
    pub fn sample_size(&self) -> usize {
        self.reservoir.len()
    }

    /// Inserts a tuple.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if !self.archive.insert(row.clone())? {
            return Err(JanusError::InvalidConfig(format!(
                "duplicate row id {}",
                row.id
            )));
        }
        match self.reservoir.offer(row, self.archive.len()) {
            InsertOutcome::Added | InsertOutcome::Replaced { .. } | InsertOutcome::Skipped => {}
        }
        Ok(())
    }

    /// Deletes a tuple by id.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let row = self.archive.delete(id).ok_or(JanusError::RowNotFound(id))?;
        if self.reservoir.delete(id) == DeleteOutcome::NeedsResample {
            let seed = self.next_seed();
            let fresh = self.archive.sample_distinct(self.reservoir.target(), seed);
            self.reservoir.reset(fresh);
        }
        Ok(row)
    }

    /// Answers a query from the sample alone.
    pub fn query(&self, query: &Query) -> Option<Estimate> {
        uniform_estimate(query, self.reservoir.iter(), self.archive.len())
    }

    /// Ground-truth oracle for experiments (chunked columnar scan).
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        self.archive.evaluate_exact(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{AggregateFunction, RangePredicate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rows(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let x = rng.gen::<f64>() * 100.0;
                Row::new(i, vec![x, x + rng.gen::<f64>() * 5.0])
            })
            .collect()
    }

    fn q(lo: f64, hi: f64) -> Query {
        Query::new(
            AggregateFunction::Sum,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn estimates_track_truth_within_sampling_error() {
        let data = rows(20_000, 1);
        let b = ReservoirBaseline::bootstrap(data, 0.05, 1).unwrap();
        let query = q(20.0, 80.0);
        let est = b.query(&query).unwrap();
        let truth = b.evaluate_exact(&query).unwrap();
        assert!((est.value - truth).abs() / truth < 0.1);
        assert!(est.sample_variance > 0.0);
    }

    #[test]
    fn survives_update_churn() {
        let data = rows(5_000, 2);
        let mut b = ReservoirBaseline::bootstrap(data, 0.05, 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut live: Vec<u64> = (0..5_000).collect();
        let mut next = 10_000u64;
        for _ in 0..3_000 {
            if rng.gen_bool(0.6) {
                let x = rng.gen::<f64>() * 100.0;
                b.insert(Row::new(next, vec![x, x])).unwrap();
                live.push(next);
                next += 1;
            } else {
                let at = rng.gen_range(0..live.len());
                b.delete(live.swap_remove(at)).unwrap();
            }
        }
        assert_eq!(b.population(), live.len());
        let query = q(0.0, 100.0);
        let est = b.query(&query).unwrap();
        let truth = b.evaluate_exact(&query).unwrap();
        assert!((est.value - truth).abs() / truth < 0.15);
    }

    #[test]
    fn mass_deletion_forces_resample_and_keeps_sample_live() {
        let data = rows(2_000, 4);
        let mut b = ReservoirBaseline::bootstrap(data, 0.1, 4).unwrap();
        for id in 0..1_800u64 {
            b.delete(id).unwrap();
        }
        for s in b.reservoir.iter() {
            assert!(b.archive.contains(s.id));
        }
    }

    #[test]
    fn invalid_rate_is_rejected() {
        assert!(ReservoirBaseline::bootstrap(vec![], 0.0, 1).is_err());
        assert!(ReservoirBaseline::bootstrap(vec![], 1.5, 1).is_err());
    }
}
