//! Stratified Reservoir Sampling baseline (§6.1.3 "SRS").
//!
//! Strata are fixed at bootstrap by an equal-depth partitioning of one
//! predicate attribute; each stratum owns an independent deletion-capable
//! reservoir sized proportionally, and exact per-stratum populations are
//! maintained under updates. Queries combine per-stratum Horvitz–Thompson
//! estimates with the standard stratified variance. Because the strata are
//! never re-optimized, drifting data degrades SRS the same way it degrades
//! the static DPT baseline.

use janus_common::{AggregateFunction, Estimate, JanusError, Moments, Query, Result, Row, RowId};
use janus_sampling::stratified::{bucket_of, equal_depth_boundaries};
use janus_sampling::{DeleteOutcome, DynamicReservoir, InsertOutcome};
use janus_storage::ArchiveStore;

/// The SRS baseline.
pub struct StratifiedReservoirBaseline {
    archive: ArchiveStore,
    strat_column: usize,
    boundaries: Vec<f64>,
    strata: Vec<DynamicReservoir>,
    populations: Vec<f64>,
    seed: u64,
    seed_counter: u64,
}

impl StratifiedReservoirBaseline {
    /// Builds `k` equal-depth strata over `strat_column` with overall
    /// sampling rate `rate`.
    pub fn bootstrap(
        rows: Vec<Row>,
        strat_column: usize,
        k: usize,
        rate: f64,
        seed: u64,
    ) -> Result<Self> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(JanusError::InvalidConfig("rate must be in (0, 1]".into()));
        }
        if k < 1 {
            return Err(JanusError::InvalidConfig(
                "need at least one stratum".into(),
            ));
        }
        let archive = ArchiveStore::from_rows(rows);
        let mut values: Vec<f64> = Vec::with_capacity(archive.len());
        archive.for_each_row(|r| values.push(r.value(strat_column)));
        let boundaries = equal_depth_boundaries(&mut values, k);
        let k = boundaries.len() + 1;
        let per_stratum_m = (((rate * archive.len() as f64) / k as f64).ceil() as usize).max(4);
        let mut baseline = StratifiedReservoirBaseline {
            strata: (0..k)
                .map(|i| DynamicReservoir::with_m(per_stratum_m, seed ^ (i as u64) << 8))
                .collect(),
            populations: vec![0.0; k],
            archive,
            strat_column,
            boundaries,
            seed,
            seed_counter: 1,
        };
        // Populate strata by scanning once (bootstrap is offline).
        let rows: Vec<Row> = baseline.archive.to_rows();
        for row in rows {
            let s = baseline.stratum_of(&row);
            baseline.populations[s] += 1.0;
            let pop = baseline.populations[s] as usize;
            baseline.strata[s].offer(row, pop);
        }
        Ok(baseline)
    }

    fn stratum_of(&self, row: &Row) -> usize {
        bucket_of(row.value(self.strat_column), &self.boundaries)
    }

    fn next_seed(&mut self) -> u64 {
        self.seed_counter = self.seed_counter.wrapping_add(0x517c);
        self.seed ^ self.seed_counter
    }

    /// Current table size.
    pub fn population(&self) -> usize {
        self.archive.len()
    }

    /// Total samples held across strata.
    pub fn sample_size(&self) -> usize {
        self.strata.iter().map(|s| s.len()).sum()
    }

    /// Inserts a tuple.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if !self.archive.insert(row.clone())? {
            return Err(JanusError::InvalidConfig(format!(
                "duplicate row id {}",
                row.id
            )));
        }
        let s = self.stratum_of(&row);
        self.populations[s] += 1.0;
        let pop = self.populations[s] as usize;
        match self.strata[s].offer(row, pop) {
            InsertOutcome::Added | InsertOutcome::Replaced { .. } | InsertOutcome::Skipped => {}
        }
        Ok(())
    }

    /// Deletes a tuple by id.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let row = self.archive.delete(id).ok_or(JanusError::RowNotFound(id))?;
        let s = self.stratum_of(&row);
        self.populations[s] -= 1.0;
        if self.strata[s].delete(id) == DeleteOutcome::NeedsResample {
            // Refill this stratum from the archive.
            let seed = self.next_seed();
            let lo = if s == 0 {
                f64::NEG_INFINITY
            } else {
                self.boundaries[s - 1]
            };
            let hi = if s == self.boundaries.len() {
                f64::INFINITY
            } else {
                self.boundaries[s]
            };
            let col = self.strat_column;
            let mut candidates: Vec<Row> = Vec::new();
            self.archive.for_each_row(|r| {
                let v = r.value(col);
                if v >= lo && v < hi {
                    candidates.push(r.to_row());
                }
            });
            let target = self.strata[s].target();
            let pool = ArchiveStore::from_rows(candidates);
            self.strata[s].reset(pool.sample_distinct(target, seed));
        }
        Ok(row)
    }

    /// Answers a query with the stratified estimator.
    pub fn query(&self, query: &Query) -> Option<Estimate> {
        let count_query = query.agg == AggregateFunction::Count;
        let mut value = 0.0;
        let mut variance = 0.0;
        let mut samples_used = 0usize;
        let mut sum_est = 0.0;
        let mut count_est = 0.0;
        let mut extremum: Option<f64> = None;
        let is_min = query.agg == AggregateFunction::Min;
        let n_q: f64 = self.populations.iter().sum::<f64>().max(1.0);
        for (s, reservoir) in self.strata.iter().enumerate() {
            let n_i = self.populations[s];
            let m_i = reservoir.len() as f64;
            if m_i == 0.0 || n_i <= 0.0 {
                continue;
            }
            let mut phi = Moments::ZERO;
            let mut sum_phi = Moments::ZERO;
            for row in reservoir.iter() {
                if query.matches(row) {
                    let a = row.value(query.agg_column);
                    phi.add(if count_query { 1.0 } else { a });
                    sum_phi.add(a);
                    extremum = Some(match extremum {
                        None => a,
                        Some(b) if is_min => b.min(a),
                        Some(b) => b.max(a),
                    });
                }
            }
            samples_used += phi.count as usize;
            value += janus_core::formulas::sum_estimate(n_i, m_i, phi.sum);
            sum_est += janus_core::formulas::sum_estimate(n_i, m_i, sum_phi.sum);
            count_est += janus_core::formulas::sum_estimate(n_i, m_i, sum_phi.count);
            match query.agg {
                AggregateFunction::Avg => {
                    variance +=
                        janus_core::formulas::avg_estimate_variance(n_i / n_q, m_i, &sum_phi);
                }
                _ => {
                    variance += janus_core::formulas::sum_estimate_variance(n_i, m_i, &phi);
                }
            }
        }
        match query.agg {
            AggregateFunction::Count | AggregateFunction::Sum => Some(Estimate {
                value,
                catchup_variance: 0.0,
                sample_variance: variance,
                covered_nodes: 0,
                partial_nodes: self.strata.len(),
                samples_used,
                partial: false,
            }),
            AggregateFunction::Avg => {
                if count_est <= 0.0 {
                    return None;
                }
                Some(Estimate {
                    value: sum_est / count_est,
                    catchup_variance: 0.0,
                    sample_variance: variance,
                    covered_nodes: 0,
                    partial_nodes: self.strata.len(),
                    samples_used,
                    partial: false,
                })
            }
            AggregateFunction::Min | AggregateFunction::Max => extremum.map(Estimate::exact),
        }
    }

    /// Ground-truth oracle for experiments (chunked columnar scan).
    pub fn evaluate_exact(&self, query: &Query) -> Option<f64> {
        self.archive.evaluate_exact(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::RangePredicate;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rows(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let x = rng.gen::<f64>() * 100.0;
                Row::new(i, vec![x, x * 2.0 + rng.gen::<f64>() * 10.0])
            })
            .collect()
    }

    fn q(agg: AggregateFunction, lo: f64, hi: f64) -> Query {
        Query::new(
            agg,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn bootstrap_builds_proportional_strata() {
        let b = StratifiedReservoirBaseline::bootstrap(rows(10_000, 1), 0, 16, 0.05, 1).unwrap();
        assert_eq!(b.strata.len(), 16);
        let total_pop: f64 = b.populations.iter().sum();
        assert_eq!(total_pop as usize, 10_000);
        // Equal-depth: populations roughly equal.
        for &p in &b.populations {
            assert!((p - 625.0).abs() < 100.0, "stratum pop {p}");
        }
    }

    #[test]
    fn stratified_estimates_beat_or_match_truth_tolerance() {
        let b = StratifiedReservoirBaseline::bootstrap(rows(20_000, 2), 0, 16, 0.05, 2).unwrap();
        for agg in [
            AggregateFunction::Sum,
            AggregateFunction::Count,
            AggregateFunction::Avg,
        ] {
            let query = q(agg, 10.0, 70.0);
            let est = b.query(&query).unwrap();
            let truth = b.evaluate_exact(&query).unwrap();
            assert!(
                (est.value - truth).abs() / truth.abs() < 0.1,
                "{agg}: est {} truth {truth}",
                est.value
            );
        }
    }

    #[test]
    fn updates_maintain_populations() {
        let mut b = StratifiedReservoirBaseline::bootstrap(rows(2_000, 3), 0, 8, 0.1, 3).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut live: Vec<u64> = (0..2_000).collect();
        let mut next = 10_000u64;
        for _ in 0..1_000 {
            if rng.gen_bool(0.7) {
                let x = rng.gen::<f64>() * 100.0;
                b.insert(Row::new(next, vec![x, x])).unwrap();
                live.push(next);
                next += 1;
            } else {
                let at = rng.gen_range(0..live.len());
                b.delete(live.swap_remove(at)).unwrap();
            }
        }
        let total: f64 = b.populations.iter().sum();
        assert_eq!(total as usize, live.len());
        let query = q(AggregateFunction::Sum, 0.0, 100.0);
        let est = b.query(&query).unwrap();
        let truth = b.evaluate_exact(&query).unwrap();
        assert!((est.value - truth).abs() / truth < 0.15);
    }

    #[test]
    fn stratum_resample_refills_from_matching_rows() {
        let mut b = StratifiedReservoirBaseline::bootstrap(rows(1_000, 5), 0, 4, 0.2, 5).unwrap();
        // Delete many rows to push some stratum reservoir to its floor.
        for id in 0..800u64 {
            let _ = b.delete(id);
        }
        for (s, reservoir) in b.strata.iter().enumerate() {
            let lo = if s == 0 {
                f64::NEG_INFINITY
            } else {
                b.boundaries[s - 1]
            };
            let hi = if s == b.boundaries.len() {
                f64::INFINITY
            } else {
                b.boundaries[s]
            };
            for row in reservoir.iter() {
                assert!(b.archive.contains(row.id), "sampled row must be live");
                let v = row.value(0);
                assert!(v >= lo && v < hi, "sample leaked across strata");
            }
        }
    }

    #[test]
    fn min_max_queries_return_extrema_of_samples() {
        let b = StratifiedReservoirBaseline::bootstrap(rows(5_000, 6), 0, 8, 0.1, 6).unwrap();
        let query = q(AggregateFunction::Max, 0.0, 100.0);
        let est = b.query(&query).unwrap();
        let truth = b.evaluate_exact(&query).unwrap();
        assert!(est.value <= truth + 1e-9);
        assert!(est.value > truth * 0.8);
    }
}
