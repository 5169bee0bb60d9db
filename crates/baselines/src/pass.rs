//! PASS / static partition tree baseline (§2.3, \[30]).
//!
//! PASS builds a partition tree offline — partitioning optimized on a
//! sample, node statistics computed *exactly* by a full scan, stratified
//! samples attached to the leaves — and never maintains it. It is both the
//! accuracy reference for static data (Table 3) and the ancestor JanusAQP
//! extends.

use janus_common::{DetHashMap, Estimate, Query, Result, Row, RowId};
use janus_core::maxvar::MaxVarianceIndex;
use janus_core::partition::{Partitioner, PartitionerKind};
use janus_core::tree::Dpt;
use janus_core::SynopsisConfig;
use janus_storage::ArchiveStore;
use std::time::Duration;

/// A static PASS synopsis.
pub struct PassSynopsis {
    dpt: Dpt,
    samples: DetHashMap<RowId, Row>,
    /// Time spent in the partition optimizer (the Table 3 metric).
    pub partition_time: Duration,
}

impl PassSynopsis {
    /// Builds the synopsis over `rows` with the given partitioning
    /// algorithm (`BinarySearch1d` vs `Dp1d` is exactly the Table 3
    /// comparison).
    pub fn build(config: &SynopsisConfig, kind: PartitionerKind, rows: &[Row]) -> Result<Self> {
        config.validate()?;
        let template = &config.template;
        let archive = ArchiveStore::from_rows(rows.to_vec());
        let n = archive.len();
        let m = ((config.sample_rate * n as f64).ceil() as usize).max(16);
        let sample_rows = archive.sample_distinct(2 * m, config.seed ^ 0x9a55);
        let maxvar = MaxVarianceIndex::over_sample(template, config.delta, &sample_rows, n);
        let partitioner = Partitioner {
            kind,
            rho: config.rho,
        };
        let outcome = partitioner.compute(&maxvar, config.leaf_count)?;
        let partition_time = outcome.elapsed;
        let mut dpt = Dpt::build(
            template.clone(),
            config.minmax_k,
            &outcome.spec,
            &outcome.leaf_variances,
            n as f64,
        )?;
        // Exact statistics from a full scan — the SPT construction, via
        // the chunked columnar installer.
        dpt.install_exact_base_columns(archive.blocks());
        let mut samples = DetHashMap::default();
        for row in sample_rows {
            let point = row.project(&template.predicate_columns);
            dpt.assign_sample(row.id, &point);
            samples.insert(row.id, row);
        }
        Ok(PassSynopsis {
            dpt,
            samples,
            partition_time,
        })
    }

    /// Number of leaves actually produced.
    pub fn leaf_count(&self) -> usize {
        self.dpt.leaf_indices().len()
    }

    /// Answers a query (static synopsis: zero catch-up variance).
    pub fn query(&self, query: &Query) -> Result<Option<Estimate>> {
        self.dpt.answer(query, &self.samples)
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
                Row::new(i, vec![x, (x - 50.0).abs() + rng.gen::<f64>()])
            })
            .collect()
    }

    fn config(seed: u64) -> SynopsisConfig {
        let mut c = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]),
            seed,
        );
        c.leaf_count = 32;
        c.sample_rate = 0.05;
        c
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
    fn exact_base_makes_covered_queries_exact() {
        let data = rows(10_000, 1);
        let pass = PassSynopsis::build(&config(1), PartitionerKind::BinarySearch1d, &data).unwrap();
        // Whole-domain query: root fully covered, answer exact.
        let query = q(f64::NEG_INFINITY, f64::INFINITY);
        let est = pass.query(&query).unwrap().unwrap();
        let truth = query.evaluate_exact(&data).unwrap();
        assert!((est.value - truth).abs() < 1e-6);
        assert_eq!(est.catchup_variance, 0.0);
    }

    #[test]
    fn partial_queries_use_strata() {
        let data = rows(20_000, 2);
        let pass = PassSynopsis::build(&config(2), PartitionerKind::BinarySearch1d, &data).unwrap();
        let query = q(13.0, 77.5);
        let est = pass.query(&query).unwrap().unwrap();
        let truth = query.evaluate_exact(&data).unwrap();
        assert!(
            (est.value - truth).abs() / truth < 0.1,
            "est {} truth {truth}",
            est.value
        );
    }

    #[test]
    fn dp_and_bs_partitioners_both_work() {
        let data = rows(5_000, 3);
        let bs = PassSynopsis::build(&config(3), PartitionerKind::BinarySearch1d, &data).unwrap();
        let dp = PassSynopsis::build(&config(3), PartitionerKind::Dp1d { candidates: 200 }, &data)
            .unwrap();
        assert!(bs.leaf_count() >= 2 && dp.leaf_count() >= 2);
        let query = q(25.0, 60.0);
        let truth = query.evaluate_exact(&data).unwrap();
        for s in [&bs, &dp] {
            let est = s.query(&query).unwrap().unwrap();
            assert!((est.value - truth).abs() / truth < 0.1);
        }
    }
}
