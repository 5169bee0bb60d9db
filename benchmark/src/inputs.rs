//! Input generation, outside every timed span. The *table* is a fixed
//! dataset (`nyc_taxi` under [`DATASET_SEED`]), as a table on disk would
//! be; the *traffic* — rectangles, the aggregate mix, the update stream
//! and its delete picks, query order, Zipf repeats and Poisson arrivals —
//! is made from `--seed`. (Rows were seeded too at first; a different
//! table leads to a different partitioning, which moved query cost by ±8%
//! between seeds with no code change behind it.) The samplers are the
//! harness's own (SplitMix64), so a later edit to a product crate or a
//! shim cannot silently change the load; what `janus-data` contributes is
//! covered by [`Inputs::digest`].

use janus_cluster::ShardOp;
use janus_common::{AggregateFunction, Crc32, Query, QueryTemplate, Row, RowId};
use janus_data::{nyc_taxi, QueryWorkload, WorkloadSpec};

/// SplitMix64: tiny, seedable, and good enough for workload shaping.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (`salt` names the purpose).
    pub fn fork(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Poisson arrival process at `rate_per_s`: successive due times in
/// nanoseconds from the start of the phase.
pub struct PoissonArrivals {
    rng: Rng,
    mean_gap_ns: f64,
    due_ns: f64,
}

impl PoissonArrivals {
    pub fn new(rate_per_s: f64, rng: Rng) -> Self {
        PoissonArrivals {
            rng,
            mean_gap_ns: 1e9 / rate_per_s,
            due_ns: 0.0,
        }
    }

    pub fn next_due_ns(&mut self) -> u64 {
        // 1 - unit() is in (0, 1], so the logarithm is finite.
        self.due_ns += -(1.0 - self.rng.unit()).ln() * self.mean_gap_ns;
        self.due_ns as u64
    }
}

/// Aggregate mix of the query set: the five functions the paper's
/// abstract names, weighted towards the additive ones.
const AGG_MIX: [(AggregateFunction, f64); 5] = [
    (AggregateFunction::Sum, 0.40),
    (AggregateFunction::Count, 0.20),
    (AggregateFunction::Avg, 0.20),
    (AggregateFunction::Min, 0.10),
    (AggregateFunction::Max, 0.10),
];

/// Seed of the table every run works on.
pub const DATASET_SEED: u64 = 0x7a61;

/// Rows and queries of one run.
pub struct Inputs {
    pub seed: u64,
    /// `nyc_taxi` rows in pickup-time (arrival) order, ids `0..n`.
    pub rows: Vec<Row>,
    /// Predicate column (`pickup_time`).
    pub key_col: usize,
    /// Aggregate column (`trip_distance`).
    pub agg_col: usize,
    /// The template every synopsis is built for (SUM over the pair above).
    pub template: QueryTemplate,
    /// 2,000 rectangles over the whole dataset's key domain, mixed aggregates.
    pub queries: Vec<Query>,
}

impl Inputs {
    pub fn generate(seed: u64, rows: usize, queries: usize) -> Self {
        let dataset = nyc_taxi(rows, DATASET_SEED);
        let key_col = dataset.col("pickup_time");
        let agg_col = dataset.col("trip_distance");
        let template = QueryTemplate::new(AggregateFunction::Sum, agg_col, vec![key_col]);
        let mut spec = WorkloadSpec::paper_default(template.clone(), seed);
        spec.count = queries;
        let mut queries = QueryWorkload::generate(&dataset, &spec).queries;
        let mut rng = Rng::fork(seed, 0xa66);
        for q in &mut queries {
            let u = rng.unit();
            let mut acc = 0.0;
            for (agg, share) in AGG_MIX {
                acc += share;
                if u < acc {
                    q.agg = agg;
                    break;
                }
            }
        }
        Inputs {
            seed,
            rows: dataset.rows,
            key_col,
            agg_col,
            template,
            queries,
        }
    }

    /// CRC32 over every generated row, query and operation: two runs with
    /// the same digest fed the program the same inputs.
    pub fn digest(&self, ops: &[ShardOp]) -> u32 {
        let mut crc = Crc32::new();
        let put_row = |crc: &mut Crc32, row: &Row| {
            crc.update(&row.id.to_le_bytes());
            for v in &row.values {
                crc.update(&v.to_bits().to_le_bytes());
            }
        };
        for row in &self.rows {
            put_row(&mut crc, row);
        }
        for q in &self.queries {
            crc.update(&[q.agg as u8]);
            for v in q.range.lo().iter().chain(q.range.hi()) {
                crc.update(&v.to_bits().to_le_bytes());
            }
        }
        for op in ops {
            match op {
                ShardOp::Insert(row) => {
                    crc.update(&[1]);
                    put_row(&mut crc, row);
                }
                ShardOp::Delete(id) => {
                    crc.update(&[2]);
                    crc.update(&id.to_le_bytes());
                }
            }
        }
        crc.finalize()
    }
}

/// Which live rows a stream's deletes are drawn from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeletePool {
    /// Uniformly from every live row.
    AllLive,
    /// Uniformly from live rows whose key is at least this value (recent
    /// trips get cancelled; history is left alone).
    KeyAtLeast(f64),
}

/// A generated update stream plus the state it leaves behind.
pub struct OpStream {
    pub ops: Vec<ShardOp>,
    /// `(key, aggregate value)` of every row live after the last op — the
    /// end state the exact oracle is built from.
    pub live_after: Vec<(f64, f64)>,
}

impl OpStream {
    /// `n_ops` operations over a table bootstrapped with
    /// `rows[..bootstrap]`: inserts take `rows[bootstrap..]` in arrival
    /// order (wrapping round with fresh ids once the pool is used up),
    /// deletes take a uniformly drawn live id from `pool`.
    pub fn generate(
        inputs: &Inputs,
        bootstrap: usize,
        n_ops: usize,
        delete_share: f64,
        pool: DeletePool,
        mut rng: Rng,
    ) -> Self {
        let pair = |row: &Row| (row.value(inputs.key_col), row.value(inputs.agg_col));
        let deletable = |key: f64| match pool {
            DeletePool::AllLive => true,
            DeletePool::KeyAtLeast(lo) => key >= lo,
        };
        // Rows that deletes may pick, and rows they may not.
        let mut candidates: Vec<(RowId, f64, f64)> = Vec::new();
        let mut fixed: Vec<(f64, f64)> = Vec::new();
        for row in &inputs.rows[..bootstrap] {
            let (k, v) = pair(row);
            if deletable(k) {
                candidates.push((row.id, k, v));
            } else {
                fixed.push((k, v));
            }
        }
        let fresh = &inputs.rows[bootstrap..];
        let mut next_id = inputs.rows.len() as RowId;
        let mut cursor = 0usize;
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            if rng.unit() < delete_share && !candidates.is_empty() {
                let (id, _, _) = candidates.swap_remove(rng.below(candidates.len()));
                ops.push(ShardOp::Delete(id));
            } else {
                let source = &fresh[cursor % fresh.len()];
                let id = if cursor < fresh.len() {
                    source.id
                } else {
                    next_id += 1;
                    next_id - 1
                };
                cursor += 1;
                let (k, v) = pair(source);
                if deletable(k) {
                    candidates.push((id, k, v));
                } else {
                    fixed.push((k, v));
                }
                ops.push(ShardOp::Insert(Row::new(id, source.values.clone())));
            }
        }
        fixed.extend(candidates.into_iter().map(|(_, k, v)| (k, v)));
        OpStream {
            ops,
            live_after: fixed,
        }
    }

    #[cfg(test)]
    pub fn inserts(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, ShardOp::Insert(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samplers_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::fork(seed, 1);
            let picks: Vec<usize> = (0..64).map(|_| rng.below(512)).collect();
            let mut arrivals = PoissonArrivals::new(2000.0, Rng::fork(seed, 2));
            let dues: Vec<u64> = (0..64).map(|_| arrivals.next_due_ns()).collect();
            (picks, rng.permutation(16), dues)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn picks_are_uniform_and_poisson_meets_its_rate() {
        let mut rng = Rng::new(3);
        let n = 20_000;
        let low = (0..n).filter(|_| rng.below(512) < 128).count();
        assert!(
            (low as f64 / n as f64 - 0.25).abs() < 0.02,
            "{low}/{n} below a quarter"
        );
        let mut arrivals = PoissonArrivals::new(2000.0, Rng::new(4));
        let last = (0..n).map(|_| arrivals.next_due_ns()).last().unwrap();
        let rate = n as f64 / (last as f64 / 1e9);
        assert!((rate - 2000.0).abs() < 60.0, "rate {rate}");
    }

    #[test]
    fn digest_and_stream_repeat_for_a_seed() {
        let make = |seed| {
            let inputs = Inputs::generate(seed, 4000, 50);
            let stream = OpStream::generate(
                &inputs,
                2000,
                5000,
                0.2,
                DeletePool::AllLive,
                Rng::fork(seed, 9),
            );
            (inputs.digest(&stream.ops), stream.live_after.len())
        };
        assert_eq!(make(11), make(11));
        assert_ne!(make(11).0, make(12).0);
    }

    #[test]
    fn stream_wraps_with_fresh_ids_and_tracks_the_live_set() {
        let inputs = Inputs::generate(5, 1000, 10);
        let stream = OpStream::generate(&inputs, 500, 3000, 0.2, DeletePool::AllLive, Rng::new(1));
        let mut live = std::collections::HashSet::new();
        live.extend(0..500u64);
        for op in &stream.ops {
            match op {
                ShardOp::Insert(row) => assert!(live.insert(row.id), "duplicate id {}", row.id),
                ShardOp::Delete(id) => assert!(live.remove(id), "delete of dead id {id}"),
            }
        }
        assert_eq!(live.len(), stream.live_after.len());
        assert!(stream.inserts() > 500, "pool must have wrapped");
    }

    #[test]
    fn aggregate_mix_covers_all_five_functions() {
        let inputs = Inputs::generate(1, 2000, 2000);
        for (agg, share) in AGG_MIX {
            let n = inputs.queries.iter().filter(|q| q.agg == agg).count();
            let want = share * 2000.0;
            assert!((n as f64 - want).abs() < 0.2 * want + 20.0, "{agg}: {n}");
        }
    }
}
