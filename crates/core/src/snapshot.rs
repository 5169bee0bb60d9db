//! Synopsis persistence: export a DPT (and its pooled sample) as a
//! snapshot with one [`janus_common::codec`] encoding, and restore an
//! engine from it without rescanning the table.
//!
//! A production deployment restarts; the paper's synopsis is exactly the
//! state worth persisting — the partition hierarchy, every node's
//! catch-up/delta statistics and MIN/MAX heap contents, the stratum
//! membership, and the pooled sample rows. Archival data (the cold store)
//! is assumed to be durable elsewhere (§2.1) and is re-attached at restore
//! time.

use crate::node::{EpochInfo, NodeStats};
use crate::tree::{Dpt, DptNode};
use janus_common::codec::{self, Dec, Decode, Enc, Encode};
use janus_common::{JanusError, Moments, QueryTemplate, Rect, Result, Row, RowId};

/// Blob tag of a stand-alone [`SynopsisSnapshot`].
const TAG: &[u8; 4] = b"JSYN";

/// Persisted form of one DPT node.
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    /// The node's cell (outer edges may be `±inf`).
    pub rect: Rect,
    /// Parent index.
    pub parent: Option<usize>,
    /// Child indices.
    pub children: Vec<usize>,
    /// Exact base moments, if built from a full scan.
    pub exact_base: Option<Moments>,
    /// Catch-up sample moments.
    pub catchup: Moments,
    /// Inserted-delta moments.
    pub inserted: Moments,
    /// Deleted-delta moments.
    pub deleted: Moments,
    /// Node's catch-up epoch.
    pub epoch: usize,
    /// Offered count at node creation.
    pub h_start: u64,
    /// `M(R_i)` recorded at construction.
    pub built_variance: f64,
    /// Bottom-k retained MIN values.
    pub min_values: Vec<f64>,
    /// Top-k retained MAX values.
    pub max_values: Vec<f64>,
    /// Stratum membership (sampled row ids), leaves only.
    pub samples: Vec<RowId>,
    /// Liveness flag (orphaned splice nodes are dead).
    pub live: bool,
}

/// Persisted form of a whole DPT.
#[derive(Clone, Debug)]
pub struct DptSnapshot {
    /// The synopsis template.
    pub template: QueryTemplate,
    /// MIN/MAX heap capacity.
    pub minmax_k: usize,
    /// Root node index.
    pub root: usize,
    /// Epoch table.
    pub epochs: Vec<EpochInfo>,
    /// All nodes, arena order preserved.
    pub nodes: Vec<NodeSnapshot>,
}

/// A full synopsis snapshot: the tree plus the pooled sample rows.
///
/// Beyond the estimate-bearing state (tree + sample), the snapshot also
/// carries the engine's *evolution* state — the reservoir's RNG words,
/// the derived-seed counter, the trigger cadence counter, and the
/// unconsumed catch-up queue — so a restored engine does not merely
/// answer like the original *at* the snapshot point, it makes
/// bit-identical decisions on every subsequent insert/delete. That is the
/// property cluster crash-recovery leans on: snapshot + deterministic
/// topic replay reproduces an uninterrupted engine exactly.
#[derive(Clone, Debug)]
pub struct SynopsisSnapshot {
    /// The partition tree.
    pub dpt: DptSnapshot,
    /// The pooled reservoir rows at snapshot time, in reservoir order
    /// (order matters: eviction uses `swap_remove`).
    pub sample_rows: Vec<Row>,
    /// Reservoir floor `m`.
    pub reservoir_floor: usize,
    /// Reservoir target `2m`.
    pub reservoir_target: usize,
    /// Table size at snapshot time (consistency check at restore).
    pub population: usize,
    /// The reservoir admission RNG's raw state words, captured
    /// mid-stream so restored sampling decisions stay bit-identical.
    pub reservoir_rng: [u64; 4],
    /// The engine's derived-seed counter (re-sample seeds after floor
    /// breaches depend on it).
    pub seed_counter: u64,
    /// Updates since the last trigger-cadence check.
    pub updates_since_check: u64,
    /// Unconsumed catch-up rows, in consumption order.
    pub catchup_rows: Vec<Row>,
}

impl SynopsisSnapshot {
    /// Encodes to a CRC-sealed blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_blob(TAG, self)
    }

    /// Decodes a blob written by [`SynopsisSnapshot::to_bytes`]; any
    /// corruption is [`JanusError::Storage`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        codec::from_blob(TAG, bytes, "synopsis snapshot")
    }
}

impl Encode for EpochInfo {
    fn encode(&self, e: &mut Enc) {
        e.f64(self.population);
        e.u64(self.offered);
    }
}

impl Decode for EpochInfo {
    const MIN_LEN: usize = 16;
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(EpochInfo {
            population: d.f64()?,
            offered: d.u64()?,
        })
    }
}

impl Encode for NodeSnapshot {
    fn encode(&self, e: &mut Enc) {
        self.rect.encode(e);
        self.parent.encode(e);
        self.children.encode(e);
        self.exact_base.encode(e);
        self.catchup.encode(e);
        self.inserted.encode(e);
        self.deleted.encode(e);
        e.usize(self.epoch);
        e.u64(self.h_start);
        e.f64(self.built_variance);
        self.min_values.encode(e);
        self.max_values.encode(e);
        self.samples.encode(e);
        e.bool(self.live);
    }
}

impl Decode for NodeSnapshot {
    const MIN_LEN: usize = 123;
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(NodeSnapshot {
            rect: d.get()?,
            parent: d.get()?,
            children: d.get()?,
            exact_base: d.get()?,
            catchup: d.get()?,
            inserted: d.get()?,
            deleted: d.get()?,
            epoch: d.usize()?,
            h_start: d.u64()?,
            built_variance: d.f64()?,
            min_values: d.get()?,
            max_values: d.get()?,
            samples: d.get()?,
            live: d.bool()?,
        })
    }
}

impl Encode for DptSnapshot {
    fn encode(&self, e: &mut Enc) {
        self.template.encode(e);
        e.usize(self.minmax_k);
        e.usize(self.root);
        self.epochs.encode(e);
        self.nodes.encode(e);
    }
}

impl Decode for DptSnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(DptSnapshot {
            template: d.get()?,
            minmax_k: d.usize()?,
            root: d.usize()?,
            epochs: d.get()?,
            nodes: d.get()?,
        })
    }
}

impl Encode for SynopsisSnapshot {
    fn encode(&self, e: &mut Enc) {
        self.dpt.encode(e);
        self.sample_rows.encode(e);
        e.usize(self.reservoir_floor);
        e.usize(self.reservoir_target);
        e.usize(self.population);
        self.reservoir_rng.encode(e);
        e.u64(self.seed_counter);
        e.u64(self.updates_since_check);
        self.catchup_rows.encode(e);
    }
}

impl Decode for SynopsisSnapshot {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(SynopsisSnapshot {
            dpt: d.get()?,
            sample_rows: d.get()?,
            reservoir_floor: d.usize()?,
            reservoir_target: d.usize()?,
            population: d.usize()?,
            reservoir_rng: d.get()?,
            seed_counter: d.u64()?,
            updates_since_check: d.u64()?,
            catchup_rows: d.get()?,
        })
    }
}

impl Dpt {
    /// Exports the tree as a snapshot.
    pub fn to_snapshot(&self) -> DptSnapshot {
        let nodes = self
            .nodes_raw()
            .iter()
            .map(|n| NodeSnapshot {
                rect: n.rect.clone(),
                parent: n.parent,
                children: n.children.clone(),
                exact_base: n.stats.exact_base,
                catchup: n.stats.catchup,
                inserted: n.stats.inserted,
                deleted: n.stats.deleted,
                epoch: n.stats.epoch,
                h_start: n.stats.h_start,
                built_variance: n.built_variance,
                min_values: n.stats.minmax.min_values(),
                max_values: n.stats.minmax.max_values(),
                // BTreeSet iteration is already ascending — the same
                // canonical order the restored set will use.
                samples: n.samples.iter().copied().collect(),
                live: n.live,
            })
            .collect();
        DptSnapshot {
            template: self.template().clone(),
            minmax_k: self.minmax_k_raw(),
            root: self.root(),
            epochs: self.epochs().to_vec(),
            nodes,
        }
    }

    /// Restores a tree from a snapshot.
    pub fn from_snapshot(snapshot: &DptSnapshot) -> Result<Dpt> {
        let mut nodes = Vec::with_capacity(snapshot.nodes.len());
        for s in &snapshot.nodes {
            let mut stats = NodeStats::new(snapshot.minmax_k, s.epoch, s.h_start);
            stats.exact_base = s.exact_base;
            stats.catchup = s.catchup;
            stats.inserted = s.inserted;
            stats.deleted = s.deleted;
            stats.minmax.restore(&s.min_values, &s.max_values);
            let samples: std::collections::BTreeSet<RowId> = s.samples.iter().copied().collect();
            nodes.push(DptNode {
                rect: s.rect.clone(),
                parent: s.parent,
                children: s.children.clone(),
                stats,
                built_variance: s.built_variance,
                samples,
                live: s.live,
            });
        }
        if snapshot.root >= nodes.len() {
            return Err(JanusError::InvalidConfig(
                "snapshot root out of range".into(),
            ));
        }
        Ok(Dpt::from_parts(
            snapshot.template.clone(),
            snapshot.minmax_k,
            nodes,
            snapshot.root,
            snapshot.epochs.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynopsisConfig;
    use crate::engine::JanusEngine;
    use janus_common::{AggregateFunction, Query, RangePredicate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rows(n: usize, seed: u64) -> Vec<Row> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let x = rng.gen::<f64>() * 100.0;
                Row::new(i, vec![x, x * 3.0 + 1.0])
            })
            .collect()
    }

    fn engine(seed: u64) -> JanusEngine {
        let mut cfg = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]),
            seed,
        );
        cfg.leaf_count = 16;
        cfg.sample_rate = 0.05;
        cfg.catchup_ratio = 0.4;
        JanusEngine::bootstrap(cfg, rows(10_000, seed)).unwrap()
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

    fn estimate_bits(e: &janus_common::Estimate) -> (u64, u64, u64, usize) {
        (
            e.value.to_bits(),
            e.catchup_variance.to_bits(),
            e.sample_variance.to_bits(),
            e.samples_used,
        )
    }

    #[test]
    fn dpt_snapshot_round_trips_answers_bit_exactly() {
        let mut e = engine(1);
        // Exercise deltas and MIN/MAX before snapshotting.
        for i in 0..500u64 {
            e.insert(Row::new(100_000 + i, vec![(i % 100) as f64, i as f64]))
                .unwrap();
        }
        let snap = e.dpt().to_snapshot();
        let restored = Dpt::from_snapshot(&snap).unwrap();

        for (lo, hi) in [
            (0.0, 100.0),
            (20.0, 60.0),
            (f64::NEG_INFINITY, f64::INFINITY),
        ] {
            let query = q(lo, hi);
            let a = e.dpt().answer(&query, e.reservoir()).unwrap().unwrap();
            let b = restored.answer(&query, e.reservoir()).unwrap().unwrap();
            // Stratum sets iterate in canonical (sorted) order, so the
            // restored tree reproduces summation order — and therefore
            // answers — to the bit.
            assert_eq!(estimate_bits(&a), estimate_bits(&b), "[{lo},{hi}]");
        }
    }

    /// The full-fidelity claim cluster recovery rests on: a restored
    /// engine is *observationally indistinguishable* from the original —
    /// identical answers now, and identical answers after any further
    /// identical update sequence (sampling decisions replay bit-exactly
    /// from the captured RNG words).
    #[test]
    fn restored_engine_evolves_bit_identically() {
        // auto_repartition stays off: the max-variance index is rebuilt
        // (not carried) at restore, so re-partitioning *decisions* are the
        // one part of evolution outside the bit-fidelity contract.
        let mut cfg = SynopsisConfig::paper_default(
            QueryTemplate::new(AggregateFunction::Sum, 1, vec![0]),
            7,
        );
        cfg.leaf_count = 16;
        cfg.sample_rate = 0.05;
        cfg.catchup_ratio = 0.4;
        cfg.auto_repartition = false;
        let mut original = JanusEngine::bootstrap(cfg, rows(10_000, 7)).unwrap();
        for i in 0..800u64 {
            original
                .insert(Row::new(200_000 + i, vec![(i % 97) as f64, i as f64]))
                .unwrap();
        }
        original.delete(10).unwrap();
        original.delete(4_321).unwrap();

        let snap = original.save_synopsis();
        let back = SynopsisSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let mut restored =
            JanusEngine::restore(original.config().clone(), original.export_rows(), &back).unwrap();

        // Same mixed update sequence on both sides, then compare to the bit.
        let mut rng = SmallRng::seed_from_u64(70);
        let mut live: Vec<u64> = (100..5_000).collect();
        for step in 0..3_000u64 {
            if rng.gen_bool(0.75) || live.len() < 32 {
                let x = rng.gen::<f64>() * 100.0;
                let row = Row::new(300_000 + step, vec![x, x * 2.0 + 1.0]);
                original.insert(row.clone()).unwrap();
                restored.insert(row).unwrap();
                live.push(300_000 + step);
            } else {
                let at = rng.gen_range(0..live.len());
                let id = live.swap_remove(at);
                original.delete(id).unwrap();
                restored.delete(id).unwrap();
            }
        }
        assert_eq!(original.population(), restored.population());
        for (lo, hi) in [(0.0, 100.0), (15.0, 60.0), (33.0, 34.0)] {
            let query = q(lo, hi);
            let a = original.query(&query).unwrap().unwrap();
            let b = restored.query(&query).unwrap().unwrap();
            assert_eq!(estimate_bits(&a), estimate_bits(&b), "[{lo},{hi}]");
        }
    }

    #[test]
    fn snapshot_serializes_through_json() {
        let e = engine(2);
        let snap = e.save_synopsis();
        let back = SynopsisSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back.dpt.nodes.len(), snap.dpt.nodes.len());
        assert_eq!(back.sample_rows.len(), snap.sample_rows.len());
        assert_eq!(back.population, 10_000);
    }

    #[test]
    fn engine_restore_resumes_updates_and_queries() {
        let e = engine(3);
        let snap = e.save_synopsis();
        let archive: Vec<Row> = e.export_rows();
        let mut restored = JanusEngine::restore(e.config().clone(), archive, &snap).unwrap();

        // Answers match (to summation-order ULPs) right after restore.
        let query = q(10.0, 90.0);
        let a = e.query(&query).unwrap().unwrap();
        let b = restored.query(&query).unwrap().unwrap();
        assert!((a.value - b.value).abs() <= 1e-9 * a.value.abs().max(1.0));

        // And the restored engine keeps working.
        for i in 0..1_000u64 {
            restored
                .insert(Row::new(500_000 + i, vec![(i % 100) as f64, 2.0]))
                .unwrap();
        }
        restored.delete(42).unwrap();
        let est = restored.query(&query).unwrap().unwrap();
        let truth = restored.evaluate_exact(&query).unwrap();
        assert!((est.value - truth).abs() / truth < 0.1);
    }

    #[test]
    fn restore_rejects_population_mismatch() {
        let e = engine(4);
        let snap = e.save_synopsis();
        let archive: Vec<Row> = e.archive().iter_rows().take(100).collect();
        assert!(JanusEngine::restore(e.config().clone(), archive, &snap).is_err());
    }

    #[test]
    fn corrupt_snapshot_root_is_rejected() {
        let e = engine(5);
        let mut snap = e.dpt().to_snapshot();
        snap.root = snap.nodes.len() + 7;
        assert!(Dpt::from_snapshot(&snap).is_err());
    }
}
