//! Synopsis construction parameters (§3.1, §5.5).

use janus_common::codec::{Dec, Decode, Enc, Encode};
use janus_common::{JanusError, QueryTemplate, Result};

/// All knobs governing one DPT synopsis.
///
/// §5.5 notes that, given a memory constraint, the system derives `m`
/// (samples) and `k` (leaves) with `k ≈ (0.5/100)·m`;
/// [`SynopsisConfig::from_memory_budget`] implements that rule.
#[derive(Clone, Debug, PartialEq)]
pub struct SynopsisConfig {
    /// The query template this synopsis is optimized for.
    pub template: QueryTemplate,
    /// Number of leaf partitions `k` (128 in most paper experiments).
    pub leaf_count: usize,
    /// Sampling rate `α`: the reservoir floor is `m = α·N` at bootstrap
    /// (1% in most paper experiments).
    pub sample_rate: f64,
    /// Catch-up goal as a fraction of `|D|` (10% in most paper experiments).
    pub catchup_ratio: f64,
    /// Bounded heap size `k` for MIN/MAX statistics (§4.1).
    pub minmax_k: usize,
    /// Re-partition drift factor `β > 1` (§5.4; the paper defaults to 10).
    pub beta: f64,
    /// AVG valid-query floor `δ`: valid AVG queries contain at least
    /// `2δm` samples (§5.3.1).
    pub delta: f64,
    /// Error-ladder base `ρ > 1` of the 1-D binary-search partitioner
    /// (§5.2; constant, e.g. 2).
    pub rho: f64,
    /// RNG seed: every random choice in the synopsis derives from it.
    pub seed: u64,
    /// Whether the β-drift / under-representation triggers may re-partition
    /// automatically (§5.4). The DPT-only baseline of §6.1.3 sets `false`.
    pub auto_repartition: bool,
    /// Updates between trigger evaluations (amortizes the `M(R)` probe).
    pub trigger_check_interval: usize,
    /// Catch-up rows applied per `advance_catchup` step by the engine loop.
    pub catchup_chunk: usize,
    /// Catch-up rows applied opportunistically per processed update —
    /// models the background catch-up thread of §4.3 inside the synchronous
    /// engine. Set to 0 to control catch-up manually (the Fig. 7 harness
    /// does).
    pub catchup_per_update: usize,
}

impl SynopsisConfig {
    /// Paper-default configuration for a template: `k = 128`, 1% samples,
    /// 10% catch-up, `β = 10`, `ρ = 2`.
    pub fn paper_default(template: QueryTemplate, seed: u64) -> Self {
        SynopsisConfig {
            template,
            leaf_count: 128,
            sample_rate: 0.01,
            catchup_ratio: 0.10,
            minmax_k: 16,
            beta: 10.0,
            delta: 0.01,
            rho: 2.0,
            seed,
            auto_repartition: true,
            trigger_check_interval: 256,
            catchup_chunk: 4096,
            catchup_per_update: 4,
        }
    }

    /// Derives `m` and `k` from a memory budget in bytes (§5.5): samples
    /// dominate at ~`bytes_per_sample` each, and `k ≈ (0.5/100)·m`.
    pub fn from_memory_budget(
        template: QueryTemplate,
        budget_bytes: usize,
        population_hint: usize,
        seed: u64,
    ) -> Self {
        // One pooled sample row ≈ 8 bytes per attribute + bookkeeping.
        let bytes_per_sample = 8 * (template.predicate_columns.len() + 1) + 48;
        let m = (budget_bytes / bytes_per_sample).max(64);
        let k = ((m as f64) * 0.5 / 100.0).round().max(2.0) as usize;
        let sample_rate = if population_hint == 0 {
            0.01
        } else {
            (m as f64 / population_hint as f64).clamp(1e-6, 1.0)
        };
        let mut cfg = Self::paper_default(template, seed);
        cfg.leaf_count = k;
        cfg.sample_rate = sample_rate;
        cfg
    }

    /// Predicate-space dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.template.dims()
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.leaf_count < 2 {
            return Err(JanusError::InvalidConfig("leaf_count must be >= 2".into()));
        }
        if !(self.sample_rate > 0.0 && self.sample_rate <= 1.0) {
            return Err(JanusError::InvalidConfig(
                "sample_rate must be in (0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.catchup_ratio) {
            return Err(JanusError::InvalidConfig(
                "catchup_ratio must be in [0, 1]".into(),
            ));
        }
        if self.beta <= 1.0 {
            return Err(JanusError::InvalidConfig("beta must exceed 1".into()));
        }
        if self.rho <= 1.0 {
            return Err(JanusError::InvalidConfig("rho must exceed 1".into()));
        }
        if !(self.delta > 0.0 && self.delta < 0.5) {
            return Err(JanusError::InvalidConfig(
                "delta must be in (0, 0.5)".into(),
            ));
        }
        if self.minmax_k == 0 {
            return Err(JanusError::InvalidConfig(
                "minmax_k must be positive".into(),
            ));
        }
        if self.template.predicate_columns.is_empty() {
            return Err(JanusError::InvalidConfig(
                "need at least one predicate column".into(),
            ));
        }
        Ok(())
    }
}

impl Encode for SynopsisConfig {
    fn encode(&self, e: &mut Enc) {
        self.template.encode(e);
        e.usize(self.leaf_count);
        e.f64(self.sample_rate);
        e.f64(self.catchup_ratio);
        e.usize(self.minmax_k);
        e.f64(self.beta);
        e.f64(self.delta);
        e.f64(self.rho);
        e.u64(self.seed);
        e.bool(self.auto_repartition);
        e.usize(self.trigger_check_interval);
        e.usize(self.catchup_chunk);
        e.usize(self.catchup_per_update);
    }
}

impl Decode for SynopsisConfig {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(SynopsisConfig {
            template: d.get()?,
            leaf_count: d.usize()?,
            sample_rate: d.f64()?,
            catchup_ratio: d.f64()?,
            minmax_k: d.usize()?,
            beta: d.f64()?,
            delta: d.f64()?,
            rho: d.f64()?,
            seed: d.u64()?,
            auto_repartition: d.bool()?,
            trigger_check_interval: d.usize()?,
            catchup_chunk: d.usize()?,
            catchup_per_update: d.usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::AggregateFunction;

    fn template() -> QueryTemplate {
        QueryTemplate::new(AggregateFunction::Sum, 1, vec![0])
    }

    #[test]
    fn paper_default_is_valid() {
        let cfg = SynopsisConfig::paper_default(template(), 1);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.leaf_count, 128);
        assert_eq!(cfg.dims(), 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = SynopsisConfig::paper_default(template(), 1);
        cfg.leaf_count = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = SynopsisConfig::paper_default(template(), 1);
        cfg.sample_rate = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SynopsisConfig::paper_default(template(), 1);
        cfg.beta = 1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SynopsisConfig::paper_default(template(), 1);
        cfg.catchup_ratio = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = SynopsisConfig::paper_default(template(), 1);
        cfg.template.predicate_columns.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn memory_budget_scales_m_and_k_together() {
        let small = SynopsisConfig::from_memory_budget(template(), 64 * 1024, 1_000_000, 1);
        let large = SynopsisConfig::from_memory_budget(template(), 6 * 1024 * 1024, 1_000_000, 1);
        assert!(large.leaf_count > small.leaf_count);
        assert!(large.sample_rate > small.sample_rate);
        // k ≈ 0.5% of m.
        let m_large = (large.sample_rate * 1_000_000.0) as usize;
        assert!((large.leaf_count as f64) < 0.02 * m_large as f64);
        assert!(small.validate().is_ok() && large.validate().is_ok());
    }
}
