//! DeepDB substitute: a mini sum-product network (SPN) learned synopsis.
//!
//! DeepDB \[20] learns a relational SPN over a sample of the data and
//! answers aggregate queries from the model alone. This module implements
//! the same construction at reproduction scale:
//!
//! * **structure learning** — recursively decompose the training sample:
//!   independent column groups (pairwise |Pearson correlation| below a
//!   threshold) become *product* nodes; otherwise rows are 2-means
//!   clustered into *sum* node children; recursion bottoms out in *leaf*
//!   nodes holding per-column equi-width histograms (with per-bin sums, so
//!   conditional means are available);
//! * **inference** — a rectangular predicate evaluates bottom-up to a
//!   probability and a conditional mean of the aggregate column;
//!   `COUNT = N·p`, `SUM = N·p·E[A|pred]`, `AVG = E[A|pred]`;
//! * **limited dynamics** — insertions/deletions update leaf histograms and
//!   sum-node weights along a routed path, but the *structure* (and hence
//!   the resolution) is fixed until an expensive full retrain — exactly the
//!   behaviour the paper's Figures 5/9 penalize.

use janus_common::{AggregateFunction, Estimate, Query, Row};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Structure-learning and inference parameters.
#[derive(Clone, Debug)]
pub struct SpnConfig {
    /// Stop splitting below this many training rows.
    pub min_rows: usize,
    /// Histogram bins per leaf column.
    pub bins: usize,
    /// |Pearson correlation| below which columns are treated independent.
    pub corr_threshold: f64,
    /// Maximum recursion depth.
    pub max_depth: usize,
    /// k-means iterations per sum-node split (training cost knob).
    pub kmeans_iters: usize,
    /// Hard-assignment EM refinement passes after structure learning:
    /// each pass re-routes every training row through the fixed structure
    /// and refits sum-node weights and leaf histograms. Real DeepDB
    /// training makes many optimization passes over its sample; this knob
    /// reproduces that cost (and slightly improves fit).
    pub train_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpnConfig {
    fn default() -> Self {
        SpnConfig {
            min_rows: 256,
            bins: 64,
            corr_threshold: 0.3,
            max_depth: 12,
            kmeans_iters: 10,
            train_epochs: 1,
            seed: 0xdeedb,
        }
    }
}

/// Equi-width histogram with per-bin value sums.
#[derive(Clone, Debug)]
struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<f64>,
    sums: Vec<f64>,
}

impl Histogram {
    fn fit(values: &[f64], bins: usize) -> Histogram {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if !lo.is_finite() {
            lo = 0.0;
            hi = 1.0;
        }
        if hi <= lo {
            hi = lo + 1.0;
        }
        let mut h = Histogram {
            lo,
            hi,
            counts: vec![0.0; bins],
            sums: vec![0.0; bins],
        };
        for &v in values {
            h.add(v);
        }
        h
    }

    fn bin_of(&self, v: f64) -> usize {
        let t = (v - self.lo) / (self.hi - self.lo);
        ((t * self.counts.len() as f64) as isize).clamp(0, self.counts.len() as isize - 1) as usize
    }

    fn add(&mut self, v: f64) {
        let b = self.bin_of(v);
        self.counts[b] += 1.0;
        self.sums[b] += v;
    }

    fn remove(&mut self, v: f64) {
        let b = self.bin_of(v);
        self.counts[b] = (self.counts[b] - 1.0).max(0.0);
        self.sums[b] -= v;
    }

    fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Mass fraction and conditional mean within the closed range
    /// `[qlo, qhi]`, with linear interpolation inside boundary bins.
    fn range_stats(&self, qlo: f64, qhi: f64) -> (f64, f64) {
        let total = self.total();
        if total <= 0.0 || qhi < self.lo || qlo > self.hi {
            return (0.0, 0.0);
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut mass = 0.0;
        let mut sum = 0.0;
        for (b, (&c, &s)) in self.counts.iter().zip(&self.sums).enumerate() {
            if c <= 0.0 {
                continue;
            }
            let blo = self.lo + b as f64 * width;
            let bhi = blo + width;
            let overlap = (qhi.min(bhi) - qlo.max(blo)).max(0.0);
            if overlap <= 0.0 {
                // Closed predicates touching the upper edge of the last bin.
                if b + 1 == self.counts.len() && qhi >= self.hi && qlo <= self.hi {
                    // fully-included edge handled below by frac = 1 branch
                }
                continue;
            }
            let frac = (overlap / width).min(1.0);
            mass += c * frac;
            sum += s * frac;
        }
        (mass / total, if mass > 0.0 { sum / mass } else { 0.0 })
    }
}

/// One SPN node.
enum Node {
    Sum {
        children: Vec<SumChild>,
    },
    Product {
        parts: Vec<Node>,
    },
    Leaf {
        scope: Vec<usize>,
        hists: Vec<Histogram>,
    },
}

struct SumChild {
    weight: f64,
    center: Vec<f64>,
    node: Node,
}

/// Result of evaluating a node: predicate probability and conditional mean
/// of the aggregate column (when in scope).
#[derive(Clone, Copy)]
struct Eval {
    prob: f64,
    mean: Option<f64>,
}

/// A trained mini-SPN plus population bookkeeping.
pub struct MiniSpn {
    root: Node,
    config: SpnConfig,
    cols: usize,
    /// Live population `N` the model is scaled to.
    population: f64,
    /// Wall time of the last (re)train.
    pub train_time: Duration,
}

impl MiniSpn {
    /// Trains on `training` rows (typically a 10% sample), representing a
    /// live population of `population` rows.
    pub fn train(training: &[Row], population: usize, config: SpnConfig) -> MiniSpn {
        let start = Instant::now();
        let cols = training.first().map_or(1, |r| r.arity());
        let scope: Vec<usize> = (0..cols).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let refs: Vec<&Row> = training.iter().collect();
        let mut root = build(&refs, &scope, 0, &config, &mut rng);
        for _ in 1..config.train_epochs.max(1) {
            refine_pass(&mut root, training);
        }
        MiniSpn {
            root,
            config,
            cols,
            population: population as f64,
            train_time: start.elapsed(),
        }
    }

    /// Number of columns the model covers.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Current modeled population.
    pub fn population(&self) -> f64 {
        self.population
    }

    /// Full retrain with the same configuration — DeepDB's (expensive)
    /// re-optimization path (the paper's Figs. 5 and 9 time it).
    pub fn retrain(&mut self, training: &[Row], population: usize) {
        *self = MiniSpn::train(training, population, self.config.clone());
    }

    /// Incremental insertion: routes the row down the structure, updating
    /// histograms and sum weights (fixed resolution).
    pub fn insert(&mut self, row: &Row) {
        self.population += 1.0;
        update(&mut self.root, row, 1.0);
    }

    /// Incremental deletion.
    pub fn delete(&mut self, row: &Row) {
        self.population = (self.population - 1.0).max(0.0);
        update(&mut self.root, row, -1.0);
    }

    /// Answers an aggregate query from the model alone. MIN/MAX are not
    /// modeled (the paper compares SUM/COUNT/AVG against DeepDB).
    pub fn query(&self, query: &Query) -> Option<Estimate> {
        // Per-column closed ranges; None = unconstrained.
        let mut ranges: Vec<Option<(f64, f64)>> = vec![None; self.cols];
        for (i, &c) in query.predicate_columns.iter().enumerate() {
            ranges[c] = Some((query.range.lo()[i], query.range.hi()[i]));
        }
        let eval = evaluate(&self.root, &ranges, query.agg_column);
        let value = match query.agg {
            AggregateFunction::Count => self.population * eval.prob,
            AggregateFunction::Sum => self.population * eval.prob * eval.mean.unwrap_or(0.0),
            AggregateFunction::Avg => {
                if eval.prob <= 0.0 {
                    return None;
                }
                eval.mean?
            }
            AggregateFunction::Min | AggregateFunction::Max => return None,
        };
        Some(Estimate::exact(value))
    }
}

/// One hard-assignment EM pass: zero all parameters, then re-route every
/// training row through the fixed structure, refitting sum-node weights and
/// leaf histograms.
fn refine_pass(node: &mut Node, rows: &[Row]) {
    zero_params(node);
    for row in rows {
        update(node, row, 1.0);
    }
}

fn zero_params(node: &mut Node) {
    match node {
        Node::Leaf { hists, .. } => {
            for h in hists {
                h.counts.iter_mut().for_each(|c| *c = 0.0);
                h.sums.iter_mut().for_each(|s| *s = 0.0);
            }
        }
        Node::Product { parts } => parts.iter_mut().for_each(zero_params),
        Node::Sum { children } => {
            for c in children.iter_mut() {
                c.weight = 0.0;
                zero_params(&mut c.node);
            }
        }
    }
}

fn update(node: &mut Node, row: &Row, sign: f64) {
    match node {
        Node::Leaf { scope, hists } => {
            for (&c, h) in scope.iter().zip(hists) {
                if sign > 0.0 {
                    h.add(row.value(c));
                } else {
                    h.remove(row.value(c));
                }
            }
        }
        Node::Product { parts } => {
            for p in parts {
                update(p, row, sign);
            }
        }
        Node::Sum { children } => {
            // Route to the nearest cluster center.
            let best = children
                .iter_mut()
                .min_by(|a, b| dist(&a.center, row).total_cmp(&dist(&b.center, row)))
                .expect("sum node has children");
            best.weight = (best.weight + sign).max(0.0);
            update(&mut best.node, row, sign);
        }
    }
}

fn dist(center: &[f64], row: &Row) -> f64 {
    center
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let d = row.value(i) - c;
            d * d
        })
        .sum()
}

fn evaluate(node: &Node, ranges: &[Option<(f64, f64)>], agg_col: usize) -> Eval {
    match node {
        Node::Leaf { scope, hists } => {
            let mut prob = 1.0;
            let mut mean = None;
            for (&c, h) in scope.iter().zip(hists) {
                match ranges[c] {
                    Some((lo, hi)) => {
                        let (p, m) = h.range_stats(lo, hi);
                        prob *= p;
                        if c == agg_col {
                            mean = Some(m);
                        }
                    }
                    None => {
                        if c == agg_col {
                            let (_, m) = h.range_stats(h.lo, h.hi);
                            mean = Some(m);
                        }
                    }
                }
            }
            Eval { prob, mean }
        }
        Node::Product { parts } => {
            let mut prob = 1.0;
            let mut mean = None;
            for p in parts {
                let e = evaluate(p, ranges, agg_col);
                prob *= e.prob;
                if e.mean.is_some() {
                    mean = e.mean;
                }
            }
            Eval { prob, mean }
        }
        Node::Sum { children } => {
            let total_w: f64 = children.iter().map(|c| c.weight).sum();
            if total_w <= 0.0 {
                return Eval {
                    prob: 0.0,
                    mean: None,
                };
            }
            let mut prob = 0.0;
            let mut weighted_mean = 0.0;
            let mut mean_mass = 0.0;
            for child in children {
                let e = evaluate(&child.node, ranges, agg_col);
                let w = child.weight / total_w;
                prob += w * e.prob;
                if let Some(m) = e.mean {
                    weighted_mean += w * e.prob * m;
                    mean_mass += w * e.prob;
                }
            }
            let mean = (mean_mass > 0.0).then(|| weighted_mean / mean_mass);
            Eval { prob, mean }
        }
    }
}

fn build(
    rows: &[&Row],
    scope: &[usize],
    depth: usize,
    config: &SpnConfig,
    rng: &mut SmallRng,
) -> Node {
    if rows.len() < config.min_rows || scope.len() == 1 || depth >= config.max_depth {
        return leaf(rows, scope, config);
    }
    // Try a column decomposition: connected components of |corr| > threshold.
    if let Some(groups) = independent_groups(rows, scope, config.corr_threshold) {
        let parts = groups
            .into_iter()
            .map(|g| build(rows, &g, depth + 1, config, rng))
            .collect();
        return Node::Product { parts };
    }
    // Row clustering: 2-means over the scope columns.
    match two_means(rows, scope, config.kmeans_iters, rng) {
        Some((a, b, ca, cb)) => {
            let child = |cluster: Vec<&Row>, center: Vec<f64>, rng: &mut SmallRng| SumChild {
                weight: cluster.len() as f64,
                center,
                node: build(&cluster, scope, depth + 1, config, rng),
            };
            Node::Sum {
                children: vec![child(a, ca, rng), child(b, cb, rng)],
            }
        }
        None => leaf(rows, scope, config),
    }
}

fn leaf(rows: &[&Row], scope: &[usize], config: &SpnConfig) -> Node {
    let hists = scope
        .iter()
        .map(|&c| {
            let values: Vec<f64> = rows.iter().map(|r| r.value(c)).collect();
            Histogram::fit(&values, config.bins)
        })
        .collect();
    Node::Leaf {
        scope: scope.to_vec(),
        hists,
    }
}

/// Pairwise-correlation column decomposition; `None` when the scope is one
/// connected component.
fn independent_groups(rows: &[&Row], scope: &[usize], threshold: f64) -> Option<Vec<Vec<usize>>> {
    let k = scope.len();
    if k < 2 || rows.len() < 8 {
        return None;
    }
    // Column moments.
    let n = rows.len() as f64;
    let means: Vec<f64> = scope
        .iter()
        .map(|&c| rows.iter().map(|r| r.value(c)).sum::<f64>() / n)
        .collect();
    let stds: Vec<f64> = scope
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            (rows
                .iter()
                .map(|r| (r.value(c) - means[i]).powi(2))
                .sum::<f64>()
                / n)
                .sqrt()
        })
        .collect();
    // Union-find over correlated columns.
    let mut parent: Vec<usize> = (0..k).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    for i in 0..k {
        for j in i + 1..k {
            if stds[i] <= 0.0 || stds[j] <= 0.0 {
                continue;
            }
            let cov = rows
                .iter()
                .map(|r| (r.value(scope[i]) - means[i]) * (r.value(scope[j]) - means[j]))
                .sum::<f64>()
                / n;
            let corr = cov / (stds[i] * stds[j]);
            if corr.abs() > threshold {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                parent[a] = b;
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &col) in scope.iter().enumerate().take(k) {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(col);
    }
    (groups.len() > 1).then(|| groups.into_values().collect())
}

/// 2-means clustering over the scope columns; `None` on degenerate splits.
#[allow(clippy::type_complexity)]
fn two_means<'a>(
    rows: &[&'a Row],
    scope: &[usize],
    iters: usize,
    rng: &mut SmallRng,
) -> Option<(Vec<&'a Row>, Vec<&'a Row>, Vec<f64>, Vec<f64>)> {
    let cols = rows[0].arity();
    // Normalization per scope column.
    let mut lo = vec![f64::INFINITY; cols];
    let mut hi = vec![f64::NEG_INFINITY; cols];
    for r in rows {
        for &c in scope {
            lo[c] = lo[c].min(r.value(c));
            hi[c] = hi[c].max(r.value(c));
        }
    }
    let norm = |r: &Row, c: usize| {
        let w = hi[c] - lo[c];
        if w <= 0.0 {
            0.0
        } else {
            (r.value(c) - lo[c]) / w
        }
    };
    let mut ca: Vec<f64> = scope
        .iter()
        .map(|&c| norm(rows[rng.gen_range(0..rows.len())], c))
        .collect();
    let mut cb: Vec<f64> = scope
        .iter()
        .map(|&c| norm(rows[rng.gen_range(0..rows.len())], c))
        .collect();
    let mut assign = vec![false; rows.len()];
    for _ in 0..iters {
        for (i, r) in rows.iter().enumerate() {
            let da: f64 = scope
                .iter()
                .enumerate()
                .map(|(j, &c)| (norm(r, c) - ca[j]).powi(2))
                .sum();
            let db: f64 = scope
                .iter()
                .enumerate()
                .map(|(j, &c)| (norm(r, c) - cb[j]).powi(2))
                .sum();
            assign[i] = db < da;
        }
        let mut sums_a = vec![0.0; scope.len()];
        let mut sums_b = vec![0.0; scope.len()];
        let (mut na, mut nb) = (0.0, 0.0);
        for (i, r) in rows.iter().enumerate() {
            let (sums, n) = if assign[i] {
                (&mut sums_b, &mut nb)
            } else {
                (&mut sums_a, &mut na)
            };
            for (j, &c) in scope.iter().enumerate() {
                sums[j] += norm(r, c);
            }
            *n += 1.0;
        }
        if na == 0.0 || nb == 0.0 {
            return None;
        }
        for j in 0..scope.len() {
            ca[j] = sums_a[j] / na;
            cb[j] = sums_b[j] / nb;
        }
    }
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        if assign[i] {
            b.push(*r);
        } else {
            a.push(*r);
        }
    }
    if a.is_empty() || b.is_empty() {
        return None;
    }
    // Denormalize the centers into raw coordinates over the full arity (the
    // router needs raw distances).
    let denorm = |center: &[f64]| {
        let mut out = vec![0.0; cols];
        for (j, &c) in scope.iter().enumerate() {
            let w = hi[c] - lo[c];
            out[c] = lo[c] + center[j] * if w <= 0.0 { 0.0 } else { w };
        }
        out
    };
    let (ca, cb) = (denorm(&ca), denorm(&cb));
    Some((a, b, ca, cb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_common::{QueryTemplate, RangePredicate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn rows(n: usize, seed: u64) -> Vec<Row> {
        // Two correlated columns (0, 1) and one independent (2).
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let x = rng.gen::<f64>() * 100.0;
                let y = x * 1.5 + rng.gen::<f64>() * 5.0;
                let z = rng.gen::<f64>() * 10.0;
                Row::new(i, vec![x, y, z])
            })
            .collect()
    }

    fn q(agg: AggregateFunction, agg_col: usize, pred: usize, lo: f64, hi: f64) -> Query {
        Query::new(
            agg,
            agg_col,
            vec![pred],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn histogram_range_stats_are_consistent() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64 / 10.0).collect();
        let h = Histogram::fit(&values, 50);
        let (p, m) = h.range_stats(0.0, 100.0);
        assert!((p - 1.0).abs() < 1e-9);
        assert!((m - 49.95).abs() < 1.5);
        let (p_half, _) = h.range_stats(0.0, 50.0);
        assert!((p_half - 0.5).abs() < 0.03, "{p_half}");
        let (p_none, _) = h.range_stats(200.0, 300.0);
        assert_eq!(p_none, 0.0);
    }

    #[test]
    fn count_and_sum_estimates_track_truth() {
        let data = rows(20_000, 1);
        let train: Vec<Row> = data.iter().step_by(10).cloned().collect();
        let spn = MiniSpn::train(&train, data.len(), SpnConfig::default());
        for agg in [AggregateFunction::Count, AggregateFunction::Sum] {
            let query = q(agg, 1, 0, 20.0, 70.0);
            let est = spn.query(&query).unwrap();
            let truth = query.evaluate_exact(&data).unwrap();
            let rel = (est.value - truth).abs() / truth;
            assert!(
                rel < 0.15,
                "{agg}: est {} truth {truth} rel {rel}",
                est.value
            );
        }
    }

    #[test]
    fn avg_estimate_tracks_truth() {
        let data = rows(20_000, 2);
        let train: Vec<Row> = data.iter().step_by(10).cloned().collect();
        let spn = MiniSpn::train(&train, data.len(), SpnConfig::default());
        let query = q(AggregateFunction::Avg, 1, 0, 30.0, 60.0);
        let est = spn.query(&query).unwrap();
        let truth = query.evaluate_exact(&data).unwrap();
        assert!((est.value - truth).abs() / truth < 0.15);
    }

    #[test]
    fn incremental_inserts_shift_counts() {
        let data = rows(10_000, 3);
        let train: Vec<Row> = data.iter().step_by(10).cloned().collect();
        let mut spn = MiniSpn::train(&train, data.len(), SpnConfig::default());
        let query = q(AggregateFunction::Count, 1, 0, 0.0, 100.0);
        let before = spn.query(&query).unwrap().value;
        for i in 0..5_000u64 {
            spn.insert(&Row::new(100_000 + i, vec![50.0, 75.0, 5.0]));
        }
        let after = spn.query(&query).unwrap().value;
        assert!(after > before + 2_500.0, "before {before} after {after}");
    }

    #[test]
    fn deletes_reverse_inserts_approximately() {
        let data = rows(5_000, 4);
        let train: Vec<Row> = data.iter().step_by(5).cloned().collect();
        let mut spn = MiniSpn::train(&train, data.len(), SpnConfig::default());
        let query = q(AggregateFunction::Count, 1, 0, 0.0, 100.0);
        let before = spn.query(&query).unwrap().value;
        let extra = Row::new(999_999, vec![42.0, 63.0, 5.0]);
        spn.insert(&extra);
        spn.delete(&extra);
        let after = spn.query(&query).unwrap().value;
        assert!((after - before).abs() < 1.0);
    }

    #[test]
    fn training_cost_grows_with_data() {
        let small = rows(2_000, 5);
        let large = rows(40_000, 5);
        let t_small = MiniSpn::train(&small, small.len(), SpnConfig::default()).train_time;
        let t_large = MiniSpn::train(&large, large.len(), SpnConfig::default()).train_time;
        assert!(t_large > t_small, "{t_large:?} vs {t_small:?}");
    }

    #[test]
    fn min_max_are_unsupported() {
        let data = rows(1_000, 6);
        let spn = MiniSpn::train(&data, data.len(), SpnConfig::default());
        assert!(spn
            .query(&q(AggregateFunction::Min, 1, 0, 0.0, 10.0))
            .is_none());
    }

    #[test]
    fn correlated_columns_are_not_split_apart() {
        let data = rows(5_000, 7);
        let refs: Vec<&Row> = data.iter().collect();
        let groups = independent_groups(&refs, &[0, 1, 2], 0.3).unwrap();
        // Columns 0 and 1 are strongly correlated; 2 is independent.
        let has_pair = groups.iter().any(|g| g.contains(&0) && g.contains(&1));
        let z_alone = groups.iter().any(|g| g == &vec![2]);
        assert!(has_pair && z_alone, "{groups:?}");
    }

    #[test]
    fn template_queries_with_multiple_predicates() {
        let data = rows(10_000, 8);
        let train: Vec<Row> = data.iter().step_by(10).cloned().collect();
        let spn = MiniSpn::train(&train, data.len(), SpnConfig::default());
        let t = QueryTemplate::new(AggregateFunction::Count, 1, vec![0, 2]);
        let query = Query::new(
            t.agg,
            t.agg_column,
            t.predicate_columns,
            RangePredicate::new(vec![10.0, 2.0], vec![80.0, 8.0]).unwrap(),
        )
        .unwrap();
        let est = spn.query(&query).unwrap();
        let truth = query.evaluate_exact(&data).unwrap();
        assert!(
            (est.value - truth).abs() / truth < 0.2,
            "est {} truth {truth}",
            est.value
        );
    }
}
