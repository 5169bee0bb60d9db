//! The Dynamic Partition Tree (§4).
//!
//! A [`Dpt`] is the two-layer synopsis: a hierarchy of rectangular
//! partitions with per-node statistics ([`crate::node::NodeStats`]) and,
//! at the leaves, *virtual strata* — sets of row ids indexing into the
//! pooled reservoir sample (§4.2).
//!
//! Query answering (§4.4) classifies nodes against the predicate into
//! `R_cover` (fully covered: answered from node statistics, with catch-up
//! variance `ν_c`) and `R_partial` (partially covered leaves: answered from
//! the stratified samples, with sample variance `ν_s`), and combines both
//! into a single estimate with a CLT confidence interval. The tree only
//! classifies; the estimate itself is the crate-private `estimator`
//! module's, shared with the §5.5 fallbacks.

use crate::estimator::{Gathered, Layers};
use crate::node::{EpochInfo, NodeStats};
use crate::partition::PartitionSpec;
use janus_common::DetHashMap;
use janus_common::{
    Estimate, JanusError, Moments, Query, QueryTemplate, Rect, Result, Row, RowId, RowRef,
};
use janus_index::topk::MinMaxTracker;
use janus_storage::ArchiveColumns;
use std::collections::{BTreeSet, HashMap};

/// Read-only access to the pooled sample rows, keyed by row id.
///
/// Implemented by `janus_sampling::DynamicReservoir` and by any
/// `DetHashMap<RowId, Row>` (static synopses, tests).
pub trait SampleSource {
    /// Borrows the sampled row with this id, if currently sampled.
    fn sample_row(&self, id: RowId) -> Option<&Row>;
}

impl SampleSource for janus_sampling::DynamicReservoir {
    fn sample_row(&self, id: RowId) -> Option<&Row> {
        self.get(id)
    }
}

impl SampleSource for DetHashMap<RowId, Row> {
    fn sample_row(&self, id: RowId) -> Option<&Row> {
        self.get(&id)
    }
}

/// One node of the DPT.
#[derive(Clone, Debug)]
pub struct DptNode {
    /// Half-open partition rectangle in predicate space.
    pub rect: Rect,
    /// Parent index (`None` for the root).
    pub parent: Option<usize>,
    /// Child indices (empty for leaves).
    pub children: Vec<usize>,
    /// Statistics block.
    pub stats: NodeStats,
    /// `M(R_i)` recorded when the partitioning was (re)constructed — the
    /// reference point of the β-drift trigger (§5.4).
    pub built_variance: f64,
    /// Sample row ids of this leaf's virtual stratum (leaves only).
    /// Ordered so that per-stratum floating-point accumulation order is a
    /// function of the stratum's *content* — the property that lets a
    /// snapshot-restored tree answer bit-identically to the original.
    pub samples: BTreeSet<RowId>,
    /// False for nodes orphaned by a partial re-partitioning splice.
    pub live: bool,
}

/// The Dynamic Partition Tree.
pub struct Dpt {
    template: QueryTemplate,
    minmax_k: usize,
    nodes: Vec<DptNode>,
    root: usize,
    epochs: Vec<EpochInfo>,
    /// Leaf index of each currently-sampled row.
    sample_leaf: DetHashMap<RowId, usize>,
    /// Reusable projection buffer for the per-row hot paths (insert,
    /// delete, catch-up): projecting through it instead of allocating a
    /// fresh `Vec` per row is what keeps tree maintenance allocation-free
    /// (`tests/update_path_allocs.rs` counts).
    point_scratch: Vec<f64>,
}

impl Dpt {
    /// Builds a DPT from a partition spec. All nodes join catch-up epoch 0
    /// with snapshot population `population`; `built_variances` align with
    /// `spec.leaf_indices()`.
    pub fn build(
        template: QueryTemplate,
        minmax_k: usize,
        spec: &PartitionSpec,
        built_variances: &[f64],
        population: f64,
    ) -> Result<Self> {
        spec.validate()?;
        let mut nodes: Vec<DptNode> = spec
            .nodes
            .iter()
            .map(|s| DptNode {
                rect: s.rect.clone(),
                parent: None,
                children: s.children.clone(),
                stats: NodeStats::new(minmax_k, 0, 0),
                built_variance: 0.0,
                samples: BTreeSet::new(),
                live: true,
            })
            .collect();
        for i in 0..nodes.len() {
            let children = nodes[i].children.clone();
            for c in children {
                nodes[c].parent = Some(i);
            }
        }
        for (slot, &leaf) in spec.leaf_indices().iter().enumerate() {
            if let Some(&v) = built_variances.get(slot) {
                nodes[leaf].built_variance = v;
            }
        }
        Ok(Dpt {
            template,
            minmax_k,
            nodes,
            root: spec.root,
            epochs: vec![EpochInfo {
                population,
                offered: 0,
            }],
            sample_leaf: DetHashMap::default(),
            point_scratch: Vec::new(),
        })
    }

    /// Reassembles a tree from raw parts (snapshot restore). The
    /// `sample_leaf` map is rebuilt from the nodes' stratum sets.
    pub(crate) fn from_parts(
        template: QueryTemplate,
        minmax_k: usize,
        nodes: Vec<DptNode>,
        root: usize,
        epochs: Vec<EpochInfo>,
    ) -> Dpt {
        let mut sample_leaf = DetHashMap::default();
        for (i, node) in nodes.iter().enumerate() {
            for &id in &node.samples {
                sample_leaf.insert(id, i);
            }
        }
        Dpt {
            template,
            minmax_k,
            nodes,
            root,
            epochs,
            sample_leaf,
            point_scratch: Vec::new(),
        }
    }

    /// Raw node arena (snapshot export).
    pub(crate) fn nodes_raw(&self) -> &[DptNode] {
        &self.nodes
    }

    /// MIN/MAX heap capacity (snapshot export).
    pub(crate) fn minmax_k_raw(&self) -> usize {
        self.minmax_k
    }

    /// The query template this tree serves.
    pub fn template(&self) -> &QueryTemplate {
        &self.template
    }

    /// Predicate-space dimensionality.
    pub fn dims(&self) -> usize {
        self.template.dims()
    }

    /// Root node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Borrow a node.
    pub fn node(&self, idx: usize) -> &DptNode {
        &self.nodes[idx]
    }

    /// Number of live nodes.
    pub fn live_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.live).count()
    }

    /// The live leaves, in arena order and without allocating (for
    /// order-insensitive folds; [`Dpt::leaf_indices`] walks the tree).
    pub fn live_leaves(&self) -> impl Iterator<Item = &DptNode> {
        self.nodes
            .iter()
            .filter(|n| n.live && n.children.is_empty())
    }

    /// Indices of live leaves.
    pub fn leaf_indices(&self) -> Vec<usize> {
        self.leaf_descendants(self.root)
    }

    /// Catch-up epoch table.
    pub fn epochs(&self) -> &[EpochInfo] {
        &self.epochs
    }

    /// Current (latest) epoch id.
    pub fn current_epoch(&self) -> usize {
        self.epochs.len() - 1
    }

    /// Projects a row onto predicate space.
    pub fn project(&self, row: &Row) -> Vec<f64> {
        row.project(&self.template.predicate_columns)
    }

    /// Projects a row onto predicate space into a caller-owned buffer —
    /// the allocation-free twin of [`Dpt::project`] for batch loops.
    #[inline]
    pub fn project_into(&self, row: &Row, out: &mut Vec<f64>) {
        row.project_into(&self.template.predicate_columns, out);
    }

    /// Takes the scratch projection buffer, projects `row` into it, and
    /// hands it back with the buffer — the borrow-splitting dance the
    /// `&mut self` per-row paths share.
    #[inline]
    fn project_scratch(&mut self, row: RowRef<'_>) -> Vec<f64> {
        let mut point = std::mem::take(&mut self.point_scratch);
        row.project_into(&self.template.predicate_columns, &mut point);
        point
    }

    /// Aggregation value of a row under this template.
    #[inline]
    pub fn agg_value(&self, row: RowRef<'_>) -> f64 {
        row.value(self.template.agg_column)
    }

    /// The one root-to-leaf descent: calls `visit(nodes, idx)` on every
    /// node of `point`'s path, root first, and returns the last one — the
    /// leaf, or the node none of whose children contain the point.
    /// `nodes` is `&[DptNode]` for read-only walks and `&mut [DptNode]`
    /// for the ones that update statistics on the way down.
    #[inline(always)]
    fn walk_path<N: std::ops::Deref<Target = [DptNode]>>(
        mut nodes: N,
        root: usize,
        point: &[f64],
        mut visit: impl FnMut(&mut N, usize),
    ) -> usize {
        let mut idx = root;
        loop {
            visit(&mut nodes, idx);
            let Some(&next) = nodes[idx]
                .children
                .iter()
                .find(|&&c| nodes[c].rect.contains(point))
            else {
                return idx;
            };
            idx = next;
        }
    }

    /// Leaf containing the predicate-space point.
    pub fn leaf_of(&self, point: &[f64]) -> usize {
        let leaf = Self::walk_path(&self.nodes[..], self.root, point, |_, _| {});
        // Unbounded outer cells make this unreachable for valid specs.
        debug_assert!(
            self.nodes[leaf].children.is_empty(),
            "point {point:?} escaped all children of node {leaf}"
        );
        leaf
    }

    /// Records an insertion along the root-to-leaf path; returns the leaf.
    pub fn record_insert(&mut self, row: RowRef<'_>) -> usize {
        let point = self.project_scratch(row);
        let a = self.agg_value(row);
        let leaf = Self::walk_path(&mut self.nodes[..], self.root, &point, |nodes, idx| {
            nodes[idx].stats.record_insert(a)
        });
        self.point_scratch = point;
        leaf
    }

    /// Records a deletion along the root-to-leaf path; returns the leaf.
    pub fn record_delete(&mut self, row: RowRef<'_>) -> usize {
        let point = self.project_scratch(row);
        let a = self.agg_value(row);
        let leaf = Self::walk_path(&mut self.nodes[..], self.root, &point, |nodes, idx| {
            nodes[idx].stats.record_delete(a)
        });
        self.point_scratch = point;
        leaf
    }

    /// Absorbs one catch-up sample (§4.3 step 5): updates the catch-up
    /// moments of every *current-epoch* node on the path and advances the
    /// epoch's offered counter.
    pub fn apply_catchup_row(&mut self, row: RowRef<'_>) {
        let point = self.project_scratch(row);
        self.apply_catchup_point(&point, self.agg_value(row));
        self.point_scratch = point;
    }

    /// [`Dpt::apply_catchup_row`] over a pre-projected predicate-space
    /// point — the form catch-up loops use with a hoisted projection
    /// buffer.
    pub fn apply_catchup_point(&mut self, point: &[f64], a: f64) {
        let epoch = self.current_epoch();
        self.epochs[epoch].offered += 1;
        Self::walk_path(&mut self.nodes[..], self.root, point, |nodes, idx| {
            if nodes[idx].stats.epoch == epoch {
                nodes[idx].stats.record_catchup(a);
            }
        });
    }

    /// Installs exact base statistics by scanning `rows` (SPT-style
    /// construction, §2.3.1). Clears any catch-up state.
    pub fn install_exact_base<'a>(&mut self, rows: impl IntoIterator<Item = &'a Row>) {
        self.reset_exact_base();
        let nodes = &mut self.nodes[..];
        let root = self.root;
        let cols = &self.template.predicate_columns;
        let agg_col = self.template.agg_column;
        let mut point: Vec<f64> = Vec::new();
        for row in rows {
            let row = row.as_ref();
            row.project_into(cols, &mut point);
            Self::descend_add(nodes, root, &point, row.value(agg_col));
        }
    }

    /// Columnar twin of [`Dpt::install_exact_base`]: scans dense
    /// arity-strided column views (an archive's [`ArchiveStore::blocks`])
    /// in order, gathering the predicate projection and aggregate lane of
    /// [`janus_common::kernels::CHUNK`] rows at a time before the per-row
    /// tree descent.
    ///
    /// Bit-identical to the row-driven path: both visit rows in the same
    /// order and feed every node accumulator the same `f64` sequence, so
    /// a synopsis bootstrapped from column views answers (and
    /// checkpoints) bit-for-bit like one bootstrapped from its rows,
    /// however the rows are split into views.
    ///
    /// [`ArchiveStore::blocks`]: janus_storage::ArchiveStore::blocks
    pub fn install_exact_base_columns<'a>(
        &mut self,
        views: impl IntoIterator<Item = ArchiveColumns<'a>>,
    ) {
        use janus_common::kernels::CHUNK;
        self.reset_exact_base();
        let dims = self.template.predicate_columns.len();
        let nodes = &mut self.nodes[..];
        let root = self.root;
        let cols = &self.template.predicate_columns;
        let agg_col = self.template.agg_column;
        let mut points = vec![0.0f64; CHUNK * dims];
        let mut aggs = [0.0f64; CHUNK];
        for ArchiveColumns { values, arity, .. } in views {
            if arity == 0 {
                continue;
            }
            debug_assert_eq!(values.len() % arity, 0);
            let mut chunks = values.chunks_exact(CHUNK * arity);
            for chunk in chunks.by_ref() {
                // Gather column-by-column so each predicate column strides
                // uniformly through the chunk (the autovectorizable shape).
                for (d, &c) in cols.iter().enumerate() {
                    for lane in 0..CHUNK {
                        points[lane * dims + d] = chunk[lane * arity + c];
                    }
                }
                for (lane, a) in aggs.iter_mut().enumerate() {
                    *a = chunk[lane * arity + agg_col];
                }
                for lane in 0..CHUNK {
                    let point = &points[lane * dims..(lane + 1) * dims];
                    Self::descend_add(nodes, root, point, aggs[lane]);
                }
            }
            let point = &mut points[..dims];
            for row in chunks.remainder().chunks_exact(arity) {
                for (d, &c) in cols.iter().enumerate() {
                    point[d] = row[c];
                }
                Self::descend_add(nodes, root, point, row[agg_col]);
            }
        }
    }

    /// Gives every node an empty exact base and empty MIN/MAX heaps — the
    /// state the exact-base installers scan the table into.
    fn reset_exact_base(&mut self) {
        for node in &mut self.nodes {
            node.stats.set_exact_base(Moments::ZERO);
            node.stats.minmax = MinMaxTracker::new(self.minmax_k);
        }
    }

    /// The per-row step shared by the exact-base installers: adds `a` to
    /// the exact base and the MIN/MAX heaps of every node on `point`'s
    /// path, root first.
    #[inline]
    fn descend_add(nodes: &mut [DptNode], root: usize, point: &[f64], a: f64) {
        Self::walk_path(nodes, root, point, |nodes, idx| {
            nodes[idx].stats.record_base(a)
        });
    }

    // ------------------------------------------------------------------
    // Sample (virtual stratum) maintenance
    // ------------------------------------------------------------------

    /// Registers a sampled row id with its leaf; returns the leaf index.
    pub fn assign_sample(&mut self, id: RowId, point: &[f64]) -> usize {
        let leaf = self.leaf_of(point);
        self.nodes[leaf].samples.insert(id);
        self.sample_leaf.insert(id, leaf);
        leaf
    }

    /// Unregisters a sampled row id; returns its former leaf if known.
    pub fn remove_sample(&mut self, id: RowId) -> Option<usize> {
        let leaf = self.sample_leaf.remove(&id)?;
        self.nodes[leaf].samples.remove(&id);
        Some(leaf)
    }

    /// Clears all sample assignments (used on reservoir reset).
    pub fn clear_samples(&mut self) {
        self.sample_leaf.clear();
        for node in &mut self.nodes {
            node.samples.clear();
        }
    }

    /// Number of sampled rows registered.
    pub fn sample_count(&self) -> usize {
        self.sample_leaf.len()
    }

    // ------------------------------------------------------------------
    // Query answering (§4.4)
    // ------------------------------------------------------------------

    /// Classifies the tree against a predicate: fully-covered nodes and
    /// partially-covered leaves.
    pub fn classify(&self, query: &Query) -> (Vec<usize>, Vec<usize>) {
        let mut covered = Vec::new();
        let mut partial = Vec::new();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            if !query.range.intersects(&node.rect) {
                continue;
            }
            if query.range.covers(&node.rect) {
                covered.push(idx);
            } else if node.children.is_empty() {
                partial.push(idx);
            } else {
                stack.extend(node.children.iter().copied());
            }
        }
        (covered, partial)
    }

    /// Answers a query from the synopsis and the pooled sample (§4.4):
    /// node statistics for covered nodes, stratified samples for partial
    /// leaves — one classification, one scan per partial leaf, whatever
    /// the aggregate (the crate-private `estimator` module).
    ///
    /// Returns `Err(UnsupportedTemplate)` when the query's predicate
    /// columns differ from the synopsis template; AVG/MIN/MAX over an
    /// (estimated) empty selection return `Ok(None)`.
    pub fn answer(&self, query: &Query, samples: &dyn SampleSource) -> Result<Option<Estimate>> {
        Ok(Gathered::from_tree(self, query, samples, Layers::Both)?.finish(query.agg))
    }

    /// Answers a query using only the leaf samples (every intersecting leaf
    /// treated as partially covered). This is the §5.5 heuristic fallback
    /// for query templates whose aggregation attribute differs from the
    /// synopsis focus: node statistics track the focus attribute, but the
    /// pooled sample carries full rows, and `N̂_i` (a count) is
    /// attribute-independent.
    pub fn answer_sampling_only(
        &self,
        query: &Query,
        samples: &dyn SampleSource,
    ) -> Result<Option<Estimate>> {
        Ok(Gathered::from_tree(self, query, samples, Layers::Strata)?.finish(query.agg))
    }

    /// All leaf indices under `idx` (inclusive when `idx` is a leaf).
    pub fn leaf_descendants(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            if self.nodes[i].children.is_empty() {
                out.push(i);
            } else {
                stack.extend(self.nodes[i].children.iter().copied());
            }
        }
        out
    }

    /// Applies pre-aggregated insert/delete deltas to a leaf and propagates
    /// the moment deltas to every ancestor. Used by the multi-threaded
    /// updater, which aggregates updates per leaf in parallel first.
    pub fn apply_leaf_delta(
        &mut self,
        leaf: usize,
        inserted: Moments,
        deleted: Moments,
        inserted_values: &[f64],
        deleted_values: &[f64],
    ) {
        let mut idx = Some(leaf);
        while let Some(i) = idx {
            self.nodes[i].stats.inserted.merge_assign(&inserted);
            self.nodes[i].stats.deleted.merge_assign(&deleted);
            for &v in inserted_values {
                self.nodes[i].stats.minmax.insert(v);
            }
            for &v in deleted_values {
                self.nodes[i].stats.minmax.delete(v);
            }
            idx = self.nodes[i].parent;
        }
    }

    // ------------------------------------------------------------------
    // Partial re-partitioning (Appendix E)
    // ------------------------------------------------------------------

    /// Index of the ancestor `psi` levels above `leaf` (clamped at root).
    pub fn ancestor_at(&self, leaf: usize, psi: usize) -> usize {
        let mut idx = leaf;
        for _ in 0..psi {
            match self.nodes[idx].parent {
                Some(p) => idx = p,
                None => break,
            }
        }
        idx
    }

    /// Number of leaves under `idx`.
    pub fn leaves_under(&self, idx: usize) -> usize {
        self.leaf_descendants(idx).len()
    }

    /// Splices a freshly-partitioned subtree in place of node `at`
    /// (Appendix E partial re-partitioning). A new epoch must already be
    /// active (see [`Dpt::push_epoch`]); the new nodes join it with empty
    /// statistics while the rest of the tree keeps its estimates. Returns
    /// the sample ids orphaned from the replaced subtree — the caller
    /// re-assigns them (points are needed, which the sample owner has).
    pub fn splice_subtree(
        &mut self,
        at: usize,
        spec: &PartitionSpec,
        built: &[f64],
    ) -> Result<Vec<RowId>> {
        spec.validate()?;
        if !spec.nodes[spec.root]
            .rect
            .is_subset_of(&self.nodes[at].rect)
            || !self.nodes[at]
                .rect
                .is_subset_of(&spec.nodes[spec.root].rect)
        {
            return Err(JanusError::InvalidConfig(
                "splice root rectangle must equal the replaced node's rectangle".into(),
            ));
        }
        let epoch = self.current_epoch();
        let h_start = self.epochs[epoch].offered;

        // Collect and orphan the old subtree.
        let mut orphaned = Vec::new();
        let mut stack = vec![at];
        let mut old_children = Vec::new();
        while let Some(i) = stack.pop() {
            for id in std::mem::take(&mut self.nodes[i].samples) {
                self.sample_leaf.remove(&id);
                orphaned.push(id);
            }
            stack.extend(self.nodes[i].children.iter().copied());
            if i != at {
                self.nodes[i].live = false;
                old_children.push(i);
            }
        }

        // Reset the splice point itself.
        self.nodes[at].children.clear();
        self.nodes[at].stats = NodeStats::new(self.minmax_k, epoch, h_start);
        self.nodes[at].built_variance = built.first().copied().unwrap_or(0.0);

        // Graft the new spec below `at` (its root maps onto `at`).
        let offset = self.nodes.len();
        let map = |spec_idx: usize, offset: usize, root: usize, at: usize| -> usize {
            if spec_idx == root {
                at
            } else if spec_idx > root {
                offset + spec_idx - 1
            } else {
                offset + spec_idx
            }
        };
        let leaf_slots: HashMap<usize, usize> = spec
            .leaf_indices()
            .into_iter()
            .enumerate()
            .map(|(slot, leaf)| (leaf, slot))
            .collect();
        for (i, s) in spec.nodes.iter().enumerate() {
            if i == spec.root {
                self.nodes[at].children = s
                    .children
                    .iter()
                    .map(|&c| map(c, offset, spec.root, at))
                    .collect();
                if let Some(&slot) = leaf_slots.get(&i) {
                    self.nodes[at].built_variance = built.get(slot).copied().unwrap_or(0.0);
                }
                continue;
            }
            let idx = self.nodes.len();
            debug_assert_eq!(idx, map(i, offset, spec.root, at));
            let parent_spec = spec
                .nodes
                .iter()
                .position(|n| n.children.contains(&i))
                .expect("non-root spec node has a parent");
            self.nodes.push(DptNode {
                rect: s.rect.clone(),
                parent: Some(map(parent_spec, offset, spec.root, at)),
                children: s
                    .children
                    .iter()
                    .map(|&c| map(c, offset, spec.root, at))
                    .collect(),
                stats: NodeStats::new(self.minmax_k, epoch, h_start),
                built_variance: leaf_slots
                    .get(&i)
                    .and_then(|&slot| built.get(slot))
                    .copied()
                    .unwrap_or(0.0),
                samples: BTreeSet::new(),
                live: true,
            });
        }
        Ok(orphaned)
    }

    /// Pushes a fresh epoch (snapshot `population`) *without* resetting any
    /// node — the entry point for partial re-partitioning, where only the
    /// spliced nodes join the new epoch.
    pub fn push_epoch(&mut self, population: f64) {
        self.epochs.push(EpochInfo {
            population,
            offered: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use janus_common::{AggregateFunction, RangePredicate};

    fn template() -> QueryTemplate {
        QueryTemplate::new(AggregateFunction::Sum, 1, vec![0])
    }

    /// Tree over [-inf,2),[2,4),[4,6),[6,inf) with rows (x, a = 10x).
    fn tree_with_rows(n: usize) -> (Dpt, Vec<Row>, DetHashMap<RowId, Row>) {
        let spec = PartitionSpec::from_boundaries(&[2.0, 4.0, 6.0]).unwrap();
        let mut dpt = Dpt::build(template(), 8, &spec, &[0.0; 4], n as f64).unwrap();
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let x = i as f64 * 8.0 / n as f64;
                Row::new(i as u64, vec![x, 10.0 * x])
            })
            .collect();
        dpt.install_exact_base(rows.iter());
        (dpt, rows, DetHashMap::default())
    }

    fn query(agg: AggregateFunction, lo: f64, hi: f64) -> Query {
        Query::new(
            agg,
            1,
            vec![0],
            RangePredicate::new(vec![lo], vec![hi]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn covered_queries_are_exact_with_exact_base() {
        let (dpt, rows, samples) = tree_with_rows(64);
        // [2, 6) exactly covers two leaves; use hi just below 6 so the
        // closed predicate [2, 5.999] covers [2,4),[4,6)... it does not —
        // use a predicate ending past the leaf edge.
        let q = query(AggregateFunction::Sum, 2.0, 6.0);
        let est = dpt.answer(&q, &samples).unwrap().unwrap();
        let truth = q.evaluate_exact(&rows).unwrap();
        // The [6.0, 6.0] sliver touches leaf [6, inf) partially but that
        // leaf has no samples; tolerate the boundary row (x == 6 exactly).
        assert!(
            (est.value - truth).abs() <= 60.0 + 1e-9,
            "est {} truth {}",
            est.value,
            truth
        );
        assert_eq!(est.catchup_variance, 0.0);
    }

    #[test]
    fn classify_splits_cover_and_partial() {
        let (dpt, _, _) = tree_with_rows(16);
        let q = query(AggregateFunction::Sum, 2.0, 5.0);
        let (covered, partial) = dpt.classify(&q);
        // [2,4) covered; [4,6) partial.
        assert_eq!(covered.len(), 1);
        assert_eq!(partial.len(), 1);
        let whole = query(AggregateFunction::Sum, f64::NEG_INFINITY, f64::INFINITY);
        let (covered, partial) = dpt.classify(&whole);
        assert_eq!(covered.len(), 1, "root itself is covered");
        assert!(partial.is_empty());
    }

    #[test]
    fn partial_leaves_use_samples() {
        let (mut dpt, rows, mut samples) = tree_with_rows(64);
        // Register every row in [4,6) as a sample (perfect stratum).
        for r in &rows {
            if (4.0..6.0).contains(&r.value(0)) {
                samples.insert(r.id, r.clone());
                dpt.assign_sample(r.id, &[r.value(0)]);
            }
        }
        let q = query(AggregateFunction::Sum, 2.0, 5.0);
        let est = dpt.answer(&q, &samples).unwrap().unwrap();
        let truth = q.evaluate_exact(&rows).unwrap();
        let rel = (est.value - truth).abs() / truth;
        assert!(rel < 0.05, "est {} truth {truth}", est.value);
        assert!(est.sample_variance > 0.0);
        assert!(est.samples_used > 0);
    }

    #[test]
    fn count_and_avg_agree_with_ground_truth() {
        let (mut dpt, rows, mut samples) = tree_with_rows(200);
        for r in &rows {
            samples.insert(r.id, r.clone());
            dpt.assign_sample(r.id, &[r.value(0)]);
        }
        for (agg, tol) in [
            (AggregateFunction::Count, 0.02),
            (AggregateFunction::Avg, 0.02),
        ] {
            let q = query(agg, 1.0, 5.0);
            let est = dpt.answer(&q, &samples).unwrap().unwrap();
            let truth = q.evaluate_exact(&rows).unwrap();
            let rel = (est.value - truth).abs() / truth.abs();
            assert!(rel < tol, "{agg}: est {} truth {truth}", est.value);
        }
    }

    #[test]
    fn min_max_from_heaps_and_samples() {
        let (mut dpt, rows, mut samples) = tree_with_rows(64);
        for r in &rows {
            samples.insert(r.id, r.clone());
            dpt.assign_sample(r.id, &[r.value(0)]);
        }
        let qmin = query(AggregateFunction::Min, 2.0, 6.1);
        let est = dpt.answer(&qmin, &samples).unwrap().unwrap();
        let truth = qmin.evaluate_exact(&rows).unwrap();
        assert!(est.value <= truth + 1e-9);
        let qmax = query(AggregateFunction::Max, 2.0, 6.1);
        let est = dpt.answer(&qmax, &samples).unwrap().unwrap();
        let truth = qmax.evaluate_exact(&rows).unwrap();
        assert!((est.value - truth).abs() < 20.1, "max heap bounded by k");
    }

    #[test]
    fn inserts_and_deletes_update_covered_answers() {
        let (mut dpt, _, samples) = tree_with_rows(64);
        let q = query(AggregateFunction::Sum, 2.0, 4.0);
        let before = dpt.answer(&q, &samples).unwrap().unwrap().value;
        let extra = Row::new(1000, vec![3.0, 500.0]);
        dpt.record_insert(extra.as_ref());
        let after = dpt.answer(&q, &samples).unwrap().unwrap().value;
        assert!((after - before - 500.0).abs() < 1e-9);
        dpt.record_delete(extra.as_ref());
        let back = dpt.answer(&q, &samples).unwrap().unwrap().value;
        assert!((back - before).abs() < 1e-9);
    }

    #[test]
    fn catchup_estimates_converge() {
        let spec = PartitionSpec::from_boundaries(&[2.0, 4.0, 6.0]).unwrap();
        let rows: Vec<Row> = (0..1000)
            .map(|i| Row::new(i, vec![(i % 80) as f64 / 10.0, 1.0 + (i % 7) as f64]))
            .collect();
        let mut dpt = Dpt::build(template(), 8, &spec, &[0.0; 4], rows.len() as f64).unwrap();
        // Feed shuffled catch-up samples.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        // Deterministic shuffle.
        for i in (1..order.len()).rev() {
            order.swap(i, (i * 7919 + 13) % (i + 1));
        }
        // Cover the three rightmost leaves entirely (the last leaf is
        // unbounded, so the predicate must be too) so the answer is fully
        // statistics-based (no strata needed).
        let q = query(AggregateFunction::Sum, 2.0, f64::INFINITY);
        let truth = q.evaluate_exact(&rows).unwrap();
        let samples: DetHashMap<RowId, Row> = DetHashMap::default();
        let mut errs = Vec::new();
        for chunk in [50usize, 450, 500] {
            for _ in 0..chunk {
                let idx = order.pop().unwrap();
                dpt.apply_catchup_row(rows[idx].as_ref());
            }
            let est = dpt.answer(&q, &samples).unwrap().unwrap();
            errs.push((est.value - truth).abs() / truth);
        }
        // Error after full catch-up is tiny; early error is larger.
        assert!(errs[2] < 1e-9, "full catch-up should be exact: {errs:?}");
        assert!(errs[0] >= errs[2]);
    }

    #[test]
    fn sample_assignment_round_trip() {
        let (mut dpt, _, _) = tree_with_rows(16);
        let leaf = dpt.assign_sample(7, &[3.0]);
        assert_eq!(dpt.sample_count(), 1);
        assert_eq!(dpt.remove_sample(7), Some(leaf));
        assert_eq!(dpt.sample_count(), 0);
        assert_eq!(dpt.remove_sample(7), None);
    }

    #[test]
    fn mismatched_template_is_rejected() {
        let (dpt, _, samples) = tree_with_rows(16);
        let q = Query::new(
            AggregateFunction::Sum,
            1,
            vec![1],
            RangePredicate::new(vec![0.0], vec![1.0]).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            dpt.answer(&q, &samples),
            Err(JanusError::UnsupportedTemplate(_))
        ));
    }

    #[test]
    fn splice_subtree_replaces_and_orphans() {
        let (mut dpt, rows, mut samples) = tree_with_rows(64);
        for r in &rows {
            samples.insert(r.id, r.clone());
            dpt.assign_sample(r.id, &[r.value(0)]);
        }
        let leaves = dpt.leaf_indices();
        // Splice the leaf covering [2,4) into two halves.
        let victim = *leaves
            .iter()
            .find(|&&l| dpt.node(l).rect.contains(&[3.0]))
            .unwrap();
        let sub = PartitionSpec {
            nodes: vec![
                crate::partition::SpecNode {
                    rect: dpt.node(victim).rect.clone(),
                    children: vec![1, 2],
                },
                crate::partition::SpecNode {
                    rect: Rect::new(vec![2.0], vec![3.0]).unwrap(),
                    children: vec![],
                },
                crate::partition::SpecNode {
                    rect: Rect::new(vec![3.0], vec![4.0]).unwrap(),
                    children: vec![],
                },
            ],
            root: 0,
        };
        dpt.push_epoch(rows.len() as f64);
        let orphaned = dpt.splice_subtree(victim, &sub, &[0.0, 0.0]).unwrap();
        assert!(!orphaned.is_empty());
        // Re-assign orphans.
        for id in orphaned {
            let row = samples.get(&id).unwrap().clone();
            dpt.assign_sample(id, &[row.value(0)]);
        }
        // The tree still answers; spliced region now relies on catch-up
        // (zero so far) + deltas, so only check structural sanity.
        assert_eq!(dpt.leaf_indices().len(), 5);
        let q = query(AggregateFunction::Sum, 4.0, 6.0);
        let est = dpt.answer(&q, &samples).unwrap().unwrap();
        let truth = q.evaluate_exact(&rows).unwrap();
        assert!((est.value - truth).abs() / truth < 0.05);
    }

    #[test]
    fn leaf_of_handles_out_of_domain_points() {
        let (dpt, _, _) = tree_with_rows(16);
        let leaf_low = dpt.leaf_of(&[-1e12]);
        let leaf_high = dpt.leaf_of(&[1e12]);
        assert!(dpt.node(leaf_low).rect.contains(&[-1e12]));
        assert!(dpt.node(leaf_high).rect.contains(&[1e12]));
    }
}
