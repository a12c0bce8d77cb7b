//! The benchmark's own copy of the exact-mode client loop of
//! `grow_with_middleware`: enqueue the root, then repeatedly wait for a
//! batch and decide each fulfilled node. Driving the loop here lets the
//! benchmark time every batch, and in the traced run record a span at each
//! layer boundary, without any timer inside the program.

use crate::cpus;
use crate::stats::plan_ns;
use crate::trace::Tracer;
use scaleclass::{CcRequest, Lineage, Middleware, MiddlewareStats, MwError, MwResult, NodeId};
use scaleclass_dtree::grow::immediate_leaf;
use scaleclass_dtree::{
    decide, derive_children, Decision, DecisionTree, GrowConfig, NodeState, TreeNode,
};
use scaleclass_sqldb::StatsSnapshot;
use std::collections::HashMap;
use std::time::Instant;

/// What one full build did.
pub struct Build {
    /// The grown tree.
    pub tree: DecisionTree,
    /// Wall time of the whole loop.
    pub wall_ns: u64,
    /// Wall time of each `process_next_batch` call.
    pub batch_ns: Vec<u64>,
    /// Server work during the build.
    pub server: StatsSnapshot,
    /// Middleware counters of the build's session.
    pub mw: MiddlewareStats,
    /// Staged-file decode time during the build.
    pub decode_ns: u64,
    /// Rows of the counts tables handed back (Σ fulfilled `cc.total()`).
    pub fulfilled_rows: u64,
    /// Nodes whose counts arrived and were decided.
    pub nodes_decided: u64,
    /// Traced runs only: batch time outside counting scans, summed.
    pub plan_ns: u64,
    /// Traced runs only: the id of the build's root span.
    pub span: Option<usize>,
}

impl Build {
    /// Server plus middleware simulated cost, as the figures report it.
    pub fn sim_cost(&self) -> u64 {
        self.server.simulated_cost() + self.mw.simulated_cost()
    }

    /// Counters that must repeat exactly for the same table and
    /// configuration (every timing excluded).
    pub fn fingerprint(&self) -> [u64; 9] {
        [
            self.server.rows_scanned,
            self.sim_cost(),
            self.mw.peak_memory_bytes,
            self.tree.len() as u64,
            self.batch_ns.len() as u64,
            self.mw.memory_rows_read,
            self.mw.file_rows_read,
            self.mw.file_bytes_physical_written,
            self.fulfilled_rows,
        ]
    }
}

fn decode_ns(mw: &Middleware) -> u64 {
    mw.scan_stats().workers.iter().map(|w| w.decode_ns).sum()
}

/// Grow a full tree through `mw`. With a tracer, every batch, node
/// decision and enqueue gets a span under one `build` span, and each
/// batch's `scan_nanos` delta is taken to split planning from scanning.
pub fn build(
    mw: &mut Middleware,
    grow: &GrowConfig,
    mut tracer: Option<&mut Tracer>,
) -> MwResult<Build> {
    let server_before = mw.db_stats();
    let stats_before = *mw.stats();
    let decode_before = decode_ns(mw);
    let root_span = tracer.as_deref_mut().map(|t| t.open("build", None));
    let start = Instant::now();

    let mut tree = DecisionTree::new();
    let root = tree.push(TreeNode {
        id: 0,
        parent: None,
        edge: None,
        depth: 0,
        state: NodeState::Active,
        class_counts: Vec::new(),
        rows: mw.table_rows(),
        children: Vec::new(),
        source: None,
    });
    let root_req = mw.root_request(NodeId(root as u64));
    let mut pending: HashMap<usize, (Lineage, Vec<u16>)> = HashMap::new();
    pending.insert(root, (root_req.lineage.clone(), root_req.attrs.clone()));
    mw.enqueue(root_req)?;

    let mut batch_ns = Vec::new();
    let mut fulfilled_rows = 0u64;
    let mut nodes_decided = 0u64;
    let mut planned = 0u64;
    while mw.has_pending() {
        cpus::next();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("core.batch", root_span));
        let scan_before = mw.stats().scan_nanos;
        let t = Instant::now();
        let fulfilled = mw.process_next_batch()?;
        let ns = elapsed_ns(t);
        batch_ns.push(ns);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
            planned += plan_ns(ns, mw.stats().scan_nanos - scan_before);
        }
        for f in fulfilled {
            if f.sample.is_some() {
                return Err(MwError::Internal(
                    "sampled fulfilment with sampling pinned off".into(),
                ));
            }
            let idx = f.node.0 as usize;
            let (lineage, attrs) = pending.remove(&idx).ok_or_else(|| {
                MwError::Internal(format!("node {idx} fulfilled but never requested"))
            })?;
            fulfilled_rows += f.cc.total();
            nodes_decided += 1;
            let span = tracer
                .as_deref_mut()
                .map(|t| t.open("dtree.decide", root_span));
            let depth = tree.node(idx).depth;
            {
                let node = tree.node_mut(idx);
                node.class_counts = f.cc.class_distribution().collect();
                node.rows = f.cc.total();
                node.source = Some(f.source);
            }
            let mut requests = Vec::new();
            match decide(&f.cc, &attrs, depth, grow) {
                Decision::Leaf { class } => tree.node_mut(idx).state = NodeState::Leaf { class },
                Decision::Split(split) => {
                    let specs = derive_children(&f.cc, &split, &attrs);
                    tree.node_mut(idx).state = NodeState::Partitioned { split };
                    for spec in specs {
                        let leaf_now = immediate_leaf(&spec, depth + 1, grow);
                        let state = if leaf_now {
                            let class = spec
                                .class_counts
                                .iter()
                                .max_by_key(|&&(_, n)| n)
                                .map_or(0, |&(c, _)| c);
                            NodeState::Leaf { class }
                        } else {
                            NodeState::Active
                        };
                        let child = tree.push(TreeNode {
                            id: 0,
                            parent: Some(idx),
                            edge: Some(spec.edge),
                            depth: depth + 1,
                            state,
                            class_counts: spec.class_counts.clone(),
                            rows: spec.rows,
                            children: Vec::new(),
                            source: None,
                        });
                        if !leaf_now {
                            let child_lineage =
                                lineage.child(NodeId(child as u64), spec.edge_pred.clone());
                            pending.insert(child, (child_lineage.clone(), spec.attrs.clone()));
                            requests.push(CcRequest {
                                lineage: child_lineage,
                                attrs: spec.attrs,
                                class_col: mw.class_col(),
                                rows: spec.rows,
                                parent_rows: f.cc.total(),
                                parent_cards: spec.parent_cards,
                            });
                        }
                    }
                }
            }
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.close(id);
            }
            let span = tracer
                .as_deref_mut()
                .map(|t| t.open("core.enqueue", root_span));
            for req in requests {
                mw.enqueue(req)?;
            }
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.close(id);
            }
        }
    }
    let wall_ns = elapsed_ns(start);
    if let (Some(t), Some(id)) = (tracer, root_span) {
        t.close(id);
    }
    if !pending.is_empty() {
        return Err(MwError::Internal(format!(
            "{} requested nodes never fulfilled",
            pending.len()
        )));
    }
    Ok(Build {
        tree,
        wall_ns,
        batch_ns,
        server: mw.db_stats() - server_before,
        mw: delta(mw.stats(), &stats_before),
        decode_ns: decode_ns(mw) - decode_before,
        fulfilled_rows,
        nodes_decided,
        plan_ns: planned,
        span: root_span,
    })
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `after − before` for the additive counters the benchmark reads;
/// `peak_memory_bytes` is a high-water mark and is kept as is.
pub fn delta(after: &MiddlewareStats, before: &MiddlewareStats) -> MiddlewareStats {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    MiddlewareStats {
        rounds: d(after.rounds, before.rounds),
        server_scans: d(after.server_scans, before.server_scans),
        file_rows_read: d(after.file_rows_read, before.file_rows_read),
        file_rows_written: d(after.file_rows_written, before.file_rows_written),
        file_bytes_physical_written: d(
            after.file_bytes_physical_written,
            before.file_bytes_physical_written,
        ),
        files_created: d(after.files_created, before.files_created),
        memory_rows_read: d(after.memory_rows_read, before.memory_rows_read),
        memory_rows_staged: d(after.memory_rows_staged, before.memory_rows_staged),
        memory_sets_evicted: d(after.memory_sets_evicted, before.memory_sets_evicted),
        pressure_evictions: d(after.pressure_evictions, before.pressure_evictions),
        lease_shrink_evictions: d(after.lease_shrink_evictions, before.lease_shrink_evictions),
        sql_fallbacks: d(after.sql_fallbacks, before.sql_fallbacks),
        peak_memory_bytes: after.peak_memory_bytes,
        scan_rows: d(after.scan_rows, before.scan_rows),
        scan_nanos: d(after.scan_nanos, before.scan_nanos),
        dense_nodes: d(after.dense_nodes, before.dense_nodes),
        sparse_nodes: d(after.sparse_nodes, before.sparse_nodes),
        blocks_counted: d(after.blocks_counted, before.blocks_counted),
        block_fallback_rows: d(after.block_fallback_rows, before.block_fallback_rows),
        kernel_validate_nanos: d(after.kernel_validate_nanos, before.kernel_validate_nanos),
        kernel_accumulate_nanos: d(
            after.kernel_accumulate_nanos,
            before.kernel_accumulate_nanos,
        ),
        deltas_applied: d(after.deltas_applied, before.deltas_applied),
        nodes_resplit: d(after.nodes_resplit, before.nodes_resplit),
        epochs_invalidated: d(after.epochs_invalidated, before.epochs_invalidated),
        ..MiddlewareStats::default()
    }
}
