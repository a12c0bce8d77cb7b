//! The execution module's counting core (§4.1.1).
//!
//! Given the scheduler's batch plan, [`BatchCounter`] consumes one stream
//! of rows (whatever the source) and simultaneously:
//!
//! * updates the counts table of every scheduled node whose predicate the
//!   row satisfies,
//! * tees matching rows into per-node staging destinations (middleware
//!   file and/or memory buffers) and into the hybrid split file,
//! * enforces the middleware memory budget at runtime: when a new counts
//!   entry cannot be accommodated, that node *dynamically switches to the
//!   SQL-based implementation* — its partial table is dropped and its
//!   counts are later fetched lazily via per-attribute GROUP BY queries
//!   (handled by the middleware after the scan).

use crate::cc::{BlockOutcome, CountsTable, CC_ENTRY_BYTES};
use crate::error::MwResult;
use crate::metrics::MiddlewareStats;
use crate::request::CcRequest;
use crate::staging::FileWriter;
use scaleclass_sqldb::types::{Code, CODE_BYTES};
use scaleclass_sqldb::Pred;
use std::collections::BTreeMap;

/// Counting state for one scheduled node during a scan.
pub struct NodeCounter {
    /// The request being served.
    pub req: CcRequest,
    /// The counts accumulated so far.
    pub cc: CountsTable,
    /// Set when the §4.1.1 runtime fallback fired for this node.
    pub fallback: bool,
    /// Staging tee: middleware file.
    pub file_writer: Option<FileWriter>,
    /// Staging tee: middleware memory buffer (flat codes).
    pub mem_buffer: Option<Vec<Code>>,
}

impl NodeCounter {
    /// Fresh counting state for one request.
    pub fn new(req: CcRequest) -> Self {
        NodeCounter {
            req,
            cc: CountsTable::new(),
            fallback: false,
            file_writer: None,
            mem_buffer: None,
        }
    }
}

/// One batch's counting pass.
pub struct BatchCounter {
    /// Counting state per scheduled node.
    pub nodes: Vec<NodeCounter>,
    /// Hybrid split output: rows matching *any* scheduled node.
    pub split_writer: Option<FileWriter>,
    /// Previously staged memory sets that may be evicted under counting
    /// pressure (`(id, bytes)`, consumed in order). Counting memory always
    /// outranks cached data: an evicted set costs one extra scan later, a
    /// fallback costs one SQL query per attribute now.
    pub evictable: Vec<(u64, u64)>,
    /// Memory-set ids sacrificed during this scan (the middleware deletes
    /// them when the batch completes).
    pub evicted: Vec<u64>,
    /// Total middleware memory budget in bytes.
    pub(crate) budget: u64,
    /// Memory already pinned by previously staged data sets.
    pub(crate) base_mem_bytes: u64,
    /// Live counts-table bytes across all nodes in this batch.
    pub(crate) cc_bytes: u64,
    /// Bytes accumulated in memory-staging buffers this batch.
    pub(crate) buffer_bytes: u64,
    pub(crate) arity: usize,
    /// Candidate prefilter shared with the parallel workers.
    dispatch: Dispatch,
    /// Reusable per-row scratch for dispatch candidates — hoisted out of
    /// `process_row` so the hot loop never allocates.
    scratch: Vec<usize>,
    /// Count whole blocks through `CountsTable::add_block` when possible
    /// (`MiddlewareConfig::batch_kernel`); off pins the row path.
    pub(crate) batch_kernel: bool,
    /// Reusable partition/gather scratch for the batched kernel.
    block: BlockScratch,
}

/// Candidate prefilter over a batch's predicates: nodes whose path
/// predicate contains an `Eq` conjunct are bucketed by their *deepest*
/// such atom `(col, value)` — a necessary condition for the full
/// predicate, and (being the node's own or nearest Eq edge) the most
/// selective one. A row only fully evaluates the nodes in its matching
/// buckets plus the few nodes with no Eq conjunct at all. This turns the
/// per-row cost from O(batch size) to O(matching nodes), which is what
/// makes full-scale (multi-MB) scans tractable.
///
/// The buckets are dense: one table per dispatch column, indexed directly
/// by code, so a row's lookup is one bounds check and one load per
/// dispatch column instead of a hash of `(col, value)`. Candidates come
/// out in a fixed order — unkeyed nodes first, then each dispatch column
/// in ascending order, each bucket in node order — which the row path
/// relies on: evictions and §4.1.1 fallbacks fire in candidate order.
/// Built once per scan and read-only afterwards, so the serial counter
/// and every parallel worker can share the same structure.
pub struct Dispatch {
    /// One bucket table per dispatch column, ascending by column:
    /// `table[code]` lists the nodes keyed on `(col, code)`. A code past
    /// the table's end keys no node.
    tables: Vec<(usize, Vec<Vec<usize>>)>,
    /// Nodes with no Eq conjunct (root, pure-NotEq paths): always checked.
    unkeyed: Vec<usize>,
    /// Number of node predicates the prefilter was built over.
    nodes: usize,
}

impl Dispatch {
    /// Build the prefilter for an ordered list of node predicates.
    pub fn new<'a>(preds: impl Iterator<Item = &'a Pred>) -> Self {
        let mut by_col: BTreeMap<usize, Vec<Vec<usize>>> = BTreeMap::new();
        let mut unkeyed = Vec::new();
        let mut nodes = 0;
        for (i, pred) in preds.enumerate() {
            nodes = i + 1;
            let Some((col, value)) = deepest_eq_atom(pred) else {
                unkeyed.push(i);
                continue;
            };
            let table = by_col.entry(col).or_default();
            let slot = usize::from(value);
            if table.len() <= slot {
                table.resize_with(slot + 1, Vec::new);
            }
            // analyze:allow(hot-path-panic): the table was just grown past `slot`.
            table[slot].push(i);
        }
        Dispatch {
            tables: by_col.into_iter().collect(),
            unkeyed,
            nodes,
        }
    }

    /// Number of node predicates this prefilter dispatches over.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// Collect into `out` the node indices whose predicate might match
    /// `row` (a superset of the true matches), in the documented order.
    pub fn candidates(&self, row: &[Code], out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.unkeyed);
        for (col, table) in &self.tables {
            // A dispatch column beyond this row's arity cannot match any
            // predicate, so an out-of-range lookup just yields no candidates.
            let Some(&value) = row.get(*col) else {
                continue;
            };
            if let Some(idxs) = table.get(usize::from(value)) {
                out.extend_from_slice(idxs);
            }
        }
    }
}

/// The deepest `Eq` conjunct of a path predicate, if any.
fn deepest_eq_atom(pred: &Pred) -> Option<(usize, Code)> {
    match pred {
        Pred::Eq { col, value } => Some((*col, *value)),
        Pred::And(children) => children.iter().rev().find_map(deepest_eq_atom),
        _ => None,
    }
}

/// A block of scanned rows in whichever layout its source produced.
#[derive(Clone, Copy)]
pub(crate) enum Block<'a> {
    /// Row-major: `arity` codes per row (memory-staged and server scans,
    /// the parallel channel workers).
    Rows { flat: &'a [Code], arity: usize },
    /// Column-major: one equal-length vector per source column (sharded
    /// extent readers decode straight to columns).
    Cols(&'a [Vec<Code>]),
}

impl Block<'_> {
    /// Rows in the block.
    pub(crate) fn nrows(&self) -> usize {
        match self {
            Block::Rows { flat, arity } => flat.len() / arity,
            Block::Cols(cols) => cols.first().map_or(0, Vec::len),
        }
    }
}

/// Reusable scratch for partition-first block counting, shared by the
/// serial counter and every parallel shard. A block is counted in three
/// steps: [`BlockScratch::partition`] routes each row through the
/// [`Dispatch`] once and files it under every node whose predicate it
/// satisfies; the caller gates the block on the selection-sized growth
/// bound; then [`BlockScratch::count_into`] gathers each hit node's
/// attribute and class codes at its selection and hands them to
/// `CountsTable::add_block`.
#[derive(Default)]
pub(crate) struct BlockScratch {
    /// Per-node selection vectors: the block rows each node matched.
    sels: Vec<Vec<u32>>,
    /// Nodes with a non-empty selection in the last partitioned block,
    /// ascending. Callers `mem::take` it around their counting loop.
    pub(crate) hit: Vec<usize>,
    /// Per-row dispatch candidates.
    candidates: Vec<usize>,
    /// One row of a column-major block, reassembled for dispatch.
    row: Vec<Code>,
    /// Gathered columns handed to `add_block`, indexed by source column.
    gather: Vec<Vec<Code>>,
}

impl BlockScratch {
    /// Partition `block` into per-node selections. Each row is routed
    /// through `dispatch` once, and the full predicate is evaluated only
    /// on its candidates; `pred(idx)` returns `None` for nodes that no
    /// longer count (fallen back), which are skipped.
    pub(crate) fn partition<'p>(
        &mut self,
        block: Block<'_>,
        dispatch: &Dispatch,
        pred: impl Fn(usize) -> Option<&'p Pred>,
    ) {
        for &idx in &self.hit {
            // analyze:allow(hot-path-panic): `hit` only holds indices of `sels`.
            self.sels[idx].clear();
        }
        self.hit.clear();
        self.sels.resize_with(dispatch.nodes(), Vec::new);
        let mut row = std::mem::take(&mut self.row);
        match block {
            Block::Rows { flat, arity } => {
                for (r, codes) in flat.chunks_exact(arity).enumerate() {
                    self.route(r, codes, dispatch, &pred);
                }
            }
            Block::Cols(cols) => {
                for r in 0..block.nrows() {
                    row.clear();
                    // analyze:allow(hot-path-panic): every column of a
                    // decoded block holds exactly `nrows` codes.
                    row.extend(cols.iter().map(|c| c[r]));
                    self.route(r, &row, dispatch, &pred);
                }
            }
        }
        self.row = row;
        self.hit.sort_unstable();
    }

    /// File row `r` under every candidate node whose predicate it satisfies.
    #[inline]
    fn route<'p>(
        &mut self,
        r: usize,
        row: &[Code],
        dispatch: &Dispatch,
        pred: &impl Fn(usize) -> Option<&'p Pred>,
    ) {
        dispatch.candidates(row, &mut self.candidates);
        for &idx in &self.candidates {
            let Some(p) = pred(idx) else { continue };
            if !p.eval(row) {
                continue;
            }
            // analyze:allow(hot-path-panic): Dispatch mints candidate
            // indices below `nodes()`, the length `sels` was resized to.
            let sel = &mut self.sels[idx];
            if sel.is_empty() {
                self.hit.push(idx);
            }
            sel.push(r as u32);
        }
    }

    /// Rows node `idx` matched in the last partitioned block.
    pub(crate) fn selected(&self, idx: usize) -> u64 {
        self.sels.get(idx).map_or(0, |s| s.len() as u64)
    }

    /// Count node `idx`'s selected rows of `block` into `cc`: gather only
    /// the tracked attribute and class columns at the node's selection,
    /// then run the batched kernel. Returns the kernel's outcome and the
    /// modelled bytes the table grew by.
    pub(crate) fn count_into(
        &mut self,
        block: Block<'_>,
        idx: usize,
        cc: &mut CountsTable,
        attrs: &[u16],
        class_col: u16,
    ) -> (BlockOutcome, u64) {
        let Some(sel) = self.sels.get(idx) else {
            return (BlockOutcome::default(), 0);
        };
        let refs: Vec<&[Code]> = match block {
            // Every row selected: the columns already are the gather.
            Block::Cols(cols) if sel.len() == block.nrows() => {
                cols.iter().map(Vec::as_slice).collect()
            }
            _ => {
                let arity = match block {
                    Block::Rows { arity, .. } => arity,
                    Block::Cols(cols) => cols.len(),
                };
                self.gather.resize_with(arity, Vec::new);
                for &c in attrs.iter().chain(std::iter::once(&class_col)) {
                    let c = usize::from(c);
                    // analyze:allow(hot-path-panic): attrs and class index
                    // the scanned schema's columns, and `gather` was resized
                    // to that arity above.
                    let dst = &mut self.gather[c];
                    dst.clear();
                    match block {
                        Block::Rows { flat, arity } => {
                            // analyze:allow(hot-path-panic): selected rows
                            // were minted over this block, so every offset
                            // is inside it.
                            dst.extend(sel.iter().map(|&r| flat[r as usize * arity + c]));
                        }
                        Block::Cols(cols) => {
                            // analyze:allow(hot-path-panic): same schema
                            // bound; selected rows are below `nrows`.
                            let src = &cols[c];
                            // analyze:allow(hot-path-panic): selected rows
                            // were minted over this block.
                            dst.extend(sel.iter().map(|&r| src[r as usize]));
                        }
                    }
                }
                self.gather.iter().map(Vec::as_slice).collect()
            }
        };
        let before = cc.entries();
        let outcome = cc.add_block(&refs, class_col, attrs);
        let grew = (cc.entries() - before) as u64 * CC_ENTRY_BYTES;
        (outcome, grew)
    }
}

impl BatchCounter {
    /// A counting pass over `nodes` against the given budget; `base_mem_bytes`
    /// is memory already pinned by staged data.
    pub fn new(nodes: Vec<NodeCounter>, budget: u64, base_mem_bytes: u64, arity: usize) -> Self {
        let dispatch = Dispatch::new(nodes.iter().map(|n| n.req.pred()));
        BatchCounter {
            nodes,
            split_writer: None,
            evictable: Vec::new(),
            evicted: Vec::new(),
            budget,
            base_mem_bytes,
            cc_bytes: 0,
            buffer_bytes: 0,
            arity,
            dispatch,
            scratch: Vec::with_capacity(8),
            batch_kernel: true,
            block: BlockScratch::default(),
        }
    }

    /// Current modelled middleware memory use.
    pub fn memory_in_use(&self) -> u64 {
        self.base_mem_bytes + self.cc_bytes + self.buffer_bytes
    }

    /// Shadow accounting (DESIGN.md §9): recompute this batch's CC and
    /// staging-buffer bytes from first principles and assert they equal
    /// the incrementally maintained counters the budget machinery ran on.
    /// The asserts are unconditional — call sites gate on
    /// `cfg(debug_assertions)` so release scans pay nothing, while a
    /// release caller that opts in still gets a real check.
    pub fn assert_shadow_accounting(&self) {
        let shadow_cc: u64 = self.nodes.iter().map(|n| n.cc.shadow_memory_bytes()).sum();
        assert_eq!(
            shadow_cc, self.cc_bytes,
            "incremental cc_bytes drifted from a first-principles recount \
             of the batch's counts tables"
        );
        let shadow_buf: u64 = self
            .nodes
            .iter()
            .filter_map(|n| n.mem_buffer.as_ref())
            .map(|b| (b.len() * CODE_BYTES) as u64)
            .sum();
        assert_eq!(
            shadow_buf, self.buffer_bytes,
            "incremental buffer_bytes drifted from the bytes actually held \
             in memory-staging tees"
        );
    }

    /// Feed one row through every scheduled node.
    pub fn process_row(&mut self, row: &[Code], stats: &mut MiddlewareStats) -> MwResult<()> {
        debug_assert_eq!(row.len(), self.arity);
        let row_bytes = (self.arity * CODE_BYTES) as u64;
        let budget = self.budget;
        let mut base = self.base_mem_bytes;
        let mut cc_bytes = self.cc_bytes;
        let mut buffer_bytes = self.buffer_bytes;
        let mut any_matched = false;

        // Candidate nodes: the buckets keyed by this row's values on the
        // dispatch columns, plus the nodes with no Eq conjunct.
        let mut candidates = std::mem::take(&mut self.scratch);
        self.dispatch.candidates(row, &mut candidates);

        for &idx in &candidates {
            // analyze:allow(hot-path-panic): Dispatch mints candidate indices
            // from these same `nodes`, so they are structurally in-bounds.
            let node = &mut self.nodes[idx];
            if !node.req.pred().eval(row) {
                continue;
            }
            any_matched = true;

            // Counting (unless this node already fell back to SQL).
            if !node.fallback {
                let before = node.cc.entries();
                node.cc.add_row(row, &node.req.attrs, node.req.class_col);
                let grew = (node.cc.entries() - before) as u64 * CC_ENTRY_BYTES;
                cc_bytes += grew;
                if grew > 0 && base + cc_bytes + buffer_bytes > budget {
                    // Counting pressure: sacrifice cached data sets first —
                    // an evicted set costs one extra scan later, a fallback
                    // costs a SQL query per attribute now.
                    while base + cc_bytes + buffer_bytes > budget {
                        let Some((id, bytes)) = self.evictable.pop() else {
                            break;
                        };
                        base = base.saturating_sub(bytes);
                        self.evicted.push(id);
                        stats.pressure_evictions += 1;
                    }
                }
                if grew > 0 && base + cc_bytes + buffer_bytes > budget {
                    // §4.1.1: no new entries can be accommodated — switch
                    // this node to the SQL-based implementation.
                    cc_bytes -= node.cc.memory_bytes();
                    node.cc = CountsTable::new();
                    node.fallback = true;
                    stats.sql_fallbacks += 1;
                }
            }

            // Staging tees.
            if let Some(w) = node.file_writer.as_mut() {
                w.push(row)?;
            }
            if let Some(buf) = node.mem_buffer.as_mut() {
                buf.extend_from_slice(row);
                buffer_bytes += row_bytes;
                if base + cc_bytes + buffer_bytes > budget {
                    // Staging is best-effort: cancel this node's memory
                    // staging rather than evicting counts.
                    buffer_bytes -= node
                        .mem_buffer
                        .take()
                        .map_or(0, |b| (b.len() * CODE_BYTES) as u64);
                }
            }
        }
        self.scratch = candidates;
        self.cc_bytes = cc_bytes;
        self.buffer_bytes = buffer_bytes;
        self.base_mem_bytes = base;

        if any_matched {
            if let Some(w) = self.split_writer.as_mut() {
                w.push(row)?;
            }
        }
        stats.observe_memory(self.memory_in_use());
        Ok(())
    }

    /// Any staging tee active? Tees are row-ordered side effects, so a
    /// batch with tees keeps the exact per-row path.
    fn has_tees(&self) -> bool {
        self.split_writer.is_some()
            || self
                .nodes
                .iter()
                .any(|n| n.file_writer.is_some() || n.mem_buffer.is_some())
    }

    /// Feed a row-major block of rows through every scheduled node,
    /// counting it through the batched kernel when it can engage: the
    /// block is partitioned into per-node selections first, then gated on
    /// their growth bound, then gathered and counted. Falls back to
    /// [`BatchCounter::process_row`] per row — with identical results —
    /// when the kernel is disabled, a staging tee is active, or the
    /// selections' growth bound cannot clear the budget.
    pub fn process_block(&mut self, flat: &[Code], stats: &mut MiddlewareStats) -> MwResult<()> {
        let arity = self.arity;
        debug_assert_eq!(flat.len() % arity, 0);
        let nrows = flat.len() / arity;
        if nrows == 0 {
            return Ok(());
        }
        if !self.batch_kernel {
            for row in flat.chunks_exact(arity) {
                self.process_row(row, stats)?;
            }
            return Ok(());
        }
        let block = Block::Rows { flat, arity };
        let fits = !self.has_tees() && {
            let nodes = &self.nodes;
            self.block.partition(block, &self.dispatch, |idx| {
                nodes.get(idx).filter(|n| !n.fallback).map(|n| n.req.pred())
            });
            self.memory_in_use()
                .saturating_add(self.selection_growth_bound())
                <= self.budget
        };
        if !fits {
            stats.block_fallback_rows += nrows as u64;
            for row in flat.chunks_exact(arity) {
                self.process_row(row, stats)?;
            }
            return Ok(());
        }
        self.count_block(block, stats);
        stats.observe_memory(self.memory_in_use());
        Ok(())
    }

    /// Worst-case modelled growth from counting the partitioned block:
    /// `Σ block_growth_bound(|selᵢ|, attrsᵢ)` over the nodes that matched a
    /// row. A table only grows from rows it counts, by at most one entry
    /// per tracked attribute per row, so when current use plus this bound
    /// clears the budget no eviction or §4.1.1 fallback can fire anywhere
    /// inside the block — in either the block or the row path — and block
    /// counting is bit-identical by construction.
    fn selection_growth_bound(&self) -> u64 {
        self.block
            .hit
            .iter()
            .filter_map(|&idx| {
                let n = self.nodes.get(idx)?;
                Some(n.cc.block_growth_bound(self.block.selected(idx), n.req.attrs.len()))
            })
            .fold(0u64, u64::saturating_add)
    }

    /// Count the partitioned block into every node that matched a row.
    /// Caller has already cleared the selection-sized budget gate.
    fn count_block(&mut self, block: Block<'_>, stats: &mut MiddlewareStats) {
        let hit = std::mem::take(&mut self.block.hit);
        for &idx in &hit {
            let Some(node) = self.nodes.get_mut(idx) else {
                continue;
            };
            let (outcome, grew) = self.block.count_into(
                block,
                idx,
                &mut node.cc,
                &node.req.attrs,
                node.req.class_col,
            );
            self.cc_bytes += grew;
            if outcome.fallback_rows == 0 {
                stats.blocks_counted += 1;
            } else {
                stats.block_fallback_rows += outcome.fallback_rows;
            }
            stats.kernel_validate_nanos += outcome.validate_nanos;
            stats.kernel_accumulate_nanos += outcome.accumulate_nanos;
        }
        self.block.hit = hit;
        debug_assert!(
            self.memory_in_use() <= self.budget,
            "block kernel engaged without clearing its growth bound"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Lineage, NodeId};
    use scaleclass_sqldb::Pred;

    const ARITY: usize = 3; // attrs 0,1 + class 2

    fn request(node: u64, pred: Pred) -> CcRequest {
        CcRequest {
            lineage: Lineage::root(NodeId(0)).child(NodeId(node), pred),
            attrs: vec![0, 1],
            class_col: 2,
            rows: 100,
            parent_rows: 200,
            parent_cards: vec![4, 4],
        }
    }

    fn root_request() -> CcRequest {
        CcRequest {
            lineage: Lineage::root(NodeId(0)),
            attrs: vec![0, 1],
            class_col: 2,
            rows: 100,
            parent_rows: 100,
            parent_cards: vec![4, 4],
        }
    }

    #[test]
    fn counts_multiple_nodes_in_one_pass() {
        let a = NodeCounter::new(request(1, Pred::Eq { col: 0, value: 0 }));
        let b = NodeCounter::new(request(2, Pred::Eq { col: 0, value: 1 }));
        let mut batch = BatchCounter::new(vec![a, b], u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        let rows: &[[Code; 3]] = &[[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0], [2, 0, 1]];
        for r in rows {
            batch.process_row(r, &mut stats).unwrap();
        }
        assert_eq!(batch.nodes[0].cc.total(), 2, "node a=0 saw two rows");
        assert_eq!(batch.nodes[1].cc.total(), 2, "node a=1 saw two rows");
        assert_eq!(batch.nodes[0].cc.count(1, 1, 1), 1);
        assert!(!batch.nodes[0].fallback && !batch.nodes[1].fallback);
        assert_eq!(stats.sql_fallbacks, 0);
    }

    #[test]
    fn overlapping_predicates_count_into_both() {
        let a = NodeCounter::new(root_request());
        let b = NodeCounter::new(request(2, Pred::NotEq { col: 0, value: 9 }));
        let mut batch = BatchCounter::new(vec![a, b], u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[1, 1, 0], &mut stats).unwrap();
        assert_eq!(batch.nodes[0].cc.total(), 1);
        assert_eq!(batch.nodes[1].cc.total(), 1);
    }

    #[test]
    fn budget_overflow_triggers_sql_fallback_for_offending_node() {
        // Budget: room for ~2 entries; each distinct (attr,value,class)
        // costs CC_ENTRY_BYTES and every row creates 2 entries at first.
        let budget = 3 * CC_ENTRY_BYTES;
        let node = NodeCounter::new(root_request());
        let mut batch = BatchCounter::new(vec![node], budget, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap(); // 2 entries
        assert!(!batch.nodes[0].fallback);
        batch.process_row(&[1, 1, 1], &mut stats).unwrap(); // 4 entries → over
        assert!(batch.nodes[0].fallback);
        assert_eq!(stats.sql_fallbacks, 1);
        assert_eq!(batch.nodes[0].cc.entries(), 0, "partial table dropped");
        assert_eq!(batch.memory_in_use(), 0, "bytes released");

        // Later rows are ignored for counting (SQL will provide them).
        batch.process_row(&[2, 0, 0], &mut stats).unwrap();
        assert_eq!(batch.nodes[0].cc.entries(), 0);
        assert_eq!(stats.sql_fallbacks, 1, "fallback fires once");
    }

    #[test]
    fn other_nodes_keep_counting_after_one_falls_back() {
        // Room for six entries: the wide node alone needs six and the
        // narrow one two, so exactly one of them hits the ceiling —
        // which one depends on evaluation order (an implementation detail
        // of the dispatch prefilter); the other keeps exact counts.
        let budget = 6 * CC_ENTRY_BYTES;
        let narrow = NodeCounter::new(request(2, Pred::Eq { col: 0, value: 0 }));
        let wide = NodeCounter::new(root_request()); // sees everything
        let mut batch = BatchCounter::new(vec![narrow, wide], budget, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        for r in [[0u16, 0, 0], [1, 1, 1], [0, 0, 0], [2, 1, 0]] {
            batch.process_row(&r, &mut stats).unwrap();
        }
        assert_eq!(stats.sql_fallbacks, 1, "exactly one node overflows");
        let survivor_total: u64 = batch
            .nodes
            .iter()
            .filter(|n| !n.fallback)
            .map(|n| n.cc.total())
            .sum();
        // survivor counted all of its matching rows (narrow: 2; wide: 4)
        let narrow_survived = !batch.nodes[0].fallback;
        assert_eq!(survivor_total, if narrow_survived { 2 } else { 4 });
    }

    #[test]
    fn dispatch_prefilter_covers_all_predicate_shapes() {
        // One node per shape: root (True), pure NotEq path, Eq path, deep
        // And path ending in NotEq — all must count exactly right.
        let mk = |pred: Pred| NodeCounter::new(request(9, pred));
        let nodes = vec![
            NodeCounter::new(root_request()),
            mk(Pred::NotEq { col: 0, value: 0 }),
            mk(Pred::Eq { col: 0, value: 1 }),
            mk(Pred::and(vec![
                Pred::Eq { col: 0, value: 1 },
                Pred::NotEq { col: 1, value: 0 },
            ])),
        ];
        let mut batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        let rows: &[[Code; 3]] = &[[0, 0, 0], [1, 0, 1], [1, 1, 0], [2, 1, 1]];
        for r in rows {
            batch.process_row(r, &mut stats).unwrap();
        }
        assert_eq!(batch.nodes[0].cc.total(), 4, "root sees everything");
        assert_eq!(batch.nodes[1].cc.total(), 3, "a<>0");
        assert_eq!(batch.nodes[2].cc.total(), 2, "a=1");
        assert_eq!(batch.nodes[3].cc.total(), 1, "a=1 AND b<>0");
    }

    #[test]
    fn memory_staging_buffer_cancelled_on_overflow() {
        // Budget allows the CC entries (a repeated row creates exactly two:
        // one per attribute) plus two buffered rows, not three.
        let budget = 2 * CC_ENTRY_BYTES + 2 * (ARITY * CODE_BYTES) as u64;
        let mut node = NodeCounter::new(root_request());
        node.mem_buffer = Some(Vec::new());
        let mut batch = BatchCounter::new(vec![node], budget, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        assert!(batch.nodes[0].mem_buffer.is_some());
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        assert!(
            batch.nodes[0].mem_buffer.is_none(),
            "buffer dropped, counting unaffected"
        );
        assert!(!batch.nodes[0].fallback);
        assert_eq!(batch.nodes[0].cc.total(), 3);
    }

    #[test]
    fn base_memory_counts_against_budget() {
        let budget = 10 * CC_ENTRY_BYTES;
        let node = NodeCounter::new(root_request());
        // Previously staged data pins most of the budget.
        let mut batch = BatchCounter::new(vec![node], budget, 9 * CC_ENTRY_BYTES, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        assert!(batch.nodes[0].fallback, "2 new entries exceed the slack");
    }

    #[test]
    fn peak_memory_is_observed() {
        let node = NodeCounter::new(root_request());
        let mut batch = BatchCounter::new(vec![node], u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_row(&[0, 0, 0], &mut stats).unwrap();
        assert_eq!(stats.peak_memory_bytes, 2 * CC_ENTRY_BYTES);
    }

    const BLOCK_ROWS: &[[Code; 3]] = &[
        [0, 0, 0],
        [1, 0, 1],
        [1, 1, 0],
        [2, 1, 1],
        [0, 2, 0],
        [1, 0, 0],
    ];

    fn block_nodes() -> Vec<NodeCounter> {
        vec![
            NodeCounter::new(root_request()),
            NodeCounter::new(request(1, Pred::Eq { col: 0, value: 1 })),
            NodeCounter::new(request(2, Pred::NotEq { col: 1, value: 0 })),
        ]
    }

    #[test]
    fn process_block_matches_process_row() {
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let mut rowwise = BatchCounter::new(block_nodes(), u64::MAX, 0, ARITY);
        let mut s1 = MiddlewareStats::new();
        for r in BLOCK_ROWS {
            rowwise.process_row(r, &mut s1).unwrap();
        }
        let mut blocked = BatchCounter::new(block_nodes(), u64::MAX, 0, ARITY);
        let mut s2 = MiddlewareStats::new();
        blocked.process_block(&flat, &mut s2).unwrap();
        assert!(s2.blocks_counted > 0, "kernel engaged");
        assert_eq!(s2.block_fallback_rows, 0);
        for (a, b) in rowwise.nodes.iter().zip(&blocked.nodes) {
            assert_eq!(a.cc, b.cc);
            assert_eq!(a.cc.total(), b.cc.total());
        }
        assert_eq!(rowwise.memory_in_use(), blocked.memory_in_use());
        blocked.assert_shadow_accounting();
        // Kernel off: same counts, no block counters touched.
        let mut off = BatchCounter::new(block_nodes(), u64::MAX, 0, ARITY);
        off.batch_kernel = false;
        let mut s3 = MiddlewareStats::new();
        off.process_block(&flat, &mut s3).unwrap();
        assert_eq!(s3.blocks_counted, 0);
        for (a, b) in rowwise.nodes.iter().zip(&off.nodes) {
            assert_eq!(a.cc, b.cc);
        }
    }

    #[test]
    fn process_block_with_tees_keeps_the_row_path() {
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let mut nodes = block_nodes();
        nodes[1].mem_buffer = Some(Vec::new());
        let mut batch = BatchCounter::new(nodes, u64::MAX, 0, ARITY);
        let mut stats = MiddlewareStats::new();
        batch.process_block(&flat, &mut stats).unwrap();
        assert_eq!(stats.blocks_counted, 0, "tee forces the row path");
        assert_eq!(stats.block_fallback_rows, BLOCK_ROWS.len() as u64);
        // Tee contents match a pure row-path run.
        let buf = batch.nodes[1].mem_buffer.as_ref().unwrap();
        assert_eq!(buf.len(), 3 * ARITY, "three a=1 rows teed in order");
        assert_eq!(&buf[0..3], &[1, 0, 1]);
        batch.assert_shadow_accounting();
    }

    #[test]
    fn wide_batch_clears_the_selection_bound_and_matches_process_row() {
        // 40 disjoint `a = v` nodes over 25 attributes: every row matches
        // exactly one node, so the selections sum to the block's rows.
        const NODES: u16 = 40;
        const ATTRS: u16 = 25;
        const ROWS: usize = 400;
        let arity = usize::from(ATTRS) + 1;
        let nodes = || -> Vec<NodeCounter> {
            (0..NODES)
                .map(|v| {
                    NodeCounter::new(CcRequest {
                        lineage: Lineage::root(NodeId(0))
                            .child(NodeId(1 + u64::from(v)), Pred::Eq { col: 0, value: v }),
                        attrs: (0..ATTRS).collect(),
                        class_col: ATTRS,
                        rows: 10,
                        parent_rows: ROWS as u64,
                        parent_cards: vec![4; usize::from(ATTRS)],
                    })
                })
                .collect()
        };
        let flat: Vec<Code> = (0..ROWS)
            .flat_map(|r| {
                let key = (r % usize::from(NODES)) as Code;
                let attrs = (1..ATTRS).map(move |a| ((r / 7 + usize::from(a)) % 4) as Code);
                std::iter::once(key)
                    .chain(attrs)
                    .chain(std::iter::once((r % 2) as Code))
            })
            .collect();
        // Twice the selection bound: the all-rows bound of the old gate is
        // 40× the selection bound, so it cannot clear this budget.
        let per_row = u64::from(ATTRS) * CC_ENTRY_BYTES;
        let budget = 2 * ROWS as u64 * per_row;
        assert!(u64::from(NODES) * ROWS as u64 * per_row > budget);

        let mut rowwise = BatchCounter::new(nodes(), budget, 0, arity);
        let mut s1 = MiddlewareStats::new();
        for row in flat.chunks_exact(arity) {
            rowwise.process_row(row, &mut s1).unwrap();
        }
        let mut blocked = BatchCounter::new(nodes(), budget, 0, arity);
        let mut s2 = MiddlewareStats::new();
        blocked.process_block(&flat, &mut s2).unwrap();
        assert!(s2.blocks_counted > 0, "kernel engaged");
        assert_eq!(s2.block_fallback_rows, 0);
        assert_eq!(s1.sql_fallbacks, 0);
        assert_eq!(s2.sql_fallbacks, 0);
        for (a, b) in rowwise.nodes.iter().zip(&blocked.nodes) {
            assert_eq!(a.cc, b.cc);
            assert_eq!(a.cc.total(), b.cc.total());
            assert!(!b.fallback);
        }
        assert_eq!(rowwise.memory_in_use(), blocked.memory_in_use());
        assert_eq!(s1.peak_memory_bytes, s2.peak_memory_bytes);
        blocked.assert_shadow_accounting();
    }

    #[test]
    fn process_block_tight_budget_falls_back_and_matches() {
        // Budget small enough that the growth bound cannot clear it, so
        // the whole block must reroute through the exact per-row path —
        // including its §4.1.1 fallback decisions.
        let flat: Vec<Code> = BLOCK_ROWS.iter().flatten().copied().collect();
        let budget = 5 * CC_ENTRY_BYTES;
        let mut rowwise = BatchCounter::new(block_nodes(), budget, 0, ARITY);
        let mut s1 = MiddlewareStats::new();
        for r in BLOCK_ROWS {
            rowwise.process_row(r, &mut s1).unwrap();
        }
        let mut blocked = BatchCounter::new(block_nodes(), budget, 0, ARITY);
        let mut s2 = MiddlewareStats::new();
        blocked.process_block(&flat, &mut s2).unwrap();
        assert_eq!(s2.blocks_counted, 0);
        assert_eq!(s2.block_fallback_rows, BLOCK_ROWS.len() as u64);
        assert_eq!(s1.sql_fallbacks, s2.sql_fallbacks);
        for (a, b) in rowwise.nodes.iter().zip(&blocked.nodes) {
            assert_eq!(a.cc, b.cc);
            assert_eq!(a.fallback, b.fallback);
        }
        assert_eq!(rowwise.memory_in_use(), blocked.memory_in_use());
    }
}
