//! The churn-mixed workload: rounds of inserts, full-row deletes and
//! class-flip updates, each followed by one `maintain` call.
//!
//! A run is made of passes. Each pass sets up from scratch (generate, load,
//! open a session with deltas on, `grow_maintainable`), then runs
//! [`ROUNDS_PER_PASS`] rounds of one seeded mutation stream, so every pass
//! repeats the same work and its deterministic counters must repeat
//! exactly. Every [`CHECKPOINT_ROUNDS`] rounds the table is read back and
//! rebuilt from scratch; the maintained tree must be split-identical to
//! the rebuild.

use crate::build::{self, set_tail, table_json, Tally, TABLE};
use crate::client::{self, elapsed_ns, Build};
use crate::cpus;
use crate::metrics::Metrics;
use crate::report::{config_json, Report};
use crate::stats::{median, median_u64, ratio};
use crate::trace::Tracer;
use crate::workloads::{self, Spec, SplitMix, Table};
use scaleclass::{Middleware, MwResult};
use scaleclass_dtree::{
    grow_maintainable, maintain, trees_same_splits, DecisionTree, GrowConfig, MaintainOutcome,
    NodeState, Split,
};
use scaleclass_sqldb::{Code, Pred};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// Rounds in one pass.
pub const ROUNDS_PER_PASS: usize = 110;
/// Rounds of the unmeasured warm-up pass.
const WARMUP_ROUNDS: usize = ROUNDS_PER_PASS;
/// Rounds between from-scratch rebuild checks.
pub const CHECKPOINT_ROUNDS: usize = 22;
/// Passes per untraced run, at least (two, so determinism is checked).
pub const MIN_PASSES: usize = 2;
/// Mutation rounds of the write-path probe on the build workloads.
pub const PROBE_ROUNDS: usize = 3;
/// Full-row deletes per round.
const DELETES: usize = 20;
/// Class-flip updates per round (each logs a delete and an insert).
const UPDATES: usize = 12;
/// Rows whose class stays flipped at once; further updates restore the
/// oldest.
const MAX_FLIPPED: usize = 32;

/// Per-type mutation latencies, ns.
#[derive(Default)]
pub struct OpTimes {
    insert: Vec<u64>,
    delete: Vec<u64>,
    update: Vec<u64>,
}

impl OpTimes {
    /// Record the three `sqldb.*_us_p50` metrics.
    pub fn report(&self, metrics: &mut Metrics) {
        for (name, v) in [
            ("sqldb.insert_us_p50", &self.insert),
            ("sqldb.delete_us_p50", &self.delete),
            ("sqldb.update_us_p50", &self.update),
        ] {
            metrics.set(name, median_u64(v).unwrap_or(0.0) / 1e3, v.len());
        }
    }
}

#[derive(Clone, Copy)]
enum Op {
    Insert,
    Delete,
    Update,
}

/// A mutation stream over a table's rows. It keeps its own pool of rows
/// believed present, so picks need no server reads. The pool holds the
/// generator's rows and labels and the stream's seed is fixed, so every
/// benchmark seed replays the same operations up to its class relabelling.
///
/// Inserts copy a pooled row and redraw one attribute its path through the
/// current tree does not test, so they follow the concept the table was
/// planted with. Updates flip the class of one pooled row, or once
/// [`MAX_FLIPPED`] rows are flipped, restore the oldest one; the noise in
/// the table, and so the size of the tree, stays level from round to round.
pub struct Mutator {
    pool: Vec<Vec<Code>>,
    relabel: Vec<Code>,
    flipped: VecDeque<(Vec<Code>, Code)>,
    rng: SplitMix,
    base_rows: u64,
    cards: Vec<u16>,
}

impl Mutator {
    /// The stream over `table`.
    pub fn new(table: &Table) -> Self {
        Mutator {
            pool: table
                .canonical
                .chunks_exact(table.arity())
                .map(<[Code]>::to_vec)
                .collect(),
            relabel: table.relabel.clone(),
            flipped: VecDeque::new(),
            rng: SplitMix(0x6368_7572_6e5f_6d78),
            base_rows: table.nrows() as u64,
            cards: (0..table.arity())
                .map(|c| table.schema.column(c).cardinality())
                .collect(),
        }
    }

    /// `row` with the class label the table stores for it.
    fn stored(&self, row: &[Code]) -> Vec<Code> {
        let mut out = row.to_vec();
        let c = out.len() - 1;
        out[c] = self.relabel[usize::from(out[c])];
        out
    }

    /// One round: [`DELETES`] full-row deletes, [`UPDATES`] class flips and
    /// as many inserts as keep the table at its starting size, in a seeded
    /// order. Each call is timed, and traced under `trace`'s parent span
    /// when given. `tree` is the model the inserts must stay consistent
    /// with (any attribute may be redrawn without one).
    pub fn round(
        &mut self,
        mw: &Middleware,
        tree: Option<&DecisionTree>,
        tally: &mut Tally,
        times: &mut OpTimes,
        mut trace: Option<(&mut Tracer, usize)>,
    ) {
        let deficit = self.base_rows.saturating_sub(mw.table_rows()) as usize;
        let inserts = (DELETES + deficit).min(2 * DELETES);
        let mut ops: Vec<Op> = std::iter::repeat_n(Op::Insert, inserts)
            .chain(std::iter::repeat_n(Op::Delete, DELETES))
            .chain(std::iter::repeat_n(Op::Update, UPDATES))
            .collect();
        for i in (1..ops.len()).rev() {
            ops.swap(i, self.rng.below(i + 1));
        }
        let class_col = self.cards.len() - 1;
        for op in ops {
            let pick = self.rng.below(self.pool.len());
            let (name, outcome, ns) = match op {
                Op::Insert => {
                    let mut row = self.pool[pick].clone();
                    let tested = tree.map(|t| path_attrs(t, &row)).unwrap_or_default();
                    let free: Vec<usize> = (0..class_col).filter(|c| !tested.contains(c)).collect();
                    if let Some(&col) = free.get(self.rng.below(free.len())) {
                        row[col] = self.rng.below(usize::from(self.cards[col])) as Code;
                    }
                    let stored = self.stored(&row);
                    let (r, ns) = timed(&mut trace, "sqldb.insert", || mw.insert_row(&stored));
                    self.pool.push(row);
                    ("insert", r.map(|()| 0), ns)
                }
                Op::Delete => {
                    let row = self.pool.swap_remove(pick);
                    let pred = full_row(&self.stored(&row));
                    let (r, ns) = timed(&mut trace, "sqldb.delete", || mw.delete_where(&pred));
                    ("delete", r, ns)
                }
                Op::Update => {
                    let flip = self.flipped.len() < MAX_FLIPPED;
                    let (image, class) = if flip {
                        let row = self.pool.swap_remove(pick);
                        let class = ((usize::from(row[class_col]) + 1)
                            % usize::from(self.cards[class_col]))
                            as Code;
                        (row, class)
                    } else {
                        self.flipped
                            .pop_front()
                            .expect("MAX_FLIPPED rows are flipped")
                    };
                    let pred = full_row(&self.stored(&image));
                    let to = self.relabel[usize::from(class)];
                    let (r, ns) = timed(&mut trace, "sqldb.update", || {
                        mw.update_where(&pred, &[(class_col, to)])
                    });
                    let mut after = image;
                    let before = std::mem::replace(&mut after[class_col], class);
                    if flip {
                        self.flipped.push_back((after, before));
                    } else {
                        self.pool.push(after);
                    }
                    ("update", r, ns)
                }
            };
            match op {
                Op::Insert => times.insert.push(ns),
                Op::Delete => times.delete.push(ns),
                Op::Update => times.update.push(ns),
            }
            tally.check(
                outcome
                    .map(|_| ())
                    .map_err(|e| format!("{name} failed: {e}")),
            );
        }
    }
}

/// Time `call`, inside a span named `name` when tracing.
fn timed<T>(
    trace: &mut Option<(&mut Tracer, usize)>,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> (T, u64) {
    let span = trace
        .as_mut()
        .map(|(t, parent)| t.open(name, Some(*parent)));
    let start = Instant::now();
    let out = call();
    let ns = elapsed_ns(start);
    if let (Some((t, _)), Some(id)) = (trace.as_mut(), span) {
        t.close(id);
    }
    (out, ns)
}

/// Attributes the tree tests on `row`'s path from the root.
fn path_attrs(tree: &DecisionTree, row: &[Code]) -> Vec<usize> {
    let mut attrs = Vec::new();
    let mut idx = 0;
    while let NodeState::Partitioned { split } = &tree.node(idx).state {
        let children = &tree.node(idx).children;
        let next = match split {
            Split::Binary { attr, value } => {
                attrs.push(usize::from(*attr));
                children.get(usize::from(row[usize::from(*attr)] != *value))
            }
            Split::Multiway { attr, values } => {
                attrs.push(usize::from(*attr));
                values
                    .iter()
                    .position(|&v| v == row[usize::from(*attr)])
                    .and_then(|i| children.get(i))
            }
        };
        match next {
            Some(&c) => idx = c,
            None => break,
        }
    }
    attrs
}

/// Equality on every column: matches the row and its exact duplicates.
fn full_row(row: &[Code]) -> Pred {
    Pred::And(
        row.iter()
            .enumerate()
            .map(|(col, &value)| Pred::Eq { col, value })
            .collect(),
    )
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    round_ns: Vec<u64>,
    round_rows: Vec<u64>,
    rebuilds: Vec<Build>,
    outcomes: Vec<MaintainOutcome>,
    maintain_self_ns: u64,
    maintain_rows: u64,
    mutation_rows: u64,
    epochs_invalidated: u64,
    round_server: Vec<scaleclass_sqldb::StatsSnapshot>,
    coverage: (u64, u64),
    final_nodes: usize,
}

impl Pass {
    /// Counters that must repeat exactly across passes.
    fn fingerprint(&self) -> Vec<u64> {
        let mut f: Vec<u64> = self.round_rows.clone();
        f.extend(self.rebuilds.iter().flat_map(Build::fingerprint));
        f.extend(self.outcomes.iter().flat_map(|o| {
            [
                o.events_routed,
                o.nodes_resplit,
                o.leaf_patches,
                o.requests_issued,
            ]
        }));
        f.push(self.final_nodes as u64);
        f
    }
}

/// One pass: set up, then `rounds` rounds with checkpoints.
fn pass(
    spec: &Spec,
    seed: u64,
    rounds: usize,
    staging: &Path,
    tally: &mut Tally,
    times: &mut OpTimes,
    mut tracer: Option<&mut Tracer>,
) -> MwResult<Pass> {
    let cfg = workloads::config(spec, staging);
    let rebuild_cfg = scaleclass::MiddlewareConfig {
        deltas: false,
        ..cfg.clone()
    };
    let grow = GrowConfig::default();
    let t = Instant::now();
    let build::Loaded { table, mut mw } = build::setup(spec, seed, &cfg)?;
    let mut model = grow_maintainable(&mut mw, &grow)?;
    let mut p = Pass {
        setup_s: t.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    let mut mutator = Mutator::new(&table);
    for r in 0..rounds {
        cpus::next();
        let server_before = mw.db_stats();
        let stats_before = *mw.stats();
        let round_span = tracer.as_deref_mut().map(|t| t.open("round", None));
        let t = Instant::now();
        {
            let trace = tracer.as_deref_mut().zip(round_span);
            mutator.round(&mw, Some(&model.tree), tally, times, trace);
        }
        let mutated = mw.db_stats();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("dtree.maintain", round_span));
        let scan_before = mw.stats().scan_nanos;
        let outcome = maintain(&mut mw, &mut model);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
            p.maintain_self_ns += t
                .span(id)
                .ns()
                .saturating_sub(mw.stats().scan_nanos - scan_before);
        }
        p.round_ns.push(elapsed_ns(t));
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), round_span) {
            t.close(id);
            let total = t.span(id).ns();
            p.coverage.0 += total - t.self_time(id);
            p.coverage.1 += total;
        }
        let server = mw.db_stats() - server_before;
        p.round_rows.push(server.rows_scanned);
        p.mutation_rows += (mutated - server_before).rows_scanned;
        p.maintain_rows += (mw.db_stats() - mutated).rows_scanned;
        p.round_server.push(server);
        p.epochs_invalidated += mw.stats().epochs_invalidated - stats_before.epochs_invalidated;
        match outcome {
            Ok(o) => {
                tally.check(Ok(()));
                p.outcomes.push(o);
            }
            Err(e) => tally.check(Err(format!("maintain failed: {e}"))),
        }
        if (r + 1) % CHECKPOINT_ROUNDS == 0 {
            let rebuilt = checkpoint(&mw, &table, &rebuild_cfg, &grow, tracer.as_deref_mut());
            tally.check(match &rebuilt {
                Ok(b) if trees_same_splits(&b.tree, &model.tree) => Ok(()),
                Ok(b) => Err(format!(
                    "maintained tree differs from the rebuild ({} nodes) after round {}",
                    b.tree.len(),
                    r + 1
                )),
                Err(e) => Err(format!("rebuild failed: {e}")),
            });
            if let Ok(b) = rebuilt {
                p.rebuilds.push(b);
            }
        }
    }
    p.final_nodes = model.tree.len();
    Ok(p)
}

/// Read the mutated table back and grow it from scratch in a session of
/// its own, with the benchmark's client loop.
fn checkpoint(
    mw: &Middleware,
    table: &Table,
    cfg: &scaleclass::MiddlewareConfig,
    grow: &GrowConfig,
    tracer: Option<&mut Tracer>,
) -> MwResult<Build> {
    let rows = mw.extract_all(Pred::True)?;
    let db = scaleclass_datagen::into_database(table.schema.clone(), &rows, TABLE);
    let mut fresh = Middleware::new(db, TABLE, table.class_column, cfg.clone())?;
    client::build(&mut fresh, grow, tracer)
}

/// [`build::SETUP_REPS`] timed churn set-ups (set-up plus
/// `grow_maintainable`), appended to `setups`.
fn timed_setups(
    spec: &Spec,
    seed: u64,
    cfg: &scaleclass::MiddlewareConfig,
    setups: &mut Vec<f64>,
) -> MwResult<()> {
    for _ in 0..build::SETUP_REPS {
        cpus::next();
        let t = Instant::now();
        let mut loaded = build::setup(spec, seed, cfg)?;
        grow_maintainable(&mut loaded.mw, &GrowConfig::default())?;
        setups.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Run churn-mixed.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    staging: &Path,
) -> MwResult<Report> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut times = OpTimes::default();
    let start = Instant::now();
    // Set-up is timed in every pass and around the passes. Traced runs do
    // these set-ups too: they grow the heap, and a process whose heap is
    // still growing runs the rounds up to 30% slower.
    let cfg = workloads::config(spec, staging);
    let mut setups = Vec::new();
    timed_setups(spec, seed, &cfg, &mut setups)?;
    // One whole pass that is not measured absorbs the rest of that warm-up:
    // the first pass in a process ran 5-20% slower than the next.
    pass(
        spec,
        seed,
        WARMUP_ROUNDS,
        staging,
        &mut tally,
        &mut OpTimes::default(),
        None,
    )?;
    let mut passes: Vec<Pass> = Vec::new();
    let mut tracer = Tracer::default();
    loop {
        let traced = trace && !passes.is_empty();
        let t = Instant::now();
        let p = pass(
            spec,
            seed,
            ROUNDS_PER_PASS,
            staging,
            &mut tally,
            &mut times,
            traced.then_some(&mut tracer),
        )?;
        tally.check(match passes.first() {
            Some(f) if f.fingerprint() != p.fingerprint() => {
                Err("deterministic counters changed between passes".into())
            }
            _ => Ok(()),
        });
        passes.push(p);
        let last = t.elapsed().as_secs_f64();
        timed_setups(spec, seed, &cfg, &mut setups)?;
        let done = if trace {
            passes.len() == 2
        } else {
            passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + last > seconds as f64
        };
        if done {
            break;
        }
    }
    let first = &passes[0];
    if !trace {
        setups.extend(passes.iter().map(|p| p.setup_s));
        let rounds: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.round_ns.iter().map(|&n| n as f64 / 1e6))
            .collect();
        let rebuilds: Vec<u64> = passes
            .iter()
            .flat_map(|p| p.rebuilds.iter().map(|b| b.wall_ns))
            .collect();
        metrics.set("setup_s", median(&setups).unwrap_or(0.0), setups.len());
        metrics.set(
            "build_s",
            median_u64(&rebuilds).unwrap_or(0.0) / 1e9,
            rebuilds.len(),
        );
        metrics.set("round_ms_p50", median(&rounds).unwrap_or(0.0), rounds.len());
        set_tail(&mut metrics, "round_ms_p95", &rounds);
        metrics.set(
            "round_server_rows",
            ratio(
                first.round_rows.iter().sum::<u64>() as f64,
                first.round_rows.len() as f64,
            ),
            first.round_rows.len(),
        );
        // The rebuilds see a different table each time; their mean over the
        // first pass is the per-build figure (passes repeat it exactly).
        let n = first.rebuilds.len().max(1) as f64;
        let mean = |f: &dyn Fn(&Build) -> u64| first.rebuilds.iter().map(f).sum::<u64>() as f64 / n;
        metrics.set(
            "server_rows_scanned",
            mean(&|b| b.server.rows_scanned),
            first.rebuilds.len(),
        );
        metrics.set("sim_cost", mean(&Build::sim_cost), first.rebuilds.len());
        metrics.set(
            "peak_mem_bytes",
            mean(&|b| b.mw.peak_memory_bytes),
            first.rebuilds.len(),
        );
    } else {
        let (plain, traced) = (&passes[0], &passes[1]);
        // Batches, decisions and scans inside the checkpoint rebuilds: the
        // maintain calls drive their own loop, which no benchmark span sees.
        // The sqldb counters set next replace the rebuild's with per-round ones.
        build::set_layer_metrics(
            &mut metrics,
            &tracer,
            &traced.rebuilds,
            &workloads::table(spec, seed),
        );
        let per_round = |x: u64| ratio(x as f64, traced.round_ns.len() as f64);
        let sum = |f: &dyn Fn(&scaleclass_sqldb::StatsSnapshot) -> u64| {
            per_round(traced.round_server.iter().map(f).sum())
        };
        metrics.set("sqldb.pages_read", sum(&|s| s.pages_read), 1);
        metrics.set("sqldb.rows_scanned", sum(&|s| s.rows_scanned), 1);
        metrics.set("sqldb.rows_shipped", sum(&|s| s.rows_shipped), 1);
        metrics.set("sqldb.bytes_shipped", sum(&|s| s.bytes_shipped), 1);
        metrics.set("sqldb.round_trips", sum(&|s| s.wire_round_trips), 1);
        metrics.set("sqldb.seq_scans", sum(&|s| s.seq_scans), 1);
        metrics.set("sqldb.group_by_queries", sum(&|s| s.group_by_queries), 1);
        let outcome_sum =
            |f: &dyn Fn(&MaintainOutcome) -> u64| per_round(traced.outcomes.iter().map(f).sum());
        metrics.set("sqldb.delta_events", outcome_sum(&|o| o.events_routed), 1);
        metrics.set(
            "sqldb.mutation_rows_scanned",
            per_round(traced.mutation_rows),
            1,
        );
        times.report(&mut metrics);
        let round_total: u64 = traced.round_ns.iter().sum();
        metrics.set(
            "dtree.maintain.self_share",
            ratio(traced.maintain_self_ns as f64, round_total as f64),
            traced.round_ns.len(),
        );
        metrics.set(
            "dtree.maintain.server_rows",
            per_round(traced.maintain_rows),
            1,
        );
        metrics.set(
            "dtree.maintain.events_routed",
            outcome_sum(&|o| o.events_routed),
            1,
        );
        metrics.set(
            "dtree.maintain.nodes_resplit",
            outcome_sum(&|o| o.nodes_resplit),
            1,
        );
        metrics.set(
            "dtree.maintain.leaf_patches",
            outcome_sum(&|o| o.leaf_patches),
            1,
        );
        metrics.set(
            "dtree.maintain.margin_skips",
            outcome_sum(&|o| o.margin_skips),
            1,
        );
        metrics.set(
            "dtree.maintain.requests_issued",
            outcome_sum(&|o| o.requests_issued),
            1,
        );
        metrics.set(
            "core.delta.epochs_invalidated",
            per_round(traced.epochs_invalidated),
            1,
        );
        let coverage = ratio(traced.coverage.0 as f64, traced.coverage.1 as f64);
        tally.check(if coverage >= 0.9 {
            Ok(())
        } else {
            Err(format!(
                "named spans cover only {coverage:.3} of traced round time"
            ))
        });
        metrics.set("trace.span_coverage", coverage, traced.round_ns.len());
        metrics.set(
            "trace.overhead",
            ratio(
                median_u64(&traced.round_ns).unwrap_or(0.0),
                median_u64(&plain.round_ns).unwrap_or(0.0),
            ),
            traced.round_ns.len(),
        );
        let loaded = build::setup(spec, seed, &cfg)?;
        build::cursor_probe(&mut metrics, &loaded.mw)?;
    }
    let table = workloads::table(spec, seed);
    Ok(Report {
        workload: spec.name,
        seed,
        trace,
        seconds,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        extra: vec![
            ("workload_info", workloads::info_json(spec)),
            ("config", config_json(&cfg)),
            (
                "table",
                table_json(&table, cfg.memory_budget_bytes, first.final_nodes),
            ),
            (
                "rounds",
                passes
                    .iter()
                    .map(|p| p.round_ns.len())
                    .sum::<usize>()
                    .to_string(),
            ),
            (
                "pass_round_ms_p50",
                format!(
                    "[{}]",
                    passes
                        .iter()
                        .map(|p| format!("{}", median_u64(&p.round_ns).unwrap_or(0.0) / 1e6))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        ],
    })
}
