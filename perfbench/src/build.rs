//! The build workloads: repeated full tree builds of one table.
//!
//! Untraced run: set up several times, grow the in-memory reference tree,
//! then build until the time is up (at least [`MIN_BUILDS`] builds). Every
//! build must be split-identical to the reference and repeat the first
//! build's deterministic counters exactly.
//!
//! Traced run: one `grow_with_middleware` build checks that the
//! benchmark's client loop matches the library's, then untraced and traced
//! builds alternate so the tracing overhead is measured on the same
//! process and table. Probes of the cursor and write paths close the run.

use crate::churn::{self, Mutator, OpTimes};
use crate::client::{self, elapsed_ns, Build};
use crate::cpus;
use crate::metrics::{Metrics, Value};
use crate::report::{config_json, Report};
use crate::stats::{dispatch_ns, median, median_u64, ratio, tail};
use crate::trace::Tracer;
use crate::workloads::{self, Spec, Table};
use scaleclass::{Middleware, MiddlewareConfig, MwError, MwResult};
use scaleclass_dtree::{
    grow_in_memory, grow_with_middleware, trees_same_splits, DecisionTree, GrowConfig,
};
use scaleclass_sqldb::{Database, Pred};
use std::path::Path;
use std::time::Instant;

/// Name of the loaded table.
pub const TABLE: &str = "t";
/// Set-ups timed at the start of a run, and again after each build (or
/// churn pass). `setup_s` is the median of them all: spread over the run,
/// they see the same host load as the builds do.
pub const SETUP_REPS: usize = 5;
/// Builds per untraced run, at least.
pub const MIN_BUILDS: usize = 3;
/// Rounds per untraced run, at least: a p95 needs 200 samples to keep ten
/// beyond it.
pub const MIN_ROUNDS: usize = 200;

/// A loaded table and its first session.
pub struct Loaded {
    /// The generated table.
    pub table: Table,
    /// A session over it.
    pub mw: Middleware,
}

/// Generate the table, load it and open a session: the timed set-up.
pub fn setup(spec: &Spec, seed: u64, cfg: &MiddlewareConfig) -> MwResult<Loaded> {
    let table = workloads::table(spec, seed);
    let db = scaleclass_datagen::into_database(table.schema.clone(), &table.rows, TABLE);
    let mw = Middleware::new(db, TABLE, table.class_column, cfg.clone())?;
    Ok(Loaded { table, mw })
}

/// [`SETUP_REPS`] timed set-ups, appended to `setups`; returns the last.
pub fn timed_setups(
    spec: &Spec,
    seed: u64,
    cfg: &MiddlewareConfig,
    setups: &mut Vec<f64>,
) -> MwResult<Loaded> {
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        cpus::next();
        let t = Instant::now();
        let l = setup(spec, seed, cfg)?;
        setups.push(t.elapsed().as_secs_f64());
        loaded = Some(l);
    }
    loaded.ok_or_else(|| MwError::Internal("no set-up ran".into()))
}

/// The split structure every build must reproduce.
pub fn reference_tree(table: &Table, mw: &Middleware, grow: &GrowConfig) -> DecisionTree {
    grow_in_memory(&table.rows, table.arity(), mw.class_col(), mw.attrs(), grow)
}

/// A fresh session over `db`.
pub fn reopen(db: Database, table: &Table, cfg: &MiddlewareConfig) -> MwResult<Middleware> {
    Middleware::new(db, TABLE, table.class_column, cfg.clone())
}

/// Outcome bookkeeping shared by the runners.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` describes its failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }
}

/// Check one build against the reference tree and the first build.
pub fn check_build(
    b: &MwResult<Build>,
    reference: &DecisionTree,
    first: Option<&Build>,
) -> Result<(), String> {
    let b = b.as_ref().map_err(|e| format!("build failed: {e}"))?;
    if !trees_same_splits(&b.tree, reference) {
        return Err(format!(
            "build tree ({} nodes) differs from grow_in_memory ({} nodes)",
            b.tree.len(),
            reference.len()
        ));
    }
    match first {
        Some(f) if f.fingerprint() != b.fingerprint() => Err(format!(
            "deterministic counters changed between builds: {:?} vs {:?}",
            f.fingerprint(),
            b.fingerprint()
        )),
        _ => Ok(()),
    }
}

/// Run one build workload.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    staging: &Path,
) -> MwResult<Report> {
    let cfg = workloads::config(spec, staging);
    let grow = GrowConfig::default();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    let mut setups = Vec::new();
    let Loaded { table, mut mw } = timed_setups(spec, seed, &cfg, &mut setups)?;
    let reference = reference_tree(&table, &mw, &grow);
    let budget = Instant::now();
    let out_of_time =
        |last_ns: u64| budget.elapsed().as_secs_f64() + last_ns as f64 / 1e9 > seconds as f64;

    let mut untraced: Vec<Build> = Vec::new();
    let mut walls_json = String::new();
    let mut rounds = 0;
    if !trace {
        loop {
            let b = client::build(&mut mw, &grow, None);
            tally.check(check_build(&b, &reference, untraced.first()));
            let last = b.as_ref().map_or(0, |b| b.wall_ns);
            if let Ok(b) = b {
                rounds += b.batch_ns.len();
                untraced.push(b);
            }
            mw = reopen(mw.into_db(), &table, &cfg)?;
            timed_setups(spec, seed, &cfg, &mut setups)?;
            if tally.attempted as usize >= MIN_BUILDS && rounds >= MIN_ROUNDS && out_of_time(last) {
                break;
            }
        }
        let first = untraced
            .first()
            .ok_or_else(|| MwError::Internal("every build failed".into()))?;
        let walls: Vec<u64> = untraced.iter().map(|b| b.wall_ns).collect();
        let batches: Vec<f64> = untraced
            .iter()
            .flat_map(|b| b.batch_ns.iter().map(|&n| n as f64 / 1e6))
            .collect();
        metrics.set("setup_s", median(&setups).unwrap_or(0.0), setups.len());
        metrics.set(
            "build_s",
            median_u64(&walls).unwrap_or(0.0) / 1e9,
            walls.len(),
        );
        metrics.set(
            "round_ms_p50",
            median(&batches).unwrap_or(0.0),
            batches.len(),
        );
        set_tail(&mut metrics, "round_ms_p95", &batches);
        metrics.set(
            "round_server_rows",
            ratio(
                first.server.rows_scanned as f64,
                first.batch_ns.len() as f64,
            ),
            first.batch_ns.len(),
        );
        set_build_counters(&mut metrics, first);
        walls_json = walls
            .iter()
            .map(|&w| format!("{}", w as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", ");
    } else {
        // The benchmark's loop must match the library's exactly.
        let lib = grow_with_middleware(&mut mw, &grow);
        let lib_stats = *mw.stats();
        mw = reopen(mw.into_db(), &table, &cfg)?;
        let mine = client::build(&mut mw, &grow, None);
        mw = reopen(mw.into_db(), &table, &cfg)?;
        tally.check(match (&lib, &mine) {
            (Ok(l), Ok(m))
                if trees_same_splits(&l.tree, &m.tree)
                    && lib_stats.server_scans == m.mw.server_scans
                    && lib_stats.memory_rows_read == m.mw.memory_rows_read
                    && lib_stats.file_rows_read == m.mw.file_rows_read
                    && lib_stats.peak_memory_bytes == m.mw.peak_memory_bytes =>
            {
                Ok(())
            }
            (Err(e), _) => Err(format!("grow_with_middleware failed: {e}")),
            _ => Err("the benchmark's client loop diverged from grow_with_middleware".into()),
        });
        if let Ok(m) = mine {
            tally.check(check_build(&Ok(m), &reference, None));
        }

        let mut tracer = Tracer::default();
        let mut traced: Vec<Build> = Vec::new();
        let mut plain: Vec<u64> = Vec::new();
        loop {
            let u = client::build(&mut mw, &grow, None);
            tally.check(check_build(&u, &reference, traced.first()));
            mw = reopen(mw.into_db(), &table, &cfg)?;
            let t = client::build(&mut mw, &grow, Some(&mut tracer));
            tally.check(check_build(&t, &reference, traced.first()));
            mw = reopen(mw.into_db(), &table, &cfg)?;
            let last = t.as_ref().map_or(0, |b| b.wall_ns);
            if let (Ok(u), Ok(t)) = (u, t) {
                plain.push(u.wall_ns);
                traced.push(t);
            }
            if out_of_time(2 * last) {
                break;
            }
        }
        if traced.is_empty() {
            return Err(MwError::Internal("every traced build failed".into()));
        }
        let coverage = coverage(&tracer, &traced);
        tally.check(if coverage >= 0.9 {
            Ok(())
        } else {
            Err(format!(
                "named spans cover only {coverage:.3} of traced wall time"
            ))
        });
        set_layer_metrics(&mut metrics, &tracer, &traced, &table);
        let walls: Vec<u64> = traced.iter().map(|b| b.wall_ns).collect();
        metrics.set("trace.span_coverage", coverage, traced.len());
        metrics.set(
            "trace.overhead",
            ratio(
                median_u64(&walls).unwrap_or(0.0),
                median_u64(&plain).unwrap_or(0.0),
            ),
            traced.len(),
        );

        // Write-path probe: churn-style mutation batches on the table
        // after the last build (deltas stay off, so nothing is logged).
        let before = mw.db_stats();
        let mut mutator = Mutator::new(&table);
        let mut times = OpTimes::default();
        for _ in 0..churn::PROBE_ROUNDS {
            mutator.round(&mw, None, &mut tally, &mut times, None);
        }
        let scanned = (mw.db_stats() - before).rows_scanned;
        metrics.set("sqldb.delta_events", 0.0, 1);
        metrics.set(
            "sqldb.mutation_rows_scanned",
            scanned as f64 / churn::PROBE_ROUNDS as f64,
            churn::PROBE_ROUNDS,
        );
        times.report(&mut metrics);
        set_idle_maintain(&mut metrics);
        cursor_probe(&mut metrics, &mw)?;
    }

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
                table_json(&table, cfg.memory_budget_bytes, reference.len()),
            ),
            ("build_wall_s", format!("[{walls_json}]")),
        ],
    })
}

/// `"table"` envelope field: sizes against the budget.
pub fn table_json(table: &Table, budget: u64, tree_nodes: usize) -> String {
    format!(
        "{{\"rows\": {}, \"bytes\": {}, \"budget_bytes\": {budget}, \"tree_nodes\": {tree_nodes}}}",
        table.nrows(),
        table.bytes()
    )
}

/// Record a p95 under the ten-beyond rule (the maximum when the run has
/// too few samples for any tail percentile).
pub fn set_tail(metrics: &mut Metrics, name: &'static str, samples: &[f64]) {
    let (value, percentile) = match tail(samples, 95) {
        Some(t) => (t.value, t.percentile),
        None => (samples.iter().copied().fold(0.0, f64::max), 100.0),
    };
    metrics.set_value(
        name,
        Value {
            value,
            samples: samples.len(),
            percentile: Some(percentile),
        },
    );
}

/// The per-build deterministic end-to-end counters.
pub fn set_build_counters(metrics: &mut Metrics, b: &Build) {
    metrics.set("server_rows_scanned", b.server.rows_scanned as f64, 1);
    metrics.set("sim_cost", b.sim_cost() as f64, 1);
    metrics.set("peak_mem_bytes", b.mw.peak_memory_bytes as f64, 1);
}

/// Share of the traced builds' wall time covered by named child spans.
pub fn coverage(tracer: &Tracer, builds: &[Build]) -> f64 {
    let (mut covered, mut wall) = (0u64, 0u64);
    for id in builds.iter().filter_map(|b| b.span) {
        let total = tracer.span(id).ns();
        wall += total;
        covered += total - tracer.self_time(id);
    }
    ratio(covered as f64, wall as f64)
}

/// Per-layer metrics of traced builds: counters from the first build
/// (they repeat exactly), times as medians over the builds.
pub fn set_layer_metrics(metrics: &mut Metrics, tracer: &Tracer, traced: &[Build], table: &Table) {
    let b = &traced[0];
    let n = traced.len();
    let med = |f: &dyn Fn(&Build) -> u64| {
        median_u64(&traced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let share = |f: &dyn Fn(&Build) -> u64| {
        median(
            &traced
                .iter()
                .map(|b| ratio(f(b) as f64, b.wall_ns as f64))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let s = &b.server;
    metrics.set("sqldb.pages_read", s.pages_read as f64, 1);
    metrics.set("sqldb.rows_scanned", s.rows_scanned as f64, 1);
    metrics.set("sqldb.rows_shipped", s.rows_shipped as f64, 1);
    metrics.set("sqldb.bytes_shipped", s.bytes_shipped as f64, 1);
    metrics.set("sqldb.round_trips", s.wire_round_trips as f64, 1);
    metrics.set("sqldb.seq_scans", s.seq_scans as f64, 1);
    metrics.set("sqldb.group_by_queries", s.group_by_queries as f64, 1);

    let batches: Vec<f64> = tracer
        .durations("core.batch")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    metrics.set("core.batches", b.batch_ns.len() as f64, 1);
    metrics.set(
        "core.batch_ms_p50",
        median(&batches).unwrap_or(0.0),
        batches.len(),
    );
    set_tail(metrics, "core.batch_ms_p95", &batches);
    metrics.set(
        "core.nodes_per_batch",
        ratio(b.nodes_decided as f64, b.batch_ns.len() as f64),
        1,
    );
    metrics.set("core.plan_ns", med(&|b| b.plan_ns), n);
    metrics.set("core.sql_fallbacks", b.mw.sql_fallbacks as f64, 1);

    let m = &b.mw;
    metrics.set("core.scan_ns", med(&|b| b.mw.scan_nanos), n);
    metrics.set("core.scan_rows", m.scan_rows as f64, 1);
    metrics.set(
        "core.dispatch_ns",
        med(&|b| {
            dispatch_ns(
                b.mw.scan_nanos,
                b.mw.kernel_validate_nanos,
                b.mw.kernel_accumulate_nanos,
                b.decode_ns,
            )
        }),
        n,
    );
    metrics.set(
        "core.useful_row_ratio",
        ratio(b.fulfilled_rows as f64, m.scan_rows as f64),
        1,
    );
    metrics.set("core.block_fallback_rows", m.block_fallback_rows as f64, 1);

    metrics.set(
        "core.cc.validate_share",
        share(&|b| b.mw.kernel_validate_nanos),
        n,
    );
    metrics.set(
        "core.cc.accumulate_share",
        share(&|b| b.mw.kernel_accumulate_nanos),
        n,
    );
    metrics.set("core.cc.blocks_counted", m.blocks_counted as f64, 1);
    metrics.set("core.cc.dense_nodes", m.dense_nodes as f64, 1);
    metrics.set("core.cc.sparse_nodes", m.sparse_nodes as f64, 1);

    let row_bytes = (table.bytes() / table.nrows().max(1) as u64) as f64;
    metrics.set(
        "core.staging.file_rows_written",
        m.file_rows_written as f64,
        1,
    );
    metrics.set(
        "core.staging.file_bytes_physical_written",
        m.file_bytes_physical_written as f64,
        1,
    );
    metrics.set("core.staging.file_rows_read", m.file_rows_read as f64, 1);
    metrics.set("core.staging.decode_share", share(&|b| b.decode_ns), n);
    metrics.set("core.staging.files_created", m.files_created as f64, 1);
    metrics.set(
        "core.staging.memory_rows_staged",
        m.memory_rows_staged as f64,
        1,
    );
    metrics.set(
        "core.staging.memory_rows_read",
        m.memory_rows_read as f64,
        1,
    );
    metrics.set("core.staging.evictions", m.memory_sets_evicted as f64, 1);
    metrics.set(
        "core.staging.write_amp",
        ratio(
            m.file_bytes_physical_written as f64 + m.memory_rows_staged as f64 * row_bytes,
            table.bytes() as f64,
        ),
        1,
    );

    let decide = |b: &Build| {
        b.span
            .map_or(0, |id| tracer.child_total(id, "dtree.decide"))
    };
    metrics.set("dtree.decide_ns", med(&decide), n);
    metrics.set("dtree.nodes_decided", b.nodes_decided as f64, 1);
    metrics.set(
        "dtree.decide_ns_per_node",
        median(
            &traced
                .iter()
                .map(|b| ratio(decide(b) as f64, b.nodes_decided as f64))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
        n,
    );
    metrics.set(
        "dtree.grow.self_ns",
        med(&|b| b.span.map_or(0, |id| tracer.self_time(id))),
        n,
    );
}

/// The maintenance metrics of a workload that never maintains.
fn set_idle_maintain(metrics: &mut Metrics) {
    for name in [
        "dtree.maintain.self_share",
        "dtree.maintain.server_rows",
        "dtree.maintain.events_routed",
        "dtree.maintain.nodes_resplit",
        "dtree.maintain.leaf_patches",
        "dtree.maintain.margin_skips",
        "dtree.maintain.requests_issued",
        "core.delta.epochs_invalidated",
    ] {
        metrics.set(name, 0.0, 1);
    }
}

/// `sqldb.cursor_rows_per_s`: open a cursor over the whole table and fetch
/// every row, three times; the median rate.
pub fn cursor_probe(metrics: &mut Metrics, mw: &Middleware) -> MwResult<()> {
    let batch = mw.config().wire_batch_rows;
    let mut rates = Vec::new();
    for _ in 0..3 {
        let db = mw.db();
        let t = Instant::now();
        let mut cursor = db.open_cursor(TABLE, Pred::True, batch)?;
        let mut out = Vec::new();
        let rows = cursor.fetch_all(&mut out);
        rates.push(ratio(rows as f64, elapsed_ns(t) as f64 / 1e9));
        std::hint::black_box(&out);
    }
    metrics.set(
        "sqldb.cursor_rows_per_s",
        median(&rates).unwrap_or(0.0),
        rates.len(),
    );
    Ok(())
}
