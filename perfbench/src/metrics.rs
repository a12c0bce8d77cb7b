//! Every metric the benchmark reports, and the `BENCHMARK.json` manifest
//! rendered from them and from the workload table.

use crate::report::json_str;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every end-to-end metric (all lower-is-better, all reported by every
/// workload from untraced runs).
///
/// A *round* is one request of the workload's closed loop: one
/// `process_next_batch` call on the build workloads, one mutation batch
/// plus its `maintain` call on churn-mixed. On churn-mixed the per-build
/// figures come from the from-scratch rebuilds that check the maintained
/// tree.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "build_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "round_ms_p50",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "round_ms_p95",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "round_server_rows",
        unit: "rows",
        bound: 0.05,
    },
    EndToEnd {
        name: "server_rows_scanned",
        unit: "rows",
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_cost",
        unit: "units",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_mem_bytes",
        unit: "B",
        bound: 0.05,
    },
];

/// Every per-layer metric `(name, unit, better)`, from the traced run.
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    // sqldb: storage, cursor, wire.
    ("sqldb.pages_read", "count", "lower"),
    ("sqldb.rows_scanned", "rows", "lower"),
    ("sqldb.rows_shipped", "rows", "lower"),
    ("sqldb.bytes_shipped", "B", "lower"),
    ("sqldb.round_trips", "count", "lower"),
    ("sqldb.seq_scans", "count", "lower"),
    ("sqldb.group_by_queries", "count", "lower"),
    ("sqldb.cursor_rows_per_s", "rows/s", "higher"),
    // sqldb write path and delta log.
    ("sqldb.delta_events", "count", "lower"),
    ("sqldb.mutation_rows_scanned", "rows", "lower"),
    ("sqldb.insert_us_p50", "us", "lower"),
    ("sqldb.delete_us_p50", "us", "lower"),
    ("sqldb.update_us_p50", "us", "lower"),
    // core.session / core.scheduler.
    ("core.batches", "count", "lower"),
    ("core.batch_ms_p50", "ms", "lower"),
    ("core.batch_ms_p95", "ms", "lower"),
    ("core.nodes_per_batch", "ratio", "higher"),
    ("core.plan_ns", "ns", "lower"),
    ("core.sql_fallbacks", "count", "lower"),
    // core.executor.
    ("core.scan_ns", "ns", "lower"),
    ("core.scan_rows", "rows", "lower"),
    ("core.dispatch_ns", "ns", "lower"),
    ("core.useful_row_ratio", "ratio", "higher"),
    ("core.block_fallback_rows", "rows", "lower"),
    // core.cc.
    ("core.cc.validate_share", "ratio", "lower"),
    ("core.cc.accumulate_share", "ratio", "lower"),
    ("core.cc.blocks_counted", "count", "higher"),
    ("core.cc.dense_nodes", "count", "higher"),
    ("core.cc.sparse_nodes", "count", "lower"),
    // core.staging.
    ("core.staging.file_rows_written", "rows", "lower"),
    ("core.staging.file_bytes_physical_written", "B", "lower"),
    ("core.staging.file_rows_read", "rows", "lower"),
    ("core.staging.decode_share", "ratio", "lower"),
    ("core.staging.files_created", "count", "lower"),
    ("core.staging.memory_rows_staged", "rows", "lower"),
    ("core.staging.memory_rows_read", "rows", "lower"),
    ("core.staging.evictions", "count", "lower"),
    ("core.staging.write_amp", "ratio", "lower"),
    // dtree grow / split scoring (client).
    ("dtree.decide_ns", "ns", "lower"),
    ("dtree.nodes_decided", "count", "lower"),
    ("dtree.decide_ns_per_node", "ns", "lower"),
    ("dtree.grow.self_ns", "ns", "lower"),
    // dtree.maintain and core.delta.
    ("dtree.maintain.self_share", "ratio", "lower"),
    ("dtree.maintain.server_rows", "rows", "lower"),
    ("dtree.maintain.events_routed", "count", "lower"),
    ("dtree.maintain.nodes_resplit", "count", "lower"),
    ("dtree.maintain.leaf_patches", "count", "lower"),
    ("dtree.maintain.margin_skips", "count", "higher"),
    ("dtree.maintain.requests_issued", "count", "lower"),
    ("core.delta.epochs_invalidated", "count", "lower"),
    // The trace itself.
    ("trace.span_coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 35;

/// One reported value.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The number, as measured.
    pub value: f64,
    /// Samples behind it (1 for a deterministic count).
    pub samples: usize,
    /// For tail percentiles, the percentile actually reported.
    pub percentile: Option<f64>,
}

/// The metrics of one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Value>,
}

impl Metrics {
    /// Record `name`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set_value(
            name,
            Value {
                value,
                samples,
                percentile: None,
            },
        );
    }

    /// Record `name` with full detail, replacing an earlier value.
    pub fn set_value(&mut self, name: &'static str, v: Value) {
        let v = Value {
            value: if v.value.is_finite() { v.value } else { 0.0 },
            ..v
        };
        self.values.insert(name, v);
    }

    /// Recorded metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Value)> {
        self.values.iter().map(|(k, v)| (*k, v))
    }

    /// The declared names, with units, that a run in this mode must report.
    pub fn declared(trace: bool) -> Vec<(&'static str, &'static str)> {
        if trace {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Names declared for this mode but not recorded, and recorded but
    /// not declared.
    pub fn mismatch(&self, trace: bool) -> Vec<String> {
        let declared = Self::declared(trace);
        let mut out: Vec<String> = declared
            .iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| format!("missing {n}"))
            .collect();
        out.extend(
            self.values
                .keys()
                .filter(|k| !declared.iter().any(|(n, _)| n == *k))
                .map(|k| format!("undeclared {k}")),
        );
        out
    }
}

/// The unit declared for `name`.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The `BENCHMARK.json` manifest, rendered from the tables above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(n),
                json_str(u),
                json_str(b)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `--manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_bounds_in_range() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
    }

    #[test]
    fn mismatch_names_missing_and_extra_metrics() {
        let mut m = Metrics::default();
        for e in &END_TO_END[1..] {
            m.set(e.name, 1.0, 1);
        }
        m.set("core.batches", 1.0, 1);
        assert_eq!(
            m.mismatch(false),
            vec!["missing setup_s", "undeclared core.batches"]
        );
    }
}
