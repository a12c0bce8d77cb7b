//! The output envelope: bench, host, git, workload, seed, resolved
//! configuration, and every metric with its unit and sample count, followed
//! by the one-line result object that ends standard output.

use crate::metrics::{unit_of, Metrics};
use scaleclass::MiddlewareConfig;
use std::fmt::Write as _;
use std::process::Command;

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never produced by a correct run)
/// become 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The `"host"` object: logical CPUs, the CPUs the client rotates over
/// (see `cpus`), architecture and OS.
pub fn host_json() -> String {
    // The client thread is pinned by now; the set read before pinning is
    // the process's.
    let allowed = crate::cpus::allowed();
    let cpus = match allowed.len() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let rotated: Vec<String> = allowed.iter().map(usize::to_string).collect();
    format!(
        "{{\"num_cpus\": {cpus}, \"cpus_rotated\": [{}], \"arch\": {}, \"os\": {}}}",
        rotated.join(", "),
        json_str(std::env::consts::ARCH),
        json_str(std::env::consts::OS)
    )
}

/// The `"git"` object. Only a `.git` directory in the working directory is
/// consulted, so a checkout without one reports `"unknown"` instead of
/// some enclosing repository's commit.
pub fn git_json() -> String {
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .args(args)
            .env("GIT_DIR", ".git")
            .env("GIT_WORK_TREE", ".")
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    if !std::path::Path::new(".git").exists() {
        return "{\"commit\": \"unknown\", \"dirty\": false}".into();
    }
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| !s.is_empty());
    format!("{{\"commit\": {}, \"dirty\": {dirty}}}", json_str(&commit))
}

/// The resolved middleware configuration, every pinned knob included.
pub fn config_json(c: &MiddlewareConfig) -> String {
    format!(
        "{{\"memory_budget_bytes\": {}, \"memory_caching\": {}, \"file_policy\": {}, \
         \"scan_workers\": {}, \"scan_block_rows\": {}, \"stage_extent_rows\": {}, \
         \"cc_dense_max_bytes\": {}, \"sessions\": {}, \"shared_staging\": {}, \
         \"batch_kernel\": {}, \"sampled_fraction\": {}, \"deltas\": {}, \
         \"push_filters\": {}, \"wire_batch_rows\": {}}}",
        c.memory_budget_bytes,
        c.memory_caching,
        json_str(&format!("{:?}", c.file_policy)),
        c.scan_workers,
        c.scan_block_rows,
        c.stage_extent_rows,
        c.cc_dense_max_bytes,
        c.sessions,
        c.shared_staging,
        c.batch_kernel,
        json_num(c.sampled_fraction),
        c.deltas,
        c.push_filters,
        c.wire_batch_rows,
    )
}

/// Everything one workload run reports.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Benchmark seed.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    /// Seconds asked for.
    pub seconds: u64,
    /// Operations attempted (builds, mutations, maintain calls, checks).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// The metrics.
    pub metrics: Metrics,
    /// Extra envelope fields, already JSON: `(key, value)`.
    pub extra: Vec<(&'static str, String)>,
}

impl Report {
    /// `failed ÷ attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The full envelope as one JSON object.
    pub fn envelope(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bench\": \"perfbench\", \"host\": {}, \"git\": {}, \"workload\": {}, \"seed\": {}, \
             \"trace\": {}, \"seconds\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \
             \"failures\": [{}]",
            host_json(),
            git_json(),
            json_str(self.workload),
            self.seed,
            self.trace,
            self.seconds,
            self.attempted,
            self.failed,
            json_num(self.error_rate()),
            self.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
        );
        for (k, v) in &self.extra {
            let _ = write!(s, ", {}: {v}", json_str(k));
        }
        s.push_str(", \"metrics\": {");
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let pct = v.percentile.map_or(String::new(), |p| {
                    format!(", \"percentile\": {}", json_num(p))
                });
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}{pct}}}",
                    json_str(name),
                    json_num(v.value),
                    json_str(unit_of(name)),
                    v.samples
                )
            })
            .collect();
        s.push_str(&body.join(", "));
        s.push_str("}}");
        s
    }

    /// One human-readable line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, v)| {
                let pct = v
                    .percentile
                    .map_or(String::new(), |p| format!(", at p{p:.1}"));
                format!(
                    "{:<14} {:<44} {:>20} {:<6} (n={}{pct})",
                    self.workload,
                    name,
                    json_num(v.value),
                    unit_of(name),
                    v.samples
                )
            })
            .collect()
    }
}

/// The result object that ends standard output. With several workloads
/// in one run, metric names are qualified as `<workload>.<metric>`.
pub fn result_line(reports: &[Report]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let many = reports.len() > 1;
    let body: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |(name, v)| {
                let key = if many {
                    format!("{}.{name}", r.workload)
                } else {
                    name.to_string()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&key),
                    json_num(v.value),
                    json_str(unit_of(name))
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(3.0), "3");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.set("build_s", 1.5, 3);
        let r = Report {
            workload: "fig4-mem",
            seed: 1,
            trace: false,
            seconds: 1,
            attempted: 3,
            failed: 0,
            failures: vec![],
            metrics,
            extra: vec![],
        };
        assert_eq!(
            result_line(&[r]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"build_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
