//! The three workloads: their tables, their pinned middleware
//! configurations, and why each was chosen.
//!
//! Every table comes from one fixed generator run (seed 42, the seed the
//! repository's figure workloads use). The benchmark seed then shuffles the
//! row order and permutes the class labels. Both leave every counts table
//! the same up to relabelling, so every seed builds an isomorphic tree over
//! different bytes and the work per build does not depend on the seed. The
//! churn stream picks its rows from the generator's order and labels, so
//! its operations too are the same for every seed up to that relabelling.
//! Varying the generator seed instead changes the tree it plants: at the
//! fig4 shape the grown tree ranged from 2,895 to 6,097 nodes and build time
//! from 2.7 s to 5.3 s over six seeds (2-core x86-64 VM), which would swamp
//! any regression.

use crate::report::json_str;
use scaleclass::config::{DEFAULT_CC_DENSE_MAX_BYTES, DEFAULT_EXTENT_ROWS};
use scaleclass::{FileStagingPolicy, MiddlewareConfig};
use scaleclass_datagen::{census, random_tree};
use scaleclass_sqldb::{Code, Schema, CODE_BYTES};
use std::path::Path;

/// What the client loop of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated full tree builds of one table.
    Build,
    /// Rounds of mutations, each followed by one maintenance pass.
    Churn,
}

/// One workload.
#[derive(Debug)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Which layer carries its time.
    pub stresses: &'static str,
    /// Client loop shape.
    pub loop_shape: &'static str,
    /// Build or churn.
    pub kind: Kind,
    /// Middleware memory budget in bytes.
    pub budget_bytes: u64,
    /// Stage data into middleware memory.
    pub memory_caching: bool,
    /// File staging policy.
    pub file_policy: FileStagingPolicy,
}

const BUILD_LOOP: &str = "closed loop, one client, one Middleware session; the client waits \
                          for each process_next_batch before deciding the fulfilled nodes";

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "fig4-mem",
        why: "Fig 4 table (122,800 rows, 6.4 MB) under a 64 MB cached budget: one server \
              scan, then memory-staged counting, so executor dispatch and the CC kernel carry \
              the build",
        stresses: "core.executor dispatch and core.cc",
        loop_shape: BUILD_LOOP,
        kind: Kind::Build,
        budget_bytes: 64 << 20,
        memory_caching: true,
        file_policy: FileStagingPolicy::Disabled,
    },
    Spec {
        name: "census-hybrid",
        why: "Census-like 120k rows (2.6 MB), Fig 6 hybrid 50% file staging, 2 MB budget, \
              caching off: staging write, read and decode carry the build; thin margins make \
              split scoring heaviest",
        stresses: "core.staging file write, read and decode; dtree split scoring",
        loop_shape: BUILD_LOOP,
        kind: Kind::Build,
        budget_bytes: 2 << 20,
        memory_caching: false,
        file_policy: FileStagingPolicy::Hybrid {
            split_threshold: 0.5,
        },
    },
    Spec {
        name: "churn-mixed",
        why: "40k-row random-tree table, deltas on: rounds of 20 inserts, 20 full-row deletes \
              and 12 class flips (~0.16% of rows), each then one maintain, so writes meet reads \
              in sqldb and staging",
        stresses: "sqldb write path and delta log; dtree.maintain and core.delta",
        loop_shape: "closed loop, one client, one Middleware session; each round issues its \
                     mutations one at a time, then waits for one maintain call",
        kind: Kind::Churn,
        budget_bytes: 64 << 20,
        memory_caching: true,
        file_policy: FileStagingPolicy::Disabled,
    },
];

/// Why every workload pins one scan worker.
pub const SCAN_WORKERS_NOTE: &str = "scan_workers is pinned to 1: the host has 2 cores and the \
     2-worker pipeline adds a producer thread beside its workers. On census-hybrid it was slower \
     (3.7 s vs 2.9 s at 120k rows) and at 400k rows fell into about 6,000 SQL-fallback server \
     scans per build, a count that varied between runs (6,029 vs 5,949).";

/// The envelope's `"workload_info"` object: why the workload is here,
/// what it stresses, its loop shape, and why one scan worker.
pub fn info_json(spec: &Spec) -> String {
    format!(
        "{{\"why\": {}, \"stresses\": {}, \"loop\": {}, \"scan_workers\": {}}}",
        json_str(spec.why),
        json_str(spec.stresses),
        json_str(spec.loop_shape),
        json_str(SCAN_WORKERS_NOTE)
    )
}

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated table.
pub struct Table {
    /// Attributes then the class.
    pub schema: Schema,
    /// Flat rows.
    pub rows: Vec<Code>,
    /// Name of the class column.
    pub class_column: &'static str,
    /// The generated rows in generator order, with generator labels: the
    /// seed-free view the churn stream picks its rows from.
    pub canonical: Vec<Code>,
    /// Generator class label → the label this seed stores.
    pub relabel: Vec<Code>,
}

impl Table {
    /// Codes per row.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Rows in the table.
    pub fn nrows(&self) -> usize {
        self.rows.len() / self.arity()
    }

    /// Stored size: rows × row width.
    pub fn bytes(&self) -> u64 {
        (self.rows.len() * CODE_BYTES) as u64
    }
}

/// The generator seed every workload plants its table with.
const GENERATOR_SEED: u64 = 42;

/// The table of `spec` for benchmark seed `seed`.
pub fn table(spec: &Spec, seed: u64) -> Table {
    let (schema, canonical, class_column) = match spec.name {
        "census-hybrid" => {
            let d = census::generate(&census::CensusParams {
                rows: 120_000,
                seed: GENERATOR_SEED,
            });
            (d.schema, d.rows, "income")
        }
        "churn-mixed" => random_tree_table(10, 4000.0, 0.0),
        _ => random_tree_table(300, 400.0, 4.0),
    };
    let arity = schema.arity();
    let classes = schema.column(arity - 1).cardinality();
    let mut rng = SplitMix(seed);
    let relabel = permutation(usize::from(classes), &mut rng);
    let mut rows = canonical.clone();
    for row in rows.chunks_exact_mut(arity) {
        row[arity - 1] = relabel[usize::from(row[arity - 1])];
    }
    shuffle_rows(&mut rows, arity, &mut rng);
    Table {
        schema,
        rows,
        class_column,
        canonical,
        relabel,
    }
}

/// The repository's Fig 4 generator settings (25 attributes, ~4 values,
/// 10 classes, complete splits).
fn random_tree_table(
    leaves: usize,
    cases: f64,
    values_stddev: f64,
) -> (Schema, Vec<Code>, &'static str) {
    let d = random_tree::generate(&random_tree::RandomTreeParams {
        leaves,
        attributes: 25,
        mean_values: 4.0,
        values_stddev,
        classes: 10,
        skew: 0.0,
        complete_splits: true,
        cases_per_leaf: cases,
        cases_stddev: 0.0,
        seed: GENERATOR_SEED,
    });
    (d.schema, d.rows, "class")
}

/// The middleware configuration of `spec`, with every knob whose default
/// reads a `SCALECLASS_*` variable pinned, so the environment cannot change
/// the program being measured. Staged files go under `staging_dir`.
pub fn config(spec: &Spec, staging_dir: &Path) -> MiddlewareConfig {
    MiddlewareConfig::builder()
        .memory_budget_bytes(spec.budget_bytes)
        .memory_caching(spec.memory_caching)
        .file_policy(spec.file_policy)
        .staging_dir(staging_dir)
        .scan_workers(1)
        .stage_extent_rows(DEFAULT_EXTENT_ROWS)
        .cc_dense_max_bytes(DEFAULT_CC_DENSE_MAX_BYTES)
        .sessions(1)
        .shared_staging(false)
        .batch_kernel(true)
        .sampled_counting(0.0)
        .deltas(spec.kind == Kind::Churn)
        .build()
}

/// splitmix64: a small seeded generator for the benchmark's own choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish index below `bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut SplitMix) -> Vec<Code> {
    let mut p: Vec<Code> = (0..n).map(|i| i as Code).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Fisher–Yates over whole rows.
fn shuffle_rows(rows: &mut [Code], arity: usize, rng: &mut SplitMix) {
    let n = rows.len() / arity;
    for i in (1..n).rev() {
        let j = rng.below(i + 1);
        if i != j {
            for c in 0..arity {
                rows.swap(i * arity + c, j * arity + c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_the_bytes_but_not_the_multiset_of_attributes() {
        let spec = find("churn-mixed").unwrap();
        let a = table(spec, 1);
        let b = table(spec, 2);
        assert_eq!(a.nrows(), 40_000);
        assert_ne!(a.rows, b.rows);
        assert_eq!(table(spec, 1).rows, a.rows, "same seed, same table");
        let attrs = |t: &Table| {
            let mut v: Vec<&[Code]> = t
                .rows
                .chunks_exact(t.arity())
                .map(|r| &r[..t.arity() - 1])
                .collect();
            v.sort();
            v.into_iter().map(<[Code]>::to_vec).collect::<Vec<_>>()
        };
        assert_eq!(attrs(&a), attrs(&b));
    }

    #[test]
    fn every_env_knob_is_pinned() {
        let spec = find("census-hybrid").unwrap();
        let c = config(spec, Path::new("unused"));
        assert_eq!(c.scan_workers, 1);
        assert_eq!(c.sessions, 1);
        assert_eq!(c.stage_extent_rows, DEFAULT_EXTENT_ROWS);
        assert_eq!(c.cc_dense_max_bytes, DEFAULT_CC_DENSE_MAX_BYTES);
        assert!(!c.shared_staging && c.batch_kernel && !c.deltas);
        assert_eq!(c.sampled_fraction, 0.0);
        assert!(config(find("churn-mixed").unwrap(), Path::new("unused")).deltas);
    }

    #[test]
    fn whys_fit_on_one_line() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
