//! The run's result: named metrics with units and sample counts, the correctness
//! tally, a human-readable table, and the one-line JSON record printed last.

use crate::stats::Summary;
use distsim::ExecutionReport;
use std::fmt::Write as _;

/// End-to-end metrics and their units, printed by every run with `--trace 0`
/// (and listed in `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_s", "s"),
    ("query_tail_s", "s"),
    ("qps", "1/s"),
    ("input_ratio", "ratio"),
    ("load_ratio", "ratio"),
];

/// Per-layer metrics and their units, printed by every run with `--trace 1` (and
/// listed in `BENCHMARK.json`). A workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sample.input_s", "s"),
    ("sample.output_s", "s"),
    ("sample.est_output_err", "ratio"),
    ("recpart.optimize_s", "s"),
    ("recpart.split_search_s", "s"),
    ("recpart.evaluation_s", "s"),
    ("recpart.iterations", "count"),
    ("recpart.leaves", "count"),
    ("recpart.candidates_scored", "count"),
    ("recpart.ledger_leaf_visits", "count"),
    ("recpart.est_dup_gap", "ratio"),
    ("recpart.est_load_gap", "ratio"),
    ("router.compile_s", "s"),
    ("router.partitions", "count"),
    ("shuffle.s", "s"),
    ("shuffle.tuples_routed", "count"),
    ("shuffle.arena_bytes", "bytes"),
    ("shuffle.tuples_per_s", "1/s"),
    ("reduce.s", "s"),
    ("local_join.s", "s"),
    ("local_join.comparisons", "count"),
    ("local_join.output", "count"),
    ("local_join.useful_ratio", "ratio"),
    ("local_join.max_worker_s", "s"),
    ("local_join.worker_skew", "ratio"),
    ("assemble.s", "s"),
    ("supervise.s", "s"),
    ("supervise.overhead", "ratio"),
    ("supervise.retries", "count"),
    ("verify.s", "s"),
    ("serve.verify_s", "s"),
    ("serve.cold_p50_s", "s"),
    ("serve.warm_p50_s", "s"),
    ("serve.subsumed_p50_s", "s"),
    ("serve.tuples_shuffled", "tuples/query"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.misses", "count"),
    ("plan_cache.evictions", "count"),
    ("plan_cache.arena_mb", "MB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.same_plan", "bool"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's schema"))
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `MB`, `count`.
    pub unit: &'static str,
    /// Number of samples the value summarizes.
    pub samples: usize,
    /// Free-form context for the human-readable table.
    pub note: String,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Queries attempted (timed and untimed, checked against the oracle).
    pub attempted: u64,
    /// Queries that errored or disagreed with the oracle or the first repeat.
    pub failed: u64,
    /// Description of every failure, printed before the JSON line.
    pub failures: Vec<String>,
    /// Context lines printed above the metric table.
    pub notes: Vec<String>,
}

impl Report {
    /// Record one checked query; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(p);
        }
    }

    /// Record a failure of a benchmark-side guard that is not a query.
    pub fn fail(&mut self, problem: String) {
        self.failures.push(problem);
    }

    /// Add a metric (its unit comes from the schema) with a note for the table.
    pub fn add(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            value,
            unit: unit_of(name),
            samples,
            note: note.into(),
        });
    }

    /// Report 0 for layers this workload never calls.
    pub fn bypassed(&mut self, names: &[&'static str], why: &str) {
        for &name in names {
            self.add(name, 0.0, 0, format!("bypassed: {why}"));
        }
    }

    /// Whether every query and guard passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Print the table and, as the last line, the JSON record holding exactly the
    /// metrics named in `wanted`. A metric that is missing, duplicated or not
    /// finite is a benchmark bug and turns the run incorrect. Returns whether the
    /// run was correct.
    pub fn print(mut self, wanted: &[(&str, &str)]) -> bool {
        for (name, _) in wanted {
            let n = self.metrics.iter().filter(|m| m.name == *name).count();
            if n != 1 {
                self.fail(format!("metric {name} reported {n} times"));
            }
        }
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite ({})", m.name, m.value))
            .collect();
        self.failures.extend(bad);
        if self.attempted == 0 {
            self.fail("no query was attempted".into());
        }
        for line in &self.notes {
            println!("{line}");
        }
        println!(
            "{:<26} {:>16}  {:<6} {:>7}  note",
            "metric", "value", "unit", "samples"
        );
        // Table in schema order.
        let rank = |m: &Metric| wanted.iter().position(|(n, _)| *n == m.name);
        self.metrics.sort_by_key(|m| rank(m).unwrap_or(usize::MAX));
        for m in &self.metrics {
            println!(
                "{:<26} {:>16.6}  {:<6} {:>7}  {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        println!(
            "error_rate = {} / {} queries; correct = {}",
            self.failed,
            self.attempted.max(1),
            self.correct()
        );
        for f in &self.failures {
            println!("FAILURE: {f}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, _) in wanted {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                let sep = if first { "" } else { ", " };
                first = false;
                let _ = write!(
                    json,
                    "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                );
            }
        }
        json.push_str("}}");
        println!("{json}");
        self.correct()
    }
}

/// Where the tail percentile sits, for the table.
pub fn tail_note(s: &Summary) -> String {
    match s.tail_percent {
        Some(p) => format!("p{p:.1}, the highest percentile with 10 samples beyond"),
        None => "median: under 20 samples leave no higher percentile with 10 beyond".into(),
    }
}

/// First deterministic field on which two execution reports differ.
pub fn report_divergence(got: &ExecutionReport, want: &ExecutionReport) -> Option<String> {
    let fields: [(&str, bool); 8] = [
        ("strategy", got.strategy == want.strategy),
        ("stats", got.stats == want.stats),
        ("partitions", got.partitions == want.partitions),
        (
            "per-partition loads",
            got.per_partition == want.per_partition,
        ),
        (
            "worker mapping",
            got.partition_to_worker == want.partition_to_worker,
        ),
        (
            "per-worker work",
            got.per_worker_work == want.per_worker_work,
        ),
        (
            "comparisons",
            got.total_comparisons == want.total_comparisons,
        ),
        ("degraded flag", got.degraded == want.degraded),
    ];
    fields
        .iter()
        .find(|(_, same)| !same)
        .map(|(name, _)| name.to_string())
}
