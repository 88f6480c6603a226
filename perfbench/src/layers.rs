//! Layer-by-layer measurement from outside the program: the calls into each
//! layer's public functions, wrapped in spans, and the per-layer samples a traced
//! run turns into metrics.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{SpanId, Trace};
use distsim::ExecutionReport;
use rand::Rng;
use recpart::{
    BandCondition, CompiledRouter, InputSample, OutputSample, RecPart, RecPartResult, Relation,
    SplitTreePartitioner,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer samples keyed by metric name; each metric reports its median.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Record one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The latest sample of `name` (0 when there is none).
    pub fn last(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|v| v.last())
            .copied()
            .unwrap_or(0.0)
    }

    /// Median of `name`'s samples (0 when there are none).
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    /// Add every sampled metric to the report as its median, with its count.
    /// Names starting with `_` are working values, not metrics.
    pub fn report(&self, rep: &mut Report, notes: &[(&str, &str)]) {
        for (&name, values) in self.0.iter().filter(|(n, _)| !n.starts_with('_')) {
            let note = notes
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, t)| *t);
            rep.add(name, median(values), values.len(), note);
        }
    }
}

/// `RecPart::try_optimize` decomposed into its layers, each a span under
/// `parent`: both input-sample draws, the output-sample draw, then
/// `optimize_with_samples`. The draws consume `rng` in `try_optimize`'s order,
/// so the plan is the one the untraced call returns (callers check this).
/// Returns the result and the output sample's estimate of `|S ⋈ T|`.
#[allow(clippy::too_many_arguments)]
pub fn optimize(
    trace: &mut Trace,
    query: u64,
    parent: SpanId,
    recpart: &RecPart,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    rng: &mut impl Rng,
    samples: &mut Samples,
) -> (RecPartResult, f64) {
    let cfg = recpart.config();
    let start = Instant::now();
    let total = cfg.sample.input_sample_size.max(2);
    let s_share = ((total as f64 * s.len() as f64 / (s.len() + t.len()) as f64).round() as usize)
        .clamp(1, total - 1);
    let (s_sample, s_id) = trace.time(query, "sample.input", Some(parent), || {
        InputSample::draw(s, s_share, rng)
    });
    let (t_sample, t_id) = trace.time(query, "sample.input", Some(parent), || {
        InputSample::draw(t, total - s_share, rng)
    });
    let (o_sample, o_id) = trace.time(query, "sample.output", Some(parent), || {
        OutputSample::draw(s, t, band, &cfg.sample, rng)
    });
    let (result, opt_id) = trace.time(query, "recpart.optimize", Some(parent), || {
        recpart.optimize_with_samples(
            s.len(),
            t.len(),
            band,
            &s_sample,
            &t_sample,
            &o_sample,
            start,
        )
    });
    let r = &result.report;
    trace.derive(
        opt_id,
        &[
            ("recpart.split_search", r.split_search_seconds),
            ("recpart.evaluation", r.evaluation_seconds),
        ],
    );
    samples.push(
        "sample.input_s",
        trace.span(s_id).seconds() + trace.span(t_id).seconds(),
    );
    samples.push("sample.output_s", trace.span(o_id).seconds());
    samples.push("recpart.optimize_s", trace.span(opt_id).seconds());
    samples.push("recpart.split_search_s", r.split_search_seconds);
    samples.push("recpart.evaluation_s", r.evaluation_seconds);
    (result, o_sample.estimated_output())
}

/// Compile the plan's router again, off the blocking chain, as its own root
/// span; fails if the recompiled router differs from the plan's.
pub fn compile_router(
    trace: &mut Trace,
    query: u64,
    partitioner: &SplitTreePartitioner,
    band: &BandCondition,
    seed: u64,
    samples: &mut Samples,
) -> Result<(), String> {
    let (router, id) = trace.time(query, "router.compile", None, || {
        CompiledRouter::compile(partitioner.tree(), band, seed)
    });
    samples.push("router.compile_s", trace.span(id).seconds());
    if router.signature() == partitioner.router().signature() {
        Ok(())
    } else {
        Err("recompiled router differs from the plan's router".into())
    }
}

/// The deterministic counters of one optimized and executed plan, next to the
/// optimizer's estimates.
pub fn plan_counters(
    samples: &mut Samples,
    plan: &RecPartResult,
    report: &ExecutionReport,
    estimated_output: f64,
    exact: u64,
) {
    let o = &plan.report;
    let stats = &report.stats;
    samples.push(
        "sample.est_output_err",
        (estimated_output - exact as f64).abs() / exact as f64,
    );
    samples.push("recpart.iterations", o.iterations as f64);
    samples.push("recpart.leaves", o.leaves as f64);
    samples.push(
        "recpart.candidates_scored",
        o.split_search.candidates_scored as f64,
    );
    samples.push(
        "recpart.ledger_leaf_visits",
        o.evaluation.ledger_leaf_visits as f64,
    );
    samples.push(
        "recpart.est_dup_gap",
        stats.duplication_overhead() - o.estimated_dup_overhead,
    );
    samples.push(
        "recpart.est_load_gap",
        stats.load_overhead() - o.estimated_load_overhead,
    );
    samples.push("router.partitions", o.partitions as f64);
    samples.push("shuffle.tuples_routed", stats.total_input as f64);
}

/// The local-join layer of one execution report.
pub fn local_join(samples: &mut Samples, r: &ExecutionReport) {
    let workers = &r.per_worker_wall_seconds;
    let max_worker = r.max_worker_wall_seconds();
    samples.push("local_join.s", r.local_join_wall_seconds);
    samples.push("local_join.comparisons", r.total_comparisons as f64);
    samples.push("local_join.output", r.stats.output_len as f64);
    samples.push(
        "local_join.useful_ratio",
        r.stats.output_len as f64 / r.total_comparisons.max(1) as f64,
    );
    samples.push("local_join.max_worker_s", max_worker);
    samples.push(
        "local_join.worker_skew",
        max_worker * workers.len() as f64 / workers.iter().sum::<f64>().max(f64::MIN_POSITIVE),
    );
}
