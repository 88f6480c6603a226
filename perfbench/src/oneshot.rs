//! The one-shot workloads: every query pays the whole pipeline —
//! `RecPart::optimize` (sampling included), then execution.

use crate::inputs::FlatInputs;
use crate::layers::{self, Samples};
use crate::report::{report_divergence, tail_note, Report};
use crate::stats::{median, summarize};
use crate::trace::{SpanId, Trace};
use crate::{deadline, peak_rss_mb, spill_dir, Args, SETUP_REPEATS};
use distsim::{
    exact_join_count_on, ExecutionReport, Executor, ExecutorConfig, FaultPlan, RecoveryCounters,
    ShuffleConfig, SupervisorConfig, VerificationLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{
    BandCondition, RecPart, RecPartConfig, RecPartResult, Relation, SpillDir, StorageMode,
};
use std::time::Instant;

/// Tuples routed per chunk by the streaming shuffle of the supervised workload.
const STREAM_CHUNK: usize = 65_536;

/// A one-shot workload: generator parameters plus the execution path.
pub struct OneShot {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Join attributes per tuple.
    pub dims: usize,
    /// Tuples per side.
    pub per_side: usize,
    /// Pareto shape `z`.
    pub shape: f64,
    /// Symmetric band width ε in every dimension.
    pub eps: f64,
    /// Simulated workers `w`.
    pub workers: usize,
    /// Execute through `Executor::execute_supervised` (zero faults, one shard per
    /// thread, streaming shuffle into mmap spill arenas) instead of the in-memory
    /// `Executor::execute`.
    pub supervised: bool,
}

/// Work scales with n: output sampling (an argsort of T), the pair-list shuffle
/// and evaluation over ~1.5k leaves dominate; the local join is cheap (output ≈
/// comparisons).
pub const ONESHOT_1D_4M: OneShot = OneShot {
    name: "oneshot-1d-4m",
    dims: 1,
    per_side: 2_000_000,
    shape: 1.5,
    eps: 1e-6,
    workers: 30,
    supervised: false,
};

/// The paper's multi-attribute case: the local join prunes on dimension 0 only,
/// so it is candidate-heavy, and RecPart's estimates are furthest from what
/// execution measures. The supervised path's report is bit-identical to
/// `execute`, but puts the streaming shuffle, the mmap arenas and the supervisor
/// on measured traffic.
pub const ONESHOT_3D_1M: OneShot = OneShot {
    name: "oneshot-3d-1m",
    dims: 3,
    per_side: 500_000,
    shape: 1.5,
    eps: 0.02,
    workers: 30,
    supervised: true,
};

/// Optimizer seeds a run cycles through (one plan each).
const PLANS: usize = 4;

/// Layers a one-shot query never calls.
const BYPASSED: &[&str] = &[
    "serve.verify_s",
    "serve.cold_p50_s",
    "serve.warm_p50_s",
    "serve.subsumed_p50_s",
    "serve.tuples_shuffled",
    "plan_cache.hit_ratio",
    "plan_cache.misses",
    "plan_cache.evictions",
    "plan_cache.arena_mb",
];

/// The loaded program: both relations plus the optimizer and executor.
struct Program {
    s: Relation,
    t: Relation,
    recpart: RecPart,
    exec: Executor,
}

/// What one query produced.
struct QueryOut {
    plan: RecPartResult,
    report: ExecutionReport,
}

impl OneShot {
    fn band(&self) -> BandCondition {
        BandCondition::uniform(self.dims, self.eps)
    }

    /// Load the keys and build the optimizer and executor; returns the program
    /// and the seconds it took (the flat buffers are copied outside the timing).
    fn setup(
        &self,
        inputs: &FlatInputs,
        seed: u64,
        threads: usize,
        spill: &Option<SpillDir>,
    ) -> (Program, f64) {
        let (s_flat, t_flat) = (inputs.s.clone(), inputs.t.clone());
        let start = Instant::now();
        let s = Relation::from_flat(inputs.dims, s_flat);
        let t = Relation::from_flat(inputs.dims, t_flat);
        let recpart = RecPart::new(
            RecPartConfig::new(self.workers)
                .with_seed(seed)
                .with_threads(threads),
        );
        let mut exec = Executor::new(
            ExecutorConfig::new(self.workers)
                .with_verification(VerificationLevel::None)
                .with_threads(threads),
        );
        if let Some(dir) = spill {
            exec = exec.with_shuffle_config(ShuffleConfig::streaming(
                STREAM_CHUNK,
                StorageMode::Spill(dir.clone()),
            ));
        }
        let seconds = start.elapsed().as_secs_f64();
        (
            Program {
                s,
                t,
                recpart,
                exec,
            },
            seconds,
        )
    }

    /// Execute a plan on the workload's path (supervised or in memory).
    fn execute(
        &self,
        p: &Program,
        plan: &RecPartResult,
        band: &BandCondition,
        threads: usize,
    ) -> Result<(ExecutionReport, RecoveryCounters), String> {
        if !self.supervised {
            let report = p.exec.execute(&plan.partitioner, &p.s, &p.t, band);
            return Ok((report, RecoveryCounters::default()));
        }
        let run = p
            .exec
            .execute_supervised(
                &plan.partitioner,
                &p.s,
                &p.t,
                band,
                threads,
                &FaultPlan::none(),
                &SupervisorConfig::default(),
            )
            .map_err(|e| format!("execute_supervised: {e}"))?;
        Ok((run.report, run.recovery))
    }

    /// One untraced query: optimize (sampling included), then execute.
    fn query(
        &self,
        p: &Program,
        band: &BandCondition,
        seed: u64,
        threads: usize,
    ) -> Result<QueryOut, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = p
            .recpart
            .try_optimize(&p.s, &p.t, band, &mut rng)
            .map_err(|e| format!("optimize: {e}"))?;
        let (report, _) = self.execute(p, &plan, band, threads)?;
        Ok(QueryOut { plan, report })
    }

    /// One query decomposed into layer spans: the sample draws and
    /// `optimize_with_samples`, then `map_shuffle` + `execute_prepared` in memory,
    /// or `execute_supervised` on the supervised path. Off the blocking chain it
    /// recompiles the router and, on the supervised path, reruns the plan
    /// unsupervised (`map_shuffle` + `execute_prepared`) for the supervision
    /// overhead.
    #[allow(clippy::too_many_arguments)]
    fn traced_query(
        &self,
        p: &Program,
        band: &BandCondition,
        seed: u64,
        threads: usize,
        exact: u64,
        q: u64,
        trace: &mut Trace,
        samples: &mut Samples,
    ) -> Result<QueryOut, String> {
        let root = trace.begin(q, "query", None);
        let mut rng = StdRng::seed_from_u64(seed);
        let (plan, estimated_output) = layers::optimize(
            trace, q, root, &p.recpart, &p.s, &p.t, band, &mut rng, samples,
        );
        let (report, recovery) = if self.supervised {
            let (run, id) = trace.time(q, "supervise", Some(root), || {
                self.execute(p, &plan, band, threads)
            });
            let (report, recovery) = run?;
            trace.derive(
                id,
                &[
                    ("shuffle", report.map_shuffle_wall_seconds),
                    ("local_join", report.local_join_wall_seconds),
                    ("verify", report.verify_wall_seconds),
                ],
            );
            let shuffle_s = report.map_shuffle_wall_seconds;
            samples.push("supervise.s", trace.span(id).seconds());
            samples.push("shuffle.s", shuffle_s);
            samples.push(
                "shuffle.tuples_per_s",
                report.stats.total_input as f64 / shuffle_s,
            );
            (report, recovery)
        } else {
            let report = self.shuffle_and_reduce(p, &plan, band, q, Some(root), trace, samples);
            (report, RecoveryCounters::default())
        };
        trace.end(root);
        let wall = trace.span(root).seconds();
        samples.push("_query_s", wall);
        samples.push("trace.coverage", trace.covered(root) / wall);
        layers::plan_counters(samples, &plan, &report, estimated_output, exact);
        layers::local_join(samples, &report);
        samples.push(
            "supervise.retries",
            (recovery.shuffle_retries + recovery.shard_retries + recovery.merge_retries) as f64,
        );

        let seed = p.recpart.config().seed;
        layers::compile_router(trace, q, &plan.partitioner, band, seed, samples)?;
        if self.supervised {
            let plain = self.shuffle_and_reduce(p, &plan, band, q, None, trace, samples);
            let unsupervised = samples.last("_offchain_shuffle_s") + samples.last("reduce.s");
            samples.push(
                "supervise.overhead",
                samples.last("supervise.s") / unsupervised,
            );
            if let Some(d) = report_divergence(&report, &plain) {
                return Err(format!("supervised vs map_shuffle + execute_prepared: {d}"));
            }
        }
        Ok(QueryOut { plan, report })
    }

    /// `map_shuffle` then `execute_prepared`, each a span under `parent`, or each
    /// a root of its own when run off the blocking chain.
    #[allow(clippy::too_many_arguments)]
    fn shuffle_and_reduce(
        &self,
        p: &Program,
        plan: &RecPartResult,
        band: &BandCondition,
        q: u64,
        parent: Option<SpanId>,
        trace: &mut Trace,
        samples: &mut Samples,
    ) -> ExecutionReport {
        let partitioner = &plan.partitioner;
        let (shuffled, sh_id) = trace.time(q, "shuffle", parent, || {
            p.exec.map_shuffle(partitioner, &p.s, &p.t)
        });
        let (report, red_id) = trace.time(q, "reduce", parent, || {
            p.exec.execute_prepared(
                partitioner,
                &p.s,
                &p.t,
                band,
                &shuffled.s_parts,
                &shuffled.t_parts,
            )
        });
        trace.derive(
            red_id,
            &[
                ("local_join", report.local_join_wall_seconds),
                ("verify", report.verify_wall_seconds),
            ],
        );
        let shuffle_s = trace.span(sh_id).seconds();
        if parent.is_some() {
            samples.push("shuffle.s", shuffle_s);
            samples.push(
                "shuffle.tuples_per_s",
                shuffled.total_input() as f64 / shuffle_s,
            );
        } else {
            samples.push("_offchain_shuffle_s", shuffle_s);
        }
        samples.push("shuffle.arena_bytes", shuffled.arena_bytes() as f64);
        samples.push("reduce.s", trace.span(red_id).seconds());
        samples.push("assemble.s", trace.self_seconds(red_id));
        report
    }
}

/// Run a one-shot workload and report its metrics.
pub fn run(spec: &OneShot, args: &Args) -> Report {
    let mut rep = Report::default();
    let threads = crate::threads();
    let band = spec.band();
    let inputs = FlatInputs::pareto(args.seed, spec.per_side, spec.dims, spec.shape);
    let spill = spec.supervised.then(|| {
        SpillDir::new(spill_dir())
            .expect("creating the spill directory inside the benchmark's out/")
    });

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let (mut p, secs) = spec.setup(&inputs, args.seed, threads, &spill);
    setups.push(secs);
    while setups.len() < SETUP_REPEATS {
        // Drop the previous program first so every set-up starts from the same heap.
        drop(p);
        let (next, secs) = spec.setup(&inputs, args.seed, threads, &spill);
        setups.push(secs);
        p = next;
    }
    drop(inputs);

    // Exact oracle, once per (workload, seed, band), off the blocking chain; its
    // time is the verify layer's.
    let mut trace = Trace::new();
    let (exact, oracle_id) = trace.time(0, "verify", None, || {
        exact_join_count_on(&p.s, &p.t, &band, threads)
    });
    let verify_s = trace.span(oracle_id).seconds();
    rep.notes.push(format!(
        "workload {}: pareto z={} d={} |S|=|T|={} eps={} w={} threads={} {}; exact output {exact}",
        spec.name,
        spec.shape,
        spec.dims,
        spec.per_side,
        spec.eps,
        spec.workers,
        threads,
        if spec.supervised {
            "execute_supervised (streaming spill shuffle)"
        } else {
            "execute (in memory)"
        },
    ));

    // Queries cycle through PLANS optimizer seeds, so a run measures several
    // plans rather than one draw of the samples. The warm-up query (lazy pool
    // start, first-touch page faults) is untimed; the first query of each seed is
    // the reference every later repeat of that seed must reproduce exactly.
    let query_seeds: Vec<u64> = (0..PLANS as u64)
        .map(|i| args.seed ^ (0xA5A5_5A5A + i))
        .collect();
    let mut firsts: Vec<Option<QueryOut>> = (0..PLANS).map(|_| None).collect();
    let warm = match spec.query(&p, &band, query_seeds[0], threads) {
        Ok(q) => q,
        Err(e) => {
            rep.check(Some(e));
            return rep;
        }
    };
    rep.check(check_output(&warm.report, exact));
    if spec.supervised {
        // The supervised spill report must equal one in-memory execute.
        let in_memory =
            Executor::new(*p.exec.config()).execute(&warm.plan.partitioner, &p.s, &p.t, &band);
        rep.check(
            report_divergence(&warm.report, &in_memory)
                .map(|d| format!("supervised vs in-memory execute: {d}")),
        );
    }
    firsts[0] = Some(warm);
    // Peak RSS of set-up plus one full query. Later repeats only add allocator
    // retention that varies from process to process.
    let rss_mb = peak_rss_mb();

    // Timed repeats until the deadline (at least one per seed); the traced run
    // alternates an untraced and a traced query so both see the same machine
    // conditions.
    let mut latencies = Vec::new();
    let mut samples = Samples::default();
    let mut same_plan = true;
    let stop = deadline(args.seconds);
    let mut q = 0u64;
    while (q as usize) < PLANS || Instant::now() < stop {
        let i = q as usize % PLANS;
        q += 1;
        let start = Instant::now();
        let out = spec.query(&p, &band, query_seeds[i], threads);
        let secs = start.elapsed().as_secs_f64();
        rep.check(match out {
            Ok(out) => {
                latencies.push(secs);
                let problem = check_output(&out.report, exact);
                match &firsts[i] {
                    Some(first) => problem.or_else(|| repeat_divergence(first, &out)),
                    None => {
                        firsts[i] = Some(out);
                        problem
                    }
                }
            }
            Err(e) => Some(e),
        });
        let Some(first) = firsts[i].as_ref().filter(|_| args.trace) else {
            continue;
        };
        let traced = spec.traced_query(
            &p,
            &band,
            query_seeds[i],
            threads,
            exact,
            q,
            &mut trace,
            &mut samples,
        );
        let problem = match traced {
            Ok(out) => {
                let diverged = repeat_divergence(first, &out)
                    .map(|d| format!("traced decomposition measured another plan: {d}"));
                same_plan &= diverged.is_none();
                check_output(&out.report, exact).or(diverged)
            }
            Err(e) => Some(e),
        };
        rep.check(problem);
    }

    let lat = summarize(&latencies);
    if !args.trace {
        let setup = summarize(&setups);
        let plans: Vec<&ExecutionReport> = firsts.iter().flatten().map(|f| &f.report).collect();
        let input: Vec<f64> = plans
            .iter()
            .map(|r| 1.0 + r.stats.duplication_overhead())
            .collect();
        let load: Vec<f64> = plans
            .iter()
            .map(|r| 1.0 + r.stats.load_overhead())
            .collect();
        rep.add(
            "setup_s",
            setup.median,
            setup.n,
            "from_flat x2 + RecPart::new + Executor::new",
        );
        rep.add(
            "peak_rss_mb",
            rss_mb,
            1,
            "after set-up, oracle and one query",
        );
        rep.add(
            "query_p50_s",
            lat.median,
            lat.n,
            "optimize (sampling included) + execute",
        );
        rep.add("query_tail_s", lat.tail, lat.n, tail_note(&lat));
        rep.add(
            "qps",
            lat.n as f64 / latencies.iter().sum::<f64>(),
            lat.n,
            "closed loop, 1 client",
        );
        rep.add(
            "input_ratio",
            median(&input),
            input.len(),
            "I / (|S|+|T|), median over the plans",
        );
        rep.add(
            "load_ratio",
            median(&load),
            load.len(),
            "L_m / L_0, median over the plans",
        );
        return rep;
    }

    let (shuffle_note, reduce_note) = if spec.supervised {
        (
            "streaming spill shuffle (report timer)",
            "execute_prepared, off the chain",
        )
    } else {
        ("pair-list map_shuffle", "execute_prepared")
    };
    samples.report(
        &mut rep,
        &[
            ("shuffle.s", shuffle_note),
            ("reduce.s", reduce_note),
            ("assemble.s", "self time of reduce"),
            (
                "supervise.overhead",
                "execute_supervised / (map_shuffle + execute_prepared)",
            ),
            (
                "trace.coverage",
                "share of the traced query inside layer spans",
            ),
        ],
    );
    rep.add(
        "verify.s",
        verify_s,
        1,
        "exact_join_count_on, off the chain",
    );
    let traced = samples.median("_query_s");
    rep.add(
        "trace.overhead",
        traced / lat.median,
        lat.n,
        format!(
            "traced p50 {traced:.4} s / untraced p50 {:.4} s",
            lat.median
        ),
    );
    rep.add("trace.same_plan", f64::from(u8::from(same_plan)), lat.n, "");
    let mut bypassed = BYPASSED.to_vec();
    if !spec.supervised {
        bypassed.extend(["supervise.s", "supervise.overhead"]);
    }
    rep.bypassed(&bypassed, "not on this workload's path");
    if let Err(e) = trace.save(spec.name, args.seed) {
        rep.fail(e);
    }
    rep
}

/// `None` when the query's output count matches the exact oracle.
fn check_output(r: &ExecutionReport, exact: u64) -> Option<String> {
    if r.degraded {
        return Some("degraded report".into());
    }
    (r.stats.output_len != exact).then(|| format!("output {} != exact {exact}", r.stats.output_len))
}

/// Deterministic fields of a repeat must equal the first query's.
fn repeat_divergence(first: &QueryOut, q: &QueryOut) -> Option<String> {
    if q.plan.partitioner.plan_signature() != first.plan.partitioner.plan_signature() {
        return Some("plan signature".into());
    }
    let (a, b) = (&first.plan.report, &q.plan.report);
    if (
        a.iterations,
        a.leaves,
        a.partitions,
        a.split_search,
        a.evaluation,
    ) != (
        b.iterations,
        b.leaves,
        b.partitions,
        b.split_search,
        b.evaluation,
    ) {
        return Some("optimization counters".into());
    }
    if a.estimated_dup_overhead.to_bits() != b.estimated_dup_overhead.to_bits()
        || a.estimated_load_overhead.to_bits() != b.estimated_load_overhead.to_bits()
    {
        return Some("optimizer estimates".into());
    }
    report_divergence(&q.report, &first.report)
}
