//! The `serve-1d` workload: one `BandJoinService` answers a seeded, closed-loop
//! stream of band-join queries (one client; each request waits for its reply,
//! as `BandJoinService::serve` takes `&mut self`).
//!
//! Warm and subsumed hits skip sampling, optimize and shuffle, so the reduce and
//! the default `Count` verification dominate them. The cache holds fewer arena
//! bytes than the stream's distinct plans, so LRU eviction forces recurring cold
//! builds, and those exercise the optimizer.

use crate::inputs::{FlatInputs, SplitMix64};
use crate::layers::{self, Samples};
use crate::report::{report_divergence, tail_note, Report};
use crate::stats::{median, summarize};
use crate::trace::{SpanId, Trace};
use crate::{deadline, peak_rss_mb, Args, SETUP_REPEATS};
use distsim::{
    exact_join_count_on, BandJoinQuery, BandJoinService, ExecutionReport, Executor, PlanSource,
    QueryResponse, ServiceConfig, ServiceHealth,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recpart::{BandCondition, RecPart, Relation};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Tuples per side.
const PER_SIDE: usize = 250_000;
/// Pareto shape `z`.
const SHAPE: f64 = 1.5;
/// Base band widths 1e-6 · 2^k, k = 0..5 (1e-6 … 3.2e-5); each is asked at full
/// or half width. Powers of two keep "half of one base" bit-identical to the next
/// smaller base, so such a query is a warm hit when that plan is cached.
const BASES: usize = 6;
/// The stream cycles through bursts of `(workers, queries)`. A burst opens
/// with a full-width band no cached plan can serve, so it cold-builds; its other
/// queries ask that band or narrower ones, i.e. warm or subsumed hits. Two cold
/// builds per 12 queries (16.7%, half of them at w = 64) keep p95 inside the
/// w = 64 cold builds for every seed.
const BURSTS: [(usize, usize); 2] = [(30, 10), (64, 2)];
/// Plan-cache capacity in arena bytes: one plan of this dataset (~2 MB of
/// arenas) fits, two do not, so every burst start evicts the previous
/// burst's plan and cold-builds.
const CACHE_BYTES: u64 = 3 << 20;
/// Queries every measured pass serves at least, so p95 has ≥ 10 samples beyond
/// it; the cache counters are read after exactly this many queries, which makes
/// them deterministic per seed.
const MIN_QUERIES: usize = 200;

fn base_eps(k: usize) -> f64 {
    1e-6 * (1u64 << k) as f64
}

/// The seeded query stream: an endless, deterministic sequence of bursts.
/// Each burst type opens with the bases in a seeded order that repeats every
/// [`BASES`] bursts, so every seed cold-builds the same mix of bands.
struct Stream {
    rng: SplitMix64,
    /// Per burst type: the seeded order of opening bases, and bursts opened.
    openings: Vec<(Vec<usize>, usize)>,
    burst: usize,
    left: usize,
    widest: usize,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed, 3);
        let openings = BURSTS
            .iter()
            .map(|_| {
                // Fisher–Yates over the bases.
                let mut order: Vec<usize> = (0..BASES).collect();
                for i in (1..BASES).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                (order, 0)
            })
            .collect();
        Stream {
            rng,
            openings,
            burst: BURSTS.len() - 1,
            left: 0,
            widest: 0,
        }
    }

    fn next_query(&mut self) -> BandJoinQuery {
        let eps = if self.left == 0 {
            self.burst = (self.burst + 1) % BURSTS.len();
            self.left = BURSTS[self.burst].1;
            let (order, opened) = &mut self.openings[self.burst];
            self.widest = order[*opened % BASES];
            *opened += 1;
            base_eps(self.widest)
        } else {
            let k = self.rng.below(self.widest + 1);
            if self.rng.next_f64() < 0.5 {
                base_eps(k)
            } else {
                base_eps(k) / 2.0
            }
        };
        self.left -= 1;
        BandJoinQuery::new(BandCondition::symmetric(&[eps]), BURSTS[self.burst].0)
    }
}

/// Every band the stream can ask (full and half widths).
fn all_bands() -> Vec<f64> {
    let mut eps: Vec<f64> = (0..BASES)
        .flat_map(|k| [base_eps(k), base_eps(k) / 2.0])
        .collect();
    eps.sort_by(f64::total_cmp);
    eps.dedup();
    eps
}

/// Load the keys and build the service; returns it and the seconds it took.
fn setup(inputs: &FlatInputs) -> (BandJoinService, f64) {
    let (s_flat, t_flat) = (inputs.s.clone(), inputs.t.clone());
    let start = Instant::now();
    let s = Relation::from_flat(inputs.dims, s_flat);
    let t = Relation::from_flat(inputs.dims, t_flat);
    let config = ServiceConfig::new().with_cache_capacity_bytes(CACHE_BYTES);
    let service = BandJoinService::new(s, t, config);
    (service, start.elapsed().as_secs_f64())
}

/// Exact output per band, keyed by the band's bit pattern.
struct Oracle {
    exact: HashMap<u64, u64>,
    seconds: Vec<f64>,
}

/// The first full report of every (band, workers, plan): each repeat must
/// reproduce its deterministic fields, and the replicas of cold builds read the
/// measured overheads from it.
type FirstReports = HashMap<(u64, usize, u64), ExecutionReport>;

/// What the benchmark keeps of one response. Full reports are not retained, so
/// the process's RSS stays the service's own.
struct Served {
    query: BandJoinQuery,
    source: PlanSource,
    signature: u64,
    latency: f64,
    input_ratio: f64,
    load_ratio: f64,
}

/// Check one response against the oracle and the first response of its kind.
fn check(
    resp: &QueryResponse,
    query: &BandJoinQuery,
    oracle: &Oracle,
    first: &mut FirstReports,
) -> Option<String> {
    let bits = query.band.eps(0).to_bits();
    let exact = oracle.exact[&bits];
    let r = &resp.report;
    if r.degraded || r.stats.output_len != exact || r.correct != Some(true) {
        return Some(format!(
            "eps {} w {} ({:?}): output {} vs exact {exact}, verified {:?}, degraded {}",
            query.band.eps(0),
            query.workers,
            resp.source,
            r.stats.output_len,
            r.correct,
            r.degraded
        ));
    }
    let key = (bits, query.workers, resp.plan_signature);
    match first.get(&key) {
        Some(want) => report_divergence(r, want).map(|d| {
            format!(
                "repeat of eps {} w {} diverged: {d}",
                query.band.eps(0),
                query.workers
            )
        }),
        None => {
            first.insert(key, r.clone());
            None
        }
    }
}

/// One closed-loop client driving its own service through the stream.
struct Client {
    service: BandJoinService,
    stream: Stream,
    first: FirstReports,
    served: Vec<Served>,
    /// Queries sent (answered or not).
    sent: usize,
    /// Health after exactly [`MIN_QUERIES`] queries.
    health: ServiceHealth,
    /// Process peak RSS after exactly [`MIN_QUERIES`] queries (MiB).
    rss_mb: f64,
    /// Per-layer samples (traced client only).
    samples: Samples,
}

impl Client {
    fn new(service: BandJoinService, seed: u64) -> Self {
        let health = service.health();
        Client {
            service,
            stream: Stream::new(seed),
            first: FirstReports::new(),
            served: Vec::new(),
            sent: 0,
            health,
            rss_mb: f64::NAN,
            samples: Samples::default(),
        }
    }

    fn latencies(&self) -> Vec<f64> {
        self.served.iter().map(|s| s.latency).collect()
    }

    /// Send the next query and wait for the reply, then check it outside the
    /// timed region. With a trace, the serve is a span whose children come from
    /// the response report's own timers.
    fn step(&mut self, oracle: &Oracle, rep: &mut Report, trace: Option<&mut Trace>) {
        let query = self.stream.next_query();
        let service = &mut self.service;
        let (result, latency, span) = match trace {
            Some(tr) => {
                let (result, id) = tr.time(self.sent as u64 + 1, "serve", None, || {
                    service.serve(&query)
                });
                let latency = tr.span(id).seconds();
                (result, latency, Some((tr, id)))
            }
            None => {
                let start = Instant::now();
                let result = service.serve(&query);
                (result, start.elapsed().as_secs_f64(), None)
            }
        };
        self.sent += 1;
        match result {
            Ok(resp) => {
                rep.check(check(&resp, &query, oracle, &mut self.first));
                let r = &resp.report;
                if let Some((tr, id)) = span {
                    tr.rename(id, span_name(resp.source));
                    tr.derive(
                        id,
                        &[
                            ("shuffle", r.map_shuffle_wall_seconds),
                            ("local_join", r.local_join_wall_seconds),
                            ("verify", r.verify_wall_seconds),
                        ],
                    );
                    self.layer_samples(&resp, latency, tr, id);
                }
                self.served.push(Served {
                    query,
                    source: resp.source,
                    signature: resp.plan_signature,
                    latency,
                    input_ratio: 1.0 + r.stats.duplication_overhead(),
                    load_ratio: 1.0 + r.stats.load_overhead(),
                });
            }
            Err(e) => rep.check(Some(format!("serve: {e}"))),
        }
        if self.sent == MIN_QUERIES {
            self.rss_mb = peak_rss_mb();
            self.health = self.service.health();
        }
    }

    /// Per-layer samples of one traced serve.
    fn layer_samples(&mut self, resp: &QueryResponse, latency: f64, trace: &Trace, id: SpanId) {
        let (r, samples) = (&resp.report, &mut self.samples);
        layers::local_join(samples, r);
        samples.push("serve.verify_s", r.verify_wall_seconds);
        samples.push("trace.coverage", trace.covered(id) / latency);
        match resp.source {
            PlanSource::ColdBuild => {
                let shuffle_s = r.map_shuffle_wall_seconds;
                samples.push("serve.cold_p50_s", latency);
                samples.push("shuffle.s", shuffle_s);
                samples.push(
                    "shuffle.tuples_per_s",
                    r.stats.total_input as f64 / shuffle_s,
                );
            }
            hit => {
                let name = if hit == PlanSource::WarmHit {
                    "serve.warm_p50_s"
                } else {
                    "serve.subsumed_p50_s"
                };
                samples.push(name, latency);
                samples.push("reduce.s", latency - r.verify_wall_seconds);
                samples.push("assemble.s", trace.self_seconds(id));
            }
        }
    }
}

fn span_name(source: PlanSource) -> &'static str {
    match source {
        PlanSource::ColdBuild => "serve.cold",
        PlanSource::WarmHit => "serve.warm",
        PlanSource::SubsumedHit => "serve.subsumed",
    }
}

/// Run the serving workload and report its metrics.
pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let threads = crate::threads();
    let inputs = FlatInputs::pareto(args.seed, PER_SIDE, 1, SHAPE);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let (mut service, secs) = setup(&inputs);
    setups.push(secs);
    while setups.len() < SETUP_REPEATS {
        drop(service);
        let (next, secs) = setup(&inputs);
        setups.push(secs);
        service = next;
    }

    // Exact output of every band the stream can ask, before any timing.
    let mut trace = Trace::new();
    let mut oracle = Oracle {
        exact: HashMap::new(),
        seconds: Vec::new(),
    };
    for eps in all_bands() {
        let band = BandCondition::symmetric(&[eps]);
        let (count, id) = trace.time(0, "verify", None, || {
            exact_join_count_on(service.s(), service.t(), &band, threads)
        });
        oracle.seconds.push(trace.span(id).seconds());
        oracle.exact.insert(eps.to_bits(), count);
    }
    rep.notes.push(format!(
        "workload serve-1d: pareto z={SHAPE} d=1 |S|=|T|={PER_SIDE}, {} bands, cache {} MiB, \
         bursts (w, queries) {BURSTS:?}, closed loop with 1 client, threads={threads}",
        oracle.exact.len(),
        CACHE_BYTES >> 20
    ));

    // Closed loop: at least MIN_QUERIES, then until the deadline. The traced run
    // interleaves an untraced and a traced client over the same stream, each with
    // its own service, so the tracing overhead is measured under equal conditions.
    let stop = deadline(args.seconds);
    let mut plain = Client::new(service, args.seed);
    if !args.trace {
        while plain.sent < MIN_QUERIES || Instant::now() < stop {
            plain.step(&oracle, &mut rep, None);
        }
        describe(&mut rep, "untraced", &plain);
        let latencies = plain.latencies();
        let lat = summarize(&latencies);
        let setup = summarize(&setups);
        let head = &plain.served[..MIN_QUERIES.min(plain.served.len())];
        let input: Vec<f64> = head.iter().map(|s| s.input_ratio).collect();
        let load: Vec<f64> = head.iter().map(|s| s.load_ratio).collect();
        rep.add(
            "setup_s",
            setup.median,
            setup.n,
            "from_flat x2 + BandJoinService::new",
        );
        rep.add("peak_rss_mb", plain.rss_mb, 1, "after 200 queries");
        rep.add("query_p50_s", lat.median, lat.n, "one serve() call");
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
            "median over the first 200 responses",
        );
        rep.add(
            "load_ratio",
            median(&load),
            load.len(),
            "median over the first 200 responses",
        );
        return rep;
    }
    let mut traced = Client::new(setup(&inputs).0, args.seed);
    while traced.sent < MIN_QUERIES || Instant::now() < stop {
        plain.step(&oracle, &mut rep, None);
        traced.step(&oracle, &mut rep, Some(&mut trace));
    }
    describe(&mut rep, "untraced", &plain);
    describe(&mut rep, "traced", &traced);
    traced_metrics(&mut rep, &mut traced, &mut trace, &oracle, &plain);
    if let Err(e) = trace.save("serve-1d", args.seed) {
        rep.fail(e);
    }
    rep
}

fn describe(rep: &mut Report, label: &str, p: &Client) {
    let c = p.health.cache;
    let mut colds = String::new();
    for (w, _) in BURSTS {
        let l: Vec<f64> = p
            .served
            .iter()
            .filter(|s| s.source == PlanSource::ColdBuild && s.query.workers == w)
            .map(|s| s.latency)
            .collect();
        colds += &format!(" w={w}: {} cold builds, p50 {:.3} s;", l.len(), median(&l));
    }
    let lat = summarize(&p.latencies());
    rep.notes.push(format!(
        "{label}: {} queries, p50 {:.4} s, p{:.0} {:.4} s;{colds} first {MIN_QUERIES}: {} misses, \
         {} hits, {} subsumed, {} evictions",
        lat.n,
        lat.median,
        lat.tail_percent.unwrap_or(50.0),
        lat.tail,
        c.misses,
        c.hits,
        c.subsumed_hits,
        c.evictions
    ));
}

/// Per-layer metrics of the traced client, plus off-chain replicas of every
/// distinct cold build: the service's RecPart configuration and seed, decomposed
/// into sampling, optimize and router compile.
fn traced_metrics(
    rep: &mut Report,
    p: &mut Client,
    trace: &mut Trace,
    oracle: &Oracle,
    plain: &Client,
) {
    let cfg = p.service.config().clone();
    let (s, t) = (p.service.s(), p.service.t());
    let mut same_plan = true;
    let mut replicated = HashSet::new();
    for (i, served) in p.served.iter().enumerate() {
        let (band, workers) = (&served.query.band, served.query.workers);
        let bits = band.eps(0).to_bits();
        // A cold build that failed its check has no reference report (and is
        // already counted as failed).
        let Some(report) = p.first.get(&(bits, workers, served.signature)) else {
            continue;
        };
        if served.source != PlanSource::ColdBuild || !replicated.insert(served.signature) {
            continue;
        }
        let recpart = RecPart::new(cfg.recpart_config(workers));
        // The replica shares the query id of the cold build it replays.
        let q = i as u64 + 1;
        let root = trace.begin(q, "replica", None);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (plan, estimated_output) = layers::optimize(
            trace,
            q,
            root,
            &recpart,
            s,
            t,
            band,
            &mut rng,
            &mut p.samples,
        );
        trace.end(root);
        let compiled =
            layers::compile_router(trace, q, &plan.partitioner, band, cfg.seed, &mut p.samples);
        if compiled.is_err() || plan.partitioner.plan_signature() != served.signature {
            same_plan = false;
            rep.fail(format!(
                "replica of the cold build for eps {} w {workers} produced another plan",
                band.eps(0)
            ));
        }
        layers::plan_counters(
            &mut p.samples,
            &plan,
            report,
            estimated_output,
            oracle.exact[&bits],
        );
        let shuffled =
            Executor::new(cfg.executor_config(workers)).map_shuffle(&plan.partitioner, s, t);
        p.samples
            .push("shuffle.arena_bytes", shuffled.arena_bytes() as f64);
    }
    p.samples.report(
        rep,
        &[
            ("shuffle.s", "cold builds (report timer)"),
            ("reduce.s", "hits, verification excluded"),
            ("assemble.s", "self time of hits"),
            ("serve.verify_s", "Count verification inside serve()"),
            ("recpart.optimize_s", "replicas of the distinct cold builds"),
        ],
    );
    let n = p.served.len();
    let c = p.health.cache;
    let head = "first 200 queries";
    rep.add(
        "verify.s",
        median(&oracle.seconds),
        oracle.seconds.len(),
        "exact_join_count_on per band, off the chain",
    );
    rep.add(
        "serve.tuples_shuffled",
        p.service.health().tuples_shuffled as f64 / n as f64,
        n,
        "",
    );
    rep.add(
        "plan_cache.hit_ratio",
        (c.hits + c.subsumed_hits) as f64 / c.queries().max(1) as f64,
        MIN_QUERIES,
        head,
    );
    rep.add("plan_cache.misses", c.misses as f64, MIN_QUERIES, head);
    rep.add(
        "plan_cache.evictions",
        c.evictions as f64,
        MIN_QUERIES,
        head,
    );
    rep.add(
        "plan_cache.arena_mb",
        c.arena_bytes_cached as f64 / (1u64 << 20) as f64,
        MIN_QUERIES,
        "cached after 200 queries",
    );
    let (traced, untraced) = (median(&p.latencies()), median(&plain.latencies()));
    rep.add(
        "trace.overhead",
        traced / untraced,
        n,
        format!("traced p50 {traced:.4} s / untraced p50 {untraced:.4} s"),
    );
    rep.add(
        "trace.same_plan",
        f64::from(u8::from(same_plan)),
        replicated.len(),
        "replicas of the cold builds",
    );
    rep.bypassed(
        &["supervise.s", "supervise.overhead", "supervise.retries"],
        "the service runs unsupervised",
    );
}
