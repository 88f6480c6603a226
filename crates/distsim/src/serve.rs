//! Plan-cached query serving: load a dataset once, answer a **stream** of
//! band-join queries.
//!
//! The one-shot pipeline ([`Executor::execute`]) pays optimize → compile →
//! shuffle → join for every query. In a serving setting the dataset is
//! long-lived and queries arrive with recurring bands and worker counts, so the
//! expensive front half is highly redundant. [`BandJoinService`] keeps it in a
//! [`PlanCache`]:
//!
//! * a **cold miss** optimizes with RecPart (which compiles the router), runs
//!   the executor's pipeline with a fresh shuffle, and caches the plan — the
//!   partitioner plus the two CSR arenas the run hands back;
//! * a **warm hit** (exact [`PlanKey`] match) runs the same pipeline over the
//!   cached arenas;
//! * a **subsumed hit** serves a query whose band is per-dimension *narrower*
//!   than a cached plan's from that plan's arenas — zero new shuffles — because
//!   every pair matching the narrower band also matched the wider one, the
//!   wider plan's duplication co-locates it exactly once, and the join kernels
//!   filter exactly with the query band.
//!
//! Every path is the executor's one pipeline (see [`crate::executor`]), so a
//! response is **bit-identical by construction** to a one-shot
//! [`Executor::execute`] with the same partitioner and query band — only
//! wall-clock fields differ (a warm response reports
//! `map_shuffle_wall_seconds == 0.0`: no shuffle ran).
//!
//! With [`ServiceConfig::with_supervised`] every query runs the supervised
//! schedule ([`crate::supervise`]): a crashed shard worker degrades exactly one
//! response (partial report, `degraded` flag) and the service keeps serving;
//! recovery accounting accumulates in [`ServiceHealth`]. A cold query whose
//! supervised merge fails returns the error and caches nothing; its shuffle
//! still counts in [`ServiceHealth::shuffles_run`].
//!
//! Verified responses (`Count` by default) check the distributed output
//! against an exact single-node join. The service keeps that join's sorted
//! inputs — an exact-join index over S and T — so every verification after the
//! first is one linear sweep with no sort (see [`crate::verify`]). The index is
//! built lazily by the first verified query, which pays the build inside its
//! own `verify_wall_seconds`; [`ServiceHealth::exact_index_builds`] counts the
//! builds.
//!
//! Mutating the dataset ([`BandJoinService::append_s`]/[`append_t`]) bumps the
//! relation's generation; generations are part of every [`PlanKey`], so a
//! mutated dataset can never be served from a stale arena. Stale plans are
//! purged eagerly (counted as evictions), and the exact-join index is dropped
//! and rebuilt by the next verified query.
//!
//! [`append_t`]: BandJoinService::append_t

use crate::executor::{
    Arenas, ExecutionReport, Executor, ExecutorConfig, Schedule, VerificationLevel,
};
use crate::faults::FaultPlan;
use crate::local_join::LocalJoinAlgorithm;
use crate::machine::MachineModel;
use crate::metrics::RecoveryCounters;
use crate::plan_cache::{CacheOutcome, CachedPlan, PlanCache, PlanKey};
use crate::shuffle::ShuffleConfig;
use crate::supervise::{SuperviseError, SupervisorConfig};
use crate::verify::ExactJoinIndex;
use rand::{rngs::StdRng, SeedableRng};
use recpart::{BandCondition, PlanCacheCounters};
use recpart::{LoadModel, RecPart, RecPartConfig, Relation, SampleConfig, SplitTreePartitioner};
use serde::{Deserialize, Serialize};

/// Everything the service fixes at load time; per-query knobs (band, workers,
/// materialization) live on [`BandJoinQuery`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the plan cache in **arena bytes** (the shuffled CSR arenas
    /// are what dominates a cached plan's footprint). The most recently
    /// inserted plan is always retained even if it alone exceeds the cap.
    pub cache_capacity_bytes: u64,
    /// Shard count and retry/backoff/degradation policy of the supervision
    /// layer every query (warm and cold) runs under: shard isolation,
    /// retry/backoff, graceful degradation. `None` reduces unsupervised,
    /// partition-parallel.
    pub supervised: Option<(usize, SupervisorConfig)>,
    /// Verification level of every response's report.
    pub verification: VerificationLevel,
    /// Thread knob shared by the optimizer, the shuffle, and the local joins
    /// (`0` = all cores, `1` = strictly sequential).
    pub threads: usize,
    /// Seed of the cold path's RecPart run (sampling, routing hashes).
    pub seed: u64,
    /// Sampling configuration of the cold path's RecPart run.
    pub sample: SampleConfig,
    /// Load weights shared by the optimizer and the executor.
    pub load_model: LoadModel,
    /// Per-worker local join algorithm.
    pub local_algorithm: LocalJoinAlgorithm,
    /// Timing model of the simulated cluster.
    pub machine: MachineModel,
    /// Shuffle chunking/storage of the cold path (heap or mmap spill arenas —
    /// cached plans keep whatever backing the shuffle produced).
    pub shuffle: ShuffleConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity_bytes: 256 << 20,
            supervised: None,
            verification: VerificationLevel::Count,
            threads: 0,
            seed: 0x5EED_0001,
            sample: SampleConfig::default(),
            load_model: LoadModel::default(),
            local_algorithm: LocalJoinAlgorithm::default(),
            machine: MachineModel::default(),
            shuffle: ShuffleConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// The default configuration (256 MiB cache, unsupervised, full-core
    /// parallelism, `Count` verification).
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the plan-cache capacity in arena bytes.
    pub fn with_cache_capacity_bytes(mut self, bytes: u64) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Run every reduce under supervision with `shards` shard workers.
    pub fn with_supervised(mut self, shards: usize, supervisor: SupervisorConfig) -> Self {
        self.supervised = Some((shards, supervisor));
        self
    }

    /// Override the verification level of every response.
    pub fn with_verification(mut self, level: VerificationLevel) -> Self {
        self.verification = level;
        self
    }

    /// Bound every phase to `threads` OS threads (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the cold path's optimizer seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the cold path's sampling configuration.
    pub fn with_sample(mut self, sample: SampleConfig) -> Self {
        self.sample = sample;
        self
    }

    /// Override the load model.
    pub fn with_load_model(mut self, load_model: LoadModel) -> Self {
        self.load_model = load_model;
        self
    }

    /// Override the per-worker local join algorithm.
    pub fn with_local_algorithm(mut self, algorithm: LocalJoinAlgorithm) -> Self {
        self.local_algorithm = algorithm;
        self
    }

    /// Override the cluster timing model.
    pub fn with_machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Override the cold path's shuffle chunking/storage.
    pub fn with_shuffle_config(mut self, shuffle: ShuffleConfig) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// The [`ExecutorConfig`] the service derives for a query's worker count —
    /// exposed so tests can build a bit-identical one-shot oracle.
    pub fn executor_config(&self, workers: usize) -> ExecutorConfig {
        ExecutorConfig::new(workers)
            .with_verification(self.verification)
            .with_load_model(self.load_model)
            .with_local_algorithm(self.local_algorithm)
            .with_machine(self.machine)
            .with_threads(self.threads)
    }

    /// The [`RecPartConfig`] the cold path optimizes under for a query's worker
    /// count — exposed so tests can rebuild the identical partitioner.
    pub fn recpart_config(&self, workers: usize) -> RecPartConfig {
        RecPartConfig::new(workers)
            .with_seed(self.seed)
            .with_sample(self.sample)
            .with_load_model(self.load_model)
            .with_threads(self.threads)
    }
}

/// One query of the stream: which band, how many workers, and whether the
/// caller wants the joined pairs back.
#[derive(Debug, Clone, PartialEq)]
pub struct BandJoinQuery {
    /// The band condition (per-dimension, possibly asymmetric ε).
    pub band: BandCondition,
    /// Worker count `w` to plan (or reuse a plan) for.
    pub workers: usize,
    /// Materialize and return the joined `(s, t)` index pairs in
    /// [`QueryResponse::pairs`].
    pub materialize: bool,
}

impl BandJoinQuery {
    /// A non-materializing query.
    pub fn new(band: BandCondition, workers: usize) -> Self {
        BandJoinQuery {
            band,
            workers,
            materialize: false,
        }
    }

    /// Request the joined pairs in the response.
    pub fn with_materialize(mut self) -> Self {
        self.materialize = true;
        self
    }
}

/// How a response's plan was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanSource {
    /// Cache miss: optimize + compile + shuffle ran, plan inserted.
    ColdBuild,
    /// Exact plan-cache hit: only the reduce phase ran.
    WarmHit,
    /// Served from a wider cached plan through band subsumption: only the
    /// reduce phase ran, zero tuples shuffled.
    SubsumedHit,
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// How the plan was obtained.
    pub source: PlanSource,
    /// [`SplitTreePartitioner::plan_signature`] of the plan that served the
    /// query (look the partitioner up with
    /// [`BandJoinService::cached_partitioner`]).
    pub plan_signature: u64,
    /// The full execution report — bit-identical (wall-clock fields aside) to
    /// a one-shot [`Executor::execute`] with the serving partitioner and the
    /// query band.
    pub report: ExecutionReport,
    /// The joined `(s, t)` index pairs, present iff the query asked to
    /// materialize. On a degraded response these cover only the shards that
    /// survived.
    pub pairs: Option<Vec<(u32, u32)>>,
    /// Supervision accounting of **this** query (all zeros when unsupervised).
    pub recovery: RecoveryCounters,
}

/// Aggregated service introspection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceHealth {
    /// Plan-cache accounting: hits, subsumed hits, misses, evictions, arena
    /// bytes currently cached. `cache.queries()` equals `queries_served`.
    pub cache: PlanCacheCounters,
    /// Supervision accounting accumulated over every served query.
    pub recovery: RecoveryCounters,
    /// Tuple assignments routed by all cold-build shuffles (warm and subsumed
    /// hits shuffle nothing, by construction).
    pub tuples_shuffled: u64,
    /// Number of shuffles run (== cold builds that reached the shuffle).
    pub shuffles_run: u64,
    /// Plans currently cached.
    pub cached_plans: usize,
    /// Queries answered (successfully) so far.
    pub queries_served: u64,
    /// Responses flagged degraded (a supervised shard exhausted its retries).
    pub degraded_responses: u64,
    /// Builds of the exact-join index that verification sweeps: one per
    /// dataset generation that served a verified query. Warm and subsumed hits
    /// never build it; an append drops it.
    pub exact_index_builds: u64,
}

/// A long-running band-join server: owns the dataset and the plan cache,
/// answers queries from the cache when it can. See the module docs.
pub struct BandJoinService {
    config: ServiceConfig,
    s: Relation,
    t: Relation,
    cache: PlanCache,
    /// One executor per distinct worker count seen (the rayon pool behind the
    /// `threads` knob is built once per executor, not per query).
    executors: Vec<(usize, Executor)>,
    recovery: RecoveryCounters,
    tuples_shuffled: u64,
    shuffles_run: u64,
    queries_served: u64,
    degraded_responses: u64,
    /// The exact-join index of the current dataset generation, built by its
    /// first verified query.
    exact_index: Option<ExactJoinIndex>,
    exact_index_builds: u64,
}

impl BandJoinService {
    /// Load the dataset. The relations must be non-empty and of equal
    /// dimensionality (the cold path's optimizer requires both).
    pub fn new(s: Relation, t: Relation, config: ServiceConfig) -> Self {
        assert_eq!(s.dims(), t.dims(), "S and T must agree on dimensionality");
        assert!(
            !s.is_empty() && !t.is_empty(),
            "cannot serve band-joins over an empty relation"
        );
        let cache = PlanCache::new(config.cache_capacity_bytes);
        BandJoinService {
            config,
            s,
            t,
            cache,
            executors: Vec::new(),
            recovery: RecoveryCounters::default(),
            tuples_shuffled: 0,
            shuffles_run: 0,
            queries_served: 0,
            degraded_responses: 0,
            exact_index: None,
            exact_index_builds: 0,
        }
    }

    /// The loaded S relation.
    pub fn s(&self) -> &Relation {
        &self.s
    }

    /// The loaded T relation.
    pub fn t(&self) -> &Relation {
        &self.t
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Append a tuple to S. Bumps S's generation, so every cached plan becomes
    /// unreachable and is purged (a mutated dataset is never served from a
    /// stale arena), and the exact-join index is dropped.
    pub fn append_s(&mut self, key: &[f64]) {
        self.s.push(key);
        self.purge_stale();
    }

    /// Append a tuple to T. See [`BandJoinService::append_s`].
    pub fn append_t(&mut self, key: &[f64]) {
        self.t.push(key);
        self.purge_stale();
    }

    fn purge_stale(&mut self) {
        self.cache
            .purge_stale(self.s.generation(), self.t.generation());
        self.exact_index = None;
    }

    /// Aggregated introspection: cache and recovery counters, shuffle volume,
    /// response accounting.
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth {
            cache: self.cache.counters(),
            recovery: self.recovery,
            tuples_shuffled: self.tuples_shuffled,
            shuffles_run: self.shuffles_run,
            cached_plans: self.cache.len(),
            queries_served: self.queries_served,
            degraded_responses: self.degraded_responses,
            exact_index_builds: self.exact_index_builds,
        }
    }

    /// The cached partitioner behind a response's
    /// [`QueryResponse::plan_signature`], without touching cache recency or
    /// counters — this is how a test rebuilds the one-shot oracle for a
    /// response. `None` if the plan has been evicted since.
    pub fn cached_partitioner(&self, plan_signature: u64) -> Option<&SplitTreePartitioner> {
        self.cache
            .peek_by_signature(plan_signature)
            .map(|plan| &plan.partitioner)
    }

    /// Answer one query (no fault injection).
    pub fn serve(&mut self, query: &BandJoinQuery) -> Result<QueryResponse, SuperviseError> {
        self.serve_with_faults(query, &FaultPlan::none())
    }

    /// Answer one query with deterministic fault injection (chaos tests). The
    /// plan's faults fire inside this query's shuffle/reduce; a shard that
    /// exhausts its retries degrades only this response.
    ///
    /// Errors (`SuperviseError`) surface when a whole phase exhausts its budget
    /// (shuffle, merge, or — under [`SupervisorConfig::fail_fast`] — any
    /// shard); the service stays usable afterwards.
    ///
    /// # Panics
    /// Panics if `faults` is non-empty on a service without supervision: an
    /// unsupervised reduce has no injection points, so the plan would never
    /// fire.
    pub fn serve_with_faults(
        &mut self,
        query: &BandJoinQuery,
        faults: &FaultPlan,
    ) -> Result<QueryResponse, SuperviseError> {
        assert_eq!(
            query.band.dims(),
            self.s.dims(),
            "query band dimensionality must match the dataset"
        );
        assert!(
            faults.is_empty() || self.config.supervised.is_some(),
            "fault injection needs a supervised service (ServiceConfig::with_supervised): \
             an unsupervised query would never trip the plan"
        );
        let exec_idx = self.ensure_executor(query.workers);
        let key = PlanKey::new(
            self.s.generation(),
            self.t.generation(),
            &query.band,
            query.workers,
        );
        let schedule = match &self.config.supervised {
            Some((shards, sup)) => Schedule::Supervised(*shards, faults, sup),
            None => Schedule::PartitionParallel,
        };
        let had_index = self.exact_index.is_some();

        let exec = &self.executors[exec_idx].1;
        let (source, plan_signature, run) = match self.cache.lookup(&key) {
            Some((plan, cache_outcome)) => {
                let source = match cache_outcome {
                    CacheOutcome::Hit => PlanSource::WarmHit,
                    CacheOutcome::SubsumedHit => PlanSource::SubsumedHit,
                };
                let run = exec.run(
                    &plan.partitioner,
                    &self.s,
                    &self.t,
                    &query.band,
                    Arenas::Given(&plan.s_parts, &plan.t_parts),
                    schedule,
                    query.materialize,
                    Some(&mut self.exact_index),
                );
                (source, plan.plan_signature, run)
            }
            None => {
                // Cold build: optimize, then run with a fresh shuffle and cache
                // the arenas it hands back. (The miss was counted by the lookup.)
                let mut rng = StdRng::seed_from_u64(self.config.seed);
                let partitioner = RecPart::new(self.config.recpart_config(query.workers))
                    .optimize(&self.s, &self.t, &query.band, &mut rng)
                    .partitioner;
                let mut run = exec.run(
                    &partitioner,
                    &self.s,
                    &self.t,
                    &query.band,
                    Arenas::Shuffle,
                    schedule,
                    query.materialize,
                    Some(&mut self.exact_index),
                );
                let plan_signature = partitioner.plan_signature();
                if let Some(shuffled) = run.shuffled.take() {
                    self.tuples_shuffled += shuffled.total_input();
                    self.shuffles_run += 1;
                    // A degraded *response* does not poison the *plan*: the
                    // arenas are complete; only this query's reduce lost
                    // shards. A failed query caches nothing.
                    if run.execution.is_ok() {
                        let plan = CachedPlan {
                            partitioner,
                            s_parts: shuffled.s_parts,
                            t_parts: shuffled.t_parts,
                            plan_signature,
                        };
                        self.cache.insert(key, plan);
                    }
                }
                (PlanSource::ColdBuild, plan_signature, run)
            }
        };
        if !had_index && self.exact_index.is_some() {
            self.exact_index_builds += 1;
        }

        let execution = run.execution?;
        self.recovery += execution.recovery;
        self.queries_served += 1;
        self.degraded_responses += u64::from(execution.report.degraded);
        Ok(QueryResponse {
            source,
            plan_signature,
            report: execution.report,
            pairs: run.pairs,
            recovery: execution.recovery,
        })
    }

    /// The executor for `workers`, built (with its thread pool) at most once
    /// per distinct worker count.
    fn ensure_executor(&mut self, workers: usize) -> usize {
        if let Some(i) = self.executors.iter().position(|(w, _)| *w == workers) {
            return i;
        }
        let exec = Executor::new(self.config.executor_config(workers))
            .with_shuffle_config(self.config.shuffle.clone());
        self.executors.push((workers, exec));
        self.executors.len() - 1
    }
}
