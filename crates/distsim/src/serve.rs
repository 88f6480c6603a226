//! Plan-cached query serving: load a dataset once, answer a **stream** of
//! band-join queries.
//!
//! The one-shot pipeline ([`Executor::execute`]) pays optimize → compile →
//! shuffle → join for every query. In a serving setting the dataset is
//! long-lived and queries arrive with recurring bands and worker counts, so the
//! expensive front half is highly redundant. [`BandJoinService`] keeps it in a
//! [`PlanCache`]:
//!
//! * a **cold miss** builds through the existing pipeline (RecPart optimize,
//!   router compile, counting shuffle) and caches the plan — partitioner plus
//!   both shuffled CSR arenas;
//! * a **warm hit** (exact [`PlanKey`] match) skips straight to the reduce
//!   phase over the cached arenas;
//! * a **subsumed hit** serves a query whose band is per-dimension *narrower*
//!   than a cached plan's from that plan's arenas — zero new shuffles — because
//!   every pair matching the narrower band also matched the wider one, the
//!   wider plan's duplication co-locates it exactly once, and the join kernels
//!   filter exactly with the query band.
//!
//! Every served path runs [`Executor::join_partition`] per partition and the
//! shared `assemble_report` downstream, so a response is **bit-identical by
//! construction** to a one-shot [`Executor::execute`] with the same partitioner
//! and query band — only wall-clock fields differ (a warm response reports
//! `map_shuffle_wall_seconds == 0.0`: no shuffle ran).
//!
//! With [`ServiceConfig::with_supervised`] both warm and cold paths run the
//! reduce under the supervision layer ([`crate::supervise`]): a crashed shard
//! worker degrades exactly one response (partial report, `degraded` flag) and
//! the service keeps serving; recovery accounting accumulates in
//! [`ServiceHealth`].
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

use crate::executor::{ExecutionReport, Executor, ExecutorConfig, ShardPlan, VerificationLevel};
use crate::faults::{FaultInjector, FaultPlan};
use crate::local_join::LocalJoinAlgorithm;
use crate::machine::MachineModel;
use crate::metrics::RecoveryCounters;
use crate::plan_cache::{CacheOutcome, CachedPlan, PlanCache, PlanKey};
use crate::shuffle::{PartitionedIndex, ShuffleConfig, ShuffledInputs};
use crate::supervise::{SuperviseError, SupervisorConfig};
use crate::verify::ExactJoinIndex;
use rand::{rngs::StdRng, SeedableRng};
use recpart::{
    BandCondition, LoadModel, RecPart, RecPartConfig, Relation, SampleConfig, SplitTreePartitioner,
};
use recpart::{Partitioner, PlanCacheCounters};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Everything the service fixes at load time; per-query knobs (band, workers,
/// materialization) live on [`BandJoinQuery`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the plan cache in **arena bytes** (the shuffled CSR arenas
    /// are what dominates a cached plan's footprint). The most recently
    /// inserted plan is always retained even if it alone exceeds the cap.
    pub cache_capacity_bytes: u64,
    /// Run the reduce phase of every query (warm and cold) under the
    /// supervision layer: shard isolation, retry/backoff, graceful
    /// degradation.
    pub supervised: bool,
    /// Shard count of the supervised reduce (ignored when `supervised` is
    /// off).
    pub shards: usize,
    /// Retry/backoff/degradation policy of the supervised reduce.
    pub supervisor: SupervisorConfig,
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
            supervised: false,
            shards: 4,
            supervisor: SupervisorConfig::default(),
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
        self.supervised = true;
        self.shards = shards;
        self.supervisor = supervisor;
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
    exact_index: ExactIndexSlot,
}

/// The service's [`ExactJoinIndex`]: built by the first verified query of a
/// dataset generation, dropped when an append bumps one.
#[derive(Default)]
struct ExactIndexSlot {
    index: Option<ExactJoinIndex>,
    builds: u64,
}

impl ExactIndexSlot {
    /// The index over `s` and `t`, and the seconds spent building it now (0 if
    /// it was already built).
    fn get(&mut self, s: &Relation, t: &Relation) -> (&ExactJoinIndex, f64) {
        let mut build_seconds = 0.0;
        if self.index.is_none() {
            let start = Instant::now();
            self.index = Some(ExactJoinIndex::build(s, t));
            self.builds += 1;
            build_seconds = start.elapsed().as_secs_f64();
        }
        (self.index.as_ref().expect("built above"), build_seconds)
    }
}

/// What the reduce-and-report stage hands back for one query.
struct ReduceOutcome {
    report: ExecutionReport,
    pairs: Option<Vec<(u32, u32)>>,
    degraded: bool,
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
            exact_index: ExactIndexSlot::default(),
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
        self.exact_index.index = None;
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
            exact_index_builds: self.exact_index.builds,
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
    /// plan's faults fire inside this query's shuffle/reduce; with
    /// supervision enabled a shard that exhausts its retries degrades only
    /// this response.
    ///
    /// Errors (`SuperviseError`) only surface when supervision is enabled and
    /// a whole phase exhausts its budget (shuffle, merge, or — under
    /// [`SupervisorConfig::fail_fast`] — any shard); the service stays usable
    /// afterwards.
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
        let exec_idx = self.ensure_executor(query.workers);
        let key = PlanKey::new(
            self.s.generation(),
            self.t.generation(),
            &query.band,
            query.workers,
        );
        let injector = FaultInjector::new(faults.clone());
        let mut counters = RecoveryCounters::default();

        let exec = &self.executors[exec_idx].1;
        let outcome = match self.cache.lookup(&key) {
            Some((plan, cache_outcome)) => {
                let source = match cache_outcome {
                    CacheOutcome::Hit => PlanSource::WarmHit,
                    CacheOutcome::SubsumedHit => PlanSource::SubsumedHit,
                };
                let plan_signature = plan.plan_signature;
                let reduced = reduce_on_arenas(
                    exec,
                    &self.config,
                    &self.s,
                    &self.t,
                    &query.band,
                    &plan.partitioner,
                    &plan.s_parts,
                    &plan.t_parts,
                    0.0,
                    query.materialize,
                    &injector,
                    &mut counters,
                    &mut self.exact_index,
                )?;
                (source, plan_signature, reduced)
            }
            None => {
                // Cold build: the full existing pipeline, then cache the plan.
                // (The miss was counted by the lookup.)
                let mut rng = StdRng::seed_from_u64(self.config.seed);
                let result = RecPart::new(self.config.recpart_config(query.workers)).optimize(
                    &self.s,
                    &self.t,
                    &query.band,
                    &mut rng,
                );
                let partitioner = result.partitioner;
                let ShuffledInputs {
                    s_parts,
                    t_parts,
                    wall_seconds,
                } = if self.config.supervised {
                    exec.supervised_shuffle(
                        &partitioner,
                        &self.s,
                        &self.t,
                        &injector,
                        &self.config.supervisor,
                        &mut counters,
                    )?
                } else {
                    exec.map_shuffle(&partitioner, &self.s, &self.t)
                };
                self.tuples_shuffled += (s_parts.len() + t_parts.len()) as u64;
                self.shuffles_run += 1;
                let reduced = reduce_on_arenas(
                    exec,
                    &self.config,
                    &self.s,
                    &self.t,
                    &query.band,
                    &partitioner,
                    &s_parts,
                    &t_parts,
                    wall_seconds,
                    query.materialize,
                    &injector,
                    &mut counters,
                    &mut self.exact_index,
                )?;
                let plan_signature = partitioner.plan_signature();
                // A degraded *response* does not poison the *plan*: the arenas
                // are complete (the shuffle succeeded); only this query's
                // reduce lost shards.
                self.cache.insert(
                    key,
                    CachedPlan {
                        band: partitioner.band().clone(),
                        partitioner,
                        s_parts,
                        t_parts,
                        partition_to_worker: reduced.report.partition_to_worker.clone(),
                        plan_signature,
                    },
                );
                (PlanSource::ColdBuild, plan_signature, reduced)
            }
        };
        let (source, plan_signature, reduced) = outcome;

        if self.config.supervised {
            let fired = injector.fired();
            counters.injected_panics = fired.panics;
            counters.injected_io_errors = fired.io_errors;
            counters.injected_delays = fired.delays;
        }
        accumulate_recovery(&mut self.recovery, &counters);
        self.queries_served += 1;
        if reduced.degraded {
            self.degraded_responses += 1;
        }
        Ok(QueryResponse {
            source,
            plan_signature,
            report: reduced.report,
            pairs: reduced.pairs,
            recovery: counters,
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

/// The shared back half of every served query: reduce over the given arenas
/// (supervised or not), extract the caller's pairs, assemble the report. The
/// per-partition computation is [`Executor::join_partition`] and the report
/// assembly is the executor's own — bit-identity with `Executor::execute` is
/// by construction, for the plan's own band and for any narrower one (see the
/// module docs on subsumption). A verified, non-degraded report is checked
/// through the service's exact-join index; if this query builds it, the build
/// time is part of the report's `verify_wall_seconds`.
#[allow(clippy::too_many_arguments)]
fn reduce_on_arenas(
    exec: &Executor,
    config: &ServiceConfig,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    partitioner: &SplitTreePartitioner,
    s_parts: &PartitionedIndex,
    t_parts: &PartitionedIndex,
    map_shuffle_wall_seconds: f64,
    want_pairs: bool,
    injector: &FaultInjector,
    counters: &mut RecoveryCounters,
    exact_index: &mut ExactIndexSlot,
) -> Result<ReduceOutcome, SuperviseError> {
    let num_partitions = partitioner.num_partitions().max(1);
    assert_eq!(
        s_parts.num_partitions(),
        num_partitions,
        "cached arenas were built for a different partitioning"
    );
    let verification = exec.config().verification;
    let materialize = want_pairs || verification == VerificationLevel::FullPairs;

    let (mut local, degraded) = if config.supervised {
        let shard_plan = ShardPlan::contiguous(num_partitions, config.shards);
        let (local, _shard_stats, failed) = exec.supervised_reduce(
            s,
            t,
            band,
            s_parts,
            t_parts,
            &shard_plan,
            materialize,
            injector,
            &config.supervisor,
            counters,
        )?;
        (local, !failed.is_empty())
    } else {
        (
            exec.run_local_joins(s, t, band, s_parts, t_parts, materialize),
            false,
        )
    };

    // FullPairs verification consumes the pair list inside assemble_report, so
    // the response clones it; otherwise the list was materialized only for the
    // caller and is taken.
    let pairs = if !want_pairs {
        None
    } else if verification == VerificationLevel::FullPairs && !degraded {
        local.all_pairs.clone()
    } else {
        local.all_pairs.take()
    };

    let (index, index_build_seconds) = if verification != VerificationLevel::None && !degraded {
        let (index, seconds) = exact_index.get(s, t);
        (Some(index), seconds)
    } else {
        (None, 0.0)
    };
    let mut report = exec.assemble_report(
        partitioner,
        s,
        t,
        band,
        num_partitions,
        map_shuffle_wall_seconds,
        local,
        degraded,
        index,
    );
    report.verify_wall_seconds += index_build_seconds;
    Ok(ReduceOutcome {
        report,
        pairs,
        degraded,
    })
}

fn accumulate_recovery(total: &mut RecoveryCounters, add: &RecoveryCounters) {
    total.injected_panics += add.injected_panics;
    total.injected_io_errors += add.injected_io_errors;
    total.injected_delays += add.injected_delays;
    total.shuffle_retries += add.shuffle_retries;
    total.shard_retries += add.shard_retries;
    total.speculative_launches += add.speculative_launches;
    total.speculative_wins += add.speculative_wins;
    total.merge_retries += add.merge_retries;
}
