//! The map–shuffle–reduce executor: runs a band-join under a given partitioning on a
//! simulated cluster and reports the paper's success measures.
//!
//! Every entry point runs one pipeline, `Executor::run`, which mirrors Figure 5 of
//! the paper:
//!
//! 1. **Map / shuffle** — or take given arenas. Every input tuple is routed through
//!    the [`Partitioner`], which may copy it to several partitions (duplication). The
//!    routing is block-oriented: contiguous chunks go through the partitioner's
//!    `assign_s_block`/`assign_t_block` (RecPart's compiled split-tree router,
//!    closed-form cell arithmetic for the baselines), never one dynamic-dispatch call
//!    per tuple. The per-partition index arenas hold the paper's total input `I`. A
//!    run handed the arenas of an earlier shuffle skips this phase and reports
//!    `map_shuffle_wall_seconds = 0`.
//! 2. **Reduce under a schedule**: each partition's band-join runs with the
//!    configured [`LocalJoinAlgorithm`]. A [`ShardPlan`] groups the partitions into
//!    contiguous shards: one shard per partition (partition-parallel), `N` shards that
//!    each join their partitions sequentially while shards run concurrently, or `N`
//!    shards under the supervisor of [`crate::supervise`]. One order-preserving merge
//!    puts the outcomes back in partition order, so every schedule yields the same
//!    report.
//! 3. **Assemble**: partitions are mapped onto the `w` workers with a
//!    longest-processing-time-first heuristic, modelling the dynamic load balancing a
//!    YARN/Spark scheduler performs at runtime (identically for every strategy, so
//!    comparisons remain fair). The report holds per-worker input/output/comparison
//!    counts, the derived [`PartitioningStats`] (`I`, `I_m`, `O_m`, `L_m`, overheads
//!    vs. lower bounds), the simulated join time from the [`MachineModel`], and
//!    optional verification against an exact single-node join.
//!
//! The public entry points are thin wrappers over that one run:
//! [`Executor::execute`] shuffles and reduces partition-parallel,
//! [`Executor::execute_prepared`] reduces given arenas, [`Executor::execute_sharded`]
//! reduces in `N` shards, and [`Executor::execute_supervised`] reduces in `N`
//! supervised shards. [`crate::serve::BandJoinService`] calls the run directly.
//!
//! Every phase — map/shuffle (see [`crate::shuffle`]), the local joins, and the exact
//! verification join (see [`crate::verify`]) — honours [`ExecutorConfig::threads`] and
//! runs on the same rayon context, so end-to-end `execute` wall-clock scales with
//! cores while its results stay bit-identical to the sequential path. The measured
//! wall-clock of each phase is reported separately
//! ([`ExecutionReport::map_shuffle_wall_seconds`],
//! [`ExecutionReport::local_join_wall_seconds`],
//! [`ExecutionReport::verify_wall_seconds`]).

use crate::faults::FaultPlan;
use crate::local_join::LocalJoinAlgorithm;
use crate::machine::{MachineModel, WorkerWork};
use crate::metrics::ShardStats;
use crate::parallel::Parallelism;
use crate::shuffle::{shuffle, PartitionedIndex, ShuffleConfig, ShuffledInputs};
use crate::supervise::{SuperviseError, SupervisedExecution, Supervisor, SupervisorConfig};
use crate::verify::{
    check_pairs_against, exact_join_count_on, exact_join_pairs_on, ExactJoinIndex, PairCheck,
};
use rayon::prelude::*;
use recpart::{
    BandCondition, LoadModel, LptHeap, Partitioner, PartitioningStats, Relation, WorkerLoad,
};
use serde::{Deserialize, Serialize};
#[cfg(test)]
use std::cmp::Ordering;
use std::time::Instant;

/// How thoroughly the executor validates the result of the distributed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum VerificationLevel {
    /// No verification (fastest; used by benchmarks).
    None,
    /// Compare the total distributed output count against an exact single-node join.
    /// Catches both lost and duplicated results as long as their counts differ.
    #[default]
    Count,
    /// Materialize every produced pair and compare the multiset against the exact
    /// result. Detects lost, spurious, and duplicated pairs individually. Only suitable
    /// for small inputs.
    FullPairs,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Number of simulated worker machines `w`.
    pub workers: usize,
    /// Load weights used for `L_m` and the partition→worker mapping.
    pub load_model: LoadModel,
    /// Local band-join algorithm run by each worker. Per-window band evaluation
    /// dispatches through the process-wide [`recpart::JoinKernel::active`] kernel
    /// (override with `BAND_JOIN_JOIN_KERNEL`); results are bit-identical — pairs,
    /// order, and `comparisons` — for every kernel, so [`MachineModel`]-derived
    /// times do not depend on the kernel either.
    pub local_algorithm: LocalJoinAlgorithm,
    /// Timing model of the simulated cluster.
    pub machine: MachineModel,
    /// Verification level.
    pub verification: VerificationLevel,
    /// Parallelism of every measured phase (map/shuffle, local joins, verification):
    /// `0` uses one rayon thread per available core, `1` runs strictly sequentially
    /// (no thread pool at all), `n > 1` uses a rayon pool of `n` threads. Results are
    /// bit-identical across all settings; only wall-clock timing changes.
    pub threads: usize,
}

impl ExecutorConfig {
    /// Configuration with defaults for `workers` simulated machines.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ExecutorConfig {
            workers,
            load_model: LoadModel::default(),
            local_algorithm: LocalJoinAlgorithm::default(),
            machine: MachineModel::default(),
            verification: VerificationLevel::Count,
            threads: 0,
        }
    }

    /// Override the verification level.
    pub fn with_verification(mut self, level: VerificationLevel) -> Self {
        self.verification = level;
        self
    }

    /// Override the load model.
    pub fn with_load_model(mut self, load_model: LoadModel) -> Self {
        self.load_model = load_model;
        self
    }

    /// Override the local join algorithm.
    pub fn with_local_algorithm(mut self, algorithm: LocalJoinAlgorithm) -> Self {
        self.local_algorithm = algorithm;
        self
    }

    /// Override the machine model.
    pub fn with_machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Bound every parallel phase to `threads` OS threads (0 = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Run every phase strictly sequentially (equivalent to `with_threads(1)`);
    /// useful as a baseline for the parallel backend.
    pub fn sequential(self) -> Self {
        self.with_threads(1)
    }
}

/// Work and result sizes of one partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionLoad {
    /// S-tuples received (including duplicates).
    pub s_input: u64,
    /// T-tuples received (including duplicates).
    pub t_input: u64,
    /// Output pairs produced by this partition's local join.
    pub output: u64,
    /// Candidate comparisons performed.
    pub comparisons: u64,
}

impl PartitionLoad {
    /// Total input of the partition.
    pub fn input(&self) -> u64 {
        self.s_input + self.t_input
    }
}

/// Everything measured about one distributed execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Name of the partitioning strategy.
    pub strategy: String,
    /// The paper's success measures (`I`, `I_m`, `O_m`, `L_m`, overheads, per-worker loads).
    pub stats: PartitioningStats,
    /// Number of logical partitions the strategy created.
    pub partitions: usize,
    /// Per-partition measurements.
    pub per_partition: Vec<PartitionLoad>,
    /// Which worker each partition was executed on.
    pub partition_to_worker: Vec<u32>,
    /// Per-worker work (input, output, comparisons, tasks).
    pub per_worker_work: Vec<WorkerWork>,
    /// Total candidate comparisons across the cluster.
    pub total_comparisons: u64,
    /// Simulated end-to-end join time (seconds) under the machine model.
    pub simulated_join_seconds: f64,
    /// Measured wall-clock seconds each partition's local join took on this machine.
    pub per_partition_wall_seconds: Vec<f64>,
    /// Measured wall-clock busy seconds per simulated worker: the sum of the local-join
    /// times of the partitions mapped onto it. The spread across workers shows real
    /// (not just modelled) load imbalance.
    pub per_worker_wall_seconds: Vec<f64>,
    /// Measured wall-clock seconds of the whole local-join phase (all partitions,
    /// across however many threads the executor was configured with).
    pub local_join_wall_seconds: f64,
    /// Measured wall-clock seconds of the map/shuffle phase (routing every tuple
    /// through the partitioner and materializing per-partition index lists).
    pub map_shuffle_wall_seconds: f64,
    /// Measured wall-clock seconds spent verifying the result against an exact
    /// single-node join (0 when verification is disabled).
    pub verify_wall_seconds: f64,
    /// Number of OS threads the parallel phases ran on (1 = sequential path).
    pub threads_used: usize,
    /// Exact output size, when verification computed it.
    pub exact_output: Option<u64>,
    /// Whether the distributed output matched the exact result (per the verification
    /// level); `None` when verification was disabled.
    pub correct: Option<bool>,
    /// Detailed pair-level check, when [`VerificationLevel::FullPairs`] was used.
    pub pair_check: Option<PairCheck>,
    /// Whether this is a *partial* report: some shards exhausted their retry
    /// budget under supervised execution and their partitions carry default
    /// (zero) loads. Verification is skipped for degraded reports — the missing
    /// work would be flagged as incorrect, which it deliberately is not. Always
    /// `false` on the unsupervised paths.
    pub degraded: bool,
}

impl ExecutionReport {
    /// Duplication overhead (x-axis of Figure 4).
    pub fn duplication_overhead(&self) -> f64 {
        self.stats.duplication_overhead()
    }

    /// Max-load overhead (y-axis of Figure 4).
    pub fn load_overhead(&self) -> f64 {
        self.stats.load_overhead()
    }

    /// Measured wall-clock time of the slowest simulated worker (seconds): the
    /// real-hardware analogue of the paper's `L_m`.
    pub fn max_worker_wall_seconds(&self) -> f64 {
        self.per_worker_wall_seconds
            .iter()
            .fold(0.0f64, |acc, &s| acc.max(s))
    }

    /// Sum of the measured wall-clock seconds of all phases (map/shuffle + local
    /// joins + verification) — the part of `execute` that scales with `threads`.
    pub fn measured_phase_seconds(&self) -> f64 {
        self.map_shuffle_wall_seconds + self.local_join_wall_seconds + self.verify_wall_seconds
    }
}

/// Joined `(s, t)` index pairs.
pub(crate) type Pairs = Vec<(u32, u32)>;

/// What one partition's local join produces: measured load, materialized pairs (empty
/// unless pairs are materialized), and wall-clock seconds.
pub(crate) type PartitionJoinOutcome = (PartitionLoad, Pairs, f64);

/// Everything the local-join phase measured, in partition order.
pub(crate) struct LocalJoinPhase {
    pub(crate) per_partition: Vec<PartitionLoad>,
    pub(crate) per_partition_wall_seconds: Vec<f64>,
    pub(crate) wall_seconds: f64,
    pub(crate) threads_used: usize,
}

/// One shard's contribution to the merge: its per-partition outcomes (`None`
/// when the shard exhausted its retry budget), the wall-clock of the kept
/// attempt, and the supervision accounting ([`ShardStats::attempts`],
/// [`ShardStats::recovery_wall_seconds`]).
pub(crate) struct ShardOutcome {
    pub(crate) outcomes: Option<Vec<PartitionJoinOutcome>>,
    pub(crate) wall_seconds: f64,
    pub(crate) attempts: u32,
    pub(crate) recovery_wall_seconds: f64,
}

/// A shared-nothing shard layout over the partition space: shard `i` exclusively
/// owns the contiguous partition range `ranges[i]` of the global CSR arena, so
/// shards never share mutable state — only read-only views of the inputs and the
/// shuffled index. Shards run as threads today, but the layout (a contiguous
/// partition range plus shared immutable inputs) is exactly what a per-process
/// deployment would hand each worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Split `num_partitions` partitions into `min(shards, num_partitions)`
    /// contiguous, disjoint, covering ranges whose sizes differ by at most one:
    /// the first `num_partitions % shards` shards take one extra partition.
    /// Shards beyond the partition count are dropped rather than left empty.
    pub fn contiguous(num_partitions: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let shards = shards.min(num_partitions);
        let mut lo = 0;
        let ranges = (0..shards)
            .map(|i| {
                let hi = lo + num_partitions / shards + usize::from(i < num_partitions % shards);
                let range = (lo, hi);
                lo = hi;
                range
            })
            .collect();
        ShardPlan { ranges }
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The partition range `[lo, hi)` owned by shard `shard`.
    pub fn partition_range(&self, shard: usize) -> (usize, usize) {
        self.ranges[shard]
    }
}

/// The result of [`Executor::execute_sharded`]: the same struct a supervised run
/// returns, with no failed shards and zero recovery counters.
pub type ShardedExecution = SupervisedExecution;

/// Where a run's per-partition arenas come from.
#[derive(Clone, Copy)]
pub(crate) enum Arenas<'a> {
    /// Route both relations through the partitioner now.
    Shuffle,
    /// The S and T arenas an earlier shuffle built under the same partitioner.
    Given(&'a PartitionedIndex, &'a PartitionedIndex),
}

/// How a run schedules its reduce phase.
pub(crate) enum Schedule<'a> {
    /// One shard per partition, dynamically scheduled on the executor's rayon
    /// context.
    PartitionParallel,
    /// `n` contiguous shards, each joining its partitions sequentially while the
    /// shards run concurrently.
    Shards(usize),
    /// `n` shards under the supervisor, with faults injected per the plan.
    Supervised(usize, &'a FaultPlan, &'a SupervisorConfig),
}

/// What one run hands back.
pub(crate) struct Run {
    /// The execution, or the supervised phase that exhausted its retry budget.
    pub(crate) execution: Result<SupervisedExecution, SuperviseError>,
    /// The joined pairs, when the run was asked for them and did not fail (on a
    /// degraded run, only the surviving shards' pairs).
    pub(crate) pairs: Option<Pairs>,
    /// The arenas this run shuffled; `None` when it was given arenas or its
    /// shuffle failed.
    pub(crate) shuffled: Option<ShuffledInputs>,
}

/// The simulated-cluster executor.
#[derive(Debug, Clone)]
pub struct Executor {
    config: ExecutorConfig,
    /// Chunking and arena-backing of the map/shuffle phase (out-of-core knobs);
    /// defaults to the legacy in-memory behaviour. Kept outside [`ExecutorConfig`]
    /// so that stays `Copy` ([`crate::shuffle::ShuffleConfig`] holds a spill-dir
    /// handle).
    pub(crate) shuffle_config: ShuffleConfig,
    /// Thread pool for an explicit `threads > 1` bound, built once per executor so
    /// repeated `execute` calls do not pay pool construction. `threads == 0` uses the
    /// ambient rayon context; `threads == 1` bypasses rayon entirely.
    pool: Option<std::sync::Arc<rayon::ThreadPool>>,
}

impl Executor {
    /// Create an executor.
    pub fn new(config: ExecutorConfig) -> Self {
        let pool = (config.threads > 1).then(|| {
            std::sync::Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(config.threads)
                    .build()
                    .expect("building the local-join thread pool"),
            )
        });
        Executor {
            config,
            shuffle_config: ShuffleConfig::default(),
            pool,
        }
    }

    /// Override the map/shuffle chunking and arena backing (streaming chunks,
    /// mmap-backed spill arenas — see [`ShuffleConfig`]). Results are bit-identical
    /// for every setting; only memory residency and wall-clock change.
    pub fn with_shuffle_config(mut self, shuffle_config: ShuffleConfig) -> Self {
        self.shuffle_config = shuffle_config;
        self
    }

    /// Convenience constructor with default configuration for `workers` machines.
    pub fn with_workers(workers: usize) -> Self {
        Executor::new(ExecutorConfig::new(workers))
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// The parallelism context every phase runs under.
    pub(crate) fn parallelism(&self) -> Parallelism<'_> {
        match self.config.threads {
            1 => Parallelism::Sequential,
            0 => Parallelism::Ambient,
            _ => Parallelism::Pool(self.pool.as_ref().expect("pool exists when threads > 1")),
        }
    }

    /// Run the map/shuffle phase alone: route every tuple of `s` and `t` through the
    /// partitioner and materialize per-partition input index lists, under this
    /// executor's `threads` setting. The index lists are bit-identical for every
    /// thread count (parallel routing merges contiguous chunks in input order).
    pub fn map_shuffle<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
    ) -> ShuffledInputs {
        let num_partitions = partitioner.num_partitions().max(1);
        shuffle(
            partitioner,
            s,
            t,
            num_partitions,
            &self.parallelism(),
            &self.shuffle_config,
        )
    }

    /// Execute the band-join of `s` and `t` under `partitioner` and measure everything.
    pub fn execute<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
    ) -> ExecutionReport {
        self.run_unsupervised(
            partitioner,
            s,
            t,
            band,
            Arenas::Shuffle,
            Schedule::PartitionParallel,
        )
        .report
    }

    /// Execute only the reduce phase — per-partition local joins, worker mapping,
    /// stats, verification — against **pre-shuffled** arenas: the warm path of a
    /// plan-cached service ([`crate::serve`]), where optimize/compile/shuffle ran
    /// once and every subsequent query reuses the arenas.
    ///
    /// This is [`Executor::execute`]'s pipeline with the shuffle replaced by the
    /// given arenas, so the result is bit-identical by construction to a fresh
    /// `execute` with the same partitioner (only the wall-clock measurements
    /// differ; `map_shuffle_wall_seconds` is reported as 0 because no shuffle ran).
    ///
    /// `band` may be *narrower* (per-dimension ε ≤) than the band the partitioner
    /// and arenas were built for: every pair matching the narrower band also
    /// matched the wider one, so the wider plan's duplication still co-locates it
    /// exactly once, and the join kernels filter with `band` exactly — this is
    /// what makes band-subsumption reuse sound.
    ///
    /// # Panics
    /// Panics if the arenas' partition count does not match the partitioner's.
    pub fn execute_prepared<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        s_parts: &PartitionedIndex,
        t_parts: &PartitionedIndex,
    ) -> ExecutionReport {
        self.run_unsupervised(
            partitioner,
            s,
            t,
            band,
            Arenas::Given(s_parts, t_parts),
            Schedule::PartitionParallel,
        )
        .report
    }

    /// Execute the band-join with shared-nothing shard workers: the partition space
    /// is split into `shards` contiguous disjoint ranges ([`ShardPlan`]), each shard
    /// joins its own partitions **sequentially** while shards run concurrently, and
    /// the per-shard results are merged back in shard (= partition) order. Because
    /// every per-partition computation and the merge order are identical to
    /// [`Executor::execute`], the resulting report — loads, stats, pair checks — is
    /// bit-identical to the unsharded run; sharding only changes where the work ran
    /// and adds per-shard measurements.
    pub fn execute_sharded<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        shards: usize,
    ) -> ShardedExecution {
        self.run_unsupervised(
            partitioner,
            s,
            t,
            band,
            Arenas::Shuffle,
            Schedule::Shards(shards),
        )
    }

    /// [`Executor::run`] without a supervisor, which cannot fail.
    fn run_unsupervised<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        arenas: Arenas<'_>,
        schedule: Schedule<'_>,
    ) -> SupervisedExecution {
        self.run(partitioner, s, t, band, arenas, schedule, false, None)
            .execution
            .unwrap_or_else(|e| unreachable!("only a supervised run can fail: {e}"))
    }

    /// The one pipeline behind every entry point: shuffle (or take `arenas`),
    /// reduce under `schedule`, merge the shard outcomes in partition order, then
    /// assemble and verify the report.
    ///
    /// `want_pairs` asks for the joined pairs back. `exact_index` is a cache slot
    /// for the exact-join index over `s` and `t`: a verified, non-degraded report
    /// builds the index into an empty slot and sweeps it, and the build lands in
    /// `verify_wall_seconds`. `None` verifies with a transient one-call index.
    ///
    /// # Panics
    /// Panics if given arenas' partition count does not match the partitioner's.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        arenas: Arenas<'_>,
        schedule: Schedule<'_>,
        want_pairs: bool,
        exact_index: Option<&mut Option<ExactJoinIndex>>,
    ) -> Run {
        let failed_run = |execution: SuperviseError, shuffled| Run {
            execution: Err(execution),
            pairs: None,
            shuffled,
        };
        let num_partitions = partitioner.num_partitions().max(1);
        let (shards, mut supervisor) = match schedule {
            Schedule::PartitionParallel => (num_partitions, None),
            Schedule::Shards(shards) => (shards, None),
            Schedule::Supervised(shards, faults, sup) => {
                (shards, Some(Supervisor::new(faults, sup)))
            }
        };

        // --- Map & shuffle, or the given arenas. ---
        let shuffled = match (arenas, supervisor.as_mut()) {
            (Arenas::Given(..), _) => None,
            (Arenas::Shuffle, None) => Some(self.map_shuffle(partitioner, s, t)),
            (Arenas::Shuffle, Some(sv)) => match sv.shuffle(self, partitioner, s, t) {
                Ok(shuffled) => Some(shuffled),
                Err(e) => return failed_run(e, None),
            },
        };
        let (s_parts, t_parts, map_shuffle_wall_seconds) = match (&shuffled, arenas) {
            (Some(sh), _) => (&sh.s_parts, &sh.t_parts, sh.wall_seconds),
            (None, Arenas::Given(s_parts, t_parts)) => (s_parts, t_parts, 0.0),
            (None, Arenas::Shuffle) => unreachable!("the shuffle ran above"),
        };
        assert_eq!(
            s_parts.num_partitions(),
            num_partitions,
            "pre-shuffled arenas were built for a different partitioning"
        );

        // --- Reduce: shards in partition order, merged back in that order. ---
        let plan = ShardPlan::contiguous(num_partitions, shards);
        let materialize = want_pairs || self.config.verification == VerificationLevel::FullPairs;
        let (outcomes, failed, wall_seconds, threads_used) = match supervisor.as_mut() {
            None => {
                let (outcomes, wall_seconds, threads_used) =
                    self.join_shards(s, t, band, s_parts, t_parts, &plan, materialize);
                (outcomes, Vec::new(), wall_seconds, threads_used)
            }
            Some(sv) => {
                match sv.join_shards(self, s, t, band, s_parts, t_parts, &plan, materialize) {
                    Ok((outcomes, failed, wall_seconds)) => {
                        (outcomes, failed, wall_seconds, plan.num_shards())
                    }
                    Err(e) => return failed_run(e, shuffled),
                }
            }
        };
        let (local, shard_stats, pairs) = merge_shard_outcomes(
            &plan,
            s_parts,
            t_parts,
            outcomes,
            materialize,
            wall_seconds,
            threads_used,
        );

        // --- Assemble and verify. ---
        let report = self.assemble_report(
            partitioner,
            s,
            t,
            band,
            map_shuffle_wall_seconds,
            local,
            pairs.as_deref(),
            !failed.is_empty(),
            exact_index,
        );
        let simulated_sharded_seconds = self.config.machine.sharded_join_seconds(
            report.stats.total_input,
            &report.per_worker_work,
            plan.num_shards(),
        );
        Run {
            execution: Ok(SupervisedExecution {
                report,
                shard_stats,
                simulated_sharded_seconds,
                failed,
                recovery: supervisor.map(Supervisor::finish).unwrap_or_default(),
            }),
            pairs: pairs.filter(|_| want_pairs),
            shuffled,
        }
    }

    /// The unsupervised reduce: each shard joins its partitions sequentially and
    /// the shards run concurrently on the executor's rayon context (dynamically
    /// scheduled, so heavy shards do not serialize behind a static chunking).
    /// Returns the outcomes in shard order, the phase wall-clock, and the number
    /// of threads the phase ran on.
    #[allow(clippy::too_many_arguments)]
    fn join_shards(
        &self,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        s_parts: &PartitionedIndex,
        t_parts: &PartitionedIndex,
        plan: &ShardPlan,
        materialize: bool,
    ) -> (Vec<ShardOutcome>, f64, usize) {
        let join_shard = |shard: usize| {
            let start = Instant::now();
            let range = plan.partition_range(shard);
            let outcomes = self.join_partitions(s, t, band, s_parts, t_parts, materialize, range);
            ShardOutcome {
                outcomes: Some(outcomes),
                wall_seconds: start.elapsed().as_secs_f64(),
                attempts: 1,
                recovery_wall_seconds: 0.0,
            }
        };
        let phase_start = Instant::now();
        let par = self.parallelism();
        let shards = plan.num_shards();
        let (outcomes, threads_used) = match par {
            Parallelism::Sequential => ((0..shards).map(join_shard).collect(), 1),
            _ => (
                par.run(|| (0..shards).into_par_iter().map(join_shard).collect()),
                par.threads().clamp(1, shards.max(1)),
            ),
        };
        (outcomes, phase_start.elapsed().as_secs_f64(), threads_used)
    }

    /// Everything downstream of the local joins — worker mapping, per-worker
    /// aggregation, stats, the simulated timing model, and verification.
    /// `pairs` are the materialized pairs (required under
    /// [`VerificationLevel::FullPairs`]). `degraded` marks a partial report
    /// (failed shards' partitions carry default loads): stats are computed over
    /// what survived, and verification is skipped — an exact-join comparison
    /// against missing work would flag the degradation as incorrectness.
    /// `exact_index` is described on [`Executor::run`].
    #[allow(clippy::too_many_arguments)]
    fn assemble_report<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        map_shuffle_wall_seconds: f64,
        local: LocalJoinPhase,
        pairs: Option<&[(u32, u32)]>,
        degraded: bool,
        exact_index: Option<&mut Option<ExactJoinIndex>>,
    ) -> ExecutionReport {
        let LocalJoinPhase {
            per_partition,
            per_partition_wall_seconds,
            wall_seconds: local_join_wall_seconds,
            threads_used,
        } = local;

        // --- Partition → worker mapping (LPT on measured load). ---
        let partition_to_worker = self.map_partitions_to_workers(&per_partition);

        // --- Aggregate per worker. ---
        let workers = self.config.workers;
        let mut per_worker_work = vec![WorkerWork::default(); workers];
        let mut per_worker_wall_seconds = vec![0.0f64; workers];
        for (p, load) in per_partition.iter().enumerate() {
            let w = partition_to_worker[p] as usize;
            per_worker_work[w].input += load.input();
            per_worker_work[w].output += load.output;
            per_worker_work[w].comparisons += load.comparisons;
            per_worker_work[w].partitions += 1;
            per_worker_wall_seconds[w] += per_partition_wall_seconds[p];
        }

        let output_count: u64 = per_partition.iter().map(|p| p.output).sum();
        let total_comparisons: u64 = per_partition.iter().map(|p| p.comparisons).sum();
        let total_input: u64 = per_partition.iter().map(|p| p.input()).sum();

        let worker_loads: Vec<WorkerLoad> = per_worker_work
            .iter()
            .map(|w| WorkerLoad {
                input: w.input,
                output: w.output,
            })
            .collect();
        let stats = PartitioningStats::from_worker_loads(
            partitioner.name(),
            s.len() as u64,
            t.len() as u64,
            output_count,
            worker_loads,
            self.config.load_model,
        );
        debug_assert_eq!(stats.total_input, total_input);

        let simulated_join_seconds = self
            .config
            .machine
            .join_seconds(total_input, &per_worker_work);

        // --- Verification (exact join chunked on the same rayon context). ---
        let par = self.parallelism();
        // Over-decompose so the dynamic scheduler can balance probe chunks with
        // skewed per-tuple candidate counts (a dense head would otherwise gate the
        // whole phase as one static chunk per thread).
        let pieces = match par {
            Parallelism::Sequential => 1,
            _ => par.threads() * 4,
        };
        let verify_start = Instant::now();
        let verification = if degraded {
            VerificationLevel::None
        } else {
            self.config.verification
        };
        let index = match exact_index {
            Some(slot) if verification != VerificationLevel::None => {
                Some(&*slot.get_or_insert_with(|| ExactJoinIndex::build(s, t)))
            }
            _ => None,
        };
        let (exact_output, correct, pair_check) = match verification {
            VerificationLevel::None => (None, None, None),
            VerificationLevel::Count => {
                let exact = par.run(|| match index {
                    Some(index) => index.count_on(s, t, band, pieces),
                    None => exact_join_count_on(s, t, band, pieces),
                });
                (Some(exact), Some(exact == output_count), None)
            }
            VerificationLevel::FullPairs => {
                let pairs = pairs.expect("pairs were materialized");
                // One exact join serves both the pair-level check and the exact
                // output count (the exact result never contains duplicates).
                let (check, exact) = par.run(|| {
                    let exact_pairs = match index {
                        Some(index) => index.pairs_on(s, t, band, pieces),
                        None => exact_join_pairs_on(s, t, band, pieces),
                    };
                    let check = check_pairs_against(&exact_pairs, pairs);
                    (check, exact_pairs.len() as u64)
                });
                (Some(exact), Some(check.is_correct()), Some(check))
            }
        };
        let verify_wall_seconds = if verification == VerificationLevel::None {
            0.0
        } else {
            verify_start.elapsed().as_secs_f64()
        };

        ExecutionReport {
            strategy: partitioner.name().to_string(),
            stats,
            partitions: per_partition.len(),
            per_partition,
            partition_to_worker,
            per_worker_work,
            total_comparisons,
            simulated_join_seconds,
            per_partition_wall_seconds,
            per_worker_wall_seconds,
            local_join_wall_seconds,
            map_shuffle_wall_seconds,
            verify_wall_seconds,
            threads_used,
            exact_output,
            correct,
            pair_check,
            degraded,
        }
    }

    /// The local joins of the partitions `[lo, hi)`, in order: the single
    /// per-partition computation every schedule (partition-parallel, sharded,
    /// supervised) invokes, so they agree bit for bit by construction. The join
    /// inherits the process-wide active [`recpart::JoinKernel`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn join_partitions(
        &self,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        s_parts: &PartitionedIndex,
        t_parts: &PartitionedIndex,
        materialize: bool,
        (lo, hi): (usize, usize),
    ) -> Vec<PartitionJoinOutcome> {
        (lo..hi)
            .map(|p| {
                let start = Instant::now();
                let mut pairs = Vec::new();
                let result = self.config.local_algorithm.join(
                    s,
                    t,
                    s_parts.part(p),
                    t_parts.part(p),
                    band,
                    materialize.then_some(&mut pairs),
                );
                let load = PartitionLoad {
                    s_input: s_parts.part(p).len() as u64,
                    t_input: t_parts.part(p).len() as u64,
                    output: result.output,
                    comparisons: result.comparisons,
                };
                (load, pairs, start.elapsed().as_secs_f64())
            })
            .collect()
    }

    /// Map partitions onto workers: identity when there are at most `w` partitions,
    /// otherwise longest-processing-time-first on the measured per-partition load.
    ///
    /// The least-loaded worker is selected with the shared [`LptHeap`] — lowest
    /// load, lowest index among equal loads, which is exactly the worker the
    /// `O(n·w)` first-minimum scan this replaced selected (`Iterator::min_by`
    /// returns the first minimum; measured integer-derived loads tie *often*, so
    /// the tie rule is load-bearing). The accumulation arithmetic is unchanged, so
    /// the mapping is bit-identical to the scan — verified against recorded scan
    /// mappings in the tests below — at `O(log w)` per partition.
    fn map_partitions_to_workers(&self, per_partition: &[PartitionLoad]) -> Vec<u32> {
        let workers = self.config.workers;
        let lm = &self.config.load_model;
        let n = per_partition.len();
        let mut assignment = vec![0u32; n];
        if n <= workers {
            for (p, slot) in assignment.iter_mut().enumerate() {
                *slot = p as u32;
            }
            return assignment;
        }
        let mut order: Vec<usize> = (0..n).collect();
        let load_of = |p: &PartitionLoad| lm.load(p.input() as f64, p.output as f64);
        // LPT needs a *total* order: `(load desc, partition index asc)` via
        // `total_cmp`, the same total order `EvalLedger` uses. The previous
        // `partial_cmp(..).unwrap_or(Equal)` left tied partitions in whatever
        // order the unstable sort produced, so a std sort-implementation change
        // would silently permute the worker mapping.
        order.sort_unstable_by(|&a, &b| {
            load_of(&per_partition[b])
                .total_cmp(&load_of(&per_partition[a]))
                .then_with(|| a.cmp(&b))
        });
        let mut worker_load = vec![0.0f64; workers];
        let mut heap = LptHeap::new(workers, 0.0);
        for p in order {
            let target = heap.pop_least();
            assignment[p] = target as u32;
            worker_load[target] += load_of(&per_partition[p]);
            heap.push(target, worker_load[target]);
        }
        assignment
    }

    /// The original `O(n·w)` first-minimum scan, kept verbatim as the reference the
    /// heap-based [`Executor::map_partitions_to_workers`] is verified against.
    #[cfg(test)]
    fn map_partitions_to_workers_scan(&self, per_partition: &[PartitionLoad]) -> Vec<u32> {
        let workers = self.config.workers;
        let lm = &self.config.load_model;
        let n = per_partition.len();
        let mut assignment = vec![0u32; n];
        if n <= workers {
            for (p, slot) in assignment.iter_mut().enumerate() {
                *slot = p as u32;
            }
            return assignment;
        }
        let mut order: Vec<usize> = (0..n).collect();
        let load_of = |p: &PartitionLoad| lm.load(p.input() as f64, p.output as f64);
        order.sort_unstable_by(|&a, &b| {
            load_of(&per_partition[b])
                .total_cmp(&load_of(&per_partition[a]))
                .then_with(|| a.cmp(&b))
        });
        let mut worker_load = vec![0.0f64; workers];
        for p in order {
            let target = (0..workers)
                .min_by(|&a, &b| {
                    worker_load[a]
                        .partial_cmp(&worker_load[b])
                        .unwrap_or(Ordering::Equal)
                })
                .expect("at least one worker");
            assignment[p] = target as u32;
            worker_load[target] += load_of(&per_partition[p]);
        }
        assignment
    }
}

/// The order-preserving merge of per-shard join outcomes into one
/// [`LocalJoinPhase`], per-shard accounting, and the materialized pairs — the
/// one merge every schedule runs, so a recovered supervised run cannot drift
/// from the fault-free one.
///
/// Shard order equals partition order, so concatenating outcomes reproduces the
/// partition order exactly. A failed shard (`outcomes: None`) contributes
/// default (zero) loads for every partition in its range; its assignment counts
/// are still reported truthfully from the shuffled arena (which exists whether
/// or not the join ran), so assignment conservation holds across *all* shards
/// even in a degraded run. For successful shards the arena-derived counts equal
/// the load-derived ones by construction (`PartitionLoad::s_input` *is* the
/// arena slice length).
pub(crate) fn merge_shard_outcomes(
    plan: &ShardPlan,
    s_parts: &PartitionedIndex,
    t_parts: &PartitionedIndex,
    shard_results: Vec<ShardOutcome>,
    materialize: bool,
    phase_wall_seconds: f64,
    threads_used: usize,
) -> (LocalJoinPhase, Vec<ShardStats>, Option<Pairs>) {
    let num_partitions = s_parts.num_partitions();
    let mut per_partition = Vec::with_capacity(num_partitions);
    let mut per_partition_wall_seconds = Vec::with_capacity(num_partitions);
    let mut all_pairs = materialize.then(Vec::new);
    let mut shard_stats = Vec::with_capacity(plan.num_shards());
    for (shard, result) in shard_results.into_iter().enumerate() {
        let (lo, hi) = plan.partition_range(shard);
        let arena_bytes: u64 = (lo..hi)
            .map(|p| ((s_parts.part(p).len() + t_parts.part(p).len()) * 4) as u64)
            .sum();
        let mut stats = ShardStats {
            shard,
            partition_lo: lo,
            partition_hi: hi,
            s_assignments: 0,
            t_assignments: 0,
            arena_bytes,
            wall_seconds: result.wall_seconds,
            attempts: result.attempts,
            recovery_wall_seconds: result.recovery_wall_seconds,
        };
        match result.outcomes {
            Some(outcomes) => {
                debug_assert_eq!(outcomes.len(), hi - lo, "shard outcome range mismatch");
                for (load, pairs, seconds) in outcomes {
                    stats.s_assignments += load.s_input;
                    stats.t_assignments += load.t_input;
                    per_partition.push(load);
                    per_partition_wall_seconds.push(seconds);
                    if let Some(all) = all_pairs.as_mut() {
                        all.extend(pairs);
                    }
                }
            }
            None => {
                for p in lo..hi {
                    stats.s_assignments += s_parts.part(p).len() as u64;
                    stats.t_assignments += t_parts.part(p).len() as u64;
                    per_partition.push(PartitionLoad::default());
                    per_partition_wall_seconds.push(0.0);
                }
            }
        }
        shard_stats.push(stats);
    }
    let local = LocalJoinPhase {
        per_partition,
        per_partition_wall_seconds,
        wall_seconds: phase_wall_seconds,
        threads_used,
    };
    (local, shard_stats, all_pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recpart::partition::SinglePartition;
    use recpart::PartitionId;

    fn random_relation(n: usize, dims: usize, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        let mut key = vec![0.0; dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                *k = rng.gen_range(0.0..100.0);
            }
            r.push(&key);
        }
        r
    }

    /// A deliberately bad partitioner that hash-splits both inputs independently —
    /// it loses results, which the verification must detect.
    struct BrokenPartitioner;
    impl Partitioner for BrokenPartitioner {
        fn num_partitions(&self) -> usize {
            4
        }
        fn assign_s(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            out.push((tuple_id % 4) as PartitionId);
        }
        fn assign_t(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            out.push(((tuple_id / 3) % 4) as PartitionId);
        }
        fn name(&self) -> &str {
            "Broken"
        }
    }

    #[test]
    fn single_partition_execution_is_exact() {
        let s = random_relation(300, 2, 1);
        let t = random_relation(300, 2, 2);
        let band = BandCondition::symmetric(&[2.0, 2.0]);
        let exec = Executor::new(ExecutorConfig::new(4));
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        assert_eq!(report.correct, Some(true));
        assert_eq!(report.stats.total_input, 600);
        assert_eq!(report.partitions, 1);
        assert_eq!(report.stats.output_len, report.exact_output.unwrap());
        // Only one worker does all the work.
        assert_eq!(report.per_worker_work.len(), 4);
        let busy = report
            .per_worker_work
            .iter()
            .filter(|w| w.input > 0)
            .count();
        assert_eq!(busy, 1);
        assert!(report.simulated_join_seconds > 0.0);
    }

    #[test]
    fn broken_partitioner_is_detected() {
        let s = random_relation(200, 1, 3);
        let t = random_relation(200, 1, 4);
        let band = BandCondition::symmetric(&[1.0]);
        let exec = Executor::new(ExecutorConfig::new(4));
        let report = exec.execute(&BrokenPartitioner, &s, &t, &band);
        assert_eq!(
            report.correct,
            Some(false),
            "verification must catch lost results"
        );
    }

    #[test]
    fn full_pair_verification_on_single_partition() {
        let s = random_relation(80, 1, 5);
        let t = random_relation(80, 1, 6);
        let band = BandCondition::symmetric(&[0.8]);
        let exec =
            Executor::new(ExecutorConfig::new(2).with_verification(VerificationLevel::FullPairs));
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        let check = report.pair_check.unwrap();
        assert!(check.is_correct(), "{check:?}");
    }

    #[test]
    fn verification_none_skips_exact_join() {
        let s = random_relation(50, 1, 7);
        let t = random_relation(50, 1, 8);
        let band = BandCondition::symmetric(&[0.5]);
        let exec = Executor::new(ExecutorConfig::new(2).with_verification(VerificationLevel::None));
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        assert!(report.exact_output.is_none());
        assert!(report.correct.is_none());
    }

    #[test]
    fn stats_duplication_zero_for_single_partition() {
        let s = random_relation(100, 1, 9);
        let t = random_relation(100, 1, 10);
        let band = BandCondition::symmetric(&[0.5]);
        let exec = Executor::with_workers(3);
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        assert_eq!(report.duplication_overhead(), 0.0);
        // All load on one of three workers → overhead ≈ 3× the lower bound − 1.
        assert!(report.load_overhead() > 1.5);
    }

    #[test]
    fn lpt_mapping_balances_many_partitions() {
        // Partition loads 8,7,6,5,4,3,2,1 onto 2 workers: LPT gives 18 vs 18.
        let per_partition: Vec<PartitionLoad> = (1..=8)
            .map(|i| PartitionLoad {
                s_input: i,
                t_input: 0,
                output: 0,
                comparisons: 0,
            })
            .collect();
        let exec = Executor::new(ExecutorConfig::new(2).with_load_model(LoadModel::new(1.0, 1.0)));
        let mapping = exec.map_partitions_to_workers(&per_partition);
        let mut per_worker = [0u64; 2];
        for (p, &w) in mapping.iter().enumerate() {
            per_worker[w as usize] += per_partition[p].s_input;
        }
        assert_eq!(per_worker[0] + per_worker[1], 36);
        assert_eq!(per_worker[0], 18);
    }

    /// Mappings recorded from the pre-heap first-minimum scan (the exact code now
    /// preserved as `map_partitions_to_workers_scan`): the heap swap must reproduce
    /// them bit for bit. Loads: `input = (p·2654435761) % 1000`,
    /// `output = (p·40503) % 400`, 40 partitions on 7 workers; plus 12 identical
    /// partitions on 3 workers (the all-ties case, where the tie rule alone decides).
    #[test]
    fn heap_lpt_reproduces_recorded_scan_mappings() {
        let per_partition: Vec<PartitionLoad> = (0u64..40)
            .map(|p| PartitionLoad {
                s_input: (p * 2654435761) % 1000,
                t_input: 0,
                output: (p * 40503) % 400,
                comparisons: 0,
            })
            .collect();
        let exec = Executor::with_workers(7);
        let recorded: Vec<u32> = vec![
            1, 3, 6, 0, 3, 5, 4, 1, 4, 6, 1, 4, 6, 4, 1, 5, 4, 2, 2, 6, 1, 0, 4, 5, 2, 6, 6, 2, 0,
            5, 5, 0, 2, 5, 3, 3, 3, 3, 1, 0,
        ];
        assert_eq!(exec.map_partitions_to_workers(&per_partition), recorded);

        let ties: Vec<PartitionLoad> = (0..12)
            .map(|_| PartitionLoad {
                s_input: 5,
                t_input: 5,
                output: 2,
                comparisons: 0,
            })
            .collect();
        let exec3 = Executor::with_workers(3);
        let recorded_ties: Vec<u32> = vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2];
        assert_eq!(exec3.map_partitions_to_workers(&ties), recorded_ties);
    }

    /// Regression test for the LPT ordering: tied loads must be assigned in
    /// ascending partition-index order. The pre-fix sort compared load alone with
    /// `partial_cmp(..).unwrap_or(Equal)`, so the unstable sort was free to permute
    /// tie classes (and did, for inputs large enough to leave insertion sort).
    /// Loads *ascend* in blocks of four tied partitions — an order the descending
    /// sort can neither keep nor simply reverse — and the expected mapping is the
    /// one produced by the total order `(load desc, partition index asc)`.
    #[test]
    fn lpt_assigns_tied_partitions_in_index_order() {
        let n = 240usize;
        let per_partition: Vec<PartitionLoad> = (0..n)
            .map(|p| PartitionLoad {
                s_input: (p / 4) as u64 + 1, // blocks of 4 exactly-tied loads, ascending
                t_input: 0,
                output: 0,
                comparisons: 0,
            })
            .collect();
        let exec = Executor::new(ExecutorConfig::new(5).with_load_model(LoadModel::new(1.0, 0.0)));
        let mapping = exec.map_partitions_to_workers(&per_partition);
        // Derive the expectation from the documented total order with a *stable*
        // sort: any deviation means the production sort is not the total order.
        let lm = LoadModel::new(1.0, 0.0);
        let load_of = |p: &PartitionLoad| lm.load(p.input() as f64, p.output as f64);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| load_of(&per_partition[b]).total_cmp(&load_of(&per_partition[a])));
        let mut expected = vec![0u32; n];
        let mut worker_load = [0.0f64; 5];
        for p in order {
            let target = (0..5)
                .min_by(|&a, &b| worker_load[a].total_cmp(&worker_load[b]))
                .unwrap();
            expected[p] = target as u32;
            worker_load[target] += load_of(&per_partition[p]);
        }
        assert_eq!(
            mapping, expected,
            "tied partitions must map in ascending index order"
        );
    }

    /// The heap mapping equals the preserved scan on a sweep of load shapes: unique
    /// loads, frequent exact ties (integer-derived), zeros, and a zero-output model.
    #[test]
    fn heap_lpt_matches_the_preserved_scan() {
        let mut rng = StdRng::seed_from_u64(0x10AD);
        for workers in [2usize, 3, 5, 16] {
            for case in 0..20 {
                let n = workers + 1 + (case * 7) % 60;
                let per_partition: Vec<PartitionLoad> = (0..n)
                    .map(|_| PartitionLoad {
                        // Small ranges so exact load ties are common.
                        s_input: rng.gen_range(0..8u64),
                        t_input: rng.gen_range(0..8u64),
                        output: rng.gen_range(0..4u64),
                        comparisons: 0,
                    })
                    .collect();
                for load_model in [LoadModel::default(), LoadModel::new(1.0, 0.0)] {
                    let exec =
                        Executor::new(ExecutorConfig::new(workers).with_load_model(load_model));
                    assert_eq!(
                        exec.map_partitions_to_workers(&per_partition),
                        exec.map_partitions_to_workers_scan(&per_partition),
                        "workers={workers} case={case} model={load_model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_mapping_when_few_partitions() {
        let per_partition = vec![PartitionLoad::default(); 3];
        let exec = Executor::with_workers(8);
        let mapping = exec.map_partitions_to_workers(&per_partition);
        assert_eq!(mapping, vec![0, 1, 2]);
    }

    #[test]
    fn executor_is_deterministic() {
        let s = random_relation(150, 2, 11);
        let t = random_relation(150, 2, 12);
        let band = BandCondition::symmetric(&[1.0, 1.0]);
        let exec = Executor::with_workers(4);
        let a = exec.execute(&SinglePartition, &s, &t, &band);
        let b = exec.execute(&SinglePartition, &s, &t, &band);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.per_partition, b.per_partition);
        assert!((a.simulated_join_seconds - b.simulated_join_seconds).abs() < 1e-12);
    }

    #[test]
    fn report_includes_comparisons() {
        let s = random_relation(100, 1, 13);
        let t = random_relation(100, 1, 14);
        let band = BandCondition::symmetric(&[5.0]);
        let exec = Executor::with_workers(2);
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        assert!(report.total_comparisons >= report.stats.output_len);
    }

    /// `contiguous(n, k)` yields `min(k, n)` covering, disjoint, contiguous
    /// shards whose sizes differ by at most one (the larger ones first).
    #[test]
    fn contiguous_shards_cover_evenly() {
        for n in 0..=40usize {
            for k in 1..=12usize {
                let plan = ShardPlan::contiguous(n, k);
                assert_eq!(plan.num_shards(), k.min(n), "n={n} k={k}: shard count");
                let mut next = 0;
                let mut sizes = Vec::new();
                for shard in 0..plan.num_shards() {
                    let (lo, hi) = plan.partition_range(shard);
                    assert_eq!(lo, next, "n={n} k={k}: shard {shard} is contiguous");
                    assert!(hi > lo, "n={n} k={k}: shard {shard} is empty");
                    sizes.push(hi - lo);
                    next = hi;
                }
                assert_eq!(next, n, "n={n} k={k}: coverage");
                if let (Some(max), Some(min)) = (sizes.iter().max(), sizes.iter().min()) {
                    assert!(max - min <= 1, "n={n} k={k}: sizes {sizes:?}");
                }
                assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "n={n} k={k}");
            }
        }
        // The cases the ceiling-chunked split got wrong.
        assert_eq!(ShardPlan::contiguous(10, 6).num_shards(), 6);
        assert_eq!(ShardPlan::contiguous(5, 4).num_shards(), 4);
        assert_eq!(ShardPlan::contiguous(10, 4).partition_range(3), (8, 10));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ExecutorConfig::new(0);
    }
}
