//! # distsim — distributed band-join execution substrate
//!
//! The paper evaluates partitioning strategies on a 30-node Amazon EMR cluster. This
//! crate provides the equivalent substrate as a deterministic, in-process simulator so
//! that every experiment of the paper can be re-run on a single machine:
//!
//! * [`local_join`] — the per-worker band-join algorithms (index-nested-loop over sorted
//!   ε-ranges as used in the paper's reducers, a sort-merge sweep, and a nested-loop
//!   reference), all of which also report the number of candidate comparisons they
//!   performed;
//! * [`executor`] — the map–shuffle–reduce pipeline, one run behind every entry point:
//!   shuffle every tuple through a [`recpart::Partitioner`] (or take the arenas of an
//!   earlier shuffle), run the local joins under a schedule (partition-parallel, `N`
//!   shared-nothing shards over contiguous partition ranges, or `N` shards under the
//!   supervisor), merge them back in partition order, map partitions onto workers
//!   (modelling the dynamic scheduler with a longest-processing-time heuristic), and
//!   report the paper's success measures (`I`, `I_m`, `O_m`, `L_m`, overheads vs.
//!   lower bounds). Every schedule yields the same report. Every phase — map/shuffle,
//!   local joins, verification — is rayon-parallel under one `threads` knob and
//!   reports its own measured wall-clock;
//! * [`shuffle`] — the chunked parallel tuple-routing fan-out whose merged
//!   per-partition index lists are bit-identical to sequential routing; its
//!   [`ShuffleConfig`] adds the out-of-core scale tier (bounded streaming chunks,
//!   mmap-backed spill arenas); per-shard accounting lives in [`metrics`];
//! * [`cost_model`] — the running-time model `M(I, I_m, O_m) = β₀ + β₁I + β₂I_m + β₃O_m`
//!   of Li et al. \[24\], with least-squares fitting over a calibration benchmark;
//! * [`machine`] — the synthetic "ground truth" cluster timing model used in place of
//!   real wall-clock measurements (shuffle + per-worker scan/compare/emit costs), which
//!   the linear cost model is fitted against;
//! * [`verify`] — exact single-node joins and duplicate/missing-pair checks used to
//!   validate the exactly-once property of every partitioner;
//! * [`faults`] / [`supervise`] — deterministic seeded fault injection (panics,
//!   I/O errors, stragglers at every pipeline stage) and the supervised schedule of
//!   the executor's run: `catch_unwind` worker isolation, retry with capped
//!   exponential backoff, deadline-triggered speculation, and graceful
//!   degradation into partial reports with structured per-shard errors;
//! * [`plan_cache`] / [`serve`] — the query-serving tier: a long-running
//!   [`BandJoinService`] loads the dataset once and answers a stream of band-join
//!   queries from a [`PlanCache`] of compiled partitionings plus their shuffled CSR
//!   arenas (LRU by arena bytes, keyed on dataset generations + band + worker count,
//!   with band-subsumption reuse). A cold query runs the executor's pipeline with a
//!   fresh shuffle and caches the arenas it hands back; a warm query runs the same
//!   pipeline over the cached arenas, so it skips optimize/compile/shuffle and stays
//!   bit-identical to a one-shot execution.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost_model;
pub mod executor;
pub mod faults;
pub mod local_join;
pub mod machine;
pub mod metrics;
mod parallel;
pub mod plan_cache;
pub mod serve;
pub mod shuffle;
pub mod supervise;
pub mod verify;

pub use cost_model::{CalibrationPoint, CostModel};
pub use executor::{
    ExecutionReport, Executor, ExecutorConfig, ShardPlan, ShardedExecution, VerificationLevel,
};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FiredCounts, InjectionPoint};
pub use local_join::{
    probe_sorted, probe_sorted_with, LocalJoinAlgorithm, LocalJoinResult, SortedProbeSide,
};
pub use machine::MachineModel;
pub use metrics::{process_peak_rss_bytes, RecoveryCounters, ShardStats};
pub use plan_cache::{CacheOutcome, CachedPlan, PlanCache, PlanKey};
pub use recpart::JoinKernel;
pub use serve::{
    BandJoinQuery, BandJoinService, PlanSource, QueryResponse, ServiceConfig, ServiceHealth,
};
pub use shuffle::{PartitionedIndex, ShuffleConfig, ShuffleError, ShuffledInputs};
pub use supervise::{
    ShardError, ShardFailureKind, SuperviseError, SupervisedExecution, SupervisorConfig,
};
pub use verify::{exact_join_count, exact_join_count_on, exact_join_pairs, exact_join_pairs_on};
