//! Scale-tier measurements: per-shard ownership/footprint stats and the process
//! peak-RSS probe the out-of-core memory gates are built on.
//!
//! Two kinds of numbers live here, deliberately separated:
//!
//! * **deterministic accounting** ([`ShardStats`]) — derived from lengths and
//!   offsets, identical on every run and every machine; this is what gates compare
//!   against budgets, because a flaky gate is worse than no gate;
//! * **observed residency** ([`process_peak_rss_bytes`]) — the kernel's high-water
//!   mark for this process, reported alongside the accounting as evidence that the
//!   mmap-backed path actually keeps pages out of RAM, but never gated on directly
//!   (it is shared across the whole process and monotone over its lifetime).

use serde::{Deserialize, Serialize};

/// What one shared-nothing shard owned and measured during a sharded execution
/// (see `Executor::execute_sharded`): its contiguous partition range of the global
/// CSR arena, the assignment counts routed into that range, the arena bytes the
/// range occupies, and the shard's measured wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index (shards are laid out in partition order).
    pub shard: usize,
    /// First partition owned (inclusive).
    pub partition_lo: usize,
    /// Last partition owned (exclusive).
    pub partition_hi: usize,
    /// S-side assignments (including duplicates) in the shard's partitions.
    pub s_assignments: u64,
    /// T-side assignments (including duplicates) in the shard's partitions.
    pub t_assignments: u64,
    /// Bytes of the global index arenas this shard's partition range occupies —
    /// the per-shard working set of the reduce phase, computed from lengths
    /// (deterministic), not from allocator or kernel state.
    pub arena_bytes: u64,
    /// Measured wall-clock seconds of the shard's sequential reduce pass (the
    /// attempt whose result was kept, when the shard ran supervised).
    pub wall_seconds: f64,
    /// Attempts this shard's work was started (1 = first try succeeded; higher
    /// counts retries and speculative duplicates under supervised execution;
    /// 0 only for a shard that never produced a result).
    pub attempts: u32,
    /// Wall-clock seconds burnt on attempts that did *not* produce the kept
    /// result — failed tries, backoff sleeps, and losing speculative
    /// duplicates. 0 on the unsupervised path and for fault-free shards.
    pub recovery_wall_seconds: f64,
}

impl ShardStats {
    /// Total assignments (both sides) owned by the shard.
    pub fn assignments(&self) -> u64 {
        self.s_assignments + self.t_assignments
    }

    /// Number of partitions the shard owns.
    pub fn num_partitions(&self) -> usize {
        self.partition_hi - self.partition_lo
    }
}

/// What a supervised execution did to recover from failures (see
/// `Executor::execute_supervised`): retry, backoff, and speculation counts plus
/// the faults that actually fired. Deterministic for a given [`FaultPlan`]
/// (everything here is derived from the fault schedule, not from timing) —
/// except `speculative_*`, which depend on real wall-clock deadlines.
///
/// [`FaultPlan`]: crate::faults::FaultPlan
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCounters {
    /// Injected panics that fired.
    pub injected_panics: u64,
    /// Injected I/O errors that fired.
    pub injected_io_errors: u64,
    /// Injected delays (stragglers) that fired.
    pub injected_delays: u64,
    /// Shuffle attempts beyond the first.
    pub shuffle_retries: u64,
    /// Shard attempts launched because a prior attempt *failed* (excludes
    /// speculative duplicates).
    pub shard_retries: u64,
    /// Speculative duplicate attempts launched on deadline expiry.
    pub speculative_launches: u64,
    /// Speculative attempts whose result arrived first and was kept.
    pub speculative_wins: u64,
    /// Merge attempts beyond the first.
    pub merge_retries: u64,
}

impl std::ops::AddAssign for RecoveryCounters {
    fn add_assign(&mut self, other: RecoveryCounters) {
        self.injected_panics += other.injected_panics;
        self.injected_io_errors += other.injected_io_errors;
        self.injected_delays += other.injected_delays;
        self.shuffle_retries += other.shuffle_retries;
        self.shard_retries += other.shard_retries;
        self.speculative_launches += other.speculative_launches;
        self.speculative_wins += other.speculative_wins;
        self.merge_retries += other.merge_retries;
    }
}

/// The peak resident-set size (high-water mark) of this process in bytes, read
/// from `VmHWM` in `/proc/self/status`. Returns `None` where procfs is absent
/// (non-Linux) or unparsable — callers must treat the probe as best-effort
/// evidence, not as a gateable quantity.
pub fn process_peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_totals() {
        let s = ShardStats {
            shard: 1,
            partition_lo: 4,
            partition_hi: 9,
            s_assignments: 100,
            t_assignments: 40,
            arena_bytes: 560,
            wall_seconds: 0.0,
            attempts: 1,
            recovery_wall_seconds: 0.0,
        };
        assert_eq!(s.assignments(), 140);
        assert_eq!(s.num_partitions(), 5);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_available_and_plausible_on_linux() {
        let peak = process_peak_rss_bytes().expect("VmHWM exists on Linux");
        // A running test binary certainly holds more than 64 KiB and (sanity
        // bound) less than 1 TiB.
        assert!(peak > 64 * 1024, "peak {peak}");
        assert!(peak < 1 << 40, "peak {peak}");
    }
}
