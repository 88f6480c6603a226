//! The map/shuffle phase: route every input tuple through the partitioner and
//! materialize per-partition input index lists.
//!
//! The per-partition lists live in one flat arena per side ([`PartitionedIndex`]),
//! built with a **two-pass count/scatter layout** over the partitioner's block API
//! (`Partitioner::assign_s_block`/`assign_t_block` into an
//! [`AssignmentSink`]):
//!
//! * **pass 1 (count)** routes each contiguous input chunk through a *count-only*
//!   sink — per-partition assignment counts, nothing materialized;
//! * the counts of all chunks are prefix-summed into exact per-(chunk, partition)
//!   arena offsets;
//! * **pass 2 (scatter)** routes each chunk again through an *offset-aware* sink
//!   whose per-partition write cursors start at those offsets, so every block
//!   scatters each tuple index **directly to its final arena slot**.
//!
//! No per-tuple `Vec<PartitionId>` buffer, no per-chunk per-partition buckets, and
//! no merge copy. Whether pass 2 *re-routes* (the offset-aware path above — routing
//! runs twice, but no `(partition, tuple)` pair list is ever materialized) or
//! replays pairs pass 1 recorded (routing runs once, 8 bytes of buffer traffic per
//! assignment) is the partitioner's declared
//! [`ScatterPolicy`]: cheap closed-form strategies re-route,
//! compute-heavy split-tree descent keeps the pair list. Both policies write the
//! identical arena. Chunks are contiguous ascending index ranges laid out in chunk
//! order, and the block API is required to emit assignments in per-tuple routing
//! order, so the arena contents are bit-identical to per-tuple sequential routing —
//! and across policies — no matter how many threads ran the fan-out. Downstream
//! local joins and verification therefore see exactly the same inputs for every
//! `threads` setting.
//!
//! ## Out-of-core / streaming mode
//!
//! [`ShuffleConfig`] extends the same two-pass layout to inputs that dwarf RAM:
//!
//! * `chunk_tuples > 0` bounds the tuples routed per chunk, decoupling chunking
//!   from the thread count. Streaming mode always counts in pass 1 and re-routes in
//!   pass 2 (the [`ScatterPolicy::PairList`] pair buffers would otherwise grow with
//!   the chunk's assignment count, defeating the memory bound); the pass-1 state
//!   kept across the whole input is just `num_chunks × num_partitions` integer
//!   counts — associative, merged by the prefix sum exactly like the parallel path.
//! * `storage` selects the arena backing: heap `Vec<u32>` or an mmap-backed spill
//!   file ([`StorageMode::Spill`]) that the OS pages in and out on demand, so the
//!   resident set stays bounded no matter how large the arena is.
//!
//! Both knobs change *where bytes live*, never *which bytes*: the streamed,
//! spill-backed arena is bit-identical to the in-memory one.

use crate::faults::{FaultContext, InjectionPoint};
use crate::parallel::{chunk_ranges, Parallelism};
use rayon::prelude::*;
use recpart::storage::record_spill_fallback;
use recpart::{AssignmentSink, Partitioner, Relation, ScatterPolicy, Storage, StorageMode};
use std::time::Instant;

/// Below this many tuples a side is routed as a single chunk even in parallel mode:
/// the chunk fan-out would cost more than it saves.
const MIN_PARALLEL_TUPLES: usize = 4_096;

/// Contiguous chunks handed to each routing thread: a few per thread so the dynamic
/// scheduler can balance partitioners with non-uniform per-tuple cost (e.g. deep
/// split-tree paths in dense regions).
const CHUNKS_PER_THREAD: usize = 4;

/// How the shuffle chunks its input and where it puts the per-partition arenas —
/// the out-of-core knobs of the scale tier (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ShuffleConfig {
    /// Upper bound on tuples routed per chunk. `0` (the default) chunks by thread
    /// count as before; any positive value enables **streaming mode**: fixed-size
    /// chunks, count-only pass 1, offset-aware re-route pass 2 — per-chunk transient
    /// memory is `O(num_partitions)` regardless of input size or declared
    /// [`ScatterPolicy`]. Results are bit-identical either way.
    pub chunk_tuples: usize,
    /// Backing of the per-partition index arenas: heap vectors (default) or
    /// mmap-backed spill files whose resident pages the OS manages.
    pub storage: StorageMode,
}

impl ShuffleConfig {
    /// Streaming out-of-core configuration: route in chunks of at most
    /// `chunk_tuples` tuples and back the arenas with `storage`.
    pub fn streaming(chunk_tuples: usize, storage: StorageMode) -> Self {
        assert!(
            chunk_tuples > 0,
            "streaming mode needs a positive chunk size"
        );
        ShuffleConfig {
            chunk_tuples,
            storage,
        }
    }

    /// Whether fixed-size chunking (and with it the bounded-memory pass-1 path)
    /// is enabled.
    pub fn is_streaming(&self) -> bool {
        self.chunk_tuples > 0
    }
}

/// Per-partition tuple-index lists stored as one flat arena plus partition offsets
/// (CSR layout): partition `p` owns `data[offsets[p]..offsets[p + 1]]`, in routing
/// (ascending tuple-index) order. The arena is a [`Storage<u32>`] so it can live on
/// the heap or in an mmap-backed spill file; every accessor below goes through the
/// same slice view either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedIndex {
    data: Storage<u32>,
    offsets: Vec<usize>,
}

impl PartitionedIndex {
    /// An index with `num_partitions` empty partitions.
    pub fn empty(num_partitions: usize) -> Self {
        PartitionedIndex {
            data: Storage::new(),
            offsets: vec![0; num_partitions + 1],
        }
    }

    /// Build an index directly from per-partition index lists (tests and tools;
    /// the executor builds arenas through the two-pass shuffle instead).
    pub fn from_parts(parts: &[Vec<u32>]) -> Self {
        let mut data = Storage::new();
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        offsets.push(0);
        for part in parts {
            for &idx in part {
                data.push(idx);
            }
            offsets.push(data.len());
        }
        PartitionedIndex { data, offsets }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The tuple indices routed to partition `p`, ascending.
    pub fn part(&self, p: usize) -> &[u32] {
        &self.data[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Total number of assignments across all partitions.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no tuple was routed anywhere.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes held by the arena and the offset table — the number the scale-tier
    /// memory gates account against. Deterministic (derived from lengths, not
    /// allocator state).
    pub fn arena_bytes(&self) -> u64 {
        self.data.bytes() + (self.offsets.len() * std::mem::size_of::<usize>()) as u64
    }

    /// Whether the arena is backed by an mmap-backed spill file.
    pub fn is_spilled(&self) -> bool {
        self.data.is_mapped()
    }

    /// Iterate over the per-partition index slices in partition order.
    pub fn iter_parts(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_partitions()).map(|p| self.part(p))
    }
}

/// The materialized result of the map/shuffle phase.
#[derive(Debug, Clone)]
pub struct ShuffledInputs {
    /// For each partition, the indices of the S-tuples routed to it (ascending).
    pub s_parts: PartitionedIndex,
    /// For each partition, the indices of the T-tuples routed to it (ascending).
    pub t_parts: PartitionedIndex,
    /// Measured wall-clock seconds of the whole phase (both sides).
    pub wall_seconds: f64,
}

impl ShuffledInputs {
    /// Total number of partition assignments, the paper's total input `I`.
    pub fn total_input(&self) -> u64 {
        (self.s_parts.len() + self.t_parts.len()) as u64
    }

    /// Bytes held by both sides' arenas (see [`PartitionedIndex::arena_bytes`]).
    pub fn arena_bytes(&self) -> u64 {
        self.s_parts.arena_bytes() + self.t_parts.arena_bytes()
    }
}

/// Which side of the join a routing pass handles.
#[derive(Clone, Copy)]
enum Side {
    S,
    T,
}

impl Side {
    /// The fault-injection unit of this side (0 = S, 1 = T).
    fn unit(self) -> u32 {
        match self {
            Side::S => 0,
            Side::T => 1,
        }
    }
}

/// A shuffle pass failed with an I/O error — retryable by the supervisor (the
/// shuffle is a pure function of immutable inputs, so re-running it is safe).
#[derive(Debug)]
pub struct ShuffleError {
    /// The pipeline point that failed.
    pub point: InjectionPoint,
    /// The side being routed (0 = S, 1 = T).
    pub side: u32,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shuffle failed at {:?} (side {}): {}",
            self.point, self.side, self.source
        )
    }
}

impl std::error::Error for ShuffleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Route both sides of the join under the given parallelism context.
pub(crate) fn shuffle<P: Partitioner + ?Sized>(
    partitioner: &P,
    s: &Relation,
    t: &Relation,
    num_partitions: usize,
    par: &Parallelism<'_>,
    config: &ShuffleConfig,
) -> ShuffledInputs {
    try_shuffle(partitioner, s, t, num_partitions, par, config, None)
        .unwrap_or_else(|e| unreachable!("shuffle without fault injection cannot fail: {e}"))
}

/// Fault-aware [`shuffle`]: trips the [`InjectionPoint::ShufflePass1`] /
/// [`InjectionPoint::ShufflePass2`] / [`InjectionPoint::SpillArena`] points of
/// `faults` on the way. Without a fault context this is infallible (a failed
/// spill-arena creation degrades to heap, it does not error — see
/// [`Storage::zeroed_in_or_heap`]).
pub(crate) fn try_shuffle<P: Partitioner + ?Sized>(
    partitioner: &P,
    s: &Relation,
    t: &Relation,
    num_partitions: usize,
    par: &Parallelism<'_>,
    config: &ShuffleConfig,
    faults: Option<&FaultContext<'_>>,
) -> Result<ShuffledInputs, ShuffleError> {
    let start = Instant::now();
    let s_parts = route_side(partitioner, s, num_partitions, par, Side::S, config, faults)?;
    let t_parts = route_side(partitioner, t, num_partitions, par, Side::T, config, faults)?;
    Ok(ShuffledInputs {
        s_parts,
        t_parts,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Hit injection point `point` for `side`, mapping an injected I/O error into a
/// [`ShuffleError`]. No-op without a fault context.
fn trip(
    faults: Option<&FaultContext<'_>>,
    point: InjectionPoint,
    side: Side,
) -> Result<(), ShuffleError> {
    if let Some(f) = faults {
        f.injector
            .trip(point, side.unit(), f.attempt)
            .map_err(|source| ShuffleError {
                point,
                side: side.unit(),
                source,
            })?;
    }
    Ok(())
}

/// Raw arena pointer handed to the scatter pass. Safety: the offset layout gives
/// every `(chunk, partition)` pair a disjoint slice of the arena, so concurrent
/// chunk writers never alias.
struct ArenaPtr(*mut u32);
unsafe impl Send for ArenaPtr {}
unsafe impl Sync for ArenaPtr {}

/// The exact arena layout derived from pass-1 counts: partition-major `offsets`
/// (CSR), per-(chunk, partition) write-cursor `chunk_bases` in chunk order, and the
/// arena length.
struct ArenaLayout {
    offsets: Vec<usize>,
    chunk_bases: Vec<Vec<usize>>,
    total: usize,
}

/// Prefix-sum the per-chunk, per-partition pass-1 counts into the arena layout.
///
/// All accumulation happens in `u64` with checked adds before a single checked
/// narrowing to `usize` per emitted offset: at out-of-core scale (≥ 2^32 total
/// assignments) the old `usize`-accumulating sum would wrap silently on 32-bit
/// targets, and an unchecked `as usize` would truncate rather than fail. Overflow
/// here means the requested arena cannot exist — panicking with a sized message
/// beats scattering through a wrapped cursor.
fn arena_layout(per_chunk_counts: &[&[u64]], num_partitions: usize) -> ArenaLayout {
    let widen = |v: u64| -> usize {
        usize::try_from(v)
            .expect("arena offset exceeds the addressable size (usize) of this target")
    };
    // Partition-major totals, accumulated in u64.
    let mut offsets64 = Vec::with_capacity(num_partitions + 1);
    offsets64.push(0u64);
    for p in 0..num_partitions {
        let mut end = offsets64[p];
        for counts in per_chunk_counts {
            end = end
                .checked_add(counts[p])
                .expect("total assignment count overflows u64");
        }
        offsets64.push(end);
    }
    // Per-(partition, chunk) write cursors in chunk order, so the arena reproduces
    // the sequential layout. Cursor sums are bounded by the offsets just checked,
    // so plain adds cannot overflow here.
    let mut chunk_bases = Vec::with_capacity(per_chunk_counts.len());
    let mut cursor: Vec<u64> = offsets64[..num_partitions].to_vec();
    for counts in per_chunk_counts {
        chunk_bases.push(cursor.iter().copied().map(widen).collect());
        for (slot, &c) in cursor.iter_mut().zip(*counts) {
            *slot += c;
        }
    }
    debug_assert_eq!(&cursor[..], &offsets64[1..]);
    let offsets: Vec<usize> = offsets64.into_iter().map(widen).collect();
    let total = offsets[num_partitions];
    ArenaLayout {
        offsets,
        chunk_bases,
        total,
    }
}

/// Contiguous ranges of at most `chunk_tuples` tuples each — the streaming-mode
/// chunking, sized by the memory bound instead of the thread count.
fn bounded_ranges(n: usize, chunk_tuples: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::with_capacity(n.div_ceil(chunk_tuples.max(1)).max(1));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk_tuples).min(n);
        ranges.push((lo, hi));
        lo = hi;
    }
    if ranges.is_empty() {
        ranges.push((0, 0));
    }
    ranges
}

/// Route one relation into a flat per-partition arena with the two-pass
/// count/scatter layout described in the module docs. Both passes hand each
/// contiguous chunk to the partitioner's block API — there is no per-tuple routing
/// buffer anywhere on this path, and under [`ScatterPolicy::Reroute`] no
/// materialized pair list either.
fn route_side<P: Partitioner + ?Sized>(
    partitioner: &P,
    rel: &Relation,
    num_partitions: usize,
    par: &Parallelism<'_>,
    side: Side,
    config: &ShuffleConfig,
    faults: Option<&FaultContext<'_>>,
) -> Result<PartitionedIndex, ShuffleError> {
    let n = rel.len();
    // Tuple indices travel as u32 through sinks and arenas; fail loudly at the
    // chokepoint instead of truncating on the way in.
    assert!(
        n <= u32::MAX as usize + 1,
        "relation has {n} tuples but tuple indices are u32"
    );
    let threads = par.threads().min(n.max(1));
    let parallel = threads > 1 && n >= MIN_PARALLEL_TUPLES;
    let ranges = if config.is_streaming() {
        bounded_ranges(n, config.chunk_tuples)
    } else if parallel {
        chunk_ranges(n, threads * CHUNKS_PER_THREAD)
    } else {
        chunk_ranges(n, 1)
    };
    if ranges.is_empty() {
        return Ok(PartitionedIndex::empty(num_partitions));
    }
    trip(faults, InjectionPoint::ShufflePass1, side)?;

    // Streaming mode always counts in pass 1 and re-routes in pass 2: a pair list
    // grows with the chunk's assignment count and would break the memory bound the
    // fixed-size chunks exist to provide. Identical arenas either way (the policy
    // bit-identity is proven by `scatter_policies_produce_identical_arenas`).
    let policy = if config.is_streaming() {
        ScatterPolicy::Reroute
    } else {
        partitioner.scatter_policy()
    };
    let route_chunk = |sink: &mut AssignmentSink, (lo, hi): (usize, usize)| match side {
        Side::S => partitioner.assign_s_block(rel, lo..hi, sink),
        Side::T => partitioner.assign_t_block(rel, lo..hi, sink),
    };

    // Pass 1 (count): route every chunk through a count-only sink — or, under
    // [`ScatterPolicy::PairList`], a pair-recording sink so pass 2 can replay the
    // assignments instead of re-deriving them.
    let count_one = |range: (usize, usize)| -> AssignmentSink {
        let mut sink = match policy {
            ScatterPolicy::Reroute => AssignmentSink::counting(num_partitions),
            ScatterPolicy::PairList => {
                let mut sink = AssignmentSink::new(num_partitions);
                sink.reserve(range.1 - range.0);
                sink
            }
        };
        // Definition 1 requires h(x) ≠ ∅ for *every* tuple — check coverage per
        // tuple, not just in aggregate (a dropped tuple could otherwise hide
        // behind another tuple's duplicate).
        #[cfg(debug_assertions)]
        sink.track_coverage(range.0..range.1);
        route_chunk(&mut sink, range);
        #[cfg(debug_assertions)]
        debug_assert!(
            sink.covered_every_tuple(),
            "partitioner dropped a tuple (Definition 1 requires h(x) != empty)"
        );
        sink
    };
    let chunks: Vec<AssignmentSink> = if parallel {
        par.run(|| ranges.clone().into_par_iter().map(count_one).collect())
    } else {
        ranges.iter().map(|&r| count_one(r)).collect()
    };

    // Exact arena offsets from the merged per-chunk counts (checked widening —
    // see [`arena_layout`]).
    let per_chunk_counts: Vec<&[u64]> = chunks.iter().map(|c| c.counts()).collect();
    let ArenaLayout {
        offsets,
        chunk_bases,
        total,
    } = arena_layout(&per_chunk_counts, num_partitions);
    drop(per_chunk_counts);

    // Pass 2 (scatter). Under [`ScatterPolicy::Reroute`], route every chunk again
    // through an offset-aware sink — each block writes every tuple index straight to
    // its final arena slot, and no pair list ever existed. Under
    // [`ScatterPolicy::PairList`], replay the pairs pass 1 recorded. The two
    // policies write the identical arena: same per-(chunk, partition) slices, same
    // routing order within each slice.
    trip(faults, InjectionPoint::ShufflePass2, side)?;
    // Arena creation degrades to heap on a failed spill (real — a full temp
    // dir — or injected at [`InjectionPoint::SpillArena`]); either way the
    // fallback is counted, never silent, and the arena contents are identical.
    let mut data = match trip(faults, InjectionPoint::SpillArena, side) {
        Ok(()) => Storage::<u32>::zeroed_in_or_heap(total, &config.storage),
        Err(_) => {
            record_spill_fallback();
            Storage::<u32>::zeroed_in(total, &StorageMode::Heap)
        }
    };
    let arena = ArenaPtr(data.as_mut_ptr());
    // Borrow the wrapper (not the raw pointer field) so the scatter closure stays
    // `Sync` under edition-2021 disjoint capture.
    let arena = &arena;
    let scatter = |c: usize| match policy {
        ScatterPolicy::Reroute => {
            // SAFETY: `chunk_bases[c]` starts each partition cursor at this chunk's
            // disjoint slice of the arena (disjoint across chunks and partitions by
            // the prefix-sum layout), the pass-1 counts size those slices exactly,
            // and routing is a pure function of the immutable partitioner — so
            // pass 2 emits the same assignment stream pass 1 counted.
            let mut sink =
                unsafe { AssignmentSink::scattering(arena.0, total, chunk_bases[c].clone()) };
            route_chunk(&mut sink, ranges[c]);
            debug_assert_eq!(
                sink.len(),
                chunks[c].len(),
                "scatter pass routed a different assignment stream than the count pass"
            );
        }
        ScatterPolicy::PairList => {
            let mut cursor = chunk_bases[c].clone();
            for &(p, i) in chunks[c].pairs() {
                // SAFETY: `cursor[p]` stays within this chunk's slice of partition
                // `p` (it starts at the chunk's base and advances once per counted
                // pair), and those slices are disjoint across chunks and partitions.
                unsafe {
                    *arena.0.add(cursor[p as usize]) = i;
                }
                cursor[p as usize] += 1;
            }
        }
    };
    if parallel {
        let scatter = &scatter;
        par.run(|| (0..chunks.len()).into_par_iter().for_each(scatter));
    } else {
        for c in 0..chunks.len() {
            scatter(c);
        }
    }

    Ok(PartitionedIndex { data, offsets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recpart::partition::SinglePartition;
    use recpart::{PartitionId, SpillDir};

    fn relation(n: usize) -> Relation {
        let mut r = Relation::with_capacity(1, n);
        for i in 0..n {
            r.push(&[i as f64]);
        }
        r
    }

    fn heap() -> ShuffleConfig {
        ShuffleConfig::default()
    }

    /// Routes tuple `i` to partition `i % m`, plus partition `0` for multiples of 7 —
    /// exercises multi-partition assignments.
    struct ModPartitioner(usize);
    impl Partitioner for ModPartitioner {
        fn num_partitions(&self) -> usize {
            self.0
        }
        fn assign_s(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            out.push((tuple_id % self.0 as u64) as PartitionId);
            if tuple_id.is_multiple_of(7) && !tuple_id.is_multiple_of(self.0 as u64) {
                out.push(0);
            }
        }
        fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            self.assign_s(key, tuple_id, out);
        }
        fn name(&self) -> &str {
            "Mod"
        }
    }

    /// A pool with more than one thread, so the chunked routing path runs even on a
    /// single-core machine (where the ambient context degenerates to one thread and
    /// would silently take the sequential path).
    fn four_thread_pool() -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_routing_is_bit_identical_to_sequential() {
        let s = relation(10_000);
        let t = relation(9_000);
        let p = ModPartitioner(13);
        let pool = four_thread_pool();
        let seq = shuffle(&p, &s, &t, 13, &Parallelism::Sequential, &heap());
        let par = shuffle(&p, &s, &t, 13, &Parallelism::Pool(&pool), &heap());
        assert_eq!(seq.s_parts, par.s_parts);
        assert_eq!(seq.t_parts, par.t_parts);
    }

    #[test]
    fn index_lists_are_ascending() {
        let s = relation(8_192);
        let t = relation(8_192);
        let pool = four_thread_pool();
        let shuffled = shuffle(
            &ModPartitioner(5),
            &s,
            &t,
            5,
            &Parallelism::Pool(&pool),
            &heap(),
        );
        for parts in [&shuffled.s_parts, &shuffled.t_parts] {
            for list in parts.iter_parts() {
                assert!(list.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn every_tuple_is_routed_at_least_once() {
        let s = relation(5_000);
        let t = relation(5_000);
        let pool = four_thread_pool();
        let shuffled = shuffle(
            &SinglePartition,
            &s,
            &t,
            1,
            &Parallelism::Pool(&pool),
            &heap(),
        );
        assert_eq!(shuffled.s_parts.part(0).len(), 5_000);
        assert_eq!(shuffled.t_parts.part(0).len(), 5_000);
        assert_eq!(shuffled.total_input(), 10_000);
        assert!(shuffled.wall_seconds >= 0.0);
        assert!(shuffled.arena_bytes() > 0);
    }

    #[test]
    fn small_inputs_take_the_sequential_path() {
        let s = relation(10);
        let t = relation(10);
        let shuffled = shuffle(
            &ModPartitioner(3),
            &s,
            &t,
            3,
            &Parallelism::Ambient,
            &heap(),
        );
        let seq = shuffle(
            &ModPartitioner(3),
            &s,
            &t,
            3,
            &Parallelism::Sequential,
            &heap(),
        );
        assert_eq!(shuffled.s_parts, seq.s_parts);
        assert_eq!(shuffled.t_parts, seq.t_parts);
    }

    #[test]
    fn block_override_matches_per_tuple_fallback_arena() {
        use recpart::PerTupleFallback;
        let s = relation(9_000);
        let t = relation(5_000);
        let pool = four_thread_pool();
        for par in [Parallelism::Sequential, Parallelism::Pool(&pool)] {
            let block = shuffle(&SinglePartition, &s, &t, 1, &par, &heap());
            let per_tuple = shuffle(
                &PerTupleFallback(&SinglePartition),
                &s,
                &t,
                1,
                &par,
                &heap(),
            );
            assert_eq!(block.s_parts, per_tuple.s_parts);
            assert_eq!(block.t_parts, per_tuple.t_parts);
        }
    }

    /// Adapter that overrides a partitioner's declared [`ScatterPolicy`], so the
    /// tests can drive the same partitioner through both pass-2 pipelines.
    struct ForcePolicy<'a, P: ?Sized>(&'a P, ScatterPolicy);
    impl<P: Partitioner + ?Sized> Partitioner for ForcePolicy<'_, P> {
        fn num_partitions(&self) -> usize {
            self.0.num_partitions()
        }
        fn assign_s(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            self.0.assign_s(key, tuple_id, out)
        }
        fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            self.0.assign_t(key, tuple_id, out)
        }
        fn scatter_policy(&self) -> ScatterPolicy {
            self.1
        }
        fn name(&self) -> &str {
            self.0.name()
        }
    }

    /// The offset-aware re-route pipeline and the pair-list pipeline must produce
    /// bit-identical arenas — multi-partition, multi-assignment, sequential and
    /// parallel, regardless of which policy the partitioner declares.
    #[test]
    fn scatter_policies_produce_identical_arenas() {
        let s = relation(10_000);
        let t = relation(4_321);
        let p = ModPartitioner(11);
        let pool = four_thread_pool();
        let reroute = ForcePolicy(&p, ScatterPolicy::Reroute);
        let pair_list = ForcePolicy(&p, ScatterPolicy::PairList);
        let route = |p: &dyn Partitioner, rel, par: &Parallelism<'_>, side| {
            route_side(p, rel, 11, par, side, &heap(), None).expect("no faults injected")
        };
        for (rel, side) in [(&s, Side::S), (&t, Side::T)] {
            let oracle = route(&pair_list, rel, &Parallelism::Sequential, side);
            for par in [Parallelism::Sequential, Parallelism::Pool(&pool)] {
                assert_eq!(route(&reroute, rel, &par, side), oracle);
                assert_eq!(route(&pair_list, rel, &par, side), oracle);
            }
        }
    }

    /// Streaming mode (bounded chunks, forced count+re-route) and spill-backed
    /// arenas must reproduce the legacy in-memory arena bit for bit, for both
    /// declared policies and any chunk size — including chunk sizes that do not
    /// divide the input and a chunk size of one.
    #[test]
    fn streaming_and_spill_arenas_are_bit_identical_to_legacy() {
        let s = relation(10_000);
        let t = relation(4_321);
        let p = ModPartitioner(11);
        let pool = four_thread_pool();
        let dir = SpillDir::in_temp("shuffle-test").expect("creating the spill dir");
        let oracle = shuffle(&p, &s, &t, 11, &Parallelism::Sequential, &heap());
        for chunk_tuples in [1usize, 777, 4_096, 100_000] {
            for storage in [StorageMode::Heap, StorageMode::Spill(dir.clone())] {
                let config = ShuffleConfig::streaming(chunk_tuples, storage);
                for par in [Parallelism::Sequential, Parallelism::Pool(&pool)] {
                    for policy in [ScatterPolicy::Reroute, ScatterPolicy::PairList] {
                        let forced = ForcePolicy(&p, policy);
                        let got = shuffle(&forced, &s, &t, 11, &par, &config);
                        assert_eq!(got.s_parts, oracle.s_parts, "chunk={chunk_tuples}");
                        assert_eq!(got.t_parts, oracle.t_parts, "chunk={chunk_tuples}");
                        assert_eq!(got.s_parts.is_spilled(), config.storage.is_spill());
                    }
                }
            }
        }
    }

    /// The checked layout helper must survive synthetic counts whose offsets exceed
    /// `u32` — the regime the overflow audit is about — and must agree with a plain
    /// prefix sum.
    #[test]
    fn arena_layout_handles_offsets_beyond_u32() {
        let c0 = [0x8000_0000u64, 3, 0];
        let c1 = [0x8000_0001u64, 5, 0x1_0000_0000];
        let layout = arena_layout(&[&c0, &c1], 3);
        assert_eq!(
            layout.offsets,
            vec![
                0,
                0x1_0000_0001, // > u32::MAX: would have truncated via `as u32`
                0x1_0000_0001 + 8,
                0x1_0000_0001 + 8 + 0x1_0000_0000,
            ]
        );
        assert_eq!(layout.total, *layout.offsets.last().unwrap());
        assert_eq!(layout.chunk_bases.len(), 2);
        assert_eq!(
            layout.chunk_bases[0],
            vec![0, 0x1_0000_0001, 0x1_0000_0001 + 8]
        );
        assert_eq!(
            layout.chunk_bases[1],
            vec![0x8000_0000, 0x1_0000_0001 + 3, 0x1_0000_0001 + 8]
        );
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn arena_layout_rejects_u64_overflow() {
        let c0 = [u64::MAX];
        let c1 = [1u64];
        let _ = arena_layout(&[&c0, &c1], 1);
    }

    #[test]
    fn arena_offsets_are_consistent() {
        let s = relation(6_000);
        let t = relation(100);
        let shuffled = shuffle(
            &ModPartitioner(7),
            &s,
            &t,
            7,
            &Parallelism::Sequential,
            &heap(),
        );
        for parts in [&shuffled.s_parts, &shuffled.t_parts] {
            assert_eq!(parts.num_partitions(), 7);
            let total: usize = parts.iter_parts().map(<[u32]>::len).sum();
            assert_eq!(total, parts.len());
        }
        assert!(shuffled.s_parts.len() >= 6_000, "duplicates counted");
        assert!(!shuffled.s_parts.is_empty());
        let empty = PartitionedIndex::empty(3);
        assert_eq!(empty.num_partitions(), 3);
        assert!(empty.is_empty());
        assert_eq!(empty.part(2), &[] as &[u32]);
    }
}
