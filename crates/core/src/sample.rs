//! Input and output sampling.
//!
//! RecPart's optimization phase works on a fixed-size random **input sample** (from
//! `S ∪ T`) and a random **output sample** of the band-join result (Algorithm 1, lines
//! 1–2). The output sample is needed because a good partitioning must balance *output*
//! as well as input across workers; the paper uses the join sampling method of
//! Vitorovic et al. \[38\]. The README's *Sampling* section describes the substitution.
//!
//! **Index picks.** Both samplers pick indices without replacement by a sparse
//! Fisher–Yates shuffle: a map of displaced slots replays
//! `SliceRandom::partial_shuffle` over `0..n` — the same `gen_range(i..n)` calls and
//! the same swaps — in O(k) time and memory for `k` picks, with no `n`-sized buffer.
//!
//! **Output sample.** A two-phase weighted sampler: it picks `p` random S-tuples as
//! probes, finds every T-tuple each probe joins with, and then draws output pairs with
//! probability proportional to each probe's degree. This produces (approximately)
//! uniformly distributed output pairs and, as a by-product, an unbiased estimate of
//! the total output size — exactly the two artifacts the optimizer needs.
//!
//! The matches are found without sorting `T`. Probe `s` owns the dimension-0 window
//! `[lo, hi] = band.range_around_s(0, s₀)`, and both ends grow with `s₀`. With the
//! probes sorted by `s₀`, the probes whose window holds a value `v` therefore form one
//! contiguous run: a binary search on `lo` finds its end, and a test of the last
//! candidate's `hi` rejects most T-tuples at once. `T`'s dimension-0 column is
//! streamed once, in `pieces` contiguous chunks. A T-tuple inside a run is checked
//! against the run's probes with the full band condition by
//! [`band_window_collect`] over the probes' columns, with the band
//! mirrored — exact, because `fl(t − s) = −fl(s − t)`. A NaN key lies in no window.
//! Time is O(|T| log p) plus one full-band test per candidate; memory is
//! O(p + matches).
//!
//! **Order contract.** Each probe's matches are ordered by T's dimension-0 key
//! (`f64::total_cmp`), ties by T index — the order a stable sort of `T` on
//! dimension 0 gives — and the pair draw indexes into that order. The drawn pairs,
//! the output estimate and the generator's state afterwards are identical for every
//! `pieces` and every [`JoinKernel`].

use crate::band::BandCondition;
use crate::parallel::chunk_ranges;
use crate::relation::Relation;
use crate::simd::{band_window_collect, JoinKernel};
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the sampling phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleConfig {
    /// Total number of input-sample tuples drawn from `S ∪ T` (split proportionally to
    /// the relation sizes). The paper uses 100 000 for inputs of hundreds of millions;
    /// the default here is sized for the scaled-down experiments.
    pub input_sample_size: usize,
    /// Number of output pairs to sample.
    pub output_sample_size: usize,
    /// Number of S-tuples probed against T while building the output sample. More
    /// probes give a better output-size estimate at higher sampling cost.
    pub output_probe_count: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            input_sample_size: 8_192,
            output_sample_size: 4_096,
            output_probe_count: 2_048,
        }
    }
}

impl SampleConfig {
    /// A configuration with every knob scaled by `factor` (≥ 1 keeps at least one
    /// element per knob). Useful for optimization-time experiments.
    pub fn scaled(&self, factor: f64) -> SampleConfig {
        let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
        SampleConfig {
            input_sample_size: scale(self.input_sample_size),
            output_sample_size: scale(self.output_sample_size),
            output_probe_count: scale(self.output_probe_count),
        }
    }
}

/// A uniform random sample of an input relation, together with the scale-up weight
/// that converts sample counts into full-relation estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputSample {
    dims: usize,
    /// Row-major sample points.
    data: Vec<f64>,
    /// Number of tuples in the full relation.
    relation_len: usize,
}

impl InputSample {
    /// Draw a uniform sample of (at most) `size` tuples from `relation`.
    pub fn draw<R: Rng + ?Sized>(relation: &Relation, size: usize, rng: &mut R) -> Self {
        let n = relation.len();
        let size = size.min(n);
        let mut data = Vec::with_capacity(size * relation.dims());
        if size == n {
            data.extend_from_slice(&relation.to_flat());
        } else {
            for i in sample_indices(n, size, rng) {
                data.extend_from_slice(&relation.key(i));
            }
        }
        InputSample {
            dims: relation.dims(),
            data,
            relation_len: n,
        }
    }

    /// Number of sampled tuples.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of the sampled keys.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Key of sampled tuple `i`.
    pub fn key(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Iterate over sampled keys.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dims)
    }

    /// Size of the relation the sample was drawn from.
    pub fn relation_len(&self) -> usize {
        self.relation_len
    }

    /// Indices `0..len` sorted ascending by the key value in dimension `dim`
    /// (`f64::total_cmp`, so the order is deterministic even for NaNs and ±0.0).
    /// Seeds the optimizer's cached per-dimension projections.
    pub fn argsort_by_dim(&self, dim: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.key(a as usize)[dim].total_cmp(&self.key(b as usize)[dim])
        });
        order
    }

    /// Scale factor converting a sample count into a full-relation estimate
    /// (`|R| / sample size`); 0 for an empty sample.
    pub fn weight(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.relation_len as f64 / self.len() as f64
        }
    }
}

/// A sample of band-join output pairs `(s_key, t_key)` plus an estimate of the total
/// output size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputSample {
    dims: usize,
    /// Row-major: for pair `i`, the S-key occupies `[2*i*d, (2*i+1)*d)` and the T-key
    /// `[(2*i+1)*d, (2*i+2)*d)`.
    pairs: Vec<f64>,
    /// Estimated total number of output tuples `|S ⋈ T|`.
    estimated_output: f64,
}

impl OutputSample {
    /// Build an output sample by probing `config.output_probe_count` random S-tuples
    /// against `t` and drawing `config.output_sample_size` pairs weighted by probe
    /// degree. Scans `T` on the current rayon context.
    pub fn draw<R: Rng + ?Sized>(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        config: &SampleConfig,
        rng: &mut R,
    ) -> Self {
        Self::draw_on(s, t, band, config, rng, rayon::current_num_threads())
    }

    /// [`OutputSample::draw`] with an explicit chunk count for the scan of `T`;
    /// `pieces <= 1` runs strictly sequentially. The sample, and the state `rng` is
    /// left in, are identical for every `pieces`.
    pub fn draw_on<R: Rng + ?Sized>(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        config: &SampleConfig,
        rng: &mut R,
        pieces: usize,
    ) -> Self {
        let dims = s.dims();
        if s.is_empty() || t.is_empty() {
            return Self::empty(dims, 0.0);
        }

        let probe_count = config.output_probe_count.min(s.len()).max(1);
        let probes = sample_indices(s.len(), probe_count, rng);
        let (offsets, matched) = probe_matches(s, t, band, &probes, pieces);
        let total_degree = matched.len();
        let estimated_output = total_degree as f64 * s.len() as f64 / probe_count as f64;

        // Draw output pairs proportional to degree: a uniform position in the
        // concatenated match lists, whose probe is found on the CSR offsets.
        let want = config.output_sample_size.min(total_degree);
        let mut pairs = Vec::with_capacity(want * 2 * dims);
        for _ in 0..want {
            let r = rng.gen_range(0..total_degree);
            let probe = offsets.partition_point(|&c| c <= r) - 1;
            pairs.extend_from_slice(&s.key(probes[probe]));
            pairs.extend_from_slice(&t.key(matched[r]));
        }

        OutputSample {
            dims,
            pairs,
            estimated_output,
        }
    }

    /// An output sample with no pairs and the given output-size estimate.
    pub fn empty(dims: usize, estimated_output: f64) -> Self {
        OutputSample {
            dims,
            pairs: Vec::new(),
            estimated_output,
        }
    }

    /// Number of sampled output pairs.
    pub fn len(&self) -> usize {
        if self.dims == 0 {
            0
        } else {
            self.pairs.len() / (2 * self.dims)
        }
    }

    /// Whether no output pairs were sampled.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Dimensionality of the keys.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The S-side key of sampled pair `i`.
    pub fn s_key(&self, i: usize) -> &[f64] {
        let start = 2 * i * self.dims;
        &self.pairs[start..start + self.dims]
    }

    /// The T-side key of sampled pair `i`.
    pub fn t_key(&self, i: usize) -> &[f64] {
        let start = (2 * i + 1) * self.dims;
        &self.pairs[start..start + self.dims]
    }

    /// Estimated total output size `|S ⋈ T|`.
    pub fn estimated_output(&self) -> f64 {
        self.estimated_output
    }

    /// Pair indices `0..len` sorted ascending by the **S-side** key value in
    /// dimension `dim` (`f64::total_cmp`).
    pub fn argsort_by_s_dim(&self, dim: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.s_key(a as usize)[dim].total_cmp(&self.s_key(b as usize)[dim])
        });
        order
    }

    /// Pair indices `0..len` sorted ascending by the **T-side** key value in
    /// dimension `dim` (`f64::total_cmp`).
    pub fn argsort_by_t_dim(&self, dim: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.t_key(a as usize)[dim].total_cmp(&self.t_key(b as usize)[dim])
        });
        order
    }

    /// Scale factor converting a count of sampled pairs into an estimate of output
    /// tuples (`|S ⋈ T|_est / sample size`); 0 for an empty sample.
    pub fn weight(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.estimated_output / self.len() as f64
        }
    }
}

/// The first `min(amount, n)` entries of `(0..n)` after
/// `SliceRandom::partial_shuffle(rng, amount)`, drawn with the same `gen_range`
/// calls and swaps, in O(amount) time and memory: only displaced slots are stored.
fn sample_indices<R: Rng + ?Sized>(n: usize, amount: usize, rng: &mut R) -> Vec<usize> {
    let amount = amount.min(n);
    // Slot `j` holds `displaced[j]` when present and `j` otherwise.
    let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(amount);
    (0..amount)
        .map(|i| {
            let j = rng.gen_range(i..n);
            // Slot `i` is never read again, so its entry can go.
            let at_i = displaced.remove(&i).unwrap_or(i);
            if j == i {
                at_i
            } else {
                displaced.insert(j, at_i).unwrap_or(j)
            }
        })
        .collect()
}

/// Every probe's matches in `t`, as CSR: probe `k` (the S-tuple `probes[k]`) joins
/// with the T-tuples `matched[offsets[k]..offsets[k + 1]]`, listed in the module's
/// order contract. `t` is streamed once in `pieces` chunks; see the module docs.
fn probe_matches(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    probes: &[usize],
    pieces: usize,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        probes.len() <= u32::MAX as usize,
        "at most u32::MAX output probes"
    );
    let dims = s.dims();
    let s0 = |k: usize| s.value(probes[k], 0);
    // Probes sorted by s₀, so both window ends are non-decreasing; a NaN s₀ has an
    // empty window and is left out.
    let mut by_s0: Vec<usize> = (0..probes.len()).filter(|&k| !s0(k).is_nan()).collect();
    by_s0.sort_unstable_by(|&a, &b| s0(a).total_cmp(&s0(b)).then(a.cmp(&b)));
    let (lo, hi): (Vec<f64>, Vec<f64>) =
        by_s0.iter().map(|&k| band.range_around_s(0, s0(k))).unzip();
    let probe_cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| by_s0.iter().map(|&k| s.value(probes[k], d)).collect())
        .collect();
    // The kernel tests `t − s` against the band with its two sides swapped.
    let mirrored = BandCondition::try_asymmetric(band.eps_high_all(), band.eps_low_all())
        .expect("mirroring a valid band keeps it valid");
    let kernel = JoinKernel::active();
    let t_cols: Vec<&[f64]> = (0..dims).map(|d| t.column(d)).collect();

    // Per chunk of `t`: (position in `by_s0`, T index) for every match, in T order.
    let scan = |(from, to): (usize, usize)| {
        let mut hits: Vec<(u32, usize)> = Vec::new();
        let mut run = Vec::new();
        let mut t_key = vec![0.0; dims];
        for (ti, &v) in (from..to).zip(&t_cols[0][from..to]) {
            // Probes `..end` have `lo <= v`; a NaN `v` gives `end == 0`.
            let end = lo.partition_point(|&l| l <= v);
            if end == 0 || hi[end - 1] < v {
                continue;
            }
            let start = hi[..end].partition_point(|&h| h < v);
            for (k, col) in t_key.iter_mut().zip(&t_cols) {
                *k = col[ti];
            }
            run.clear();
            band_window_collect(kernel, &t_key, &probe_cols, start..end, &mirrored, &mut run);
            hits.extend(run.iter().map(|&pos| (pos, ti)));
        }
        hits
    };
    let per_chunk: Vec<Vec<(u32, usize)>> = chunk_ranges(t.len(), pieces)
        .into_par_iter()
        .map(scan)
        .collect();

    // Scatter into CSR by pick order; chunks are in T order, so every probe's list
    // comes out in T-index order and a stable sort on the key finishes the contract.
    let p = probes.len();
    let mut offsets = vec![0usize; p + 1];
    for &(pos, _) in per_chunk.iter().flatten() {
        offsets[by_s0[pos as usize] + 1] += 1;
    }
    for k in 0..p {
        offsets[k + 1] += offsets[k];
    }
    let mut cursor = offsets[..p].to_vec();
    let mut matched = vec![0usize; offsets[p]];
    for &(pos, ti) in per_chunk.iter().flatten() {
        let k = by_s0[pos as usize];
        matched[cursor[k]] = ti;
        cursor[k] += 1;
    }
    let key = t_cols[0];
    for w in offsets.windows(2) {
        matched[w[0]..w[1]].sort_by(|&a, &b| key[a].total_cmp(&key[b]));
    }
    (offsets, matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};
    use serde::Value;

    /// The sort-based output sampler the streaming one replaced, kept as its
    /// bit-identity oracle: argsort all of `T` on dimension 0, binary-search each
    /// probe's window, and test the full band per candidate.
    fn draw_sorted<R: Rng + ?Sized>(
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        config: &SampleConfig,
        rng: &mut R,
    ) -> OutputSample {
        let dims = s.dims();
        if s.is_empty() || t.is_empty() {
            return OutputSample::empty(dims, 0.0);
        }
        let order = t.argsort_by_dim(0);
        let sorted_vals: Vec<f64> = order.iter().map(|&i| t.value(i, 0)).collect();
        let probe_count = config.output_probe_count.min(s.len()).max(1);
        let mut probe_indices: Vec<usize> = (0..s.len()).collect();
        probe_indices.partial_shuffle(rng, probe_count);
        probe_indices.truncate(probe_count);

        let mut matches_per_probe: Vec<(usize, Vec<usize>)> = Vec::with_capacity(probe_count);
        let mut total_degree = 0usize;
        for &si in &probe_indices {
            let s_key = s.key(si);
            let (lo, hi) = band.range_around_s(0, s_key[0]);
            let start = sorted_vals.partition_point(|&v| v < lo);
            let end = sorted_vals.partition_point(|&v| v <= hi);
            let matched: Vec<usize> = order[start..end]
                .iter()
                .copied()
                .filter(|&ti| band.matches(&s_key, &t.key(ti)))
                .collect();
            total_degree += matched.len();
            matches_per_probe.push((si, matched));
        }
        let estimated_output = total_degree as f64 * s.len() as f64 / probe_count as f64;

        let mut pairs = Vec::new();
        if total_degree > 0 {
            let want = config.output_sample_size.min(total_degree);
            let mut cumulative: Vec<usize> = vec![0];
            for (_, m) in &matches_per_probe {
                cumulative.push(cumulative.last().unwrap() + m.len());
            }
            for _ in 0..want {
                let r = rng.gen_range(0..total_degree);
                let probe_idx = cumulative.partition_point(|&c| c <= r) - 1;
                let (si, ref matched) = matches_per_probe[probe_idx];
                pairs.extend_from_slice(&s.key(si));
                pairs.extend_from_slice(&t.key(matched[r - cumulative[probe_idx]]));
            }
        }
        OutputSample {
            dims,
            pairs,
            estimated_output,
        }
    }

    /// A relation from row-major values through deserialization, the one path that
    /// admits non-finite keys in every build.
    fn relation_with_any_keys(dims: usize, data: &[f64]) -> Relation {
        let blob = Value::Map(vec![
            ("dims".to_string(), Value::U64(dims as u64)),
            (
                "data".to_string(),
                Value::Seq(data.iter().map(|&v| Value::F64(v)).collect()),
            ),
        ]);
        <Relation as Deserialize>::from_value(&blob).expect("deserialize")
    }

    /// Keys on a coarse grid (many duplicates, both zeros) with a sprinkling of
    /// `specials`.
    fn grid_keys(rng: &mut StdRng, len: usize, dims: usize, specials: &[f64]) -> Vec<f64> {
        (0..len * dims)
            .map(|_| {
                if rng.gen_range(0..10) == 0 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-4i64..8) as f64 * 0.5
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn uniform_relation(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        let mut key = vec![0.0; dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                *k = rng.gen_range(lo..hi);
            }
            r.push(&key);
        }
        r
    }

    #[test]
    fn input_sample_basic_properties() {
        let r = uniform_relation(1000, 2, 0.0, 100.0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = InputSample::draw(&r, 100, &mut rng);
        assert_eq!(sample.len(), 100);
        assert_eq!(sample.dims(), 2);
        assert_eq!(sample.relation_len(), 1000);
        assert!((sample.weight() - 10.0).abs() < 1e-12);
        for key in sample.iter() {
            assert!(key.iter().all(|v| (0.0..100.0).contains(v)));
        }
    }

    #[test]
    fn input_sample_larger_than_relation_takes_all() {
        let r = uniform_relation(50, 1, 0.0, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = InputSample::draw(&r, 500, &mut rng);
        assert_eq!(sample.len(), 50);
        assert!((sample.weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn input_sample_of_empty_relation() {
        let r = Relation::new(3);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = InputSample::draw(&r, 10, &mut rng);
        assert!(sample.is_empty());
        assert_eq!(sample.weight(), 0.0);
    }

    #[test]
    fn output_sample_pairs_satisfy_band_condition() {
        let s = uniform_relation(500, 2, 0.0, 10.0, 6);
        let t = uniform_relation(500, 2, 0.0, 10.0, 7);
        let band = BandCondition::symmetric(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = SampleConfig {
            input_sample_size: 100,
            output_sample_size: 200,
            output_probe_count: 200,
        };
        let sample = OutputSample::draw(&s, &t, &band, &cfg, &mut rng);
        assert!(!sample.is_empty(), "dense uniform data must produce output");
        for i in 0..sample.len() {
            assert!(
                band.matches(sample.s_key(i), sample.t_key(i)),
                "sampled output pair must satisfy the band condition"
            );
        }
    }

    #[test]
    fn output_size_estimate_close_to_truth_on_uniform_data() {
        let s = uniform_relation(800, 1, 0.0, 100.0, 10);
        let t = uniform_relation(800, 1, 0.0, 100.0, 11);
        let band = BandCondition::symmetric(&[1.0]);
        // Exact count.
        let mut exact = 0u64;
        for sk in s.iter() {
            for tk in t.iter() {
                if band.matches(&sk, &tk) {
                    exact += 1;
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = SampleConfig {
            input_sample_size: 400,
            output_sample_size: 400,
            output_probe_count: 400,
        };
        let sample = OutputSample::draw(&s, &t, &band, &cfg, &mut rng);
        let est = sample.estimated_output();
        let rel_err = (est - exact as f64).abs() / exact as f64;
        assert!(
            rel_err < 0.25,
            "output estimate {est} too far from exact {exact} (rel err {rel_err})"
        );
    }

    #[test]
    fn output_sample_empty_when_no_matches() {
        let s = uniform_relation(100, 1, 0.0, 1.0, 13);
        let t = uniform_relation(100, 1, 1000.0, 1001.0, 14);
        let band = BandCondition::symmetric(&[0.1]);
        let mut rng = StdRng::seed_from_u64(15);
        let sample = OutputSample::draw(&s, &t, &band, &SampleConfig::default(), &mut rng);
        assert!(sample.is_empty());
        assert_eq!(sample.estimated_output(), 0.0);
        assert_eq!(sample.weight(), 0.0);
    }

    #[test]
    fn output_sample_handles_empty_inputs() {
        let s = Relation::new(1);
        let t = uniform_relation(10, 1, 0.0, 1.0, 16);
        let band = BandCondition::symmetric(&[0.1]);
        let mut rng = StdRng::seed_from_u64(17);
        let sample = OutputSample::draw(&s, &t, &band, &SampleConfig::default(), &mut rng);
        assert!(sample.is_empty());
    }

    #[test]
    fn argsort_orders_each_dimension() {
        let r = uniform_relation(200, 2, 0.0, 50.0, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let sample = InputSample::draw(&r, 100, &mut rng);
        for dim in 0..2 {
            let order = sample.argsort_by_dim(dim);
            assert_eq!(order.len(), sample.len());
            for w in order.windows(2) {
                assert!(
                    sample.key(w[0] as usize)[dim] <= sample.key(w[1] as usize)[dim],
                    "dim {dim} not sorted"
                );
            }
        }
    }

    #[test]
    fn output_argsort_orders_both_sides() {
        let s = uniform_relation(300, 2, 0.0, 10.0, 22);
        let t = uniform_relation(300, 2, 0.0, 10.0, 23);
        let band = BandCondition::symmetric(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(24);
        let cfg = SampleConfig {
            input_sample_size: 100,
            output_sample_size: 150,
            output_probe_count: 150,
        };
        let sample = OutputSample::draw(&s, &t, &band, &cfg, &mut rng);
        assert!(!sample.is_empty());
        for dim in 0..2 {
            for w in sample.argsort_by_s_dim(dim).windows(2) {
                assert!(sample.s_key(w[0] as usize)[dim] <= sample.s_key(w[1] as usize)[dim]);
            }
            for w in sample.argsort_by_t_dim(dim).windows(2) {
                assert!(sample.t_key(w[0] as usize)[dim] <= sample.t_key(w[1] as usize)[dim]);
            }
        }
    }

    #[test]
    fn sample_config_scaled() {
        let cfg = SampleConfig::default();
        let half = cfg.scaled(0.5);
        assert_eq!(half.input_sample_size, cfg.input_sample_size / 2);
        let tiny = cfg.scaled(0.0);
        assert_eq!(tiny.input_sample_size, 1);
    }

    #[test]
    fn sparse_shuffle_replays_partial_shuffle() {
        for n in [0usize, 1, 2, 5, 17, 100, 1000] {
            for amount in [0, 1, n / 2, n.saturating_sub(1), n, n + 3] {
                for seed in 0..4u64 {
                    let mut sparse_rng = StdRng::seed_from_u64(seed);
                    let mut dense_rng = StdRng::seed_from_u64(seed);
                    let sparse = sample_indices(n, amount, &mut sparse_rng);
                    let mut dense: Vec<usize> = (0..n).collect();
                    let (picked, _) = dense.partial_shuffle(&mut dense_rng, amount);
                    assert_eq!(sparse, picked, "n={n} amount={amount} seed={seed}");
                    assert_eq!(
                        sparse_rng.next_u64(),
                        dense_rng.next_u64(),
                        "generator state after n={n} amount={amount} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn input_sample_matches_a_dense_partial_shuffle() {
        let r = uniform_relation(300, 2, 0.0, 10.0, 30);
        let mut rng = StdRng::seed_from_u64(31);
        let sample = InputSample::draw(&r, 40, &mut rng);
        let mut dense_rng = StdRng::seed_from_u64(31);
        let mut indices: Vec<usize> = (0..r.len()).collect();
        indices.partial_shuffle(&mut dense_rng, 40);
        let expected: Vec<f64> = indices[..40]
            .iter()
            .flat_map(|&i| r.key(i).to_vec())
            .collect();
        assert_eq!(
            sample.iter().flatten().copied().collect::<Vec<_>>(),
            expected
        );
        assert_eq!(rng.next_u64(), dense_rng.next_u64());
    }

    /// The streaming draw against the sort-based oracle on random small inputs:
    /// pairs, estimate and the generator's next output must match bit for bit, for
    /// every chunk count.
    #[test]
    fn streaming_draw_is_bit_identical_to_sorted_oracle() {
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0];
        let mut cases = StdRng::seed_from_u64(40);
        let mut with_output = 0;
        for case in 0..300u64 {
            let dims = 1 + (case % 3) as usize;
            let s_len = cases.gen_range(1..40);
            let t_len = cases.gen_range(1..60);
            let s_data = grid_keys(&mut cases, s_len, dims, &specials);
            let mut t_data = grid_keys(&mut cases, t_len, dims, &specials);
            if case % 10 == 9 {
                // Zero output: T far away from S.
                t_data.iter_mut().for_each(|v| *v += 1000.0);
            }
            let s = relation_with_any_keys(dims, &s_data);
            let t = relation_with_any_keys(dims, &t_data);
            let band = match (case / 3) % 3 {
                0 => BandCondition::uniform(dims, 0.5 * cases.gen_range(0..3) as f64),
                1 => {
                    let low: Vec<f64> = (0..dims).map(|_| cases.gen_range(0.0..1.5)).collect();
                    let high: Vec<f64> = (0..dims).map(|_| cases.gen_range(0.0..0.7)).collect();
                    BandCondition::try_asymmetric(&low, &high).unwrap()
                }
                _ => BandCondition::equi(dims),
            };
            let config = SampleConfig {
                input_sample_size: 1,
                output_sample_size: [1, 7, 200][cases.gen_range(0..3usize)],
                output_probe_count: [1, s_len / 2 + 1, s_len, s_len + 5]
                    [cases.gen_range(0..4usize)],
            };
            let mut oracle_rng = StdRng::seed_from_u64(case);
            let oracle = draw_sorted(&s, &t, &band, &config, &mut oracle_rng);
            let oracle_next = oracle_rng.next_u64();
            with_output += usize::from(!oracle.is_empty());
            for pieces in [1, 2, 7] {
                let mut rng = StdRng::seed_from_u64(case);
                let got = OutputSample::draw_on(&s, &t, &band, &config, &mut rng, pieces);
                let what = format!("case {case} (d={dims}, pieces={pieces}, {band:?})");
                assert_eq!(bits(&got.pairs), bits(&oracle.pairs), "pairs of {what}");
                assert_eq!(
                    got.estimated_output.to_bits(),
                    oracle.estimated_output.to_bits(),
                    "estimate of {what}"
                );
                assert_eq!(rng.next_u64(), oracle_next, "generator state after {what}");
            }
        }
        assert!(
            with_output > 100,
            "only {with_output} cases produced output"
        );
    }

    /// Regression test: with a negative-NaN dimension-0 key in T, the sort-based
    /// sampler binary-searched a predicate that is not partitioned (`total_cmp`
    /// sorts −NaN first) and undercounted probe degrees. Every degree must equal the
    /// brute-force window count, and no sampled pair may carry a NaN T key.
    #[test]
    fn negative_nan_keys_in_t_do_not_hide_matches() {
        let neg_nan = -f64::NAN;
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        let brute_force = |s: &Relation, t: &Relation, band: &BandCondition, si: usize| {
            let (lo, hi) = band.range_around_s(0, s.value(si, 0));
            (0..t.len())
                .filter(|&ti| {
                    let v = t.value(ti, 0);
                    lo <= v && v <= hi && band.matches(&s.key(si), &t.key(ti))
                })
                .count()
        };

        // The smallest failing shape: 0 matches instead of 1.
        let s = relation_with_any_keys(1, &[0.5]);
        let t = relation_with_any_keys(1, &[5.5, 1.0, neg_nan, neg_nan, neg_nan]);
        let band = BandCondition::symmetric(&[0.5]);
        let (offsets, matched) = probe_matches(&s, &t, &band, &[0], 1);
        assert_eq!((offsets, matched), (vec![0, 1], vec![1]));

        let mut cases = StdRng::seed_from_u64(50);
        for case in 0..200u64 {
            let dims = 1 + (case % 2) as usize;
            let s_len = cases.gen_range(1..20);
            let t_len = cases.gen_range(1..30);
            let specials = [neg_nan, f64::NAN, f64::INFINITY];
            let s = relation_with_any_keys(dims, &grid_keys(&mut cases, s_len, dims, &specials));
            let t = relation_with_any_keys(dims, &grid_keys(&mut cases, t_len, dims, &specials));
            let band = BandCondition::uniform(dims, 0.5 * cases.gen_range(0..3) as f64);
            let config = SampleConfig {
                input_sample_size: 1,
                output_sample_size: 50,
                output_probe_count: s_len,
            };
            let probes: Vec<usize> = (0..s_len).collect();
            let (offsets, _) = probe_matches(&s, &t, &band, &probes, 2);
            let mut total = 0;
            for si in 0..s_len {
                let degree = offsets[si + 1] - offsets[si];
                assert_eq!(
                    degree,
                    brute_force(&s, &t, &band, si),
                    "case {case} probe {si}"
                );
                total += degree;
            }
            let sample =
                OutputSample::draw_on(&s, &t, &band, &config, &mut StdRng::seed_from_u64(case), 2);
            assert_eq!(sample.estimated_output(), total as f64, "case {case}");
            for i in 0..sample.len() {
                assert!(
                    !sample.t_key(i)[0].is_nan(),
                    "case {case}: NaN T key sampled"
                );
            }
        }
    }
}
