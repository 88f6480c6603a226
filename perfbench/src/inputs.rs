//! Seeded input generation, outside every timed region.
//!
//! The benchmark draws its own keys (SplitMix64 + inverse-transform Pareto) so the
//! inputs depend only on `--seed`, never on the program's random-number code: the
//! program under test receives nothing but the generated flat key buffers.

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, seedable, and statistically
/// adequate for drawing benchmark keys.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed` and `stream`
    /// (independent streams for S, T and the query mix).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// `n` row-major keys of `dims` i.i.d. Pareto(`shape`) attributes on `[1, ∞)`:
/// `x = (1 − u)^(−1/shape)`, the paper's pareto-z family.
pub fn pareto_flat(n: usize, dims: usize, shape: f64, rng: &mut SplitMix64) -> Vec<f64> {
    (0..n * dims)
        .map(|_| (1.0 - rng.next_f64()).powf(-1.0 / shape))
        .collect()
}

/// The generated S and T key buffers of one workload.
pub struct FlatInputs {
    /// Join attributes per tuple.
    pub dims: usize,
    /// Row-major S keys.
    pub s: Vec<f64>,
    /// Row-major T keys.
    pub t: Vec<f64>,
}

impl FlatInputs {
    /// Draw `per_side` Pareto(`shape`) tuples for each side from `seed`.
    pub fn pareto(seed: u64, per_side: usize, dims: usize, shape: f64) -> Self {
        FlatInputs {
            dims,
            s: pareto_flat(per_side, dims, shape, &mut SplitMix64::new(seed, 1)),
            t: pareto_flat(per_side, dims, shape, &mut SplitMix64::new(seed, 2)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_keys_other_seed_other_keys() {
        let a = FlatInputs::pareto(7, 100, 2, 1.5);
        let b = FlatInputs::pareto(7, 100, 2, 1.5);
        let c = FlatInputs::pareto(8, 100, 2, 1.5);
        assert_eq!(a.s, b.s);
        assert_eq!(a.t, b.t);
        assert_ne!(a.s, c.s);
        assert_ne!(a.s, a.t);
        assert!(a.s.iter().chain(&a.t).all(|&v| v >= 1.0 && v.is_finite()));
    }
}
