//! Small deterministic pseudo-random number generator.
//!
//! The workspace builds with no network/registry access, so `rand` is not
//! available; the behavioral simulator's jitter/noise draws instead use
//! this vendored generator: a SplitMix64 seed expander feeding an
//! xoshiro256++ core (public-domain algorithms by Blackman & Vigna).
//! Sequences are fully determined by the seed, which is what the
//! simulator's reproducibility tests rely on.

/// xoshiro256++ generator seeded via SplitMix64.
///
/// ```
/// use htmpll_num::rng::Rng;
/// let mut a = Rng::seed_from_u64(42);
/// let mut b = Rng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// One step of the SplitMix64 stream: advances `state` and returns the
/// next output. Expands a 64-bit seed into the 256-bit xoshiro state,
/// and serves callers that need a bare seeded stream.
///
/// ```
/// use htmpll_num::rng::splitmix64;
/// let mut s = 0u64;
/// assert_eq!(splitmix64(&mut s), 0xe220a8397b1dcdaf);
/// ```
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Builds a generator whose stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        // SplitMix64 expansion guarantees a nonzero state for every seed.
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Builds the generator for stream `stream` of a seeded family:
    /// the `(seed, stream)` pair fully determines the sequence, and
    /// nearby stream indices land in unrelated regions of the state
    /// space (the index is remixed through SplitMix64 before the state
    /// expansion, so `stream` and `stream + 1` share no structure).
    ///
    /// Design-space sweeps key one stream per candidate index: the
    /// draws for candidate `i` are then a pure function of `(seed, i)`,
    /// independent of evaluation order, thread count, and chunking.
    ///
    /// ```
    /// use htmpll_num::rng::Rng;
    /// let mut a = Rng::for_stream(7, 1000);
    /// let mut b = Rng::for_stream(7, 1000);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    pub fn for_stream(seed: u64, stream: u64) -> Rng {
        // Derive a per-stream 64-bit seed by running the stream index
        // through the SplitMix64 permutation on top of the base seed's
        // own expansion; a plain `seed ^ stream` would make streams of
        // adjacent indices start from near-identical states.
        let mut sm = seed;
        let base = splitmix64(&mut sm);
        let mut mix = base ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Rng::seed_from_u64(splitmix64(&mut mix))
    }

    /// Next 64 uniformly distributed bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Requires `lo < hi` and both finite.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi && lo.is_finite() && hi.is_finite());
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal draw (Box–Muller). The log argument is bounded
    /// away from zero so the transform never produces an infinity.
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// `i`-th element of the van der Corput sequence in base `base`: the
/// radical inverse of `i`, a low-discrepancy point in `[0, 1)`.
///
/// Pairing coprime bases across dimensions yields a Halton sequence,
/// which covers a hyper-rectangle far more evenly than independent
/// uniform draws — useful when a design-space sweep wants stratified
/// coverage instead of Monte Carlo clumping. Fully deterministic: the
/// value depends only on `(i, base)`.
///
/// ```
/// use htmpll_num::rng::radical_inverse;
/// // Base 2: 0, 1/2, 1/4, 3/4, 1/8, ...
/// assert_eq!(radical_inverse(1, 2), 0.5);
/// assert_eq!(radical_inverse(3, 2), 0.75);
/// ```
pub fn radical_inverse(mut i: u64, base: u64) -> f64 {
    debug_assert!(base >= 2);
    let inv_base = 1.0 / base as f64;
    let mut f = 1.0;
    let mut r = 0.0;
    while i > 0 {
        f *= inv_base;
        r += f * (i % base) as f64;
        i /= base;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Rng::seed_from_u64(12345);
        let mut b = Rng::seed_from_u64(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively independent");
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs of SplitMix64 for seed 0, from the reference
        // implementation (Steele/Lea/Flood; used by many test vectors).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(&mut s), 0x6e789e6aa1b965f4);
        assert_eq!(splitmix64(&mut s), 0x06c45d188009454f);
    }

    #[test]
    fn streams_are_reproducible_and_independent() {
        // Same (seed, stream) → same sequence.
        let mut a = Rng::for_stream(42, 17);
        let mut b = Rng::for_stream(42, 17);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Adjacent streams and adjacent seeds both decorrelate.
        let mut s0 = Rng::for_stream(42, 0);
        let mut s1 = Rng::for_stream(42, 1);
        let same = (0..64).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert!(same < 2, "adjacent streams should be independent");
        let mut t0 = Rng::for_stream(1, 5);
        let mut t1 = Rng::for_stream(2, 5);
        let same = (0..64).filter(|_| t0.next_u64() == t1.next_u64()).count();
        assert!(same < 2, "same stream of different seeds should differ");
    }

    #[test]
    fn radical_inverse_reference_values() {
        // Base 2 (van der Corput) and base 3 openings.
        let b2: Vec<f64> = (0..6).map(|i| radical_inverse(i, 2)).collect();
        assert_eq!(b2, vec![0.0, 0.5, 0.25, 0.75, 0.125, 0.625]);
        let b3: Vec<f64> = (0..4).map(|i| radical_inverse(i, 3)).collect();
        for (got, want) in b3.iter().zip([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0]) {
            assert!((got - want).abs() < 1e-15, "{got} vs {want}");
        }
    }

    #[test]
    fn radical_inverse_is_low_discrepancy() {
        // Every length-n prefix of the base-2 sequence fills [0,1) more
        // evenly than random draws: max gap between sorted neighbours
        // is O(1/n), not O(log n / n).
        let mut pts: Vec<f64> = (0..256).map(|i| radical_inverse(i, 2)).collect();
        pts.sort_by(f64::total_cmp);
        let max_gap = pts.windows(2).map(|w| w[1] - w[0]).fold(0.0_f64, f64::max);
        assert!(max_gap <= 1.0 / 128.0 + 1e-12, "max gap {max_gap}");
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.uniform();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.range(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut r = Rng::seed_from_u64(2024);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let g = r.gaussian();
            assert!(g.is_finite());
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
