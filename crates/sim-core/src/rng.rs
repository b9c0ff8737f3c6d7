//! A small deterministic RNG (SplitMix64) for seed derivation and cheap
//! stochastic decisions inside the simulation kernel.
//!
//! Higher-level crates draw all of their randomness from [`SplitMix64`]
//! streams (the workspace has no third-party RNG dependency), so every
//! simulation remains a pure function of its top-level seed and every
//! batch run is reproducible. SplitMix64 is the standard seeding
//! generator from Steele et al., "Fast Splittable Pseudorandom Number
//! Generators" (OOPSLA 2014); it is tiny and passes BigCrush on 64-bit
//! outputs.

/// A deterministic 64-bit RNG.
///
/// # Example
///
/// ```
/// use ehp_sim_core::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`: exactly when
    /// `next_f64() < p` would be, in the integer form of
    /// [`chance_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.chance_below(chance_threshold(p))
    }

    /// Returns `true` when the next draw's top 53 bits are below
    /// `threshold`: `chance(p)` for `threshold = chance_threshold(p)`,
    /// with the float work done once, outside a per-draw loop.
    #[inline]
    pub fn chance_below(&mut self, threshold: u64) -> bool {
        (self.next_u64() >> 11) < threshold
    }
}

/// The integer threshold `SplitMix64::chance(p)` compares a draw's top
/// 53 bits `m` against: `ceil(p * 2^53)`. `next_f64()` returns
/// `m * 2^-53`, and for an integer `m < 2^53`,
/// `m * 2^-53 < p` holds exactly when `m < ceil(p * 2^53)`. Scaling by a
/// power of two and `ceil` are exact in `f64`, so no draw lands on the
/// other side of the comparison.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
#[inline]
#[must_use]
pub fn chance_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    (p * (1u64 << 53) as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = SplitMix64::new(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.next_below(8) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow 5% tolerance.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn chance_mid_probability() {
        let mut r = SplitMix64::new(17);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "hits = {hits}");
    }

    /// The generator whose next draw is `x`: SplitMix64's output mix is
    /// a bijection, so undo it and step the state back one increment.
    fn drawing(x: u64) -> SplitMix64 {
        fn unshift(y: u64, s: u32) -> u64 {
            (0..64 / s).fold(y, |z, _| y ^ (z >> s))
        }
        fn inverse(c: u64) -> u64 {
            (0..6).fold(c, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i)))
            })
        }
        let mut z = unshift(x, 31);
        z = unshift(z.wrapping_mul(inverse(0x94D0_49BB_1331_11EB)), 27);
        z = unshift(z.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9)), 30);
        SplitMix64::new(z.wrapping_sub(0x9E37_79B9_7F4A_7C15))
    }

    /// This property's seed: the FNV-1a hash of `"chance"`.
    const CHANCE_SEED: u64 = 0x4A54_9303_4C71_4E81;

    #[test]
    fn chance_is_next_f64_below_p() {
        // `chance(p)` against its definition `next_f64() < p`, on seeded
        // draws and on draws whose top 53 bits sit one below, at and one
        // above the threshold, where an off-by-one threshold would flip.
        let eps = 1.0 / (1u64 << 53) as f64;
        let mut seeds = SplitMix64::new(CHANCE_SEED);
        for p in [0.0, eps, 0.1, 0.3, 0.5, 0.9, 1.0 - eps, 1.0] {
            let t = chance_threshold(p);
            let mut draws: Vec<u64> = [t.wrapping_sub(1), t, t + 1]
                .into_iter()
                .filter(|&m| m < 1 << 53)
                .map(|m| (m << 11) | seeds.next_below(1 << 11))
                .collect();
            draws.extend((0..2_000).map(|_| seeds.next_u64()));
            for x in draws {
                let mut a = drawing(x);
                assert_eq!(a.clone().next_u64(), x);
                let want = drawing(x).next_f64() < p;
                assert_eq!(a.chance(p), want, "p={p} draw={x:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
