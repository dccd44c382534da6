//! Seeded randomness for workloads and load balancing.
//!
//! Everything stochastic in the reproduction — attacker packet spacing,
//! Pareto flow sizes, spoofed addresses, ECMP tie-breaks — draws from a
//! [`SimRng`] so a `(seed, parameters)` pair fully determines a run.

/// A deterministic random source: xoshiro256++ seeded via SplitMix64, with
/// the distribution helpers the workloads need.
///
/// Self-contained on purpose — the workspace builds with no external
/// crates, and a fixed in-repo generator means a `(seed, parameters)` pair
/// produces the same run on every toolchain, forever.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed into four non-zero state words (the all-zero
        // state is xoshiro's single fixed point).
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ (Blackman & Vigna).
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

    /// Derive an independent child stream; used to give each workload
    /// component its own stream so adding one component does not perturb
    /// another's draws.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the stream id into fresh material from the parent.
        let base: u64 = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform integer in `[0, n)` without modulo bias (rejection sampling).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Reject draws from the biased tail of the 64-bit range.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty choice set");
        self.below(n as u64) as usize
    }

    /// Uniform `u32` over the full range (used for spoofed IPv4 addresses).
    pub fn u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `u64` over the full range.
    pub fn u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponential variate with the given mean (inter-arrival times of a
    /// Poisson process). Mean must be positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "invalid exponential mean");
        // Inverse CDF; `1 - u` avoids ln(0).
        let u: f64 = self.f64();
        -mean * (1.0 - u).ln()
    }

    /// Bounded Pareto variate on `[lo, hi]` with shape `alpha`.
    ///
    /// This is the canonical heavy-tailed flow-size model: most flows are
    /// mice near `lo`, a small fraction are elephants near `hi`, matching
    /// the measurement the paper cites ("the majority of link capacity is
    /// consumed by a small fraction of large flows").
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        assert!(lo > 0.0 && hi > lo && alpha > 0.0, "invalid Pareto params");
        let u: f64 = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto distribution.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        for _ in 0..32 {
            assert_eq!(c1.u64(), c2.u64());
        }
        let mut parent = SimRng::new(7);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        assert_ne!(
            (0..8).map(|_| a.u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn exp_mean_is_approximately_right() {
        let mut rng = SimRng::new(3);
        let n = 50_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let avg = sum / n as f64;
        assert!((avg - mean).abs() < 0.1, "avg={avg}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_rate_close_to_p() {
        let mut rng = SimRng::new(11);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    proptest! {
        /// Bounded Pareto samples always lie in [lo, hi].
        #[test]
        fn prop_pareto_bounds(seed in 0u64..1000, alpha in 0.5f64..3.0) {
            let mut rng = SimRng::new(seed);
            for _ in 0..100 {
                let x = rng.bounded_pareto(10.0, 10_000.0, alpha);
                prop_assert!((10.0..=10_000.0 + 1e-6).contains(&x), "x={x}");
            }
        }

        /// range_u64 respects its bounds.
        #[test]
        fn prop_range_bounds(seed: u64, lo in 0u64..100, span in 1u64..1000) {
            let mut rng = SimRng::new(seed);
            let hi = lo + span;
            for _ in 0..50 {
                let x = rng.range_u64(lo, hi);
                prop_assert!(x >= lo && x < hi);
            }
        }

        /// shuffle produces a permutation.
        #[test]
        fn prop_shuffle_is_permutation(seed: u64, n in 0usize..64) {
            let mut rng = SimRng::new(seed);
            let mut v: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut v);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        // With alpha≈1.2 a small fraction of samples should carry most mass.
        let mut rng = SimRng::new(17);
        let mut sizes: Vec<f64> = (0..20_000)
            .map(|_| rng.bounded_pareto(1.0, 100_000.0, 1.2))
            .collect();
        sizes.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = sizes.iter().sum();
        let top10: f64 = sizes.iter().take(sizes.len() / 10).sum();
        assert!(top10 / total > 0.5, "top 10% carries {:.2}", top10 / total);
    }
}
