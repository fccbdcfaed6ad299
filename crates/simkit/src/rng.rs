//! Seeded random sampling for the simulation.
//!
//! The build runs in fully offline environments, so both the generator
//! (xoshiro256++ seeded through SplitMix64) and the distribution samplers
//! (`standard_normal`, `exponential`, `zipf`) are implemented here rather
//! than pulled from `rand`/`rand_distr`. All samplers are exercised against
//! their analytic moments in the unit tests.

/// The SplitMix64 golden-gamma increment.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: advance `x` by the golden gamma and finalize.
/// A strong, cheap 64-bit mixer — also the hash behind the fleet's
/// consistent-hash ring, exported so the constants live in one place.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SPLITMIX_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The xoshiro256++ core generator (Blackman & Vigna). 256 bits of state,
/// seeded by expanding a 64-bit seed through SplitMix64 as the authors
/// recommend, so nearby seeds still yield uncorrelated streams.
#[derive(Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the full state:
        // out_i = mix64(seed + i * gamma).
        let mut s = [0u64; 4];
        for (i, slot) in s.iter_mut().enumerate() {
            *slot = mix64(seed.wrapping_add((i as u64).wrapping_mul(SPLITMIX_GAMMA)));
        }
        Xoshiro256pp { s }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
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
        out
    }
}

/// A seeded random source with the distribution samplers the simulation needs.
///
/// # Example
///
/// ```
/// use modm_simkit::SimRng;
/// let mut rng = SimRng::seed_from(42);
/// let dt = rng.exponential(0.5); // inter-arrival at rate 0.5/s
/// assert!(dt >= 0.0);
/// ```
pub struct SimRng {
    inner: Xoshiro256pp,
    /// Spare value from the Box–Muller pair, if one is buffered.
    gauss_spare: Option<f64>,
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256pp::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator. Used to give each subsystem
    /// (arrivals, quality noise, …) its own stream so adding draws in one
    /// subsystem does not perturb another.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(s)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits scaled by 2^-53: every representable value in [0, 1)
        // with the full double-precision resolution.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty interval [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Rejection sampling over the largest multiple of `n` that fits in
        // u64, so every index is exactly equally likely.
        let n64 = n as u64;
        let zone = u64::MAX - (u64::MAX % n64);
        loop {
            let v = self.inner.next_u64();
            if v < zone {
                return (v % n64) as usize;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal sample via Box–Muller (with spare caching).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Exponential sample with the given rate (events per unit time).
    ///
    /// Used for Poisson-process inter-arrival times, as in the paper's
    /// request-arrival model (§6, "Modeling of Request Arrivals").
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive: {rate}");
        let u = 1.0 - self.uniform(); // in (0, 1]
        -u.ln() / rate
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`.
    ///
    /// Sampled by inverse transform over precomputed weights is too slow to
    /// rebuild per call, so this uses rejection-free cumulative search over
    /// the harmonic weights computed on the fly for small `n`, and the
    /// approximate inverse-CDF method of Devroye for large `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf over empty support");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        if n == 1 {
            return 0;
        }
        // Devroye's approximation: invert the integral of x^-s over [1, n+1)
        // so every rank (including the last) has positive mass.
        let nf = n as f64;
        let hi = nf + 1.0;
        loop {
            let u = self.uniform();
            let x = if (s - 1.0).abs() < 1e-9 {
                hi.powf(u)
            } else {
                let t = u * (hi.powf(1.0 - s) - 1.0) + 1.0;
                t.powf(1.0 / (1.0 - s))
            };
            let rank = x.floor();
            if rank >= 1.0 && rank <= nf {
                // Accept with probability proportional to the ratio between
                // the pmf and the continuous envelope.
                let ratio = (rank / x).powf(s);
                if self.uniform() < ratio {
                    return rank as usize - 1;
                }
            }
        }
    }

    /// Raw 64-bit draw; exposed for hashing-style uses.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = SimRng::seed_from(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from(11);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| 3.0 + 2.0 * rng.standard_normal())
            .collect();
        let m = mean_of(&xs);
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.15, "var {v}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = SimRng::seed_from(13);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.exponential(4.0)).collect();
        assert!((mean_of(&xs) - 0.25).abs() < 0.01);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = SimRng::seed_from(19);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[rng.zipf(100, 1.1)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[50] * 5);
        // Every draw fell in range (indexing would have panicked otherwise).
        assert_eq!(counts.iter().sum::<usize>(), 50_000);
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let mut rng = SimRng::seed_from(23);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[rng.zipf(10, 0.0)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.3, "counts {counts:?}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(37);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
