//! Micro-benchmarks for MoDM components, on a self-contained harness.
//!
//! The experiment harness (`modm-experiments`) regenerates the paper's
//! tables and figures; these benches measure the *costs of the system's own
//! mechanisms*, backing the paper's §5.2 claim that retrieval is negligible
//! next to denoising:
//!
//! * `retrieval` — exact flat vs approximate inverted index lookup across
//!   cache sizes.
//! * `cache_ops` — insert/evict throughput of the image cache, per policy.
//! * `scheduler` — prompt encoding, k-decision, Algorithm 1 planning.
//! * `metrics` — FID (eigendecomposition) and Inception Score kernels.
//! * `serving` — end-to-end simulated requests per wall-clock second.
//! * `fleet` — multi-node fleet simulation speed; also emits the
//!   `BENCH_fleet.json` trajectory point.
//!
//! The build runs fully offline, so instead of Criterion the benches share
//! the [`Bench`] harness below: auto-calibrated iteration counts, median-of
//! -samples timing, a plain-text table, and [`write_json`] for trajectory
//! files. Run with `cargo bench -p modm-bench`.

use std::time::Instant;

use modm_simkit::Json;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Case id, e.g. `"flat/10000"`.
    pub id: String,
    /// Iterations per sample.
    pub iters: u64,
    /// Median per-iteration time over the samples (per unit for
    /// [`Bench::measure_per`]), nanoseconds.
    pub median_ns: f64,
    /// Fastest sample's per-iteration (or per-unit) time, nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's per-iteration (or per-unit) time, nanoseconds.
    pub max_ns: f64,
    /// Samples the median, min and max are taken over.
    pub samples: usize,
}

/// A tiny Criterion stand-in: warms up, auto-calibrates the iteration
/// count to a target sample duration, takes several samples and keeps the
/// median.
///
/// # Example
///
/// ```
/// use modm_bench::Bench;
/// let mut b = Bench::new("demo");
/// b.measure("add", || std::hint::black_box(2u64 + 2));
/// assert_eq!(b.results().len(), 1);
/// ```
pub struct Bench {
    suite: String,
    results: Vec<BenchResult>,
    /// Target wall-clock per sample, seconds.
    sample_secs: f64,
    samples: usize,
}

impl Bench {
    /// Creates a suite harness with default calibration (5 samples of
    /// ~0.1 s each per case).
    pub fn new(suite: impl Into<String>) -> Self {
        Bench {
            suite: suite.into(),
            results: Vec::new(),
            sample_secs: 0.1,
            samples: 5,
        }
    }

    /// Overrides the number of samples per case (the median, min and max
    /// are taken over them).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn with_samples(mut self, samples: usize) -> Self {
        assert!(samples > 0, "need at least one sample");
        self.samples = samples;
        self
    }

    /// Overrides the per-sample duration target (e.g. for slow end-to-end
    /// cases).
    pub fn with_sample_secs(mut self, secs: f64) -> Self {
        self.sample_secs = secs;
        self
    }

    /// The suite name.
    pub fn suite(&self) -> &str {
        &self.suite
    }

    /// Results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Measures `work`, printing and recording the median per-iteration
    /// time.
    pub fn measure<T>(&mut self, id: impl Into<String>, work: impl FnMut() -> T) {
        self.measure_per(id, 1, work);
    }

    /// [`Bench::measure`] for a `work` that handles `units` items per
    /// call (e.g. every entry of a migration pass): records the median
    /// time per item.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn measure_per<T>(
        &mut self,
        id: impl Into<String>,
        units: u64,
        mut work: impl FnMut() -> T,
    ) {
        assert!(units > 0, "need at least one unit per call");
        let id = id.into();
        // Warm-up + calibration: run once, then scale to the sample target.
        let t0 = Instant::now();
        std::hint::black_box(work());
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((self.sample_secs / once).clamp(1.0, 1e8)) as u64;

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(work());
            }
            per_iter.push(t.elapsed().as_secs_f64() * 1e9 / (iters * units) as f64);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ns = per_iter[per_iter.len() / 2];
        let min_ns = per_iter[0];
        println!(
            "{:<40} {:>12} {:>14}  ({} iters x {} samples)",
            format!("{}/{}", self.suite, id),
            format_ns(median_ns),
            format!("min {}", format_ns(min_ns)),
            iters,
            self.samples
        );
        self.results.push(BenchResult {
            id,
            iters,
            median_ns,
            min_ns,
            max_ns: per_iter[per_iter.len() - 1],
            samples: per_iter.len(),
        });
    }

    /// Measures several arms **round-robin**: each round runs every arm
    /// once, with one untimed warm-up round first. Sequential per-arm
    /// measurement lets slow drift (frequency scaling, cache/page
    /// warm-up, background load) land entirely on whichever arm runs
    /// later, which is how an instrumented configuration can appear
    /// *faster* than the bare one; interleaving spreads drift across all
    /// arms so same-round timings are directly comparable. Within each
    /// round the arm order is shuffled (deterministically seeded), since
    /// a fixed order leaks position-in-round bias straight into the
    /// paired deltas — an A/A comparison under fixed order reproducibly
    /// showed the first arm several percent slower than an identical
    /// later arm.
    ///
    /// Records each arm's median per-run time as a [`BenchResult`] and
    /// returns the full per-arm, per-round timing matrix (nanoseconds) so
    /// callers can form paired same-round deltas via
    /// [`paired_overhead_frac`].
    pub fn measure_interleaved(
        &mut self,
        arms: &mut [(&str, &mut dyn FnMut())],
        rounds: usize,
    ) -> Vec<Vec<f64>> {
        for (_, work) in arms.iter_mut() {
            work();
        }
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut order: Vec<usize> = (0..arms.len()).collect();
        let mut matrix: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); arms.len()];
        for _ in 0..rounds.max(1) {
            for i in (1..order.len()).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            for &i in &order {
                let (_, work) = &mut arms[i];
                let t = Instant::now();
                work();
                matrix[i].push(t.elapsed().as_secs_f64() * 1e9);
            }
        }
        for (i, (id, _)) in arms.iter().enumerate() {
            let mut sorted = matrix[i].clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            let median_ns = sorted[sorted.len() / 2];
            let min_ns = sorted[0];
            println!(
                "{:<40} {:>12} {:>14}  (interleaved, {} rounds)",
                format!("{}/{}", self.suite, id),
                format_ns(median_ns),
                format!("min {}", format_ns(min_ns)),
                rounds.max(1)
            );
            self.results.push(BenchResult {
                id: id.to_string(),
                iters: 1,
                median_ns,
                min_ns,
                max_ns: sorted[sorted.len() - 1],
                samples: sorted.len(),
            });
        }
        matrix
    }

    /// Measures overhead arms against a base arm with **ABBA pairing**:
    /// each round runs `base, arm, arm, base` back-to-back per arm and
    /// forms one `(arm₁+arm₂)/(base₁+base₂) − 1` sample from the block.
    /// The symmetric order cancels linear drift across the block exactly
    /// and gives each side one first and one second slot, so neither
    /// position-in-block bias nor frequency/steal regimes longer than
    /// the ~4-run window survive into the ratio; shorter bursts corrupt
    /// single samples, which the caller's median discards. This is what
    /// round-robin interleaving alone cannot do on a noisy host: there
    /// the base and a given arm can sit a whole round apart, long enough
    /// to land in different machine regimes.
    ///
    /// A burst shorter than the block shows up as the block's two base
    /// runs (or two arm runs) disagreeing, so blocks whose within-pair
    /// spread exceeds 10% are discarded before the ratio is formed —
    /// unless that would drop more than three quarters of the rounds,
    /// in which case every block is kept (a host that noisy has no
    /// quiet subset worth trusting more).
    ///
    /// Arm order is reshuffled per round (deterministically seeded).
    /// Records a [`BenchResult`] for the base and every arm (median over
    /// all of that configuration's timed runs) and returns the per-arm
    /// vectors of per-round overhead fractions, ready for
    /// [`median_frac`].
    pub fn measure_paired(
        &mut self,
        base_id: &str,
        base: &mut dyn FnMut(),
        arms: &mut [(&str, &mut dyn FnMut())],
        rounds: usize,
    ) -> Vec<Vec<f64>> {
        base();
        for (_, work) in arms.iter_mut() {
            work();
        }
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let timed = |work: &mut dyn FnMut()| {
            let t = Instant::now();
            work();
            t.elapsed().as_secs_f64() * 1e9
        };
        let mut order: Vec<usize> = (0..arms.len()).collect();
        let mut base_runs: Vec<f64> = Vec::with_capacity(2 * rounds * arms.len());
        let mut arm_runs: Vec<Vec<f64>> = vec![Vec::with_capacity(2 * rounds); arms.len()];
        let mut all_fracs: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); arms.len()];
        let mut quiet_fracs: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); arms.len()];
        let quiet = |x: f64, y: f64| x.max(y) <= 1.1 * x.min(y);
        for _ in 0..rounds.max(1) {
            for i in (1..order.len()).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            for &i in &order {
                let a1 = timed(base);
                let b1 = timed(arms[i].1);
                let b2 = timed(arms[i].1);
                let a2 = timed(base);
                base_runs.push(a1);
                base_runs.push(a2);
                arm_runs[i].push(b1);
                arm_runs[i].push(b2);
                let frac = (b1 + b2) / (a1 + a2) - 1.0;
                all_fracs[i].push(frac);
                if quiet(a1, a2) && quiet(b1, b2) {
                    quiet_fracs[i].push(frac);
                }
            }
        }
        let fracs: Vec<Vec<f64>> = all_fracs
            .into_iter()
            .zip(quiet_fracs)
            .map(|(all, quiet)| {
                if quiet.len() * 4 >= all.len() {
                    quiet
                } else {
                    all
                }
            })
            .collect();
        let mut record = |id: &str, runs: &[f64], note: &str| {
            let mut sorted = runs.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            let median_ns = sorted[sorted.len() / 2];
            let min_ns = sorted[0];
            println!(
                "{:<40} {:>12} {:>14}  ({note}, {} runs)",
                format!("{}/{id}", self.suite),
                format_ns(median_ns),
                format!("min {}", format_ns(min_ns)),
                runs.len()
            );
            self.results.push(BenchResult {
                id: id.to_string(),
                iters: 1,
                median_ns,
                min_ns,
                max_ns: sorted[sorted.len() - 1],
                samples: sorted.len(),
            });
        };
        record(base_id, &base_runs, "abba base");
        for (i, (id, _)) in arms.iter().enumerate() {
            record(id, &arm_runs[i], "abba arm");
        }
        fracs
    }

    /// Measures `work` over a fresh untimed `setup` value per sample —
    /// the batched pattern for mutation-heavy cases (e.g. filling a cache
    /// that the timed section then overflows).
    pub fn measure_batched<S, T>(
        &mut self,
        id: impl Into<String>,
        mut setup: impl FnMut() -> S,
        mut work: impl FnMut(S) -> T,
    ) {
        let id = id.into();
        let mut per_run: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let state = setup();
            let t = Instant::now();
            std::hint::black_box(work(state));
            per_run.push(t.elapsed().as_secs_f64() * 1e9);
        }
        per_run.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ns = per_run[per_run.len() / 2];
        let min_ns = per_run[0];
        println!(
            "{:<40} {:>12} {:>14}  (1 run x {} samples)",
            format!("{}/{}", self.suite, id),
            format_ns(median_ns),
            format!("min {}", format_ns(min_ns)),
            self.samples
        );
        self.results.push(BenchResult {
            id,
            iters: 1,
            median_ns,
            min_ns,
            max_ns: per_run[per_run.len() - 1],
            samples: per_run.len(),
        });
    }
}

/// Overhead of `arm` relative to `base` from paired same-round timings:
/// the median of per-round `arm/base - 1` ratios. Pairing cancels drift
/// that both arms saw in the same round, so the estimate is centered on
/// the true instrumentation cost instead of on whichever arm ran in the
/// warmer half of the session.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn paired_overhead_frac(base: &[f64], arm: &[f64]) -> f64 {
    assert_eq!(base.len(), arm.len(), "paired timings must align");
    assert!(!base.is_empty(), "no rounds measured");
    let ratios: Vec<f64> = base.iter().zip(arm).map(|(b, a)| a / b - 1.0).collect();
    median_frac(&ratios)
}

/// Median of a sample of overhead fractions (e.g. one per
/// [`Bench::measure_paired`] round) — the robust center that discards
/// blocks a noise burst corrupted.
///
/// # Panics
///
/// Panics if `fracs` is empty.
pub fn median_frac(fracs: &[f64]) -> f64 {
    assert!(!fracs.is_empty(), "no rounds measured");
    let mut sorted = fracs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    sorted[sorted.len() / 2]
}

/// Human-readable nanoseconds.
pub fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Writes a trajectory-point JSON file to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_json(path: &str, value: &Json) -> std::io::Result<()> {
    std::fs::write(path, value.render() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut b = Bench::new("t").with_sample_secs(0.001);
        b.measure("noop", || std::hint::black_box(1u32));
        assert_eq!(b.results().len(), 1);
        assert!(b.results()[0].median_ns >= 0.0);
        assert!(b.results()[0].min_ns <= b.results()[0].median_ns);
    }

    #[test]
    fn batched_measures_once_per_sample() {
        let mut b = Bench::new("t");
        let mut setups = 0;
        b.measure_batched(
            "batch",
            || {
                setups += 1;
                vec![0u8; 64]
            },
            |v| v.len(),
        );
        assert_eq!(setups, 5, "one setup per sample");
    }

    #[test]
    fn interleaved_records_all_arms_and_returns_matrix() {
        let mut b = Bench::new("t");
        let mut hits = [0u32; 2];
        let mut a0 = || hits[0] += 1;
        let mut a1 = || {
            std::hint::black_box(vec![0u8; 256]);
        };
        let matrix = b.measure_interleaved(&mut [("fast", &mut a0), ("alloc", &mut a1)], 4);
        assert_eq!(matrix.len(), 2);
        assert!(matrix.iter().all(|rounds| rounds.len() == 4));
        assert_eq!(b.results().len(), 2);
        assert_eq!(b.results()[0].id, "fast");
        assert_eq!(b.results()[1].id, "alloc");
    }

    #[test]
    fn paired_abba_records_base_and_arms_and_returns_fracs() {
        let mut b = Bench::new("t");
        let mut base = || {
            std::hint::black_box(vec![0u8; 4096]);
        };
        let mut heavy = || {
            std::hint::black_box(vec![0u8; 8192]);
        };
        let mut same = || {
            std::hint::black_box(vec![0u8; 4096]);
        };
        let fracs = b.measure_paired(
            "base",
            &mut base,
            &mut [("heavy", &mut heavy), ("same", &mut same)],
            9,
        );
        assert_eq!(fracs.len(), 2);
        assert!(fracs.iter().all(|f| !f.is_empty() && f.len() <= 9));
        assert_eq!(b.results().len(), 3);
        assert_eq!(b.results()[0].id, "base");
        assert_eq!(b.results()[1].id, "heavy");
        assert_eq!(b.results()[2].id, "same");
        assert!(fracs.iter().flatten().all(|f| f.is_finite()));
    }

    #[test]
    fn median_frac_is_robust_to_one_outlier() {
        assert_eq!(median_frac(&[0.01, 0.02, 9.0]), 0.02);
    }

    #[test]
    fn paired_overhead_is_zero_for_identical_timings() {
        let base = vec![10.0, 12.0, 11.0];
        assert_eq!(paired_overhead_frac(&base, &base), 0.0);
        let double: Vec<f64> = base.iter().map(|x| x * 2.0).collect();
        assert!((paired_overhead_frac(&base, &double) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn format_ns_scales() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("us"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2e9).ends_with('s'));
    }
}
