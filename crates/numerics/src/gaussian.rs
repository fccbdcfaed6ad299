//! Running multivariate Gaussian moment estimation.
//!
//! FID models each image set as a Gaussian over feature vectors;
//! [`GaussianStats`] accumulates the sample mean and covariance of a feature
//! stream without retaining the samples.

#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;

/// Streaming estimator of the mean vector and covariance matrix of a
/// multivariate sample.
///
/// # Example
///
/// ```
/// use modm_numerics::GaussianStats;
/// let mut g = GaussianStats::new(2);
/// g.record(&[0.0, 0.0]);
/// g.record(&[2.0, 2.0]);
/// assert_eq!(g.mean(), &[1.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianStats {
    dim: usize,
    count: u64,
    mean: Vec<f64>,
    /// Upper-triangular co-moment accumulator (row-major full matrix for
    /// simplicity; dim is small).
    comoment: Vec<f64>,
}

impl GaussianStats {
    /// Creates an estimator for `dim`-dimensional samples.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        GaussianStats {
            dim,
            count: 0,
            mean: vec![0.0; dim],
            comoment: vec![0.0; dim * dim],
        }
    }

    /// The sample dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one sample (Welford's online update generalized to covariance).
    ///
    /// Two passes and no allocation: the co-moment update reads the old
    /// mean (each row's new mean component is computed in place, exactly
    /// as the second pass stores it), then the mean moves. Indexing loops
    /// are deliberate here: `i`/`j` address three arrays at once.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim`.
    pub fn record(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        self.count += 1;
        let n = self.count as f64;
        for i in 0..self.dim {
            let d2_i = x[i] - (self.mean[i] + (x[i] - self.mean[i]) / n);
            for j in 0..self.dim {
                self.comoment[i * self.dim + j] += (x[j] - self.mean[j]) * d2_i;
            }
        }
        for i in 0..self.dim {
            self.mean[i] += (x[i] - self.mean[i]) / n;
        }
    }

    /// The sample mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The sample covariance matrix with Bessel's correction; `None` with
    /// fewer than two samples.
    pub fn covariance(&self) -> Option<Matrix> {
        if self.count < 2 {
            return None;
        }
        let scale = 1.0 / (self.count - 1) as f64;
        let mut m = Matrix::zeros(self.dim);
        for i in 0..self.dim {
            for j in 0..self.dim {
                // Symmetrize to guard against accumulation asymmetry.
                let v = 0.5 * (self.comoment[i * self.dim + j] + self.comoment[j * self.dim + i]);
                m.set(i, j, v * scale);
            }
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_covariance_of_known_sample() {
        let mut g = GaussianStats::new(2);
        // Perfectly correlated sample.
        for i in 0..10 {
            let x = i as f64;
            g.record(&[x, 2.0 * x]);
        }
        assert!((g.mean()[0] - 4.5).abs() < 1e-12);
        assert!((g.mean()[1] - 9.0).abs() < 1e-12);
        let c = g.covariance().unwrap();
        // Var(x) over 0..9 with Bessel = 55/6.
        let var_x = 55.0 / 6.0;
        assert!((c.get(0, 0) - var_x).abs() < 1e-9);
        assert!((c.get(1, 1) - 4.0 * var_x).abs() < 1e-9);
        assert!((c.get(0, 1) - 2.0 * var_x).abs() < 1e-9);
        assert!(c.is_symmetric(1e-12));
    }

    #[test]
    fn covariance_none_until_two_samples() {
        let mut g = GaussianStats::new(3);
        assert!(g.covariance().is_none());
        g.record(&[1.0, 2.0, 3.0]);
        assert!(g.covariance().is_none());
        g.record(&[2.0, 3.0, 4.0]);
        assert!(g.covariance().is_some());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn record_rejects_wrong_dim() {
        let mut g = GaussianStats::new(2);
        g.record(&[1.0]);
    }

    /// FNV-1a over the bits of every covariance entry and mean component.
    fn bits_digest(g: &GaussianStats) -> u64 {
        let c = g.covariance().expect("two or more samples");
        let entries = (0..g.dim()).flat_map(|i| (0..g.dim()).map(move |j| (i, j)));
        let bits = entries.map(|(i, j)| c.get(i, j).to_bits());
        bits.chain(g.mean().iter().map(|m| m.to_bits()))
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b).wrapping_mul(0x100_0000_01b3)
            })
    }

    #[test]
    fn seeded_covariance_bits_are_pinned() {
        // A xorshift stream of 500 16-d samples in [-0.5, 0.5).
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        let mut g = GaussianStats::new(16);
        for _ in 0..500 {
            let x: Vec<f64> = (0..16).map(|_| next()).collect();
            g.record(&x);
        }
        assert_eq!(bits_digest(&g), 0xa4d4_ccf1_9e8f_4514);
    }
}
