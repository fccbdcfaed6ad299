//! Inception Score over the synthetic fidelity features.
//!
//! IS = exp( E_x[ KL( p(y|x) || p(y) ) ] ) where `p(y|x)` comes from a
//! classifier. Our "Inception network" is a fixed random projection of the
//! 16-d fidelity features onto class logits followed by a softmax.
//!
//! The features are centered by the *set mean* before classification, so IS
//! measures the spread/confidence structure of the set and is invariant to
//! the global mean shifts that drive FID — mirroring how the paper's Table 2
//! shows SDXL with a high FID but the highest IS. Feature spread then drives
//! the score: models with wider feature distributions (SDXL, spread 1.08)
//! land above narrow ones (SANA, 0.82).

use modm_diffusion::quality::FEATURE_DIM;
use modm_simkit::SimRng;

/// Number of classes in the surrogate classifier.
const CLASSES: usize = 64;

/// Images per block of the retained features.
const BLOCK_IMAGES: usize = 64;

/// Logit gain: higher = more confident per-image predictions = higher IS.
/// Calibrated so a spread-1.0 model lands near the paper's IS ~ 15.
const LOGIT_SCALE: f64 = 4.5;

/// The surrogate Inception classifier + IS accumulator.
///
/// Features are retained until [`InceptionScorer::score`] so they can be
/// centered by the set mean (two-pass); at the experiment scale (tens of
/// thousands of 16-d vectors) this is a few megabytes. They sit in
/// fixed blocks of `BLOCK_IMAGES` images, `FEATURE_DIM` values each: a
/// block never moves, so growth copies nothing (one doubling flat buffer
/// raised the process's peak RSS).
#[derive(Debug, Clone)]
pub struct InceptionScorer {
    /// Projection matrix, `CLASSES x FEATURE_DIM`, rows unit-normalized.
    projection: Vec<Vec<f64>>,
    blocks: Vec<Vec<f64>>,
}

impl Default for InceptionScorer {
    fn default() -> Self {
        Self::new()
    }
}

impl InceptionScorer {
    /// Creates a scorer with the fixed (deterministic) projection.
    pub fn new() -> Self {
        let mut rng = SimRng::seed_from(0x494E_4345); // "INCE"
        let projection = (0..CLASSES)
            .map(|_| {
                let mut row: Vec<f64> = (0..FEATURE_DIM).map(|_| rng.standard_normal()).collect();
                modm_numerics::normalize(&mut row);
                row
            })
            .collect();
        InceptionScorer {
            projection,
            blocks: Vec::new(),
        }
    }

    /// Class distribution `p(y|x)` for one (already centered) feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != FEATURE_DIM`.
    pub fn class_probs(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(features.len(), FEATURE_DIM, "feature dim mismatch");
        let logits: Vec<f64> = self
            .projection
            .iter()
            .map(|row| LOGIT_SCALE * modm_numerics::dot(row, features))
            .collect();
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    /// Adds one image's features.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != FEATURE_DIM`.
    pub fn record(&mut self, features: &[f64]) {
        assert_eq!(features.len(), FEATURE_DIM, "feature dim mismatch");
        let full = self.blocks.last().is_none_or(|b| b.len() == b.capacity());
        if full {
            self.blocks
                .push(Vec::with_capacity(BLOCK_IMAGES * FEATURE_DIM));
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.extend_from_slice(features);
    }

    /// Images recorded so far.
    pub fn count(&self) -> u64 {
        (self.blocks.iter().map(Vec::len).sum::<usize>() / FEATURE_DIM) as u64
    }

    /// Every recorded image's features, in recording order.
    fn samples(&self) -> impl Iterator<Item = &[f64]> {
        self.blocks.iter().flat_map(|b| b.chunks_exact(FEATURE_DIM))
    }

    /// The Inception Score; `None` before any image is recorded.
    ///
    /// IS = exp( E[neg-entropy(p(y|x))] + entropy(p(y)) ), which equals the
    /// usual exp(E KL(p(y|x) || p(y))). Features are centered by the set
    /// mean first.
    pub fn score(&self) -> Option<f64> {
        if self.blocks.is_empty() {
            return None;
        }
        let n = self.count() as f64;
        let mut mean = [0.0; FEATURE_DIM];
        for s in self.samples() {
            for (m, x) in mean.iter_mut().zip(s) {
                *m += x / n;
            }
        }
        let mut sum_neg_entropy = 0.0;
        let mut class_sums = vec![0.0; CLASSES];
        let mut centered = vec![0.0; FEATURE_DIM];
        for s in self.samples() {
            for i in 0..FEATURE_DIM {
                centered[i] = s[i] - mean[i];
            }
            let p = self.class_probs(&centered);
            sum_neg_entropy += p
                .iter()
                .map(|&pi| if pi > 0.0 { pi * pi.ln() } else { 0.0 })
                .sum::<f64>();
            for (acc, pi) in class_sums.iter_mut().zip(&p) {
                *acc += pi;
            }
        }
        let marginal_entropy: f64 = -class_sums
            .iter()
            .map(|&s| {
                let py = s / n;
                if py > 0.0 {
                    py * py.ln()
                } else {
                    0.0
                }
            })
            .sum::<f64>();
        Some((sum_neg_entropy / n + marginal_entropy).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_diffusion::{ModelId, QualityModel};
    use modm_embedding::SemanticSpace;

    fn is_of(model: ModelId, seed: u64, n: usize) -> f64 {
        let q = QualityModel::new(SemanticSpace::default(), seed, 6.29);
        let mut rng = SimRng::seed_from(seed + 99);
        let mut sc = InceptionScorer::new();
        for _ in 0..n {
            sc.record(&q.fresh_features(model, &mut rng));
        }
        sc.score().expect("non-empty")
    }

    #[test]
    fn probs_form_distribution() {
        let sc = InceptionScorer::new();
        let p = sc.class_probs(&[0.3; FEATURE_DIM]);
        assert_eq!(p.len(), CLASSES);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn identical_images_give_is_one() {
        let mut sc = InceptionScorer::new();
        for _ in 0..50 {
            sc.record(&[0.5; FEATURE_DIM]);
        }
        let s = sc.score().unwrap();
        assert!((s - 1.0).abs() < 1e-6, "IS of a constant set is 1: {s}");
    }

    #[test]
    fn wider_spread_scores_higher() {
        // Table 2 ordering: SDXL (spread 1.08) > SD3.5L (1.00) > SANA (0.82).
        let sdxl = is_of(ModelId::Sdxl, 1, 2_000);
        let large = is_of(ModelId::Sd35Large, 1, 2_000);
        let sana = is_of(ModelId::Sana, 1, 2_000);
        assert!(sdxl > large, "sdxl {sdxl} vs large {large}");
        assert!(large > sana, "large {large} vs sana {sana}");
    }

    #[test]
    fn is_invariant_to_mean_shift() {
        let q = QualityModel::new(SemanticSpace::default(), 4, 6.29);
        let mut rng = SimRng::seed_from(5);
        let feats: Vec<Vec<f64>> = (0..1_000)
            .map(|_| q.fresh_features(ModelId::Sd35Large, &mut rng))
            .collect();
        let mut a = InceptionScorer::new();
        let mut b = InceptionScorer::new();
        for f in &feats {
            a.record(f);
            let shifted: Vec<f64> = f.iter().map(|x| x + 5.0).collect();
            b.record(&shifted);
        }
        let (sa, sb) = (a.score().unwrap(), b.score().unwrap());
        assert!((sa - sb).abs() < 1e-9, "{sa} vs {sb}");
    }

    #[test]
    fn empty_scorer_returns_none() {
        assert!(InceptionScorer::new().score().is_none());
    }

    #[test]
    fn seeded_score_bits_are_pinned() {
        let q = QualityModel::new(SemanticSpace::default(), 11, 6.29);
        let mut rng = SimRng::seed_from(12);
        let mut sc = InceptionScorer::new();
        for _ in 0..300 {
            sc.record(&q.fresh_features(ModelId::Sd35Large, &mut rng));
        }
        assert_eq!(sc.score().unwrap().to_bits(), 0x402f_aaba_e7e6_09b7);
    }
}
