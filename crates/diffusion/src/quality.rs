//! The calibrated quality model: image embeddings, fidelity features and the
//! quality factor of refined generations.
//!
//! # Calibration scheme (see DESIGN.md §4)
//!
//! * **CLIP alignment.** Each model's `alignment` parameter sets the mean
//!   text-image cosine of its from-scratch generations at
//!   `c = alpha / sqrt(1 + alpha^2)`; CLIPScore = 100 x cosine then matches
//!   Tables 2-3 (e.g. SD3.5L ~28.5, SDXL ~29.3).
//!
//! * **Refinement.** Serving a cache hit with `k` skipped steps blends the
//!   cached image with a fresh generation with weight `w = (T - k) / T` on
//!   the fresh side (fewer skipped steps = more refinement = more of the
//!   refining model's character). The refined image's expected alignment is
//!   the convex combination `(1 - w) * s + w * c_model` where `s` is the
//!   retrieval similarity — which makes the paper's Fig 5a shape emerge: the
//!   quality factor rises with similarity, falls with `k`, and exceeds 1
//!   when the retrieved image is better-aligned than an average fresh
//!   generation.
//!
//! * **FID features.** Every image carries a 16-d fidelity feature vector:
//!   `run_jitter + bias_m * dir_m + spread_m * N(0, I)`. The per-run jitter
//!   (magnitude `sqrt(fid_floor / 2)`) reproduces the paper's nonzero FID
//!   between two independent runs of the same large model (~6.29 on
//!   DiffusionDB); per-model bias magnitudes then place each model's FID at
//!   its Table 2 value (`FID = bias^2 + floor`).

use modm_embedding::{clip_score, Embedding, ImageEncoder, SemanticSpace};
use modm_numerics::vector;
use modm_simkit::SimRng;

use crate::image::{GeneratedImage, ImageId};
use crate::model::ModelId;
use crate::TOTAL_STEPS;

/// Dimensionality of the fidelity feature vectors used by FID and IS.
pub const FEATURE_DIM: usize = 16;

/// Mean-shift magnitude applied to every *reused* (cache-refined) image's
/// features, modelling the systematic drift of reuse relative to fresh
/// generations. Chosen so Nirvana's FID lands near 9.0 given the 6.29 floor.
const REUSE_BIAS: f64 = 1.3;

/// Mean-shift applied when a cached image is served *without* refinement
/// (the Pinecone baseline): staleness/mismatch cost, FID ~ floor + 2.4^2.
const UNREFINED_BIAS: f64 = 2.4;

/// Deterministic unit direction of a model's fidelity bias.
fn fidelity_direction(model: ModelId) -> [f64; FEATURE_DIM] {
    let name = model.spec().name;
    let mut h: u64 = 0x9E37_79B9;
    for b in name.as_bytes() {
        h = h.wrapping_mul(31).wrapping_add(*b as u64);
    }
    let mut rng = SimRng::seed_from(h);
    let mut v = [0.0; FEATURE_DIM];
    v.fill_with(|| rng.standard_normal());
    vector::normalize(&mut v);
    v
}

/// The calibrated stochastic quality model shared by samplers and metrics.
#[derive(Debug, Clone)]
pub struct QualityModel {
    space: SemanticSpace,
    run_jitter: Vec<f64>,
    reuse_dir: Vec<f64>,
    /// Each model's fidelity-bias direction, indexed by `ModelId as usize`
    /// ([`ModelId::ALL`] order).
    fidelity_dirs: [[f64; FEATURE_DIM]; ModelId::ALL.len()],
    rng_seed: u64,
}

impl QualityModel {
    /// Creates a quality model.
    ///
    /// `seed` individualizes the per-run jitter (two models with different
    /// seeds behave like two independent sampling runs — their mutual FID is
    /// approximately `fid_floor`). `fid_floor` is the dataset-dependent
    /// same-model FID: ~6.29 for DiffusionDB, ~5.16 for MJHQ (Table 2).
    ///
    /// # Panics
    ///
    /// Panics if `fid_floor` is negative.
    pub fn new(space: SemanticSpace, seed: u64, fid_floor: f64) -> Self {
        assert!(fid_floor >= 0.0, "fid floor must be non-negative");
        let mut rng = SimRng::seed_from(seed ^ 0x5157_414C); // "QUAL"
        let mag = (fid_floor / 2.0).sqrt();
        let mut jitter: Vec<f64> = (0..FEATURE_DIM).map(|_| rng.standard_normal()).collect();
        vector::normalize(&mut jitter);
        for x in jitter.iter_mut() {
            *x *= mag;
        }
        let mut reuse_dir: Vec<f64> = (0..FEATURE_DIM).map(|_| rng.standard_normal()).collect();
        vector::normalize(&mut reuse_dir);
        QualityModel {
            space,
            run_jitter: jitter,
            reuse_dir,
            fidelity_dirs: ModelId::ALL.map(fidelity_direction),
            rng_seed: seed,
        }
    }

    /// The semantic space this model embeds into.
    pub fn space(&self) -> &SemanticSpace {
        &self.space
    }

    /// The seed the model was built with.
    pub fn seed(&self) -> u64 {
        self.rng_seed
    }

    /// Image encoder for a given model's alignment.
    pub fn image_encoder(&self, model: ModelId) -> ImageEncoder {
        ImageEncoder::new(self.space.clone(), model.spec().alignment)
    }

    /// Mean text-image similarity of from-scratch generations by `model`,
    /// on the paper's reporting scale:
    /// `CLIP_COS_SCALE * alpha / sqrt(1 + alpha^2)`. CLIPScore is 100x this.
    pub fn mean_alignment_cosine(model: ModelId) -> f64 {
        let a = model.spec().alignment;
        modm_embedding::CLIP_COS_SCALE * a / (1.0 + a * a).sqrt()
    }

    /// Samples the fidelity features of a from-scratch generation by `model`.
    pub fn fresh_features(&self, model: ModelId, rng: &mut SimRng) -> Vec<f64> {
        let spec = model.spec();
        let dir = &self.fidelity_dirs[model as usize];
        (0..FEATURE_DIM)
            .map(|i| {
                self.run_jitter[i]
                    + spec.fidelity_bias * dir[i]
                    + spec.feature_spread * rng.standard_normal()
            })
            .collect()
    }

    /// Fidelity features of a refinement: blend of the cached features and a
    /// fresh sample from the refining model, plus the reuse drift.
    pub fn refined_features(
        &self,
        model: ModelId,
        cached: &[f64],
        k: u32,
        rng: &mut SimRng,
    ) -> Vec<f64> {
        assert_eq!(cached.len(), FEATURE_DIM, "feature dimension mismatch");
        let w = Self::fresh_weight(k);
        let fresh = self.fresh_features(model, rng);
        let mut out = vector::lerp(cached, &fresh, w);
        vector::axpy(&mut out, REUSE_BIAS, &self.reuse_dir);
        out
    }

    /// Fidelity features of an unrefined cache serve (Pinecone-style):
    /// staleness drift plus a mild diversity shrink toward the run mean.
    pub fn unrefined_features(&self, cached: &[f64]) -> Vec<f64> {
        assert_eq!(cached.len(), FEATURE_DIM, "feature dimension mismatch");
        let mut out: Vec<f64> = cached
            .iter()
            .zip(&self.run_jitter)
            .map(|(&c, &j)| j + (c - j) * 0.85)
            .collect();
        vector::axpy(&mut out, UNREFINED_BIAS, &self.reuse_dir);
        out
    }

    /// The blend weight toward the *fresh* generation for `k` skipped steps:
    /// `w = (T - k) / T`. Skipping more steps keeps more cached content.
    ///
    /// # Panics
    ///
    /// Panics if `k > TOTAL_STEPS`.
    pub fn fresh_weight(k: u32) -> f64 {
        assert!(k <= TOTAL_STEPS, "cannot skip more than all steps");
        (TOTAL_STEPS - k) as f64 / TOTAL_STEPS as f64
    }

    /// Expected quality factor of serving a hit with similarity `s` at `k`
    /// skipped steps using `small`, relative to a from-scratch generation by
    /// `large` (Fig 5a's y-axis; Eq. 5's LHS/RHS ratio in expectation).
    pub fn expected_quality_factor(small: ModelId, large: ModelId, s: f64, k: u32) -> f64 {
        let w = Self::fresh_weight(k);
        let c_small = Self::mean_alignment_cosine(small);
        let c_large = Self::mean_alignment_cosine(large);
        ((1.0 - w) * s + w * c_small) / c_large
    }

    /// Builds the refined image embedding: expected alignment
    /// `(1-w) * s + w * c_model` toward the new prompt, with the off-prompt
    /// component correlated with the cached image (structure is preserved).
    pub fn refined_embedding(
        &self,
        model: ModelId,
        cached: &Embedding,
        new_text: &Embedding,
        k: u32,
        rng: &mut SimRng,
    ) -> Embedding {
        let w = Self::fresh_weight(k);
        // Similarity and model ceiling, both on the reporting scale.
        let s = modm_embedding::retrieval_similarity(new_text, cached);
        let c_model = Self::mean_alignment_cosine(model);
        // Per-image jitter on the target alignment (reporting scale), giving
        // refined generations a CLIP spread like from-scratch ones.
        let noise = 0.008 * rng.standard_normal();
        let c_scaled = ((1.0 - w) * s + w * c_model + noise).max(0.006);
        // Convert the scaled target back to a raw cosine for construction.
        let c_raw = (c_scaled / modm_embedding::CLIP_COS_SCALE).clamp(0.02, 0.98);
        let alpha = c_raw / (1.0 - c_raw * c_raw).sqrt();

        let dim = new_text.dim();
        let t = new_text.as_slice();
        // Residual of the cached image orthogonal to the new prompt.
        let proj = vector::dot(cached.as_slice(), t);
        let mut resid: Vec<f64> = cached
            .as_slice()
            .iter()
            .zip(t)
            .map(|(&c, &ti)| c - proj * ti)
            .collect();
        vector::normalize(&mut resid);
        let mut fresh: Vec<f64> = (0..dim).map(|_| rng.standard_normal()).collect();
        vector::normalize(&mut fresh);
        let mut off = vector::lerp(&resid, &fresh, w);
        vector::normalize(&mut off);

        let mut v = vec![0.0; dim];
        vector::axpy(&mut v, alpha, t);
        vector::axpy(&mut v, 1.0, &off);
        Embedding::from_vec(v)
    }

    /// Convenience: assemble a full [`GeneratedImage`] from components.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_image(
        &self,
        id: ImageId,
        prompt_id: u64,
        prompt_embedding: &Embedding,
        embedding: Embedding,
        features: Vec<f64>,
        model: ModelId,
        steps_run: u32,
        steps_skipped: u32,
    ) -> GeneratedImage {
        let clip = clip_score(prompt_embedding, &embedding);
        GeneratedImage {
            id,
            prompt_id,
            embedding,
            text_anchor: prompt_embedding.clone(),
            features,
            model,
            steps_run,
            steps_skipped,
            clip_to_prompt: clip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_embedding::TextEncoder;
    use modm_numerics::GaussianStats;

    fn qm(seed: u64) -> QualityModel {
        QualityModel::new(SemanticSpace::default(), seed, 6.29)
    }

    #[test]
    fn fidelity_directions_are_indexed_by_model() {
        for (i, &model) in ModelId::ALL.iter().enumerate() {
            assert_eq!(model as usize, i, "ModelId::ALL is in declaration order");
            assert_eq!(qm(1).fidelity_dirs[i], fidelity_direction(model));
        }
    }

    #[test]
    fn fresh_weight_endpoints() {
        assert_eq!(QualityModel::fresh_weight(0), 1.0);
        assert_eq!(QualityModel::fresh_weight(TOTAL_STEPS), 0.0);
        assert!((QualityModel::fresh_weight(30) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mean_alignment_matches_clip_targets() {
        // c = alpha / sqrt(1 + alpha^2) should be ~0.2855 for SD3.5L.
        let c = QualityModel::mean_alignment_cosine(ModelId::Sd35Large);
        assert!((c - 0.2855).abs() < 0.005, "c = {c}");
        let sdxl = QualityModel::mean_alignment_cosine(ModelId::Sdxl);
        assert!(sdxl > c, "SDXL has higher CLIP than SD3.5L in Table 2");
    }

    #[test]
    fn same_model_different_seeds_fid_near_floor() {
        let a = qm(1);
        let b = qm(2);
        let mut rng_a = SimRng::seed_from(100);
        let mut rng_b = SimRng::seed_from(200);
        let mut ga = GaussianStats::new(FEATURE_DIM);
        let mut gb = GaussianStats::new(FEATURE_DIM);
        for _ in 0..4_000 {
            ga.record(&a.fresh_features(ModelId::Sd35Large, &mut rng_a));
            gb.record(&b.fresh_features(ModelId::Sd35Large, &mut rng_b));
        }
        let fid = modm_numerics::frechet_distance(&ga, &gb).unwrap();
        // E[FID] = 2 * (6.29/2) = 6.29; allow generous sampling slack.
        assert!((3.0..11.0).contains(&fid), "fid = {fid}");
    }

    #[test]
    fn small_models_have_higher_fid_than_large() {
        let a = qm(1);
        let gt = qm(2);
        let mut rng = SimRng::seed_from(3);
        let mut g_gt = GaussianStats::new(FEATURE_DIM);
        let mut g_large = GaussianStats::new(FEATURE_DIM);
        let mut g_sdxl = GaussianStats::new(FEATURE_DIM);
        let mut g_sana = GaussianStats::new(FEATURE_DIM);
        for _ in 0..4_000 {
            g_gt.record(&gt.fresh_features(ModelId::Sd35Large, &mut rng));
            g_large.record(&a.fresh_features(ModelId::Sd35Large, &mut rng));
            g_sdxl.record(&a.fresh_features(ModelId::Sdxl, &mut rng));
            g_sana.record(&a.fresh_features(ModelId::Sana, &mut rng));
        }
        let fid_large = modm_numerics::frechet_distance(&g_large, &g_gt).unwrap();
        let fid_sdxl = modm_numerics::frechet_distance(&g_sdxl, &g_gt).unwrap();
        let fid_sana = modm_numerics::frechet_distance(&g_sana, &g_gt).unwrap();
        assert!(fid_large < fid_sdxl, "{fid_large} vs {fid_sdxl}");
        assert!(fid_sdxl < fid_sana, "{fid_sdxl} vs {fid_sana}");
        // SDXL target: bias^2 + floor ~ 16.3.
        assert!((10.0..24.0).contains(&fid_sdxl), "fid_sdxl = {fid_sdxl}");
    }

    #[test]
    fn quality_factor_monotone_in_similarity_and_k() {
        let s_lo = 0.22;
        let s_hi = 0.32;
        for k in crate::K_CHOICES {
            let lo =
                QualityModel::expected_quality_factor(ModelId::Sdxl, ModelId::Sd35Large, s_lo, k);
            let hi =
                QualityModel::expected_quality_factor(ModelId::Sdxl, ModelId::Sd35Large, s_hi, k);
            assert!(hi > lo, "qf rises with similarity at k={k}");
        }
        // For a similarity below the model ceiling, more skipped steps hurt.
        let q5 = QualityModel::expected_quality_factor(ModelId::Sdxl, ModelId::Sd35Large, 0.24, 5);
        let q30 =
            QualityModel::expected_quality_factor(ModelId::Sdxl, ModelId::Sd35Large, 0.24, 30);
        assert!(q5 > q30, "{q5} vs {q30}");
    }

    #[test]
    fn quality_factor_exceeds_one_for_great_matches() {
        // Fig 5a: a quality factor > 1 is observed for high-similarity hits.
        let q = QualityModel::expected_quality_factor(ModelId::Sdxl, ModelId::Sd35Large, 0.34, 30);
        assert!(q > 1.0, "q = {q}");
    }

    #[test]
    fn refined_embedding_alignment_tracks_target() {
        let q = qm(5);
        let text = TextEncoder::new(q.space().clone());
        let mut rng = SimRng::seed_from(77);
        let t_old = text.encode("a lighthouse in a storm dramatic oil painting");
        let t_new = text.encode("a lighthouse in a storm at night oil painting");
        let imgenc = q.image_encoder(ModelId::Sd35Large);
        let cached = imgenc.encode(&t_old, &mut rng);
        let s = modm_embedding::retrieval_similarity(&t_new, &cached);
        let k = 20;
        let n = 300;
        let mean_cos: f64 = (0..n)
            .map(|_| {
                modm_embedding::retrieval_similarity(
                    &t_new,
                    &q.refined_embedding(ModelId::Sdxl, &cached, &t_new, k, &mut rng),
                )
            })
            .sum::<f64>()
            / n as f64;
        let w = QualityModel::fresh_weight(k);
        let expect = (1.0 - w) * s + w * QualityModel::mean_alignment_cosine(ModelId::Sdxl);
        assert!((mean_cos - expect).abs() < 0.01, "{mean_cos} vs {expect}");
    }

    #[test]
    fn refined_embedding_correlates_with_cached() {
        let q = qm(6);
        let text = TextEncoder::new(q.space().clone());
        let mut rng = SimRng::seed_from(78);
        let t = text.encode("desert canyon at dawn photograph");
        let imgenc = q.image_encoder(ModelId::Sd35Large);
        let cached = imgenc.encode(&t, &mut rng);
        // Large k (much skipped) should stay closer to the cached image than
        // small k.
        let n = 200;
        let mean_corr = |k: u32, rng: &mut SimRng| {
            (0..n)
                .map(|_| cached.cosine(&q.refined_embedding(ModelId::Sdxl, &cached, &t, k, rng)))
                .sum::<f64>()
                / n as f64
        };
        let near = mean_corr(30, &mut rng);
        let far = mean_corr(5, &mut rng);
        assert!(
            near > far,
            "more skipping preserves structure: {near} vs {far}"
        );
    }

    #[test]
    fn unrefined_features_drift_more_than_refined() {
        let q = qm(7);
        let mut rng = SimRng::seed_from(9);
        let cached = q.fresh_features(ModelId::Sd35Large, &mut rng);
        let refined = q.refined_features(ModelId::Sdxl, &cached, 20, &mut rng);
        let served = q.unrefined_features(&cached);
        assert_eq!(refined.len(), FEATURE_DIM);
        assert_eq!(served.len(), FEATURE_DIM);
        // The stale bias exceeds the reuse bias by construction.
        const { assert!(UNREFINED_BIAS > REUSE_BIAS) };
    }
}
