//! Aggregation of the four quality metrics into the paper's table rows.

use modm_diffusion::quality::FEATURE_DIM;
use modm_diffusion::GeneratedImage;
use modm_embedding::{pick_score, Embedding};
use modm_numerics::{frechet_distance, GaussianStats};
use modm_simkit::StreamingStats;

use crate::inception::InceptionScorer;

/// Accumulates CLIP/Pick scalars, fidelity feature moments and Inception
/// statistics over a set of served images.
#[derive(Debug, Clone)]
pub struct QualityAggregator {
    clip: StreamingStats,
    pick: StreamingStats,
    features: GaussianStats,
    inception: InceptionScorer,
}

impl Default for QualityAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl QualityAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        QualityAggregator {
            clip: StreamingStats::new(),
            pick: StreamingStats::new(),
            features: GaussianStats::new(FEATURE_DIM),
            inception: InceptionScorer::new(),
        }
    }

    /// Records one served image against the prompt it was served for.
    pub fn record(&mut self, prompt: &Embedding, image: &GeneratedImage) {
        self.clip.record(image.clip_to_prompt);
        self.pick.record(pick_score(prompt, &image.embedding));
        self.features.record(&image.features);
        self.inception.record(&image.features);
    }

    /// Number of images recorded.
    pub fn count(&self) -> u64 {
        self.clip.count()
    }

    /// Mean CLIPScore (x100 scale, as in Tables 2–3).
    pub fn mean_clip(&self) -> f64 {
        self.clip.mean()
    }

    /// Mean PickScore.
    pub fn mean_pick(&self) -> f64 {
        self.pick.mean()
    }

    /// Inception Score (`None` when empty).
    pub fn inception_score(&self) -> Option<f64> {
        self.inception.score()
    }

    /// FID against a ground-truth aggregator (the paper generates the
    /// ground truth with the large model under different seeds).
    ///
    /// # Errors
    ///
    /// Propagates [`modm_numerics::frechet::FrechetError`] when either side
    /// has insufficient samples.
    pub fn fid_against(
        &self,
        ground_truth: &QualityAggregator,
    ) -> Result<f64, modm_numerics::frechet::FrechetError> {
        frechet_distance(&self.features, &ground_truth.features)
    }

    /// Produces a table row named `label` with FID measured against
    /// `ground_truth`.
    pub fn row(&self, label: impl Into<String>, ground_truth: &QualityAggregator) -> QualityRow {
        QualityRow {
            label: label.into(),
            clip: self.mean_clip(),
            fid: self.fid_against(ground_truth).ok(),
            inception: self.inception_score(),
            pick: self.mean_pick(),
        }
    }
}

/// One row of the paper's quality tables (Tables 2–3).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRow {
    /// System / model label.
    pub label: String,
    /// Mean CLIPScore (higher is better).
    pub clip: f64,
    /// FID (lower is better); `None` when not computable.
    pub fid: Option<f64>,
    /// Inception Score (higher is better).
    pub inception: Option<f64>,
    /// Mean PickScore (higher is better).
    pub pick: f64,
}

impl QualityRow {
    /// Formats the row like the paper's tables: `CLIP FID IS Pick`.
    pub fn formatted(&self) -> String {
        format!(
            "{:<24} {:>6.2} {:>7} {:>7} {:>6.2}",
            self.label,
            self.clip,
            self.fid.map_or("n/a".to_string(), |v| format!("{v:.2}")),
            self.inception
                .map_or("n/a".to_string(), |v| format!("{v:.2}")),
            self.pick,
        )
    }

    /// The table header matching [`QualityRow::formatted`].
    pub fn header() -> String {
        format!(
            "{:<24} {:>6} {:>7} {:>7} {:>6}",
            "Baseline", "CLIP^", "FIDv", "IS^", "Pick^"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_diffusion::{ModelId, QualityModel, Sampler};
    use modm_embedding::{SemanticSpace, TextEncoder};
    use modm_simkit::SimRng;

    fn fill(agg: &mut QualityAggregator, model: ModelId, seed: u64, n: usize) {
        let space = SemanticSpace::default();
        let sampler = Sampler::new(QualityModel::new(space.clone(), seed, 6.29));
        let text = TextEncoder::new(space);
        let mut rng = SimRng::seed_from(seed * 7 + 1);
        for i in 0..n {
            let p = text.encode(&format!(
                "gilded harbor {} dawn cinematic photograph variant {i}",
                if i % 2 == 0 { "glowing" } else { "drifting" }
            ));
            let img = sampler.generate(model, &p, &mut rng);
            agg.record(&p, &img);
        }
    }

    #[test]
    fn clip_means_match_model_calibration() {
        let mut agg = QualityAggregator::new();
        fill(&mut agg, ModelId::Sd35Large, 1, 800);
        let clip = agg.mean_clip();
        assert!((clip - 28.55).abs() < 0.8, "clip = {clip}");
        let mut sdxl = QualityAggregator::new();
        fill(&mut sdxl, ModelId::Sdxl, 1, 800);
        assert!(sdxl.mean_clip() > clip, "SDXL CLIP above SD3.5L");
    }

    #[test]
    fn fid_ordering_vanilla_below_small() {
        let mut gt = QualityAggregator::new();
        fill(&mut gt, ModelId::Sd35Large, 99, 1_500);
        let mut vanilla = QualityAggregator::new();
        fill(&mut vanilla, ModelId::Sd35Large, 1, 1_500);
        let mut sana = QualityAggregator::new();
        fill(&mut sana, ModelId::Sana, 1, 1_500);
        let f_v = vanilla.fid_against(&gt).unwrap();
        let f_s = sana.fid_against(&gt).unwrap();
        assert!(f_v < f_s, "vanilla {f_v} < sana {f_s}");
        assert!((2.0..12.0).contains(&f_v), "vanilla FID near floor: {f_v}");
    }

    #[test]
    fn pick_scores_in_paper_band() {
        let mut agg = QualityAggregator::new();
        fill(&mut agg, ModelId::Sd35Large, 2, 500);
        let p = agg.mean_pick();
        assert!((19.0..22.5).contains(&p), "pick = {p}");
    }

    #[test]
    fn row_formatting() {
        let row = QualityRow {
            label: "MoDM-SDXL".into(),
            clip: 28.7,
            fid: Some(11.85),
            inception: Some(15.27),
            pick: 21.0,
        };
        let s = row.formatted();
        assert!(s.contains("MoDM-SDXL"));
        assert!(s.contains("11.85"));
        assert!(QualityRow::header().contains("FID"));
    }

    #[test]
    fn empty_aggregator_is_safe() {
        let agg = QualityAggregator::new();
        assert_eq!(agg.count(), 0);
        assert_eq!(agg.mean_clip(), 0.0);
        assert!(agg.inception_score().is_none());
        assert!(agg.fid_against(&QualityAggregator::new()).is_err());
    }
}
