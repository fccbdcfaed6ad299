//! The model zoo: identities and calibrated specifications of the five
//! diffusion models the paper evaluates.

use std::fmt;

use crate::TOTAL_STEPS;

/// The diffusion models used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    /// Stable Diffusion 3.5 Large — 8B parameters, the default large model.
    Sd35Large,
    /// FLUX.1-dev — 12B parameters, the alternative large model (Fig 8, Table 3).
    Flux,
    /// Stable Diffusion XL — 3B parameters, the default small model.
    Sdxl,
    /// SANA-1.6B — the smallest model, used under extreme load (Fig 10).
    Sana,
    /// SD3.5-Large-Turbo — a 10-step distilled variant (Table 2, Fig 14).
    Sd35Turbo,
}

impl ModelId {
    /// All models in the zoo.
    pub const ALL: [ModelId; 5] = [
        ModelId::Sd35Large,
        ModelId::Flux,
        ModelId::Sdxl,
        ModelId::Sana,
        ModelId::Sd35Turbo,
    ];

    /// The calibrated specification for this model.
    pub fn spec(self) -> &'static ModelSpec {
        ModelSpec::of(self)
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// Model families; caching latents across families is impossible (the
/// incompatibility Nirvana suffers from, §3.1), while MoDM's final-image
/// cache is family-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Stable Diffusion (SD3.5L, SDXL, SD3.5-Turbo).
    StableDiffusion,
    /// FLUX.
    Flux,
    /// SANA.
    Sana,
}

/// A calibrated description of one diffusion model.
///
/// All latency values are expressed for an NVIDIA A40; `modm-cluster` scales
/// them by the per-GPU speed factor (MI210 = 0.5x). The calibration
/// rationale is in `DESIGN.md` §4.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Which model this spec describes.
    pub id: ModelId,
    /// Human-readable name as used in the paper.
    pub name: &'static str,
    /// Model family (latent-compatibility domain).
    pub family: ModelFamily,
    /// Parameter count, in billions.
    pub params_b: f64,
    /// Default number of denoising steps (50, or 10 for the Turbo distill).
    pub default_steps: u32,
    /// Seconds per denoising step at 1024x1024 on an A40.
    pub step_secs_a40: f64,
    /// Board power draw while denoising, in watts.
    pub power_watts: f64,
    /// Time to load the model onto a GPU when a worker switches models, in
    /// seconds.
    pub load_secs: f64,
    /// Text-image alignment strength (the `alpha` of the image encoder);
    /// calibrated so CLIPScore = 100 x E\[cos\] matches Tables 2-3.
    pub alignment: f64,
    /// Magnitude of the model's fidelity-feature bias; drives FID against
    /// the large-model ground truth (see `quality` module).
    pub fidelity_bias: f64,
    /// Isotropic spread of the fidelity features; drives Inception Score.
    pub feature_spread: f64,
    /// VRAM footprint in GB (fits on both A40 48GB and MI210 64GB).
    pub vram_gb: f64,
}

impl ModelSpec {
    /// The calibrated spec for `id`.
    pub fn of(id: ModelId) -> &'static ModelSpec {
        match id {
            ModelId::Sd35Large => &SD35_LARGE,
            ModelId::Flux => &FLUX,
            ModelId::Sdxl => &SDXL,
            ModelId::Sana => &SANA,
            ModelId::Sd35Turbo => &SD35_TURBO,
        }
    }

    /// True for the models the paper uses as "large" (full-quality) models.
    pub fn is_large(&self) -> bool {
        matches!(self.id, ModelId::Sd35Large | ModelId::Flux)
    }
}

/// CLIP alignment values are `c / sqrt(1 - c^2)` for the target mean *raw*
/// cosine `c = CLIP / (100 x CLIP_COS_SCALE) = CLIP / 32` from Table 2
/// (DiffusionDB column). See `modm_embedding::clip` for the scale rationale.
const SD35_LARGE: ModelSpec = ModelSpec {
    id: ModelId::Sd35Large,
    name: "SD3.5-Large",
    family: ModelFamily::StableDiffusion,
    params_b: 8.0,
    default_steps: TOTAL_STEPS,
    step_secs_a40: 0.96, // 48 s full generation on A40
    power_watts: 300.0,
    load_secs: 30.0,
    alignment: 1.9753, // raw cos 0.892 -> CLIP ~28.55 on the x0.32 scale
    fidelity_bias: 0.0,
    feature_spread: 1.00,
    vram_gb: 22.0,
};

const FLUX: ModelSpec = ModelSpec {
    id: ModelId::Flux,
    name: "FLUX.1-dev",
    family: ModelFamily::Flux,
    params_b: 12.0,
    default_steps: TOTAL_STEPS,
    step_secs_a40: 1.40, // 70 s full generation on A40
    power_watts: 340.0,
    load_secs: 40.0,
    alignment: 1.5365, // raw cos 0.838 -> CLIP ~26.82
    fidelity_bias: 1.00,
    feature_spread: 1.05,
    vram_gb: 30.0,
};

const SDXL: ModelSpec = ModelSpec {
    id: ModelId::Sdxl,
    name: "SDXL",
    family: ModelFamily::StableDiffusion,
    params_b: 3.0,
    default_steps: TOTAL_STEPS,
    step_secs_a40: 0.30, // 15 s full generation on A40
    power_watts: 220.0,
    load_secs: 15.0,
    alignment: 2.2775,   // raw cos 0.916 -> CLIP ~29.30
    fidelity_bias: 3.16, // FID 16.29 = 3.16^2 + 6.29 floor
    feature_spread: 1.08,
    vram_gb: 10.0,
};

const SANA: ModelSpec = ModelSpec {
    id: ModelId::Sana,
    name: "SANA-1.6B",
    family: ModelFamily::Sana,
    params_b: 1.6,
    default_steps: TOTAL_STEPS,
    step_secs_a40: 0.12, // 6 s full generation on A40
    power_watts: 150.0,
    load_secs: 10.0,
    alignment: 1.8297,   // raw cos 0.878 -> CLIP ~28.08
    fidelity_bias: 3.70, // FID 19.96
    feature_spread: 0.82,
    vram_gb: 6.0,
};

const SD35_TURBO: ModelSpec = ModelSpec {
    id: ModelId::Sd35Turbo,
    name: "SD3.5-Large-Turbo",
    family: ModelFamily::StableDiffusion,
    params_b: 8.0,
    default_steps: 10,
    step_secs_a40: 0.96, // same per-step cost, 10 steps -> 9.6 s
    power_watts: 300.0,
    load_secs: 30.0,
    alignment: 1.6200,   // raw cos 0.851 -> CLIP ~27.23
    fidelity_bias: 2.89, // FID 14.63
    feature_spread: 0.97,
    vram_gb: 22.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_all_ids() {
        for id in ModelId::ALL {
            let spec = id.spec();
            assert_eq!(spec.id, id);
            assert!(spec.params_b > 0.0);
            assert!(spec.step_secs_a40 > 0.0);
        }
    }

    #[test]
    fn large_models_flagged() {
        assert!(ModelId::Sd35Large.spec().is_large());
        assert!(ModelId::Flux.spec().is_large());
        assert!(!ModelId::Sdxl.spec().is_large());
        assert!(!ModelId::Sana.spec().is_large());
        assert!(!ModelId::Sd35Turbo.spec().is_large());
    }

    #[test]
    fn calibration_matches_paper_throughput_anchors() {
        // SD3.5L on A40: ~48 s per image -> ~1.25 req/min/GPU (paper: 4 A40s
        // saturate near 5 req/min).
        let spec = ModelId::Sd35Large.spec();
        let t = spec.step_secs_a40 * f64::from(spec.default_steps);
        assert!((t - 48.0).abs() < 1.0, "t = {t}");
        // SDXL is ~3.2x cheaper per step; SANA ~8x.
        let large = ModelId::Sd35Large.spec().step_secs_a40;
        assert!(large / ModelId::Sdxl.spec().step_secs_a40 > 3.0);
        assert!(large / ModelId::Sana.spec().step_secs_a40 > 7.0);
    }

    #[test]
    fn turbo_uses_ten_steps() {
        let spec = ModelId::Sd35Turbo.spec();
        assert_eq!(spec.default_steps, 10);
        assert!(spec.step_secs_a40 * f64::from(spec.default_steps) < 10.0);
    }

    #[test]
    fn families_partition_latent_compat() {
        assert_eq!(
            ModelId::Sd35Large.spec().family,
            ModelId::Sdxl.spec().family
        );
        assert_ne!(
            ModelId::Sd35Large.spec().family,
            ModelId::Sana.spec().family
        );
        assert_ne!(ModelId::Flux.spec().family, ModelId::Sdxl.spec().family);
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(ModelId::Sd35Large.to_string(), "SD3.5-Large");
        assert_eq!(ModelId::Sana.to_string(), "SANA-1.6B");
    }

    #[test]
    fn vram_fits_on_evaluated_gpus() {
        for id in ModelId::ALL {
            assert!(id.spec().vram_gb < 48.0, "{id} must fit an A40");
        }
    }
}
