//! Diffusion-model simulation substrate for the MoDM reproduction.
//!
//! The paper serves five real diffusion models (Stable Diffusion 3.5 Large,
//! FLUX.1-dev, SDXL, SANA-1.6B and SD3.5-Large-Turbo). This crate models
//! each of them as a *cost + quality* process:
//!
//! * **Cost**: a per-step latency (calibrated per GPU kind in `modm-cluster`)
//!   and a power draw, so full generation of SD3.5L takes ~48 s on an A40 and
//!   ~96 s on an MI210 — matching the paper's vanilla throughputs.
//! * **Quality**: each generated image carries an image embedding in the
//!   CLIP-like space (alignment calibrated to the paper's CLIPScores) and a
//!   16-d fidelity feature vector whose distribution is calibrated so that
//!   Fréchet distances between model outputs land near the paper's FID table.
//! * **Mechanics**: the noise schedules of Eq. (2), and a sampler that
//!   implements both full generation and MoDM's retrieve-noise-refine
//!   pipeline with `k` skipped steps.
//!
//! # Example
//!
//! ```
//! use modm_diffusion::{ModelId, Sampler, QualityModel};
//! use modm_embedding::{SemanticSpace, TextEncoder};
//! use modm_simkit::SimRng;
//!
//! let space = SemanticSpace::default();
//! let text = TextEncoder::new(space.clone());
//! let quality = QualityModel::new(space, 7, 6.29);
//! let sampler = Sampler::new(quality);
//! let mut rng = SimRng::seed_from(1);
//!
//! let prompt = text.encode("a castle on a hill at sunset oil painting");
//! let full = sampler.generate(ModelId::Sd35Large, &prompt, &mut rng);
//! assert_eq!(full.steps_run, 50);
//! let refined = sampler.refine(ModelId::Sdxl, &full, &prompt, 20, &mut rng);
//! assert_eq!(refined.steps_run, 30); // T - k
//! ```

pub mod image;
pub mod latent;
pub mod model;
pub mod quality;
pub mod sampler;
pub mod schedule;

pub use image::{GeneratedImage, ImageId};
pub use latent::{Latent, LatentError};
pub use model::{ModelFamily, ModelId, ModelSpec};
pub use quality::QualityModel;
pub use sampler::Sampler;
pub use schedule::NoiseSchedule;

/// Total denoising steps used by every non-distilled model in the paper.
pub const TOTAL_STEPS: u32 = 50;

/// The discrete set of skippable step counts K = {5, 10, 15, 20, 25, 30}
/// (paper §5.2).
pub const K_CHOICES: [u32; 6] = [5, 10, 15, 20, 25, 30];
