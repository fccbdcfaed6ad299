//! Noise schedules: the `sigma` of the forward-noising rule (Eq. 2 of the paper).
//!
//! A schedule maps a target timestep `t_k` (equivalently, the number of
//! skipped steps `k`) to a noise scaling factor `sigma in [0, 1]`. MoDM uses
//! the schedule to re-enter the denoising trajectory from a cached image:
//!
//! `noisy = sigma(t_k) * eps + (1 - sigma(t_k)) * image`  (Eq. 2)
//!
//! Flow-matching models (SD3.5L, FLUX) use the rectified linear schedule;
//! epsilon-prediction U-Nets (SDXL) use a cosine-like beta schedule; we also
//! provide Karras sigmas for completeness since SANA-style samplers use them.

/// A noise schedule over `total_steps` denoising steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseSchedule {
    /// Rectified flow: `sigma(t) = t / T` (flow-matching models).
    RectifiedFlow,
    /// Cosine beta schedule (epsilon-prediction latent diffusion).
    Cosine,
    /// Karras et al. sigma spacing with rho = 7.
    Karras,
}

impl NoiseSchedule {
    /// The schedule a given model family conventionally uses.
    pub fn for_model(model: crate::ModelId) -> NoiseSchedule {
        use crate::{ModelFamily, ModelId};
        match model.spec().family {
            ModelFamily::Flux => NoiseSchedule::RectifiedFlow,
            ModelFamily::Sana => NoiseSchedule::Karras,
            ModelFamily::StableDiffusion => match model {
                // SD3.5 variants are flow-matching; SDXL is epsilon-based.
                ModelId::Sdxl => NoiseSchedule::Cosine,
                _ => NoiseSchedule::RectifiedFlow,
            },
        }
    }

    /// The noise fraction `sigma` when re-entering at timestep `t_k`, i.e.
    /// after skipping `k = total_steps - remaining` steps of denoising.
    ///
    /// `step = 0` means "start of denoising" (pure noise, sigma = 1) and
    /// `step = total_steps` means "fully denoised" (sigma = 0). MoDM skips
    /// the first `k` steps, so it re-enters at `step = k` with
    /// `sigma(k) < 1`: the *more* steps skipped, the *less* noise is added
    /// back and the more of the cached image survives.
    ///
    /// # Panics
    ///
    /// Panics if `step > total_steps` or `total_steps == 0`.
    pub fn sigma_at(&self, step: u32, total_steps: u32) -> f64 {
        assert!(total_steps > 0, "schedule needs at least one step");
        assert!(
            step <= total_steps,
            "step {step} beyond total {total_steps}"
        );
        // Progress through denoising: 0 at the start, 1 at the end.
        let p = step as f64 / total_steps as f64;
        match self {
            NoiseSchedule::RectifiedFlow => 1.0 - p,
            NoiseSchedule::Cosine => {
                // Noise level follows cos^2 ramp; still 1 at p=0, 0 at p=1.
                let x = p * std::f64::consts::FRAC_PI_2;
                x.cos().powi(2)
            }
            NoiseSchedule::Karras => {
                const SIGMA_MAX: f64 = 80.0;
                const SIGMA_MIN: f64 = 0.002;
                const RHO: f64 = 7.0;
                if (p - 1.0).abs() < 1e-12 {
                    return 0.0;
                }
                let s = (SIGMA_MAX.powf(1.0 / RHO)
                    + p * (SIGMA_MIN.powf(1.0 / RHO) - SIGMA_MAX.powf(1.0 / RHO)))
                .powf(RHO);
                // Normalize into [0, 1] against sigma_max.
                s / SIGMA_MAX
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelId, TOTAL_STEPS};

    #[test]
    fn schedules_start_at_one_end_at_zero() {
        for s in [
            NoiseSchedule::RectifiedFlow,
            NoiseSchedule::Cosine,
            NoiseSchedule::Karras,
        ] {
            assert!((s.sigma_at(0, TOTAL_STEPS) - 1.0).abs() < 1e-9, "{s:?}");
            assert!(s.sigma_at(TOTAL_STEPS, TOTAL_STEPS).abs() < 1e-9, "{s:?}");
        }
    }

    #[test]
    fn schedules_monotone_decreasing() {
        for s in [
            NoiseSchedule::RectifiedFlow,
            NoiseSchedule::Cosine,
            NoiseSchedule::Karras,
        ] {
            let mut prev = f64::INFINITY;
            for step in 0..=TOTAL_STEPS {
                let sig = s.sigma_at(step, TOTAL_STEPS);
                assert!(sig <= prev + 1e-12, "{s:?} not monotone at {step}");
                assert!((0.0..=1.0).contains(&sig));
                prev = sig;
            }
        }
    }

    #[test]
    fn more_skipped_steps_preserve_more_of_the_image() {
        // Re-entering at step k: larger k -> smaller sigma -> cached image
        // dominates, as §5.1 describes.
        let s = NoiseSchedule::RectifiedFlow;
        assert!(s.sigma_at(30, 50) < s.sigma_at(5, 50));
    }

    #[test]
    fn model_schedule_mapping() {
        assert_eq!(
            NoiseSchedule::for_model(ModelId::Sd35Large),
            NoiseSchedule::RectifiedFlow
        );
        assert_eq!(
            NoiseSchedule::for_model(ModelId::Sdxl),
            NoiseSchedule::Cosine
        );
        assert_eq!(
            NoiseSchedule::for_model(ModelId::Sana),
            NoiseSchedule::Karras
        );
    }
}
