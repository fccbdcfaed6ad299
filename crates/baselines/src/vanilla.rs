//! The Vanilla baseline: every request is a full large-model generation.

use modm_cluster::GpuKind;
use modm_core::report::ServingReport;
use modm_core::RunOptions;
use modm_diffusion::{GeneratedImage, ModelId, QualityModel, Sampler};
use modm_embedding::{SemanticSpace, TextEncoder};
use modm_simkit::{SimRng, SimTime};
use modm_workload::{Request, Trace};

use crate::engine::{BaselineEngine, BaselineJob, BaselinePolicy, JobPayload};

/// Vanilla serving: no cache, no retrieval, full inference for everything.
pub struct VanillaSystem {
    engine: BaselineEngine<VanillaPolicy>,
}

/// The trivial policy backing [`VanillaSystem`].
pub struct VanillaPolicy {
    model: ModelId,
    encoder: TextEncoder,
    sampler: Sampler,
}

impl VanillaSystem {
    /// Creates a vanilla system running `model` on `num_gpus` x `gpu`,
    /// with the DiffusionDB FID floor.
    pub fn new(model: ModelId, gpu: GpuKind, num_gpus: usize) -> Self {
        Self::with_fid_floor(model, gpu, num_gpus, 6.29)
    }

    /// Same, with an explicit dataset FID floor (5.16 for MJHQ).
    pub fn with_fid_floor(model: ModelId, gpu: GpuKind, num_gpus: usize, floor: f64) -> Self {
        let space = SemanticSpace::default();
        let policy = VanillaPolicy {
            model,
            encoder: TextEncoder::new(space.clone()),
            sampler: Sampler::new(QualityModel::new(space, 0xAA11, floor)),
        };
        VanillaSystem {
            engine: BaselineEngine::new(policy, gpu, num_gpus),
        }
    }

    /// Serves the trace.
    pub fn run(&mut self, trace: &Trace) -> ServingReport {
        self.engine.run(trace)
    }

    /// Serves the trace with options.
    pub fn run_with(&mut self, trace: &Trace, options: RunOptions) -> ServingReport {
        self.engine.run_with(trace, options)
    }
}

impl BaselinePolicy for VanillaPolicy {
    fn model(&self) -> ModelId {
        self.model
    }

    fn warm(&mut self, _request: &Request, _rng: &mut SimRng) {
        // Vanilla has no cache to warm.
    }

    fn classify(&mut self, _now: SimTime, request: &Request, _rng: &mut SimRng) -> BaselineJob {
        BaselineJob {
            request_id: request.id,
            arrival: request.arrival,
            prompt_embedding: self.encoder.encode(&request.prompt),
            steps: self.model.spec().default_steps,
            k: 0,
            is_hit: false,
            payload: JobPayload::FullGeneration,
        }
    }

    fn produce(&mut self, job: &BaselineJob, rng: &mut SimRng) -> GeneratedImage {
        self.sampler
            .generate_for(self.model, &job.prompt_embedding, job.request_id, rng)
    }

    fn on_complete(&mut self, _now: SimTime, _job: &BaselineJob, _image: &GeneratedImage) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_workload::TraceBuilder;

    #[test]
    fn vanilla_serves_everything_fully() {
        let trace = TraceBuilder::diffusion_db(1)
            .requests(30)
            .rate_per_min(5.0)
            .build();
        let mut sys = VanillaSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 8);
        let report = sys.run(&trace);
        assert_eq!(report.completed(), 30);
        assert_eq!(report.hits, 0);
        assert_eq!(report.misses, 30);
        // Quality equals large-model calibration.
        assert!((report.quality.mean_clip() - 28.55).abs() < 1.2);
    }

    #[test]
    fn vanilla_throughput_matches_profile() {
        // Saturated: 16 MI210s at 96 s per image -> ~10 req/min.
        let trace = TraceBuilder::diffusion_db(2)
            .requests(200)
            .rate_per_min(1.0)
            .build();
        let mut sys = VanillaSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 16);
        let report = sys.run_with(&trace, RunOptions::saturated(0));
        let rpm = report.requests_per_minute();
        assert!((rpm - 10.0).abs() < 1.5, "rpm = {rpm}");
    }
}
