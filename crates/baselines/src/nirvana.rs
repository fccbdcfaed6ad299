//! The Nirvana baseline: approximate caching of intermediate latents with
//! text-to-text retrieval, resumed on the single large model.
//!
//! Nirvana's published gain is ~20% computation reduction despite >90% hit
//! rates: text similarity is a weak proxy for visual similarity, so the
//! system must be conservative about how many steps it skips (paper §3.2).
//! Our text-to-text k ladder reflects that conservatism: only near-verbatim
//! prompt matches (t2t cosine >= 0.99) justify skipping 30 steps, and
//! ordinary same-session matches (~0.92) skip only 5–10.

use modm_cache::LatentCache;
use modm_cluster::GpuKind;
use modm_core::report::ServingReport;
use modm_core::RunOptions;
use modm_diffusion::{GeneratedImage, ModelId, QualityModel, Sampler, K_CHOICES};
use modm_embedding::{IndexPolicy, SemanticSpace, TextEncoder};
use modm_simkit::{SimRng, SimTime};
use modm_workload::{Request, Trace};

use crate::engine::{BaselineEngine, BaselineJob, BaselinePolicy, JobPayload};

/// Minimum text-to-text similarity for any cache hit.
pub const T2T_HIT_THRESHOLD: f64 = 0.88;

/// Nirvana's k selection from text-to-text similarity: conservative at the
/// top (30 steps only for near-verbatim matches).
pub fn t2t_k_decision(similarity: f64) -> Option<u32> {
    if similarity >= 0.99 {
        Some(30)
    } else if similarity >= 0.97 {
        Some(25)
    } else if similarity >= 0.955 {
        Some(20)
    } else if similarity >= 0.94 {
        Some(15)
    } else if similarity >= 0.92 {
        Some(10)
    } else if similarity >= T2T_HIT_THRESHOLD {
        Some(5)
    } else {
        None
    }
    // (Thresholds 0.88-0.99 here correspond to the paper's 0.65-0.95: our
    // synthetic text space compresses CLIP's textual-similarity range.)
}

/// The Nirvana serving system.
pub struct NirvanaSystem {
    engine: BaselineEngine<NirvanaPolicy>,
}

/// Policy backing [`NirvanaSystem`].
pub struct NirvanaPolicy {
    model: ModelId,
    encoder: TextEncoder,
    sampler: Sampler,
    cache: LatentCache,
}

impl NirvanaSystem {
    /// Creates a Nirvana system with the given latent-cache capacity.
    pub fn new(model: ModelId, gpu: GpuKind, num_gpus: usize, cache_capacity: usize) -> Self {
        Self::with_fid_floor(model, gpu, num_gpus, cache_capacity, 6.29)
    }

    /// Same, with an explicit dataset FID floor.
    pub fn with_fid_floor(
        model: ModelId,
        gpu: GpuKind,
        num_gpus: usize,
        cache_capacity: usize,
        floor: f64,
    ) -> Self {
        let space = SemanticSpace::default();
        let policy = NirvanaPolicy {
            model,
            encoder: TextEncoder::new(space.clone()),
            sampler: Sampler::new(QualityModel::new(space, 0xBB22, floor)),
            cache: LatentCache::new_utility(cache_capacity, IndexPolicy::Exact),
        };
        NirvanaSystem {
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

impl NirvanaPolicy {
    fn cache_latents(
        &mut self,
        now: SimTime,
        prompt_embedding: &modm_embedding::Embedding,
        image: &GeneratedImage,
    ) {
        let latents = K_CHOICES
            .iter()
            .map(|&k| self.sampler.capture_latent(image, k))
            .collect();
        self.cache.insert(now, prompt_embedding.clone(), latents);
    }
}

impl BaselinePolicy for NirvanaPolicy {
    fn model(&self) -> ModelId {
        self.model
    }

    fn warm(&mut self, request: &Request, rng: &mut SimRng) {
        let emb = self.encoder.encode(&request.prompt);
        let img = self.sampler.generate_for(self.model, &emb, request.id, rng);
        self.cache_latents(SimTime::ZERO, &emb, &img);
    }

    fn classify(&mut self, now: SimTime, request: &Request, _rng: &mut SimRng) -> BaselineJob {
        let emb = self.encoder.encode(&request.prompt);
        let retrieved = self
            .cache
            .retrieve(now, &emb, T2T_HIT_THRESHOLD, self.model);
        if let Some(hit) = retrieved {
            if let Some(k) = t2t_k_decision(hit.text_similarity) {
                let latent = hit.latent_at_or_below(k).clone();
                let k = latent.step;
                return BaselineJob {
                    request_id: request.id,
                    arrival: request.arrival,
                    prompt_embedding: emb,
                    steps: self.model.spec().default_steps
                        - (self.model.spec().default_steps * k / modm_diffusion::TOTAL_STEPS),
                    k,
                    is_hit: true,
                    payload: JobPayload::ResumeLatent { latent, k },
                };
            }
        }
        BaselineJob {
            request_id: request.id,
            arrival: request.arrival,
            prompt_embedding: emb,
            steps: self.model.spec().default_steps,
            k: 0,
            is_hit: false,
            payload: JobPayload::FullGeneration,
        }
    }

    fn produce(&mut self, job: &BaselineJob, rng: &mut SimRng) -> GeneratedImage {
        match &job.payload {
            JobPayload::FullGeneration => {
                self.sampler
                    .generate_for(self.model, &job.prompt_embedding, job.request_id, rng)
            }
            JobPayload::ResumeLatent { latent, .. } => self
                .sampler
                .resume_from_latent(
                    self.model,
                    latent,
                    &job.prompt_embedding,
                    job.request_id,
                    rng,
                )
                .expect("latent cache only stores same-family latents"),
            JobPayload::ServeCached { .. } => unreachable!("nirvana never serves unrefined"),
        }
    }

    fn on_complete(&mut self, now: SimTime, job: &BaselineJob, image: &GeneratedImage) {
        // Nirvana caches the latents of full generations.
        if image.is_full_generation() {
            self.cache_latents(now, &job.prompt_embedding, image);
        }
    }

    fn cache_stats(&self) -> modm_cache::CacheStats {
        self.cache.stats().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_workload::TraceBuilder;

    #[test]
    fn t2t_ladder_is_conservative() {
        assert_eq!(t2t_k_decision(0.999), Some(30));
        assert_eq!(t2t_k_decision(0.95), Some(15));
        assert_eq!(t2t_k_decision(0.93), Some(10));
        assert_eq!(t2t_k_decision(0.89), Some(5));
        assert_eq!(t2t_k_decision(0.85), None);
    }

    #[test]
    fn nirvana_hits_but_skips_modestly() {
        let trace = TraceBuilder::diffusion_db(3)
            .requests(300)
            .rate_per_min(10.0)
            .build();
        let mut sys = NirvanaSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 16, 2_000);
        let report = sys.run(&trace);
        assert!(report.hit_rate() > 0.4, "hit rate = {}", report.hit_rate());
        // Mean skipped steps should be well below MoDM's (the 20% story):
        // most hits land at k = 5..15.
        assert!(report.mean_k() < 20.0, "mean k = {}", report.mean_k());
    }

    #[test]
    fn nirvana_beats_vanilla_modestly_on_throughput() {
        let trace = TraceBuilder::diffusion_db(4)
            .requests(250)
            .rate_per_min(1.0)
            .build();
        let opts = RunOptions {
            warmup: 50,
            saturate: true,
        };
        let mut nirvana = NirvanaSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 16, 2_000);
        let n = nirvana.run_with(&trace, opts);
        let mut vanilla = crate::VanillaSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 16);
        let v = vanilla.run_with(&trace, opts);
        let speedup = n.requests_per_minute() / v.requests_per_minute();
        assert!(
            (1.02..1.6).contains(&speedup),
            "Nirvana's modest gain: {speedup}"
        );
    }
}
