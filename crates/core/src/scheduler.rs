//! The Request Scheduler: prompt embedding, cache retrieval, k-decision and
//! hit/miss routing (paper Fig 4, left box).

use modm_cache::{ImageCache, RetrievedImage};
use modm_embedding::{Embedding, TextEncoder};
use modm_simkit::SimTime;
use modm_workload::{QosClass, Request, TenantId};

use crate::config::MoDMConfig;
use crate::kselect::{k_decision_shifted, KDecision};

/// How a request is to be served.
#[derive(Debug, Clone)]
pub enum RouteKind {
    /// Cache miss: full generation by the large model.
    Miss,
    /// Cache hit: refine the retrieved image, skipping `k` steps.
    Hit {
        /// The retrieved cached image.
        retrieved: RetrievedImage,
        /// Steps to skip.
        k: u32,
    },
}

/// A request after scheduling: embedded, classified and ready to queue.
#[derive(Debug, Clone)]
pub struct RoutedRequest {
    /// The original request id.
    pub request_id: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// The tenant the request belongs to.
    pub tenant: TenantId,
    /// The service class it is admitted under.
    pub qos: QosClass,
    /// The prompt's text embedding (computed once, reused everywhere).
    pub prompt_embedding: Embedding,
    /// The routing decision.
    pub route: RouteKind,
}

impl RoutedRequest {
    /// True when this request hit the cache.
    pub fn is_hit(&self) -> bool {
        matches!(self.route, RouteKind::Hit { .. })
    }
}

/// The hit/miss decision against one cache: retrieve at the (possibly
/// shifted) hit threshold and pick `k` from the similarity ladder. This is
/// the single routing rule every serving loop applies — the monolithic
/// scheduler below, the fleet's per-shard front-end, and the elastic
/// fleet's re-delivery path all call it, so the decision cannot diverge.
pub fn route_against_cache(
    cache: &mut ImageCache,
    now: SimTime,
    embedding: &Embedding,
    threshold_shift: f64,
) -> RouteKind {
    let threshold = crate::kselect::HIT_THRESHOLD + threshold_shift;
    match cache.retrieve(now, embedding, threshold) {
        Some(retrieved) => match k_decision_shifted(retrieved.similarity, threshold_shift) {
            KDecision::Hit { k } => RouteKind::Hit { retrieved, k },
            // Defensive: the retrieval threshold equals the ladder's first
            // rung, so this cannot fire; treat as miss.
            KDecision::Miss => RouteKind::Miss,
        },
        None => RouteKind::Miss,
    }
}

/// The scheduler: owns the text encoder and the image cache.
#[derive(Debug)]
pub struct RequestScheduler {
    encoder: TextEncoder,
    cache: ImageCache,
    threshold_shift: f64,
    hits: u64,
    misses: u64,
}

impl RequestScheduler {
    /// Builds the scheduler from a system config, sharing `encoder`'s
    /// semantic space. The cache inherits the config's per-tenant
    /// reserves.
    pub fn new(config: &MoDMConfig, encoder: TextEncoder) -> Self {
        RequestScheduler {
            encoder,
            cache: ImageCache::new(config.cache_config()),
            threshold_shift: config.threshold_shift,
            hits: 0,
            misses: 0,
        }
    }

    /// Routes one request at time `now`: embed, retrieve, decide `k`.
    pub fn route(&mut self, now: SimTime, request: &Request) -> RoutedRequest {
        let embedding = self.encoder.encode(&request.prompt);
        let route = route_against_cache(&mut self.cache, now, &embedding, self.threshold_shift);
        match route {
            RouteKind::Hit { .. } => self.hits += 1,
            RouteKind::Miss => self.misses += 1,
        }
        RoutedRequest {
            request_id: request.id,
            arrival: request.arrival,
            tenant: request.tenant,
            qos: request.qos,
            prompt_embedding: embedding,
            route,
        }
    }

    /// Adds a finished image to the cache on the default tenant's account
    /// (per the system's admission policy, decided by the caller).
    pub fn admit(&mut self, now: SimTime, image: modm_diffusion::GeneratedImage) {
        self.cache.insert(now, image);
    }

    /// Adds `tenant`'s finished image to the cache, charged against its
    /// quota (see [`ImageCache::insert_for`]).
    pub fn admit_for(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        image: modm_diffusion::GeneratedImage,
    ) {
        self.cache.insert_for(now, tenant, image);
    }

    /// The underlying cache (for stats and experiment probes).
    pub fn cache(&self) -> &ImageCache {
        &self.cache
    }

    /// Scheduler-level hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The text encoder (shared semantic space).
    pub fn encoder(&self) -> &TextEncoder {
        &self.encoder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_diffusion::{ModelId, QualityModel, Sampler};
    use modm_embedding::SemanticSpace;
    use modm_simkit::SimRng;

    fn setup() -> (RequestScheduler, Sampler, SimRng) {
        let space = SemanticSpace::default();
        let config = MoDMConfig::builder().cache_capacity(100).build();
        let sched = RequestScheduler::new(&config, TextEncoder::new(space.clone()));
        let sampler = Sampler::new(QualityModel::new(space, 3, 6.29));
        (sched, sampler, SimRng::seed_from(11))
    }

    #[test]
    fn empty_cache_routes_miss() {
        let (mut sched, _, _) = setup();
        let r = Request::new(0, "crystal garden blooming valley dawn", SimTime::ZERO);
        let routed = sched.route(SimTime::ZERO, &r);
        assert!(!routed.is_hit());
        assert_eq!(sched.hit_rate(), 0.0);
    }

    #[test]
    fn cached_image_routes_hit_with_valid_k() {
        let (mut sched, sampler, mut rng) = setup();
        let prompt = "ancient dragon soaring mountains dusk oil painting moody golden";
        let r0 = Request::new(0, prompt, SimTime::ZERO);
        let routed0 = sched.route(SimTime::ZERO, &r0);
        let img = sampler.generate_for(ModelId::Sd35Large, &routed0.prompt_embedding, 0, &mut rng);
        sched.admit(SimTime::ZERO, img);

        let r1 = Request::new(1, prompt, SimTime::from_secs_f64(30.0));
        let routed1 = sched.route(SimTime::from_secs_f64(30.0), &r1);
        match routed1.route {
            RouteKind::Hit { k, ref retrieved } => {
                assert!(modm_diffusion::K_CHOICES.contains(&k));
                assert!(retrieved.similarity >= crate::kselect::HIT_THRESHOLD);
            }
            RouteKind::Miss => panic!("identical prompt should hit"),
        }
        assert!((sched.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_shift_tightens_hits() {
        let space = SemanticSpace::default();
        let config = MoDMConfig::builder()
            .cache_capacity(100)
            .threshold_shift(0.08)
            .build();
        let mut sched = RequestScheduler::new(&config, TextEncoder::new(space.clone()));
        let sampler = Sampler::new(QualityModel::new(space, 3, 6.29));
        let mut rng = SimRng::seed_from(11);
        let prompt = "ancient dragon soaring mountains dusk oil painting moody golden";
        let r0 = Request::new(0, prompt, SimTime::ZERO);
        let routed0 = sched.route(SimTime::ZERO, &r0);
        let img = sampler.generate_for(ModelId::Sd35Large, &routed0.prompt_embedding, 0, &mut rng);
        sched.admit(SimTime::ZERO, img);
        // With the ladder shifted by +0.08, even an identical prompt
        // (similarity ~0.29) falls below the raised threshold (0.33).
        let r1 = Request::new(1, prompt, SimTime::ZERO);
        assert!(!sched.route(SimTime::ZERO, &r1).is_hit());
    }
}
