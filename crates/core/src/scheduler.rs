//! The Request Scheduler's decision: cache retrieval, k-decision and
//! hit/miss routing (paper Fig 4, left box). The serving loops embed the
//! prompt, pick the cache to consult and queue the [`RoutedRequest`].

use modm_cache::{ImageCache, RetrievedImage};
use modm_embedding::Embedding;
use modm_simkit::SimTime;
use modm_workload::{QosClass, TenantId};

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

/// A request as it reaches a serving node: embedded, but neither admitted
/// nor routed. [`ServingNode::enqueue`](crate::ServingNode::enqueue) runs
/// admission on it and only then makes the cache decision that turns it
/// into a [`RoutedRequest`].
#[derive(Debug, Clone)]
pub struct IncomingRequest {
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
/// the single routing rule every serving loop applies — the fleet's
/// per-shard front-end (one shard on the single-node tier) and the
/// elastic fleet's re-delivery path both call it, so the decision cannot
/// diverge.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoDMConfig;
    use modm_diffusion::{ModelId, QualityModel, Sampler};
    use modm_embedding::{SemanticSpace, TextEncoder};
    use modm_simkit::SimRng;

    const PROMPT: &str = "ancient dragon soaring mountains dusk oil painting moody golden";

    fn setup() -> (ImageCache, TextEncoder, Sampler, SimRng) {
        let space = SemanticSpace::default();
        let config = MoDMConfig::builder().cache_capacity(100).build();
        let cache = ImageCache::new(config.cache_config());
        let sampler = Sampler::new(QualityModel::new(space.clone(), 3, 6.29));
        (
            cache,
            TextEncoder::new(space),
            sampler,
            SimRng::seed_from(11),
        )
    }

    /// Caches one full generation for `PROMPT`, returning its embedding.
    fn cache_prompt(
        cache: &mut ImageCache,
        encoder: &TextEncoder,
        sampler: &Sampler,
        rng: &mut SimRng,
    ) -> Embedding {
        let emb = encoder.encode(PROMPT);
        let img = sampler.generate_for(ModelId::Sd35Large, &emb, 0, rng);
        cache.insert(SimTime::ZERO, img);
        emb
    }

    #[test]
    fn empty_cache_routes_miss() {
        let (mut cache, encoder, _, _) = setup();
        let emb = encoder.encode("crystal garden blooming valley dawn");
        let route = route_against_cache(&mut cache, SimTime::ZERO, &emb, 0.0);
        assert!(matches!(route, RouteKind::Miss));
    }

    #[test]
    fn cached_image_routes_hit_with_valid_k() {
        let (mut cache, encoder, sampler, mut rng) = setup();
        let emb = cache_prompt(&mut cache, &encoder, &sampler, &mut rng);
        match route_against_cache(&mut cache, SimTime::from_secs_f64(30.0), &emb, 0.0) {
            RouteKind::Hit { k, ref retrieved } => {
                assert!(modm_diffusion::K_CHOICES.contains(&k));
                assert!(retrieved.similarity >= crate::kselect::HIT_THRESHOLD);
            }
            RouteKind::Miss => panic!("identical prompt should hit"),
        }
    }

    #[test]
    fn threshold_shift_tightens_hits() {
        let (mut cache, encoder, sampler, mut rng) = setup();
        let emb = cache_prompt(&mut cache, &encoder, &sampler, &mut rng);
        // With the ladder shifted by +0.08, even an identical prompt
        // (similarity ~0.29) falls below the raised threshold (0.33).
        let route = route_against_cache(&mut cache, SimTime::ZERO, &emb, 0.08);
        assert!(matches!(route, RouteKind::Miss));
    }
}
