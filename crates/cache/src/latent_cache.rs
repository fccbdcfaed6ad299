//! Nirvana-style latent cache: text-keyed, model-specific, multi-k.
//!
//! Nirvana (paper §2.2) caches *intermediate latents* of previous
//! generations, keyed by the prompt's **text** embedding, and retrieves by
//! text-to-text similarity. Each entry stores latents at several candidate
//! re-entry steps so the retrieval can pick a deeper k for closer prompts.
//! Entries are usable only by models of the producing family.

use std::collections::{HashMap, VecDeque};

use modm_diffusion::{Latent, ModelId};
use modm_embedding::{Embedding, IndexPolicy};

use crate::image_cache::CacheIndex;
use modm_simkit::SimTime;

use crate::stats::CacheStats;

/// A cached bundle of latents for one source prompt.
#[derive(Debug, Clone)]
pub struct CachedLatent {
    /// Latents captured at the candidate re-entry steps, ascending by step.
    pub latents: Vec<Latent>,
    /// Text embedding of the source prompt (the retrieval key).
    pub text_embedding: Embedding,
    /// When the bundle entered the cache.
    pub cached_at: SimTime,
}

/// A successful latent retrieval.
#[derive(Debug, Clone)]
pub struct RetrievedLatent {
    /// A copy of the cached bundle.
    pub entry: CachedLatent,
    /// Text-to-text cosine similarity between query and key.
    pub text_similarity: f64,
}

/// The latent cache (FIFO-maintained, like the image cache, so comparisons
/// isolate the representation question rather than the eviction policy).
#[derive(Debug, Clone)]
pub struct LatentCache {
    capacity: usize,
    entries: HashMap<u64, CachedLatent>,
    index: CacheIndex,
    fifo: VecDeque<u64>,
    next_key: u64,
    stats: CacheStats,
    /// Utility-based eviction (evict the least-hit entry), as Nirvana's
    /// maintenance policy works; `false` = FIFO sliding window.
    utility_based: bool,
    hit_counts: HashMap<u64, u64>,
}

impl LatentCache {
    /// Creates an empty FIFO cache whose text index runs `index_policy`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, index_policy: IndexPolicy) -> Self {
        Self::with_utility_policy(capacity, index_policy, false)
    }

    /// Creates a cache with Nirvana's utility-based maintenance: the entry
    /// with the fewest hits is evicted first (ties broken oldest-first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new_utility(capacity: usize, index_policy: IndexPolicy) -> Self {
        Self::with_utility_policy(capacity, index_policy, true)
    }

    fn with_utility_policy(
        capacity: usize,
        index_policy: IndexPolicy,
        utility_based: bool,
    ) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LatentCache {
            capacity,
            entries: HashMap::new(),
            index: CacheIndex::for_policy(
                index_policy,
                capacity,
                modm_embedding::space::DEFAULT_DIM,
            ),
            fifo: VecDeque::new(),
            next_key: 0,
            stats: CacheStats::new(),
            utility_based,
            hit_counts: HashMap::new(),
        }
    }

    /// Number of cached bundles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Observability counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Total bytes: 2.5 MB per bundle (paper §3.1) plus the text index.
    pub fn storage_bytes(&self) -> usize {
        self.entries.len() * modm_diffusion::latent::LATENT_BYTES + self.index.storage_bytes()
    }

    /// Inserts a bundle of latents keyed by the source prompt's text
    /// embedding.
    ///
    /// # Panics
    ///
    /// Panics if `latents` is empty or mixes model families.
    pub fn insert(&mut self, now: SimTime, text_embedding: Embedding, latents: Vec<Latent>) {
        assert!(!latents.is_empty(), "bundle must contain latents");
        let family = latents[0].model.spec().family;
        assert!(
            latents.iter().all(|l| l.model.spec().family == family),
            "bundle mixes model families"
        );
        while self.entries.len() >= self.capacity {
            let victim = if self.utility_based {
                // Least-hit entry; ties broken by age (smaller key = older).
                self.entries
                    .keys()
                    .map(|&k| (self.hit_counts.get(&k).copied().unwrap_or(0), k))
                    .min()
                    .map(|(_, k)| k)
            } else {
                self.fifo.pop_front()
            };
            let Some(victim) = victim else { break };
            if self.utility_based {
                if let Some(pos) = self.fifo.iter().position(|&k| k == victim) {
                    self.fifo.remove(pos);
                }
            }
            self.entries.remove(&victim);
            self.index.remove(&victim);
            self.hit_counts.remove(&victim);
            self.stats.record_eviction();
        }
        let key = self.next_key;
        self.next_key += 1;
        // Latent retrieval is text-to-text, so the embedding is its own
        // anchor.
        self.index.insert(key, &text_embedding, &text_embedding);
        self.fifo.push_back(key);
        let mut latents = latents;
        latents.sort_by_key(|l| l.step);
        self.entries.insert(
            key,
            CachedLatent {
                latents,
                text_embedding,
                cached_at: now,
            },
        );
        self.stats.record_insertion();
    }

    /// Retrieves the bundle whose *text* embedding is most similar to the
    /// query text, if the text-to-text cosine reaches `threshold` and the
    /// bundle's family matches `model`.
    pub fn retrieve(
        &mut self,
        now: SimTime,
        query_text: &Embedding,
        threshold: f64,
        model: ModelId,
    ) -> Option<RetrievedLatent> {
        // Find the best compatible candidate (the top match may belong to a
        // different family; scan the ranked list).
        let candidates = self.index.top_k(query_text, 4);
        let found = candidates.into_iter().find_map(|n| {
            if n.similarity < threshold {
                return None;
            }
            let entry = self.entries.get(&n.key).expect("index/entries in sync");
            entry.latents[0]
                .check_compatible(model)
                .ok()
                .map(|()| (n.key, n.similarity))
        });
        match found {
            Some((key, sim)) => {
                *self.hit_counts.entry(key).or_insert(0) += 1;
                let entry = self.entries.get(&key).expect("present");
                let age = now.saturating_since(entry.cached_at);
                self.stats.record_lookup(Some((age, sim)));
                Some(RetrievedLatent {
                    entry: entry.clone(),
                    text_similarity: sim,
                })
            }
            None => {
                self.stats.record_lookup(None);
                None
            }
        }
    }
}

impl RetrievedLatent {
    /// Picks the deepest cached latent whose step does not exceed `max_step`
    /// (higher similarity justifies resuming later, Nirvana's k selection).
    pub fn latent_at_or_below(&self, max_step: u32) -> &Latent {
        self.entry
            .latents
            .iter()
            .rev()
            .find(|l| l.step <= max_step)
            .unwrap_or(&self.entry.latents[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_diffusion::{QualityModel, Sampler};
    use modm_embedding::{SemanticSpace, TextEncoder};
    use modm_simkit::SimRng;

    fn setup() -> (Sampler, TextEncoder, SimRng) {
        let space = SemanticSpace::default();
        (
            Sampler::new(QualityModel::new(space.clone(), 1, 6.29)),
            TextEncoder::new(space),
            SimRng::seed_from(7),
        )
    }

    fn bundle(
        sampler: &Sampler,
        text: &TextEncoder,
        rng: &mut SimRng,
        prompt: &str,
        model: ModelId,
    ) -> (Embedding, Vec<Latent>) {
        let e = text.encode(prompt);
        let img = sampler.generate(model, &e, rng);
        let latents = modm_diffusion::K_CHOICES
            .iter()
            .map(|&k| sampler.capture_latent(&img, k))
            .collect();
        (e, latents)
    }

    #[test]
    fn retrieves_by_text_similarity() {
        let (s, t, mut rng) = setup();
        let mut cache = LatentCache::new(10, IndexPolicy::Exact);
        let p = "forgotten library awakening ruins twilight charcoal sketch";
        let (e, latents) = bundle(&s, &t, &mut rng, p, ModelId::Sd35Large);
        cache.insert(SimTime::ZERO, e, latents);
        let hit = cache.retrieve(
            SimTime::from_secs_f64(5.0),
            &t.encode(p),
            0.65,
            ModelId::Sd35Large,
        );
        assert!(hit.is_some());
        assert!(hit.unwrap().text_similarity > 0.95);
        let miss = cache.retrieve(
            SimTime::from_secs_f64(6.0),
            &t.encode("neon submarine drifting ocean midnight pixel art"),
            0.65,
            ModelId::Sd35Large,
        );
        assert!(miss.is_none());
    }

    #[test]
    fn family_restriction_enforced() {
        let (s, t, mut rng) = setup();
        let mut cache = LatentCache::new(10, IndexPolicy::Exact);
        let p = "ancient monk meditating temple dawn ukiyo-e woodblock";
        let (e, latents) = bundle(&s, &t, &mut rng, p, ModelId::Sd35Large);
        cache.insert(SimTime::ZERO, e, latents);
        // SANA is a different family: the hit is rejected.
        let hit = cache.retrieve(SimTime::ZERO, &t.encode(p), 0.65, ModelId::Sana);
        assert!(hit.is_none());
        // SDXL shares the family: hit allowed.
        let hit = cache.retrieve(SimTime::ZERO, &t.encode(p), 0.65, ModelId::Sdxl);
        assert!(hit.is_some());
    }

    #[test]
    fn k_selection_picks_deepest_allowed() {
        let (s, t, mut rng) = setup();
        let mut cache = LatentCache::new(10, IndexPolicy::Exact);
        let p = "crystal valley blooming meadow spring macro photograph";
        let (e, latents) = bundle(&s, &t, &mut rng, p, ModelId::Sd35Large);
        cache.insert(SimTime::ZERO, e, latents);
        let hit = cache
            .retrieve(SimTime::ZERO, &t.encode(p), 0.65, ModelId::Sd35Large)
            .unwrap();
        assert_eq!(hit.latent_at_or_below(30).step, 30);
        assert_eq!(hit.latent_at_or_below(17).step, 15);
        assert_eq!(hit.latent_at_or_below(2).step, 5);
    }

    #[test]
    fn fifo_capacity_respected() {
        let (s, t, mut rng) = setup();
        let mut cache = LatentCache::new(3, IndexPolicy::Exact);
        for i in 0..8 {
            let p = format!("variant {i} shattered comet orbiting moon eclipse");
            let (e, latents) = bundle(&s, &t, &mut rng, &p, ModelId::Sd35Large);
            cache.insert(SimTime::from_secs_f64(i as f64), e, latents);
            assert!(cache.len() <= 3);
        }
        assert_eq!(cache.stats().evictions(), 5);
    }

    #[test]
    fn latent_storage_dwarfs_image_storage() {
        let (s, t, mut rng) = setup();
        let mut cache = LatentCache::new(10, IndexPolicy::Exact);
        let (e, latents) = bundle(
            &s,
            &t,
            &mut rng,
            "gilded carnival unfurling bazaar dusk",
            ModelId::Sd35Large,
        );
        cache.insert(SimTime::ZERO, e, latents);
        assert!(cache.storage_bytes() > 2_500_000);
    }

    #[test]
    #[should_panic(expected = "mixes model families")]
    fn mixed_family_bundle_rejected() {
        let (s, t, mut rng) = setup();
        let mut cache = LatentCache::new(4, IndexPolicy::Exact);
        let e = t.encode("prismatic oracle glowing observatory aurora");
        let img_a = s.generate(ModelId::Sd35Large, &e, &mut rng);
        let img_b = s.generate(ModelId::Sana, &e, &mut rng);
        let latents = vec![s.capture_latent(&img_a, 10), s.capture_latent(&img_b, 10)];
        cache.insert(SimTime::ZERO, e, latents);
    }
}
