//! Caches for diffusion serving: MoDM's final-image cache and Nirvana's
//! model-specific latent cache.
//!
//! The design point the paper argues (§3.1): cache **final images**. They
//! are smaller (1.4 MB vs 2.5 MB), model-agnostic (any model can re-noise
//! them) and retrievable by *text-to-image* similarity. The latent cache is
//! implemented too — it is what the Nirvana baseline runs on — and its
//! model-family restriction is enforced at the type level.
//!
//! # Example
//!
//! ```
//! use modm_cache::{ImageCache, CacheConfig, MaintenancePolicy};
//! use modm_diffusion::{Sampler, QualityModel, ModelId};
//! use modm_embedding::{SemanticSpace, TextEncoder};
//! use modm_simkit::{SimRng, SimTime};
//!
//! let space = SemanticSpace::default();
//! let sampler = Sampler::new(QualityModel::new(space.clone(), 1, 6.29));
//! let text = TextEncoder::new(space);
//! let mut rng = SimRng::seed_from(2);
//! let mut cache = ImageCache::new(CacheConfig::fifo(100));
//!
//! let prompt = text.encode("gilded castle soaring mountains dawn oil painting");
//! let img = sampler.generate(ModelId::Sd35Large, &prompt, &mut rng);
//! cache.insert(SimTime::ZERO, img);
//! let hit = cache.retrieve(SimTime::from_secs_f64(60.0), &prompt, 0.25);
//! assert!(hit.is_some(), "same prompt should hit");
//! ```

pub mod image_cache;
pub mod latent_cache;
pub mod slot_list;
pub mod stats;

pub use slot_list::IndexedList;

pub use image_cache::{
    CacheConfig, CachedImage, ImageCache, MaintenancePolicy, ReserveError, RetrievedImage,
};
pub use latent_cache::{CachedLatent, LatentCache, RetrievedLatent};
pub use stats::CacheStats;
