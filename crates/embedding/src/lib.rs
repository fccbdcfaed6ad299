//! Synthetic CLIP-like embedding space for the MoDM reproduction.
//!
//! The real system embeds prompts and images with CLIP encoders; retrieval,
//! the k-decision heuristic and the CLIPScore metric all operate on cosine
//! similarities in that joint space. This crate reproduces the *geometry* of
//! that space deterministically:
//!
//! * every vocabulary token hashes to a fixed random direction;
//! * a **text embedding** is the normalized sum of its token directions, so
//!   prompts sharing topic/style tokens are nearby;
//! * an **image embedding** is `normalize(alpha * text + orthogonal noise)`
//!   where `alpha ~ 0.3` is a per-model *alignment* parameter. This makes
//!   text-to-image cosines of well-matched pairs land around 0.25-0.30 —
//!   exactly the range of the paper's cache-hit thresholds (Fig 5b) — and
//!   CLIPScore = 100 x cosine land around 28-29 (Table 2).
//!
//! # Example
//!
//! ```
//! use modm_embedding::{TextEncoder, ImageEncoder, SemanticSpace};
//! use modm_simkit::SimRng;
//!
//! let space = SemanticSpace::default();
//! let text = TextEncoder::new(space.clone());
//! let q = text.encode("sunset over mountain lake watercolor");
//! let near = text.encode("sunrise over mountain lake watercolor");
//! let far = text.encode("cyberpunk city robot neon");
//! assert!(q.cosine(&near) > q.cosine(&far));
//!
//! let imgenc = ImageEncoder::new(space, 0.30);
//! let mut rng = SimRng::seed_from(1);
//! let img = imgenc.encode(&q, &mut rng);
//! let t2i = q.cosine(&img);
//! assert!(t2i > 0.1 && t2i < 0.5, "t2i similarity in CLIP-like range: {t2i}");
//! ```

pub mod clip;
pub mod index;
pub mod probe;
pub mod space;

pub use clip::{clip_score, pick_score, retrieval_similarity, CLIP_COS_SCALE};
pub use index::{EmbeddingIndex, Neighbor};
pub use probe::{IndexPolicy, InvertedIndex, TwoLevelProbe};
pub use space::{Embedding, ImageEncoder, SemanticSpace, TextEncoder};
