//! The MoDM serving system — the paper's primary contribution.
//!
//! MoDM serves text-to-image requests with a *mixture of diffusion models*:
//! a final-image cache turns many requests into cheap refinements that a
//! small model can run, while cache misses go to a large model for full
//! generation. The pieces (paper Fig 4):
//!
//! * [`scheduler`] — embeds prompts, consults the image cache, picks the
//!   number of skippable denoising steps `k` (Fig 5b), and routes requests
//!   into the cache-hit or cache-miss queue.
//! * [`monitor`] — the Global Monitor: Algorithm 1's quality-optimized and
//!   throughput-optimized allocations, smoothed by a [`pid`] controller,
//!   plus the dynamic small-model escalation (SDXL -> SANA) of Fig 10.
//! * [`node`] — the per-node serving step (queues, dispatch, monitor
//!   window) that `modm-controlplane`'s event loop runs on every node of
//!   every tier.
//! * [`admission`] — per-tenant token buckets enforced at the front of
//!   that step: overload is refused up front instead of absorbed into
//!   unbounded queues.
//! * [`events`] — the typed event stream ([`SimEvent`] / [`Observer`])
//!   every serving loop can narrate its run to; the foundation of the
//!   `modm-deploy` observer API.
//!
//! The discrete-event loop that ties these to GPU workers, the cache and
//! the metrics lives in `modm-controlplane`, and `modm_deploy::Deployment`
//! builds every tier on it: one node, N of them on one clock, or N that a
//! control plane changes.
//!
//! # Quickstart
//!
//! The scheduler's decision on one node's cache:
//!
//! ```
//! use modm_cache::ImageCache;
//! use modm_cluster::GpuKind;
//! use modm_core::{route_against_cache, MoDMConfig, RouteKind};
//! use modm_diffusion::{QualityModel, Sampler};
//! use modm_embedding::{SemanticSpace, TextEncoder};
//! use modm_simkit::{SimRng, SimTime};
//!
//! let config = MoDMConfig::builder()
//!     .gpus(GpuKind::Mi210, 8)
//!     .cache_capacity(500)
//!     .build();
//! let space = SemanticSpace::default();
//! let encoder = TextEncoder::new(space.clone());
//! let sampler = Sampler::new(QualityModel::new(space, 3, 6.29));
//! let mut cache = ImageCache::new(config.cache_config());
//!
//! let prompt = encoder.encode("ancient dragon soaring mountains dusk oil painting moody golden");
//! // An empty cache sends the request to the large model...
//! let route = route_against_cache(&mut cache, SimTime::ZERO, &prompt, config.threshold_shift);
//! assert!(matches!(route, RouteKind::Miss));
//! // ...and once its image is cached, the same prompt becomes a cheap
//! // refinement that skips `k` denoising steps.
//! let image = sampler.generate_for(config.large_model, &prompt, 0, &mut SimRng::seed_from(11));
//! cache.insert(SimTime::ZERO, image);
//! let route = route_against_cache(&mut cache, SimTime::ZERO, &prompt, config.threshold_shift);
//! assert!(matches!(route, RouteKind::Hit { .. }));
//! ```

pub mod admission;
pub mod config;
pub mod events;
pub mod fairqueue;
pub mod kselect;
pub mod monitor;
pub mod node;
pub mod pid;
pub mod report;
pub mod scheduler;

pub use admission::{AdmissionControl, TokenBucket};
pub use config::{
    validate_tenancy, AdmissionPolicy, ConfigError, MoDMConfig, MoDMConfigBuilder, RunOptions,
    ServingMode,
};
pub use events::{Obs, Observer, SimEvent};
pub use fairqueue::{
    AgingBounds, FairQueue, FairnessCharge, QueueDiscipline, RateLimit, TenancyPolicy, TenantShare,
};
pub use kselect::{k_decision, KDecision, HIT_THRESHOLD};
pub use modm_embedding::IndexPolicy;
pub use monitor::{GlobalMonitor, WindowStats};
pub use node::{EnqueueOutcome, NodeInFlight, ServingNode};
pub use pid::PidController;
pub use report::{
    fold_terminals, FleetViews, Outcome, ServingReport, TenantSlice, Terminal, TerminalKind,
    TerminalLog,
};
pub use scheduler::{route_against_cache, IncomingRequest, RouteKind, RoutedRequest};
