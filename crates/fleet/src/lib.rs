//! `modm-fleet` — routing and sharding for multi-node MoDM serving.
//!
//! The paper's deployment is one cluster with one monolithic image
//! cache. This crate holds the pieces that spread it over N serving
//! nodes; the event loop that drives them lives in `modm-controlplane`,
//! whose `ServingSystem`, `Fleet` and `ElasticFleet` entry points all run
//! one engine over these types:
//!
//! * [`Router`] — the front-end, with pluggable [`RoutingPolicy`]s:
//!   round-robin, least-loaded, and *cache-affinity* (consistent-hash of
//!   the prompt embedding's coarse semantic cluster, so similar prompts
//!   land on the shard that holds their session's images).
//! * [`SemanticClusterer`] / [`HashRing`] — the affinity machinery: online
//!   leader clustering of prompt embeddings feeding a virtual-node
//!   consistent-hash ring.
//! * [`ShardedCache`] — the image cache partitioned one shard per node,
//!   with per-shard statistics and a [`ShardedCache::rebalance`] hook for
//!   node-count changes.
//! * [`GeoRouter`] — one level above the per-region router: latency-
//!   biased region selection with typed-`Result` region loss,
//!   the primitive under the two-region failover scenarios.
//!
//! What a run measured, per node and fleet-wide, is the serving
//! engine's report (`modm_controlplane::ElasticReport`).
//!
//! # Example
//!
//! ```
//! use modm_cache::CacheConfig;
//! use modm_embedding::{SemanticSpace, TextEncoder};
//! use modm_fleet::{Router, RoutingPolicy, ShardedCache};
//!
//! let encoder = TextEncoder::new(SemanticSpace::default());
//! let mut router = Router::new(RoutingPolicy::CacheAffinity, 4);
//! let cache = ShardedCache::new(router.nodes(), CacheConfig::fifo(100));
//! let prompt = encoder.encode("a lighthouse in a storm, oil painting");
//! let node = router.route(&prompt, &[]);
//! assert_eq!(router.route(&prompt, &[]), node, "affinity is stable per prompt");
//! assert!(cache.shard(node).is_empty());
//! ```

pub mod affinity;
pub mod geo;
pub mod ring;
pub mod router;
pub mod shard;

pub use affinity::{LeaderVerdict, SemanticClusterer};
pub use geo::{GeoError, GeoRouter};
pub use ring::{HashRing, RingMembershipError};
pub use router::{Router, RouterConfigError, RoutingConfig, RoutingPolicy};
pub use shard::{HandoffReport, RebalanceReport, ShardSummary, ShardedCache};
