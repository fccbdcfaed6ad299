//! `modm-fleet` — multi-node sharded MoDM serving.
//!
//! The single-node `modm_core::ServingSystem` reproduces the paper's
//! deployment: one cluster, one monolithic image cache. This crate scales
//! that design out, simulating N serving nodes as one discrete-event
//! system:
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
//!   biased region selection with typed-`Result` region loss/restore,
//!   the primitive under the two-region failover scenarios.
//! * [`Fleet`] — N miniature MoDM deployments (workers, monitor, queues,
//!   shard) interleaved on one virtual clock.
//! * [`FleetReport`] — per-node [`modm_core::ServingReport`]s plus the
//!   fleet-wide latency/SLO/throughput/hit-rate aggregates.
//!
//! # Example
//!
//! ```
//! use modm_fleet::{Fleet, Router, RoutingPolicy};
//! use modm_core::MoDMConfig;
//! use modm_cluster::GpuKind;
//! use modm_workload::TraceBuilder;
//!
//! let trace = TraceBuilder::diffusion_db(42).requests(200).rate_per_min(12.0).build();
//! let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 4).cache_capacity(500).build();
//! let fleet = Fleet::new(node, Router::new(RoutingPolicy::CacheAffinity, 4));
//! let report = fleet.run(&trace);
//! assert_eq!(report.completed(), 200);
//! assert!(report.hit_rate() > 0.0);
//! ```

pub mod affinity;
pub mod fleet;
pub mod geo;
pub mod report;
pub mod ring;
pub mod router;
pub mod shard;

pub use affinity::{LeaderVerdict, SemanticClusterer};
pub use fleet::{Fleet, FleetRunOptions};
pub use geo::{GeoError, GeoRouter};
pub use report::{FleetReport, NodeReport};
pub use ring::{HashRing, RingMembershipError};
pub use router::{Router, RouterConfigError, RoutingConfig, RoutingPolicy};
pub use shard::{HandoffReport, RebalanceReport, ShardSummary, ShardedCache};
