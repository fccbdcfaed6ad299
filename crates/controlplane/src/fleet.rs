//! The fixed fleet: N MoDM serving nodes behind one router.
//!
//! Each node is a full MoDM deployment in miniature — its own GPU workers,
//! global monitor, hit/miss queues and cache shard — while arrivals,
//! routing and completions interleave on one shared virtual clock. A
//! fixed fleet runs the serving engine as an elastic fleet that holds: a
//! [`HoldAutoscaler`], no faults, and `min = initial = max =
//! router.nodes()`, so fleet runs remain exactly deterministic under a
//! fixed seed. The single-node tier is a fleet of one
//! ([`crate::ServingSystem`]).

use modm_core::config::{MoDMConfig, RunOptions};
use modm_core::events::Observer;
use modm_fleet::Router;
use modm_workload::Trace;

use crate::autoscaler::HoldAutoscaler;
use crate::client::Clients;
use crate::elastic::ElasticFleetConfig;
use crate::engine::ElasticRun;
use crate::fault::FaultInjector;
use crate::report::ElasticReport;

/// RNG salt of fleet runs ("FLTR").
const FLEET_SALT: u64 = 0x464C_5452;

/// A simulated fleet of MoDM nodes behind a request router.
///
/// Every node runs `node_config` (so a `Fleet` over `router.nodes()` nodes
/// deploys `nodes * node_config.num_gpus` GPUs and shards
/// `nodes * node_config.cache_capacity` cache entries). Each
/// [`Fleet::run`] builds fresh state, so runs are independent and
/// deterministic.
///
/// # Example
///
/// ```
/// use modm_controlplane::Fleet;
/// use modm_fleet::{Router, RoutingPolicy};
/// use modm_core::MoDMConfig;
/// use modm_cluster::GpuKind;
/// use modm_workload::TraceBuilder;
///
/// let trace = TraceBuilder::diffusion_db(7).requests(120).rate_per_min(12.0).build();
/// let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 4).cache_capacity(500).build();
/// let fleet = Fleet::new(node, Router::new(RoutingPolicy::CacheAffinity, 4));
/// let report = fleet.run(&trace);
/// assert_eq!(report.completed, 120);
/// assert_eq!(report.nodes.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The static control plane: `min = initial = max = router.nodes()`.
    config: ElasticFleetConfig,
    router: Router,
}

impl Fleet {
    /// Creates a fleet where every one of `router.nodes()` nodes runs
    /// `node_config`.
    pub fn new(node_config: MoDMConfig, router: Router) -> Self {
        let nodes = router.nodes();
        let config = ElasticFleetConfig {
            policy: router.policy(),
            ..ElasticFleetConfig::new(node_config, nodes, nodes, nodes)
        };
        Fleet { config, router }
    }

    /// The per-node configuration.
    pub fn node_config(&self) -> &MoDMConfig {
        &self.config.node_config
    }

    /// The router template runs start from.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.router.nodes()
    }

    /// Total GPUs across the fleet.
    pub fn total_gpus(&self) -> usize {
        self.nodes() * self.config.node_config.num_gpus
    }

    /// Serves the trace with default options.
    pub fn run(&self, trace: &Trace) -> ElasticReport {
        self.run_with(trace, RunOptions::default())
    }

    /// Serves the trace with explicit options, unobserved.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub fn run_with(&self, trace: &Trace, options: RunOptions) -> ElasticReport {
        self.run_observed(trace, options, None)
    }

    /// Serves the trace while streaming every
    /// [`SimEvent`](modm_core::events::SimEvent) — admissions, per-shard
    /// cache decisions, dispatches and completions, tagged with the node
    /// that produced them — to `observer`, if one is attached.
    /// Observation never perturbs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub fn run_observed(
        &self,
        trace: &Trace,
        options: RunOptions,
        observer: Option<&mut dyn Observer>,
    ) -> ElasticReport {
        self.serve(trace, options, FLEET_SALT, observer)
    }

    /// Runs the engine over this fleet with its RNG salted by `salt`:
    /// each entry point keeps its own, so its results stay seed-for-seed
    /// stable.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub(crate) fn serve(
        &self,
        trace: &Trace,
        options: RunOptions,
        salt: u64,
        obs: Option<&mut dyn Observer>,
    ) -> ElasticReport {
        assert!(
            options.warmup < trace.len(),
            "warmup consumes the whole trace"
        );
        let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
        let clients = if options.saturate {
            Clients::Saturated { next: 0 }
        } else {
            Clients::open_loop()
        };
        ElasticRun::one_region(
            &self.config,
            self.router.clone(),
            trace,
            options.warmup,
            clients,
            salt,
            &mut scaler,
            &faults,
            obs,
        )
        .execute()
        .into_elastic_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_cluster::GpuKind;
    use modm_fleet::RoutingPolicy;
    use modm_workload::TraceBuilder;

    fn node_config(gpus: usize, cache: usize) -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, gpus)
            .cache_capacity(cache)
            .build()
    }

    fn fleet(policy: RoutingPolicy, nodes: usize) -> Fleet {
        Fleet::new(node_config(4, 500), Router::new(policy, nodes))
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let trace = TraceBuilder::diffusion_db(21)
            .requests(200)
            .rate_per_min(12.0)
            .build();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::CacheAffinity,
            RoutingPolicy::HybridAffinity,
        ] {
            let report = fleet(policy, 4).run(&trace);
            assert_eq!(report.completed, 200, "{policy:?}");
            assert_eq!(report.hits + report.misses, 200, "{policy:?}");
            let per_node: u64 = report.nodes.iter().map(|n| n.report.completed()).sum();
            assert_eq!(per_node, 200, "{policy:?} node accounting");
            // Node and fleet views fold one terminal log: the nodes'
            // samples together are the fleet's, and their tenant slices
            // complete what the fleet's do.
            let sorted_bits = |samples: Vec<f64>| {
                let mut bits: Vec<u64> = samples.iter().map(|s| s.to_bits()).collect();
                bits.sort_unstable();
                bits
            };
            let nodes = report.nodes.iter().map(|n| &n.report);
            let node_samples = nodes.clone().flat_map(|r| r.latency.samples_secs());
            assert_eq!(
                sorted_bits(node_samples.copied().collect()),
                sorted_bits(report.latency.samples_secs().to_vec()),
                "{policy:?} node latencies"
            );
            for fleet_slice in &report.tenant_slices {
                let node_slices = nodes.clone().flat_map(|r| &r.tenant_slices);
                let completed: u64 = node_slices
                    .filter(|s| s.tenant == fleet_slice.tenant)
                    .map(|s| s.completed)
                    .sum();
                assert_eq!(
                    completed, fleet_slice.completed,
                    "{policy:?} tenant accounting"
                );
            }
            let routed: u64 = report.nodes.iter().map(|n| n.routed).sum();
            assert_eq!(routed, 200, "{policy:?} router accounting");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let trace = TraceBuilder::diffusion_db(22)
            .requests(150)
            .rate_per_min(12.0)
            .build();
        let a = fleet(RoutingPolicy::CacheAffinity, 4).run(&trace);
        let b = fleet(RoutingPolicy::CacheAffinity, 4).run(&trace);
        assert_eq!(a.hits, b.hits);
        assert!((a.requests_per_minute() - b.requests_per_minute()).abs() < 1e-12);
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.routed, y.routed);
            assert_eq!(x.report.hits, y.report.hits);
        }
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let trace = TraceBuilder::diffusion_db(23)
            .requests(400)
            .rate_per_min(20.0)
            .build();
        let report = fleet(RoutingPolicy::RoundRobin, 4).run(&trace);
        assert!((report.load_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn least_loaded_balances_under_load() {
        let trace = TraceBuilder::diffusion_db(24)
            .requests(400)
            .rate_per_min(30.0)
            .build();
        let report = fleet(RoutingPolicy::LeastLoaded, 4).run(&trace);
        // Backlog-aware routing cannot be wildly imbalanced on a
        // homogeneous fleet.
        assert!(report.load_imbalance() < 1.5, "{}", report.load_imbalance());
    }

    #[test]
    fn affinity_beats_round_robin_hit_rate() {
        // The tentpole property, at small scale (the scaling study and the
        // integration test cover 8 nodes).
        let trace = TraceBuilder::diffusion_db(25)
            .requests(600)
            .rate_per_min(20.0)
            .build();
        let rr = fleet(RoutingPolicy::RoundRobin, 4).run(&trace);
        let ca = fleet(RoutingPolicy::CacheAffinity, 4).run(&trace);
        assert!(
            ca.hit_rate() > rr.hit_rate(),
            "affinity {} vs round-robin {}",
            ca.hit_rate(),
            rr.hit_rate()
        );
    }

    #[test]
    fn hybrid_affinity_keeps_affinity_hit_rate_with_less_skew() {
        // The ROADMAP item: at high node counts CacheAffinity trades hit
        // rate for load skew; the hybrid policy spills the primary shard's
        // overflow to its ring successor, cutting max/mean while keeping
        // most of the locality win.
        let trace = TraceBuilder::diffusion_db(31)
            .requests(1_200)
            .rate_per_min(40.0)
            .build();
        let ca = Fleet::new(
            node_config(2, 500),
            Router::new(RoutingPolicy::CacheAffinity, 8),
        )
        .run(&trace);
        let hy = Fleet::new(
            node_config(2, 500),
            Router::new(RoutingPolicy::HybridAffinity, 8),
        )
        .run(&trace);
        let rr = Fleet::new(
            node_config(2, 500),
            Router::new(RoutingPolicy::RoundRobin, 8),
        )
        .run(&trace);
        assert!(
            hy.load_imbalance() < ca.load_imbalance(),
            "hybrid skew {} must beat pure affinity {}",
            hy.load_imbalance(),
            ca.load_imbalance()
        );
        assert!(
            hy.hit_rate() > rr.hit_rate(),
            "hybrid keeps the locality win: {} vs round-robin {}",
            hy.hit_rate(),
            rr.hit_rate()
        );
    }

    #[test]
    fn single_node_fleet_matches_monolith_semantics() {
        // One node, any policy: everything routes to node 0 and the fleet
        // degenerates to a single MoDM system over the same shard size.
        let trace = TraceBuilder::diffusion_db(26)
            .requests(150)
            .rate_per_min(10.0)
            .build();
        let report = fleet(RoutingPolicy::CacheAffinity, 1).run(&trace);
        assert_eq!(report.completed, 150);
        assert_eq!(report.nodes.len(), 1);
        assert_eq!(report.nodes[0].routed, 150);
        assert!(report.hit_rate() > 0.0);
    }

    #[test]
    fn warmup_excluded_and_saturation_compresses_time() {
        let trace = TraceBuilder::diffusion_db(27)
            .requests(260)
            .rate_per_min(2.0)
            .build();
        let report =
            fleet(RoutingPolicy::CacheAffinity, 4).run_with(&trace, RunOptions::saturated(60));
        assert_eq!(report.completed, 200);
        // At 2 req/min the timed run would take 100 minutes; saturation
        // finishes far faster.
        assert!(report.finished_at.as_mins_f64() < 60.0);
    }

    #[test]
    fn warmup_not_counted_in_routing_metrics() {
        let trace = TraceBuilder::diffusion_db(29)
            .requests(260)
            .rate_per_min(10.0)
            .build();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::CacheAffinity,
        ] {
            let report = fleet(policy, 4).run_with(
                &trace,
                RunOptions {
                    warmup: 60,
                    saturate: false,
                },
            );
            assert_eq!(report.completed, 200, "{policy:?}");
            let routed: u64 = report.nodes.iter().map(|n| n.routed).sum();
            assert_eq!(routed, 200, "{policy:?}: warmup leaked into routed counts");
        }
    }

    #[test]
    fn monitors_run_per_node() {
        let trace = TraceBuilder::diffusion_db(28)
            .requests(400)
            .rate_per_min(24.0)
            .build();
        let report = fleet(RoutingPolicy::RoundRobin, 4).run(&trace);
        assert!(
            report
                .nodes
                .iter()
                .all(|n| !n.report.allocation_series.is_empty()),
            "every node's monitor ticked"
        );
    }
}
