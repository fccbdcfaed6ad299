//! Behaviour tests of the fixed-fleet tier: N MoDM nodes behind one
//! router, each a full deployment in miniature (its own GPU workers,
//! global monitor, hit/miss queues and cache shard), served by
//! [`run_tier`](crate::run_tier) as an elastic fleet that holds.

#[cfg(test)]
mod tests {
    use modm_cluster::GpuKind;
    use modm_core::config::{MoDMConfig, RunOptions};
    use modm_fleet::{Router, RoutingPolicy};
    use modm_workload::{Trace, TraceBuilder};

    use crate::report::ElasticReport;
    use crate::tier::tests::fleet;

    fn node_config(gpus: usize, cache: usize) -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, gpus)
            .cache_capacity(cache)
            .build()
    }

    /// A fleet of `nodes` 4-GPU nodes with 500-entry shards, routed by
    /// `policy`.
    fn run_with(
        policy: RoutingPolicy,
        nodes: usize,
        trace: &Trace,
        options: RunOptions,
    ) -> ElasticReport {
        fleet(
            &node_config(4, 500),
            Router::new(policy, nodes),
            trace,
            options,
        )
    }

    fn run(policy: RoutingPolicy, nodes: usize, trace: &Trace) -> ElasticReport {
        run_with(policy, nodes, trace, RunOptions::default())
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
            let report = run(policy, 4, &trace);
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
        let a = run(RoutingPolicy::CacheAffinity, 4, &trace);
        let b = run(RoutingPolicy::CacheAffinity, 4, &trace);
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
        let report = run(RoutingPolicy::RoundRobin, 4, &trace);
        assert!((report.load_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn least_loaded_balances_under_load() {
        let trace = TraceBuilder::diffusion_db(24)
            .requests(400)
            .rate_per_min(30.0)
            .build();
        let report = run(RoutingPolicy::LeastLoaded, 4, &trace);
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
        let rr = run(RoutingPolicy::RoundRobin, 4, &trace);
        let ca = run(RoutingPolicy::CacheAffinity, 4, &trace);
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
        let ca = fleet(
            &node_config(2, 500),
            Router::new(RoutingPolicy::CacheAffinity, 8),
            &trace,
            RunOptions::default(),
        );
        let hy = fleet(
            &node_config(2, 500),
            Router::new(RoutingPolicy::HybridAffinity, 8),
            &trace,
            RunOptions::default(),
        );
        let rr = fleet(
            &node_config(2, 500),
            Router::new(RoutingPolicy::RoundRobin, 8),
            &trace,
            RunOptions::default(),
        );
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
        let report = run(RoutingPolicy::CacheAffinity, 1, &trace);
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
        let report = run_with(
            RoutingPolicy::CacheAffinity,
            4,
            &trace,
            RunOptions::saturated(60),
        );
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
            let report = run_with(
                policy,
                4,
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
        let report = run(RoutingPolicy::RoundRobin, 4, &trace);
        assert!(
            report
                .nodes
                .iter()
                .all(|n| !n.report.allocation_series.is_empty()),
            "every node's monitor ticked"
        );
    }
}
