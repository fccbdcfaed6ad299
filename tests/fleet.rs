//! Integration tests for the multi-node fleet: the sharded cache plus
//! routing-policy claims must hold on full serving runs.

use modm::cluster::GpuKind;
use modm::controlplane::{ElasticReport, Fleet};
use modm::core::MoDMConfig;
use modm::fleet::{Router, RoutingPolicy};
use modm::workload::TraceBuilder;

/// Fleet-wide budget: 16 GPUs / 8k cache over 8 nodes.
const NODES: usize = 8;

fn node_config() -> MoDMConfig {
    MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 2)
        .cache_capacity(1_000)
        .build()
}

fn run(policy: RoutingPolicy, seed: u64) -> ElasticReport {
    let trace = TraceBuilder::diffusion_db(seed)
        .requests(1_600)
        .rate_per_min(20.0)
        .build();
    Fleet::new(node_config(), Router::new(policy, NODES)).run(&trace)
}

#[test]
fn cache_affinity_beats_round_robin_at_8_nodes() {
    // The tentpole acceptance claim: on the same DiffusionDB-like trace,
    // consistent-hash semantic routing achieves a strictly higher
    // aggregate cache hit rate than round-robin — across seeds, by a wide
    // margin, not a statistical accident.
    for seed in [1u64, 2, 3] {
        let rr = run(RoutingPolicy::RoundRobin, seed);
        let ca = run(RoutingPolicy::CacheAffinity, seed);
        assert!(
            ca.hit_rate() > rr.hit_rate(),
            "seed {seed}: affinity {} must beat round-robin {}",
            ca.hit_rate(),
            rr.hit_rate()
        );
        assert!(
            ca.hit_rate() > rr.hit_rate() + 0.1,
            "seed {seed}: the margin should be structural, got {} vs {}",
            ca.hit_rate(),
            rr.hit_rate()
        );
    }
}

#[test]
fn fleet_conserves_requests_across_policies() {
    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::CacheAffinity,
    ] {
        let r = run(policy, 4);
        assert_eq!(r.completed, 1_600, "{policy:?}");
        assert_eq!(r.hits + r.misses, 1_600, "{policy:?}");
        let per_node: u64 = r.nodes.iter().map(|n| n.report.completed()).sum();
        assert_eq!(per_node, 1_600, "{policy:?}");
    }
}

#[test]
fn fleet_runs_are_deterministic() {
    let a = run(RoutingPolicy::CacheAffinity, 5);
    let b = run(RoutingPolicy::CacheAffinity, 5);
    assert_eq!(a.hits, b.hits);
    assert!((a.requests_per_minute() - b.requests_per_minute()).abs() < 1e-12);
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.routed, y.routed);
        assert_eq!(x.report.hits, y.report.hits);
        assert_eq!(x.report.k_histogram, y.report.k_histogram);
    }
}

#[test]
fn affinity_hit_rate_tracks_the_monolith() {
    // Sharding with semantic affinity should recover most of the
    // monolithic cache's hit rate (same total GPUs and cache).
    use modm::controlplane::ServingSystem;
    let trace = TraceBuilder::diffusion_db(6)
        .requests(1_600)
        .rate_per_min(20.0)
        .build();
    let mono = ServingSystem::new(
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 16)
            .cache_capacity(8_000)
            .build(),
    )
    .run(&trace);
    let fleet = Fleet::new(
        node_config(),
        Router::new(RoutingPolicy::CacheAffinity, NODES),
    )
    .run(&trace);
    assert!(
        fleet.hit_rate() > 0.75 * mono.hit_rate(),
        "sharded {} vs monolithic {}",
        fleet.hit_rate(),
        mono.hit_rate()
    );
}

#[test]
fn rebalance_after_scale_out_restores_affinity() {
    // The rebalance hook: grow a 4-node fleet's cache layout to 8 nodes
    // and verify entries land where the new affinity map points.
    use modm::cache::CacheConfig;
    use modm::embedding::{SemanticSpace, TextEncoder};
    use modm::fleet::ShardedCache;
    use modm::simkit::{SimRng, SimTime};

    let space = SemanticSpace::default();
    let enc = TextEncoder::new(space.clone());
    let sampler = modm::diffusion::Sampler::new(modm::diffusion::QualityModel::new(space, 1, 6.29));
    let mut rng = SimRng::seed_from(9);

    // Populate 4 shards through a 4-node affinity router.
    let mut cache4 = ShardedCache::new(4, CacheConfig::fifo(200));
    let mut router4 = Router::new(RoutingPolicy::CacheAffinity, 4);
    let prompts: Vec<String> = (0..120)
        .map(|i| format!("scene {} lantern harbor dusk etching {}", i % 30, i % 7))
        .collect();
    for p in &prompts {
        let e = enc.encode(p);
        let shard = router4.route(&e, &[0.0; 4]);
        cache4.shard_mut(shard).insert(
            SimTime::ZERO,
            sampler.generate(modm::diffusion::ModelId::Sd35Large, &e, &mut rng),
        );
    }
    let total_before = cache4.len();

    // Scale out: copy entries into an 8-shard cache, then rebalance onto
    // the 8-node consistent-hash ring. The placement function hashes the
    // embedding deterministically (a pure stand-in for the affinity map,
    // so residency can be re-checked exactly; the online clusterer's
    // leader table is order-sensitive by design).
    let mut cache8 = ShardedCache::new(8, CacheConfig::fifo(200));
    for i in 0..4 {
        for (tenant, img) in cache4.shard_mut(i).drain_images() {
            cache8.shard_mut(i).insert_for(SimTime::ZERO, tenant, img);
        }
    }
    let ring = modm::fleet::HashRing::new(8, 64);
    let place = |e: &modm::embedding::Embedding| ring.node_for(e.as_slice()[0].to_bits());
    let report = cache8.rebalance(SimTime::from_secs_f64(1.0), place);
    assert_eq!(report.total, total_before);
    assert!(report.moved > 0, "scale-out moves entries");

    // Every image now sits exactly where the placement function points.
    for shard in 0..8 {
        for entry in cache8.shard(shard).iter() {
            assert_eq!(
                place(&entry.image.embedding),
                shard,
                "image resident on its assigned shard"
            );
        }
    }
}
