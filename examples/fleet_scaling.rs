//! Fleet scaling: serve one DiffusionDB-like workload with an 8-node
//! sharded MoDM fleet under each routing policy and compare hit rates.
//!
//! ```text
//! cargo run --example fleet_scaling --release
//! ```

use modm::cluster::GpuKind;
use modm::controlplane::Fleet;
use modm::core::MoDMConfig;
use modm::fleet::{Router, RoutingPolicy};
use modm::workload::TraceBuilder;

fn main() {
    // 1. A workload with DiffusionDB-style session locality.
    let trace = TraceBuilder::diffusion_db(42)
        .requests(1_600)
        .rate_per_min(20.0)
        .build();

    // 2. A fixed fleet budget — 16 MI210 GPUs, 8k cache images — split
    //    over 8 nodes (2 GPUs and 1k cache entries each).
    let node = MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 2)
        .cache_capacity(1_000)
        .build();

    println!(
        "{:<15} {:>7} {:>9} {:>9} {:>9}",
        "policy", "hit", "req/min", "p99 (s)", "max/mean"
    );
    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::CacheAffinity,
    ] {
        let fleet = Fleet::new(node.clone(), Router::new(policy, 8));
        let mut report = fleet.run(&trace);
        println!(
            "{:<15} {:>7.3} {:>9.2} {:>9.0} {:>9.2}",
            policy.name(),
            report.hit_rate(),
            report.requests_per_minute(),
            report.latency.p99_secs().unwrap_or(0.0),
            report.load_imbalance()
        );
    }
    println!();
    println!("cache-affinity keeps sessions on the shard that holds their images;");
    println!("round-robin dilutes every session over all 8 shards.");
}
