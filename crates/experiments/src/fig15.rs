//! Fig 15 (appendix A.1): distribution of time between a cache hit and the
//! generation of its retrieved image — the temporal-locality evidence for
//! FIFO maintenance.

use modm_controlplane::ServingSystem;
use modm_core::MoDMConfig;
use modm_simkit::Histogram;
use modm_workload::TraceBuilder;

use crate::common::{banner, CLUSTER};

/// Runs the Fig 15 reproduction.
pub fn run() {
    banner("Fig 15: age of retrieved cache entries (temporal locality)");
    // A long timed run at 10 req/min (~13 hours of virtual time).
    let trace = TraceBuilder::diffusion_db(151)
        .requests(8_000)
        .rate_per_min(10.0)
        .build();
    let (gpu, n) = CLUSTER;
    let report = ServingSystem::new(
        MoDMConfig::builder()
            .gpus(gpu, n)
            .cache_capacity(100_000) // no eviction: measure raw locality
            .build(),
    )
    .run(&trace);

    let ages = report.cache_stats.hit_ages_secs();
    let four_hours = 4.0 * 3600.0;
    let young = report.cache_stats.fraction_of_hits_younger_than(four_hours);
    println!("hits: {}", ages.len());
    println!("fraction of hits retrieving images cached within 4 h: {young:.3}");
    println!("(paper: > 0.90)");

    let mut hist = Histogram::new(0.0, 10.0, 20);
    for &a in ages {
        hist.record(a / 3600.0);
    }
    println!("\nfraction of cache hits by age (hours):");
    for (mid, f) in hist.iter_normalized() {
        if f > 0.001 {
            println!("  {mid:>4.2} h: {f:.3}");
        }
    }
}
