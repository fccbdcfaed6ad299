//! Ablations of MoDM's design choices beyond the paper's figures:
//!
//! * **Cache maintenance** (§5.4): the paper argues FIFO beats utility-based
//!   maintenance under temporal locality — measured here head-to-head.
//! * **Serving mode** (§5.3): quality-optimized vs throughput-optimized
//!   allocation at moderate load.

use modm_cache::MaintenancePolicy;
use modm_controlplane::ServingSystem;
use modm_core::{MoDMConfig, ServingMode};
use modm_workload::TraceBuilder;

use crate::common::{banner, db_trace, saturated, CACHE, CLUSTER};

/// Cache-maintenance ablation: FIFO vs LRU vs utility vs S3-FIFO eviction.
pub fn run_maintenance() {
    banner("Ablation: cache maintenance policy (paper section 5.4)");
    let trace = db_trace(301);
    let (gpu, n) = CLUSTER;
    println!(
        "{:<10} {:>9} {:>7} {:>8}",
        "policy", "req/min", "hit", "mean k"
    );
    for policy in [
        MaintenancePolicy::Fifo,
        MaintenancePolicy::Lru,
        MaintenancePolicy::Utility,
        MaintenancePolicy::S3Fifo,
    ] {
        // Small cache so eviction pressure is real.
        let r = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(gpu, n)
                .cache_capacity(1_500)
                .cache_policy(policy)
                .build(),
        )
        .run_with(&trace, saturated());
        println!(
            "{:<10} {:>9.2} {:>7.3} {:>8.1}",
            format!("{policy:?}"),
            r.requests_per_minute(),
            r.hit_rate(),
            r.mean_k()
        );
    }
    println!("\n(paper: the FIFO sliding window suffices — temporal locality means");
    println!(" recency is the utility signal; utility caches also bias reuse)");
}

/// Serving-mode ablation: quality-optimized vs throughput-optimized.
pub fn run_modes() {
    banner("Ablation: quality-optimized vs throughput-optimized mode (section 5.3)");
    let (gpu, n) = CLUSTER;
    println!(
        "{:<22} {:>6} {:>9} {:>8} {:>7} {:>9}",
        "mode", "rate", "served/m", "SLO(2x)", "CLIP", "avg large"
    );
    for rate in [6.0, 9.0] {
        let trace = TraceBuilder::diffusion_db(302)
            .requests(1_800)
            .rate_per_min(rate)
            .build();
        for mode in [
            ServingMode::QualityOptimized,
            ServingMode::ThroughputOptimized,
        ] {
            let r = ServingSystem::new(
                MoDMConfig::builder()
                    .gpus(gpu, n)
                    .cache_capacity(CACHE)
                    .mode(mode)
                    .build(),
            )
            .run(&trace);
            let avg_large = if r.allocation_series.is_empty() {
                n as f64
            } else {
                r.allocation_series
                    .iter()
                    .map(|s| s.num_large as f64)
                    .sum::<f64>()
                    / r.allocation_series.len() as f64
            };
            println!(
                "{:<22} {:>6.0} {:>9.2} {:>8.2} {:>7.2} {:>9.1}",
                format!("{mode:?}"),
                rate,
                r.requests_per_minute(),
                r.slo_violation_rate(2.0),
                r.quality.mean_clip(),
                avg_large
            );
        }
    }
    println!("\n(quality mode keeps more large workers while the rate allows it,");
    println!(" trading headroom for refinement quality — the paper's Q.9 answer)");
}
