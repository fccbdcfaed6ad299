//! Fig 11: throughput scalability with GPU count (super-linear).
//!
//! The paper's super-linearity comes from the cache feedback loop: more
//! GPUs complete more requests per unit time, so the cache fills faster and
//! the hit rate at any given arrival is higher. To expose that effect the
//! system is driven open-loop at a fixed high arrival rate (as in the
//! paper's cluster runs), not closed-loop.

use modm_cluster::GpuKind;
use modm_controlplane::ServingSystem;
use modm_core::MoDMConfig;
use modm_workload::TraceBuilder;

use crate::common::banner;

/// Runs the Fig 11 reproduction.
pub fn run() {
    banner("Fig 11: scalability with the number of MI210 GPUs");
    // Fixed-duration open-loop load, heavy enough to saturate even 32 GPUs.
    let trace = TraceBuilder::diffusion_db(111)
        .requests(4_500)
        .rate_per_min(45.0)
        .build();
    let mut base_rpm = None;
    println!(
        "{:>6} {:>10} {:>10} {:>8}",
        "GPUs", "req/min", "norm", "hit"
    );
    for n in [4usize, 8, 12, 16, 20, 24, 28, 32] {
        let system = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, n)
                .cache_capacity(10_000)
                .build(),
        );
        let report = system.run(&trace);
        // Measure sustained completion rate over the first 80 minutes of
        // virtual time so slow configs (deep backlogs) do not skew the span.
        let series = report.throughput.per_minute_series();
        let horizon = series.len().min(80);
        let rpm = series[..horizon].iter().sum::<f64>() / horizon.max(1) as f64;
        let base = *base_rpm.get_or_insert(rpm);
        println!(
            "{:>6} {:>10.2} {:>9.2}x {:>8.2}",
            n,
            rpm,
            rpm / base * 1.0,
            report.hit_rate()
        );
    }
    println!("\n(paper: 1.0 / 2.3 / 3.3 / 4.2 / 5.7 / 7.2 / 8.1 / 9.3 — super-linear,");
    println!(" because faster processing fills the cache faster and lifts hit rate)");
}
