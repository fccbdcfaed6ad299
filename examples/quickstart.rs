//! Quickstart: serve a small DiffusionDB-like workload with a single-node
//! MoDM deployment (`Deployment::single`) and print the headline numbers.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use modm::cluster::GpuKind;
use modm::core::MoDMConfig;
use modm::deploy::{Deployment, ServingBackend};
use modm::workload::TraceBuilder;

fn main() {
    // 1. A workload: 500 requests with DiffusionDB-style session locality,
    //    arriving as a Poisson process at 12 requests/minute.
    let trace = TraceBuilder::diffusion_db(42)
        .requests(500)
        .rate_per_min(12.0)
        .build();

    // 2. A MoDM deployment: 16 MI210 GPUs, SD3.5-Large as the quality
    //    model, SDXL -> SANA as the small-model escalation ladder, and a
    //    10k-image FIFO cache (all paper defaults).
    let config = MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 16)
        .cache_capacity(10_000)
        .build();

    // 3. Serve, and read the node's own report.
    let outcome = Deployment::single(config).run(&trace);
    let mut report = outcome.as_single().expect("single tier").clone();

    println!("served            : {} requests", report.completed());
    println!("cache hit rate    : {:.1}%", 100.0 * report.hit_rate());
    println!("mean steps skipped: {:.1} of 50 per hit", report.mean_k());
    println!(
        "throughput        : {:.1} req/min",
        report.requests_per_minute()
    );
    println!(
        "mean / p99 latency: {:.0}s / {:.0}s",
        report.latency.mean_secs(),
        report.p99_secs().unwrap_or(0.0)
    );
    println!(
        "SLO violations    : {:.1}% at 2x large-model latency",
        100.0 * report.slo_violation_rate(2.0)
    );
    println!("mean CLIPScore    : {:.2}", report.quality.mean_clip());
    println!(
        "energy            : {:.1} kJ/request",
        report.energy.joules_per_request(report.completed()) / 1e3
    );
}
