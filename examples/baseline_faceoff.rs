//! Baseline face-off: the Fig 7 comparison as a runnable application.
//!
//! Runs Vanilla, Nirvana, Pinecone and both MoDM variants on the same
//! saturated DiffusionDB-like workload and prints throughput, quality and
//! energy side by side.
//!
//! ```text
//! cargo run --example baseline_faceoff --release
//! ```

use modm::baselines::{NirvanaSystem, PineconeSystem, VanillaSystem};
use modm::cluster::GpuKind;
use modm::controlplane::ServingSystem;
use modm::core::report::ServingReport;
use modm::core::{MoDMConfig, RunOptions};
use modm::diffusion::ModelId;
use modm::workload::TraceBuilder;

fn main() {
    let trace = TraceBuilder::diffusion_db(17)
        .requests(4_000)
        .rate_per_min(10.0)
        .build();
    let opts = RunOptions::saturated(1_500);
    let (gpu, n) = (GpuKind::Mi210, 16);
    let cache = 10_000;

    let mut results: Vec<(&str, ServingReport)> = Vec::new();
    results.push((
        "Vanilla",
        VanillaSystem::new(ModelId::Sd35Large, gpu, n).run_with(&trace, opts),
    ));
    results.push((
        "Nirvana",
        NirvanaSystem::new(ModelId::Sd35Large, gpu, n, cache).run_with(&trace, opts),
    ));
    results.push((
        "Pinecone",
        PineconeSystem::new(ModelId::Sd35Large, gpu, n, cache).run_with(&trace, opts),
    ));
    for (label, small) in [("MoDM-SDXL", ModelId::Sdxl), ("MoDM-SANA", ModelId::Sana)] {
        let r = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(gpu, n)
                .small_model(small)
                .cache_capacity(cache)
                .build(),
        )
        .run_with(&trace, opts);
        results.push((label, r));
    }

    let base_rpm = results[0].1.requests_per_minute();
    let base_j = results[0]
        .1
        .energy
        .joules_per_request(results[0].1.completed());
    println!(
        "{:<10} {:>9} {:>7} {:>6} {:>7} {:>9}",
        "system", "req/min", "norm", "hit", "CLIP", "energy"
    );
    for (label, r) in &results {
        println!(
            "{:<10} {:>9.2} {:>6.2}x {:>6.2} {:>7.2} {:>8.0}%",
            label,
            r.requests_per_minute(),
            r.requests_per_minute() / base_rpm,
            r.hit_rate(),
            r.quality.mean_clip(),
            100.0 * r.energy.joules_per_request(r.completed()) / base_j,
        );
    }
}
