//! Quality study: compare the images MoDM serves against the vanilla large
//! model and a standalone small model — the Table 2 methodology in
//! miniature. MoDM runs as a `Deployment::single`.
//!
//! ```text
//! cargo run --example quality_study --release
//! ```

use modm::baselines::VanillaSystem;
use modm::cluster::GpuKind;
use modm::core::{MoDMConfig, RunOptions};
use modm::deploy::{Deployment, ServingBackend};
use modm::diffusion::{ModelId, QualityModel, Sampler};
use modm::embedding::{SemanticSpace, TextEncoder};
use modm::metrics::{QualityAggregator, QualityRow};
use modm::simkit::SimRng;
use modm::workload::TraceBuilder;

fn main() {
    let trace = TraceBuilder::diffusion_db(11)
        .requests(3_000)
        .rate_per_min(10.0)
        .build();
    let opts = RunOptions::saturated(1_000);
    let (gpu, n) = (GpuKind::Mi210, 16);

    // Ground truth for FID: the large model under an independent seed.
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let gt_sampler = Sampler::new(QualityModel::new(space, 9_001, 6.29));
    let mut rng = SimRng::seed_from(5);
    let mut gt = QualityAggregator::new();
    for req in trace.iter().skip(1_000) {
        let emb = text.encode(&req.prompt);
        gt.record(
            &emb,
            &gt_sampler.generate_for(ModelId::Sd35Large, &emb, req.id, &mut rng),
        );
    }

    let mut rows: Vec<QualityRow> = Vec::new();
    let mut vanilla = VanillaSystem::new(ModelId::Sd35Large, gpu, n);
    rows.push(
        vanilla
            .run_with(&trace, opts)
            .quality
            .row("Vanilla (SD3.5L)", &gt),
    );
    let mut sana = VanillaSystem::new(ModelId::Sana, gpu, n);
    rows.push(sana.run_with(&trace, opts).quality.row("SANA alone", &gt));
    let config = MoDMConfig::builder()
        .gpus(gpu, n)
        .small_model(ModelId::Sana)
        .cache_capacity(10_000)
        .build();
    let modm = Deployment::single(config).run_with(&trace, opts);
    let modm = modm.as_single().expect("single tier");
    rows.push(modm.quality.row("MoDM-SANA", &gt));

    println!("{}", QualityRow::header());
    for row in &rows {
        println!("{}", row.formatted());
    }
    println!("\nMoDM's FID sits between the large model's and the small model's:");
    println!("cache hits start from a large-model image, so the small model only");
    println!("refines — it does not have to invent the whole image.");
}
