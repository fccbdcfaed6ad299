//! Fig 18 (appendix A.4): energy savings relative to the vanilla system.
//!
//! All systems serve the same timed workload (8 req/min — within everyone's
//! capacity) on 16x MI210; energy is busy power + idle power over the run,
//! Zeus-style. Savings come from (1) skipping denoising steps and (2)
//! running refinements on lower-power small models.

use modm_baselines::{NirvanaSystem, VanillaSystem};
use modm_controlplane::ServingSystem;
use modm_core::MoDMConfig;
use modm_diffusion::ModelId;
use modm_workload::TraceBuilder;

use crate::common::{banner, CACHE, CLUSTER};

/// Runs the Fig 18 reproduction.
pub fn run() {
    banner("Fig 18: energy savings vs Vanilla (DiffusionDB, 16x MI210)");
    let trace = TraceBuilder::diffusion_db(181)
        .requests(2_400)
        .rate_per_min(8.0)
        .build();
    let (gpu, n) = CLUSTER;

    let mut vanilla = VanillaSystem::new(ModelId::Sd35Large, gpu, n);
    let v = vanilla.run(&trace);
    let base = v.energy.joules_per_request(v.completed());
    println!("{:<12} {:>14} {:>9}", "system", "kJ/request", "savings");
    println!("{:<12} {:>14.1} {:>8.1}%", "Vanilla", base / 1e3, 0.0);

    let mut nirvana = NirvanaSystem::new(ModelId::Sd35Large, gpu, n, CACHE);
    let ni = nirvana.run(&trace);
    let jn = ni.energy.joules_per_request(ni.completed());
    println!(
        "{:<12} {:>14.1} {:>8.1}%",
        "NIRVANA",
        jn / 1e3,
        100.0 * (1.0 - jn / base)
    );

    for small in [ModelId::Sdxl, ModelId::Sana] {
        let label = format!(
            "MoDM-{}",
            if small == ModelId::Sdxl {
                "SDXL"
            } else {
                "SANA"
            }
        );
        let r = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(gpu, n)
                .small_model(small)
                .cache_capacity(CACHE)
                .build(),
        )
        .run(&trace);
        let j = r.energy.joules_per_request(r.completed());
        println!(
            "{:<12} {:>14.1} {:>8.1}%",
            label,
            j / 1e3,
            100.0 * (1.0 - j / base)
        );
    }
    println!("\n(paper: NIRVANA 23.9%, MoDM-SDXL 46.7%, MoDM-SANA 66.3%)");
}
