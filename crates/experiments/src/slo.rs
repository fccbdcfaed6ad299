//! Figs 12, 13 and 16: SLO violation rates (2x and 4x) and P99 tail latency
//! across request rates, on 4x A40 and 16x MI210.

use modm_baselines::{NirvanaSystem, VanillaSystem};
use modm_cluster::GpuKind;
use modm_core::report::ServingReport;
use modm_core::MoDMConfig;
use modm_deploy::{Deployment, ServingBackend};
use modm_diffusion::ModelId;
use modm_workload::TraceBuilder;

use crate::common::banner;

struct Sweep {
    gpu: GpuKind,
    n: usize,
    rates: Vec<f64>,
    label: &'static str,
}

fn sweeps() -> Vec<Sweep> {
    vec![
        Sweep {
            gpu: GpuKind::A40,
            n: 4,
            rates: vec![4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            label: "4x NVIDIA A40",
        },
        Sweep {
            gpu: GpuKind::Mi210,
            n: 16,
            rates: vec![6.0, 10.0, 14.0, 18.0, 22.0, 26.0],
            label: "16x AMD MI210",
        },
    ]
}

fn run_all(gpu: GpuKind, n: usize, rate: f64, seed: u64) -> [ServingReport; 3] {
    // Enough requests that queues reach steady state at every rate.
    let requests = ((rate * 45.0) as usize).max(400);
    let trace = TraceBuilder::diffusion_db(seed)
        .requests(requests)
        .rate_per_min(rate)
        .build();
    let mut vanilla = VanillaSystem::new(ModelId::Sd35Large, gpu, n);
    let mut nirvana = NirvanaSystem::new(ModelId::Sd35Large, gpu, n, 10_000);
    let config = MoDMConfig::builder()
        .gpus(gpu, n)
        .cache_capacity(10_000)
        .build();
    let modm = Deployment::single(config).run(&trace);
    let modm = modm.as_single().expect("single tier").clone();
    [vanilla.run(&trace), nirvana.run(&trace), modm]
}

fn print_sweep(multiple: Option<f64>) {
    for sweep in sweeps() {
        println!("\n{}:", sweep.label);
        println!(
            "{:>8} {:>10} {:>10} {:>10}",
            "rate", "vanilla", "nirvana", "modm"
        );
        for &rate in &sweep.rates {
            let mut reports = run_all(sweep.gpu, sweep.n, rate, 120 + rate as u64);
            let cells: Vec<String> = reports
                .iter_mut()
                .map(|r| match multiple {
                    Some(m) => format!("{:.2}", r.slo_violation_rate(m)),
                    None => format!("{:.0}s", r.p99_secs().unwrap_or(0.0)),
                })
                .collect();
            println!(
                "{:>8.0} {:>10} {:>10} {:>10}",
                rate, cells[0], cells[1], cells[2]
            );
        }
    }
}

/// Fig 12: SLO violation rate at 2x the large-model latency.
pub fn run_fig12() {
    banner("Fig 12: SLO violation rate (>2x SD3.5-Large latency)");
    print_sweep(Some(2.0));
    println!("\n(paper: MoDM complies up to ~10/min on A40s and ~22/min on MI210s)");
}

/// Fig 13: SLO violation rate at 4x the large-model latency.
pub fn run_fig13() {
    banner("Fig 13: SLO violation rate (>4x SD3.5-Large latency)");
    print_sweep(Some(4.0));
    println!("\n(paper: MoDM sustains up to ~26/min on MI210s at the 4x threshold)");
}

/// Fig 16: P99 tail latency across request rates.
pub fn run_fig16() {
    banner("Fig 16: P99 tail latency (seconds)");
    print_sweep(None);
    println!("\n(paper: vanilla/Nirvana exceed 1000s past their knees; MoDM stays low)");
}
