//! Figs 7, 8, 10: normalized maximum throughput and throughput under an
//! increasing request rate (with the SDXL -> SANA small-model switch).

use modm_baselines::{NirvanaSystem, VanillaSystem};
use modm_cluster::GpuKind;
use modm_core::MoDMConfig;
use modm_deploy::{Deployment, ServingBackend};
use modm_diffusion::ModelId;
use modm_workload::{RateSchedule, TraceBuilder};

use crate::common::{banner, db_trace, mjhq_trace, run_fig7_suite};

/// Fig 7: normalized throughput on DiffusionDB and MJHQ (vanilla SD3.5L).
pub fn run_fig7() {
    banner("Fig 7: normalized throughput (Vanilla = SD3.5-Large)");
    for (name, trace) in [("DiffusionDB", db_trace(71)), ("MJHQ", mjhq_trace(72))] {
        println!("\n{name}:");
        let results = run_fig7_suite(&trace, ModelId::Sd35Large);
        let base = results[0].1.requests_per_minute;
        for (label, r) in &results {
            println!(
                "  {:<10} {:>5.2}x  ({:.2} req/min, hit rate {:.2})",
                label,
                r.requests_per_minute / base,
                r.requests_per_minute,
                r.hit_rate,
            );
        }
    }
    println!("\n(paper: DiffusionDB 1.0/1.2/1.8/2.5/3.2; MJHQ 1.0/1.1/1.4/2.1/2.4)");
}

/// Fig 8: normalized throughput on DiffusionDB with FLUX as the large model.
pub fn run_fig8() {
    banner("Fig 8: normalized throughput (Vanilla = FLUX)");
    let trace = db_trace(81);
    let results = run_fig7_suite(&trace, ModelId::Flux);
    let base = results[0].1.requests_per_minute;
    for (label, r) in &results {
        println!(
            "  {:<10} {:>5.2}x  ({:.2} req/min, hit rate {:.2})",
            label,
            r.requests_per_minute / base,
            r.requests_per_minute,
            r.hit_rate,
        );
    }
    println!("\n(paper: 1.0/1.2/2.0/2.4/2.9)");
}

/// Fig 10: throughput under a ramping request rate, 16x MI210.
pub fn run_fig10() {
    banner("Fig 10: throughput under increasing request rate (6 -> 26 req/min)");
    let schedule = RateSchedule::ramp(6.0, 26.0, 2.0, 14.0);
    // ~150 minutes of trace at an average of ~16 req/min.
    let trace = TraceBuilder::diffusion_db(101)
        .requests(2_500)
        .rate_schedule(schedule.clone())
        .build();
    let (gpu, n) = (GpuKind::Mi210, 16);

    let mut vanilla = VanillaSystem::new(ModelId::Sd35Large, gpu, n);
    let v = vanilla.run(&trace);
    let mut nirvana = NirvanaSystem::new(ModelId::Sd35Large, gpu, n, 10_000);
    let ni = nirvana.run(&trace);
    let config = MoDMConfig::builder()
        .gpus(gpu, n)
        .cache_capacity(10_000)
        .build();
    let outcome = Deployment::single(config).run(&trace);
    let modm = outcome.as_single().expect("single tier");

    println!("per-10-minute served throughput (req/min):");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8}  modm small model",
        "t(min)", "demand", "vanilla", "nirvana", "modm"
    );
    let window = 10usize;
    let series_v = v.throughput.per_minute_series();
    let series_n = ni.throughput.per_minute_series();
    let series_m = modm.throughput.per_minute_series();
    let avg = |s: &[f64], w0: usize| -> f64 {
        let hi = (w0 + window).min(s.len());
        if w0 >= s.len() {
            return 0.0;
        }
        s[w0..hi].iter().sum::<f64>() / (hi - w0) as f64
    };
    let len = series_v.len().max(series_n.len()).max(series_m.len());
    let mut w0 = 0;
    while w0 < len {
        let mid_min = (w0 + window / 2) as f64;
        let demand = schedule.rate_at(modm_simkit::SimTime::from_secs_f64(mid_min * 60.0));
        // Which small model was active near this window?
        let small = modm
            .allocation_series
            .iter()
            .take_while(|s| s.at.as_mins_f64() <= mid_min)
            .last()
            .map(|s| s.small_model.to_string())
            .unwrap_or_else(|| "SDXL".to_string());
        println!(
            "{:>8.0} {:>8.1} {:>8.1} {:>8.1} {:>8.1}  {}",
            mid_min,
            demand,
            avg(&series_v, w0),
            avg(&series_n, w0),
            avg(&series_m, w0),
            small,
        );
        w0 += window;
    }
    println!(
        "\nmodel switches: {} (paper: MoDM switches SDXL -> SANA past ~22 req/min)",
        modm.model_switches
    );
}

/// Fig 17: throughput under fluctuating request rates.
pub fn run_fig17() {
    banner("Fig 17: throughput under fluctuating request rates");
    let schedule = RateSchedule::fluctuating(6.0, 22.0, 25.0, 3);
    let trace = TraceBuilder::diffusion_db(171)
        .requests(2_400)
        .rate_schedule(schedule.clone())
        .build();
    let (gpu, n) = (GpuKind::Mi210, 16);
    let mut vanilla = VanillaSystem::new(ModelId::Sd35Large, gpu, n);
    let v = vanilla.run(&trace);
    let mut nirvana = NirvanaSystem::new(ModelId::Sd35Large, gpu, n, 10_000);
    let ni = nirvana.run(&trace);
    let config = MoDMConfig::builder()
        .gpus(gpu, n)
        .cache_capacity(10_000)
        .build();
    let outcome = Deployment::single(config).run(&trace);
    let modm = outcome.as_single().expect("single tier");
    println!("per-10-minute served throughput (req/min):");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8}",
        "t(min)", "demand", "vanilla", "nirvana", "modm"
    );
    let window = 10usize;
    let sv = v.throughput.per_minute_series();
    let sn = ni.throughput.per_minute_series();
    let sm = modm.throughput.per_minute_series();
    let avg = |s: &[f64], w0: usize| -> f64 {
        let hi = (w0 + window).min(s.len());
        if w0 >= s.len() {
            return 0.0;
        }
        s[w0..hi].iter().sum::<f64>() / (hi - w0) as f64
    };
    let len = sv.len().max(sn.len()).max(sm.len());
    let mut w0 = 0;
    while w0 < len {
        let mid_min = (w0 + window / 2) as f64;
        let demand = schedule.rate_at(modm_simkit::SimTime::from_secs_f64(mid_min * 60.0));
        println!(
            "{:>8.0} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            mid_min,
            demand,
            avg(&sv, w0),
            avg(&sn, w0),
            avg(&sm, w0),
        );
        w0 += window;
    }
    println!("\n(paper: MoDM tracks demand through peaks; baselines lag and drain late)");
}
