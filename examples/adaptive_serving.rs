//! Adaptive serving under a load ramp — the Fig 10 scenario as an
//! application.
//!
//! Demand climbs from 6 to 26 requests/minute. Watch the global monitor
//! shift GPUs from the large model to the small one, then escalate the
//! small model from SDXL to SANA when even SDXL cannot keep up. The node
//! runs as a `Deployment::single`, and the monitor's allocation series is
//! read from the node's own report.
//!
//! ```text
//! cargo run --example adaptive_serving --release
//! ```

use modm::cluster::GpuKind;
use modm::core::MoDMConfig;
use modm::deploy::{Deployment, ServingBackend};
use modm::workload::{RateSchedule, TraceBuilder};

fn main() {
    let schedule = RateSchedule::ramp(6.0, 26.0, 2.0, 12.0);
    let trace = TraceBuilder::diffusion_db(7)
        .requests(2_000)
        .rate_schedule(schedule.clone())
        .build();

    let config = MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 16)
        .cache_capacity(10_000)
        .build();
    let outcome = Deployment::single(config).run(&trace);
    let report = outcome.as_single().expect("single tier");

    println!("allocation decisions over time:");
    println!(
        "{:>8} {:>8} {:>8} {:>8}  small model",
        "t(min)", "demand", "large", "small"
    );
    for sample in report
        .allocation_series
        .iter()
        .step_by(report.allocation_series.len().max(12) / 12)
    {
        let t = sample.at;
        println!(
            "{:>8.0} {:>8.1} {:>8} {:>8}  {}",
            t.as_mins_f64(),
            schedule.rate_at(t),
            sample.num_large,
            16 - sample.num_large,
            sample.small_model,
        );
    }
    println!(
        "\nmodel switches: {}; served {} requests at {:.1} req/min overall",
        report.model_switches,
        report.completed(),
        report.requests_per_minute()
    );
    println!(
        "SLO (2x) violation rate under the ramp: {:.1}%",
        100.0 * report.slo_violation_rate(2.0)
    );
}
