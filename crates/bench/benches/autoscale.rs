//! Elastic control-plane simulation speed and the `BENCH_autoscale.json`
//! trajectory point.
//!
//! Times one diurnal-trace elastic run per scaling policy (static,
//! reactive, predictive) and records both the wall-clock cost of the
//! simulation and the control-plane outcomes (SLO attainment, GPU-hours,
//! hit rate, scale actions), so the repo's performance trajectory tracks
//! the control-plane subsystem over time. Node shape, trace and scaler
//! tuning come from `modm_experiments::elastic`, the same setup the
//! `elastic` experiment reports and `tests/elastic.rs` pins — when the
//! study is retuned, this trajectory point follows automatically.
//!
//! Each policy's wall time is the median of `runs_k` timed samples (each
//! the mean of several back-to-back runs), recorded with the fastest and
//! slowest sample so the spread travels with the point.
//!
//! Pass `--smoke` (CI does) for a down-scaled run that still exercises the
//! full pipeline and writes the JSON.

use modm_bench::{write_json, Bench};
use modm_controlplane::{Autoscaler, FleetEventKind, HoldAutoscaler};
use modm_deploy::{Deployment, ServingBackend};
use modm_experiments::elastic::{deployment, diurnal_trace, predictive, reactive, GPUS_PER_NODE};
use modm_simkit::Json;

/// The study's fleet (8 nodes at the peak, 3 at the floor) under
/// `scaler`, with the scaler's name.
fn fleet(scaler: impl Autoscaler + 'static) -> (&'static str, Deployment) {
    (scaler.name(), deployment(8, 3, 8, scaler))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    let (requests, sample_secs, samples) = if smoke {
        (300, 0.05, 3)
    } else {
        (1_600, 0.5, 9)
    };

    let trace = diurnal_trace(5, requests);
    let mut bench = Bench::new("autoscale")
        .with_sample_secs(sample_secs)
        .with_samples(samples);
    let mut points: Vec<Json> = Vec::new();
    for (name, mut fleet) in [
        fleet(HoldAutoscaler),
        fleet(reactive()),
        fleet(predictive()),
    ] {
        bench.measure(format!("run/{name}"), || {
            std::hint::black_box(fleet.run(&trace))
        });
        let timing = bench.results().last().expect("just measured").clone();
        let wall_ns = timing.median_ns;
        let outcome = fleet.run(&trace);
        let report = outcome.as_elastic().expect("elastic tier");
        let scale_actions = report
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FleetEventKind::ScaleUp { .. } | FleetEventKind::ScaleDown { .. }
                )
            })
            .count();
        points.push(Json::obj([
            ("scaler", Json::Str(name.into())),
            ("hit_rate", Json::Num(report.hit_rate())),
            ("slo_attainment", Json::Num(report.slo_attainment())),
            ("gpu_hours", Json::Num(report.gpu_hours)),
            ("mean_active_nodes", Json::Num(report.mean_active_nodes())),
            ("scale_actions", Json::Num(scale_actions as f64)),
            (
                "sim_requests_per_wall_sec",
                Json::Num(report.completed as f64 / (wall_ns / 1e9)),
            ),
            ("wall_ms_per_run", Json::Num(wall_ns / 1e6)),
            ("wall_ms_min", Json::Num(timing.min_ns / 1e6)),
            ("wall_ms_max", Json::Num(timing.max_ns / 1e6)),
            ("runs_k", Json::Num(timing.samples as f64)),
        ]));
    }

    let doc = Json::obj([
        ("bench", Json::Str("autoscale".into())),
        ("smoke", Json::Num(if smoke { 1.0 } else { 0.0 })),
        ("trace_requests", Json::Num(requests as f64)),
        ("gpus_per_node", Json::Num(GPUS_PER_NODE as f64)),
        ("points", Json::Arr(points)),
    ]);
    // Emit at the workspace root (cargo bench runs with the package as
    // its working directory).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autoscale.json");
    write_json(path, &doc).expect("write BENCH_autoscale.json");
    println!("\nwrote {path}");
}
