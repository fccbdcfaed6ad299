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

use modm_bench::{write_json, Bench, Json};
use modm_controlplane::{
    Autoscaler, FleetEventKind, HoldAutoscaler, PredictiveAutoscaler, ReactiveAutoscaler,
};
use modm_experiments::elastic::{
    diurnal_trace, elastic_fleet, predictive, reactive, GPUS_PER_NODE,
};

fn scalers() -> Vec<Box<dyn Autoscaler>> {
    vec![
        Box::new(HoldAutoscaler),
        Box::<ReactiveAutoscaler>::new(reactive()),
        Box::<PredictiveAutoscaler>::new(predictive()),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    let (requests, sample_secs, samples) = if smoke {
        (300, 0.05, 3)
    } else {
        (1_600, 0.5, 9)
    };

    let trace = diurnal_trace(5, requests);
    let fleet = elastic_fleet(8, 3, 8);

    let mut bench = Bench::new("autoscale")
        .with_sample_secs(sample_secs)
        .with_samples(samples);
    let mut points: Vec<Json> = Vec::new();
    for mut scaler in scalers() {
        let name = scaler.name();
        bench.measure(format!("run/{name}"), || {
            std::hint::black_box(fleet.run(&trace, scaler.as_mut()))
        });
        let timing = bench.results().last().expect("just measured").clone();
        let wall_ns = timing.median_ns;
        let report = fleet.run(&trace, scaler.as_mut());
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
        points.push(Json::Obj(vec![
            ("scaler".into(), Json::Str(name.into())),
            ("hit_rate".into(), Json::Num(report.hit_rate())),
            ("slo_attainment".into(), Json::Num(report.slo_attainment())),
            ("gpu_hours".into(), Json::Num(report.gpu_hours)),
            (
                "mean_active_nodes".into(),
                Json::Num(report.mean_active_nodes()),
            ),
            ("scale_actions".into(), Json::Num(scale_actions as f64)),
            (
                "sim_requests_per_wall_sec".into(),
                Json::Num(report.completed as f64 / (wall_ns / 1e9)),
            ),
            ("wall_ms_per_run".into(), Json::Num(wall_ns / 1e6)),
            ("wall_ms_min".into(), Json::Num(timing.min_ns / 1e6)),
            ("wall_ms_max".into(), Json::Num(timing.max_ns / 1e6)),
            ("runs_k".into(), Json::Num(timing.samples as f64)),
        ]));
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("autoscale".into())),
        ("smoke".into(), Json::Num(if smoke { 1.0 } else { 0.0 })),
        ("trace_requests".into(), Json::Num(requests as f64)),
        ("gpus_per_node".into(), Json::Num(GPUS_PER_NODE as f64)),
        ("points".into(), Json::Arr(points)),
    ]);
    // Emit at the workspace root (cargo bench runs with the package as
    // its working directory).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_autoscale.json");
    write_json(path, &doc).expect("write BENCH_autoscale.json");
    println!("\nwrote {path}");
}
