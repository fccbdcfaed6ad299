//! Closed-loop scenario speed and the `BENCH_scenarios.json`
//! trajectory point.
//!
//! Times the `scenarios` study's three adversarial runs — the flash-crowd
//! retry storm under honoring and naive client populations, and the
//! two-region failover with backlog redelivery and cache handoff — and
//! records the wall-clock cost plus the simulated outcomes (completions,
//! hit rate, retry amplification) into `BENCH_scenarios.json`, so the
//! repo's performance trajectory tracks the closed loop over time.
//!
//! Each scenario's wall time is the median of `runs_k` timed samples
//! (each the mean of several back-to-back runs), recorded with the
//! fastest and slowest sample so the spread travels with the point.
//!
//! Pass `--smoke` (CI does) for a short-sample run that still exercises
//! every scenario and writes the JSON.

use modm_bench::{write_json, Bench, Json};
use modm_experiments::scenarios::{failover_scenario_for, storm_scenario_for, STUDY_SEED};
use modm_scenario::{RetryPolicy, Scenario};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    let (sample_secs, samples) = if smoke { (0.05, 3) } else { (0.5, 9) };

    let cases: Vec<(&str, Scenario)> = vec![
        (
            "retry_storm/honoring",
            storm_scenario_for(STUDY_SEED, RetryPolicy::honoring(), true),
        ),
        (
            "retry_storm/naive",
            storm_scenario_for(STUDY_SEED, RetryPolicy::naive(), true),
        ),
        ("failover/loss", failover_scenario_for(STUDY_SEED, true)),
    ];

    let mut bench = Bench::new("scenarios")
        .with_sample_secs(sample_secs)
        .with_samples(samples);
    let mut points: Vec<Json> = Vec::new();
    for (name, scenario) in &cases {
        bench.measure(format!("run/{name}"), || {
            std::hint::black_box(scenario.run())
        });
        let timing = bench.results().last().expect("just measured").clone();
        let wall_ns = timing.median_ns;
        let report = scenario.run();
        points.push(Json::Obj(vec![
            ("scenario".into(), Json::Str((*name).into())),
            (
                "trace_requests".into(),
                Json::Num(scenario.trace().len() as f64),
            ),
            ("completed".into(), Json::Num(report.completed() as f64)),
            ("abandoned".into(), Json::Num(report.retry.abandoned as f64)),
            (
                "amplification".into(),
                Json::Num(report.retry.amplification()),
            ),
            ("hit_rate".into(), Json::Num(report.hit_rate())),
            (
                "sim_requests_per_wall_sec".into(),
                Json::Num(report.completed() as f64 / (wall_ns / 1e9)),
            ),
            ("wall_ms_per_run".into(), Json::Num(wall_ns / 1e6)),
            ("wall_ms_min".into(), Json::Num(timing.min_ns / 1e6)),
            ("wall_ms_max".into(), Json::Num(timing.max_ns / 1e6)),
            ("runs_k".into(), Json::Num(timing.samples as f64)),
        ]));
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("scenarios".into())),
        ("smoke".into(), Json::Num(if smoke { 1.0 } else { 0.0 })),
        ("seed".into(), Json::Num(STUDY_SEED as f64)),
        ("points".into(), Json::Arr(points)),
    ]);
    // Emit at the workspace root (cargo bench runs with the package as
    // its working directory).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scenarios.json");
    write_json(path, &doc).expect("write BENCH_scenarios.json");
    println!("\nwrote {path}");
}
