//! Fleet simulation speed and the `BENCH_fleet.json` trajectory point.
//!
//! Times a fixed 8-node fleet run per routing policy and records both the
//! wall-clock cost of the simulation and the simulated serving outcomes
//! (hit rate, throughput, load imbalance) into `BENCH_fleet.json`, so the
//! repo's performance trajectory tracks the fleet subsystem over time.
//!
//! Each policy's wall time is the median of `runs_k` timed samples (each
//! the mean of several back-to-back runs), recorded with the fastest and
//! slowest sample so the spread travels with the point.
//!
//! Pass `--smoke` (CI does) for a down-scaled run that still exercises
//! every policy and writes the JSON.

use modm_bench::{write_json, Bench};
use modm_cluster::GpuKind;
use modm_core::MoDMConfig;
use modm_deploy::{Deployment, ServingBackend};
use modm_fleet::{Router, RoutingPolicy};
use modm_simkit::Json;
use modm_workload::TraceBuilder;

const NODES: usize = 8;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    let (requests, sample_secs, samples) = if smoke {
        (300, 0.05, 3)
    } else {
        (1_200, 0.5, 9)
    };
    let trace = TraceBuilder::diffusion_db(5)
        .requests(requests)
        .rate_per_min(20.0)
        .build();
    let node = MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 2)
        .cache_capacity(1_000)
        .build();

    let mut bench = Bench::new("fleet")
        .with_sample_secs(sample_secs)
        .with_samples(samples);
    let mut points: Vec<Json> = Vec::new();
    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::CacheAffinity,
    ] {
        let mut fleet = Deployment::fleet(node.clone(), Router::new(policy, NODES));
        bench.measure(format!("run/{}", policy.name()), || {
            std::hint::black_box(fleet.run(&trace))
        });
        let timing = bench.results().last().expect("just measured").clone();
        let wall_ns = timing.median_ns;
        let outcome = fleet.run(&trace);
        let report = outcome.as_fleet().expect("fleet tier");
        points.push(Json::obj([
            ("policy", Json::Str(policy.name().into())),
            ("nodes", Json::Num(NODES as f64)),
            ("hit_rate", Json::Num(report.hit_rate())),
            (
                "requests_per_minute",
                Json::Num(report.requests_per_minute()),
            ),
            ("load_imbalance", Json::Num(report.load_imbalance())),
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
        ("bench", Json::Str("fleet".into())),
        ("smoke", Json::Num(if smoke { 1.0 } else { 0.0 })),
        ("trace_requests", Json::Num(requests as f64)),
        ("gpus_per_node", Json::Num(2.0)),
        ("cache_per_node", Json::Num(1_000.0)),
        ("points", Json::Arr(points)),
    ]);
    // Emit at the workspace root (cargo bench runs with the package as
    // its working directory).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    write_json(path, &doc).expect("write BENCH_fleet.json");
    println!("\nwrote {path}");
}
