//! The million-request headline: one closed-loop 1M-request run on a
//! 64-node fleet, timed end to end, plus the DES self-profile that says
//! *where* the remaining wall-clock goes.
//!
//! The ROADMAP's scalability item asks for a pinned number: simulated
//! requests per wall-clock second at fleet scale, measured after the
//! O(1) rebuild of the cache, event-queue and routing hot paths. This
//! bench produces it and writes `BENCH_million.json`:
//!
//! * **headline runs** — unprofiled, `runs_k` of them timed end to end;
//!   the median is reported as `sim_requests_per_wall_sec`, with the
//!   fastest and slowest run as `wall_ms_min` / `wall_ms_max` so the
//!   spread travels with the point;
//! * a **profiled run** — identical configuration under a
//!   [`modm_simkit::profile::Profiler`], reported as per-subsystem
//!   `{calls, total_ms, ns_per_call, frac}` rows plus the
//!   `top_subsystem` by attributed wall-clock.
//!
//! Pass `--smoke` (CI does) for a down-scaled trace that keeps the same
//! fleet shape and JSON schema.

use std::time::Instant;

use modm_bench::{format_ns, write_json};
use modm_cluster::GpuKind;
use modm_controlplane::{ElasticReport, Fleet};
use modm_core::{MoDMConfig, RunOptions};
use modm_embedding::IndexPolicy;
use modm_fleet::{RoutingConfig, RoutingPolicy, SemanticClusterer};
use modm_simkit::profile::{Profiler, Subsystem};
use modm_simkit::Json;
use modm_workload::TraceBuilder;

const NODES: usize = 64;
const GPUS_PER_NODE: usize = 2;
/// Per-node shard capacity. 64 shards already split the fleet cache, so
/// each node holds a slice small enough that even the exact scan stays
/// in the single-digit-microsecond range; the approximate headline swaps
/// it for the anchored inverted index.
const CACHE_PER_NODE: usize = 128;
/// Leader bound sized for a fleet-scale trace: large enough that the
/// trending pool clusters cleanly, small enough that the per-request
/// leader lookup stays cheap.
const MAX_LEADERS: usize = 512;
/// Timed headline runs; the median is the headline.
const RUNS_K: usize = 5;

fn build_fleet(index_policy: IndexPolicy) -> Fleet {
    let node = MoDMConfig::builder()
        .gpus(GpuKind::Mi210, GPUS_PER_NODE)
        .cache_capacity(CACHE_PER_NODE)
        .index_policy(index_policy)
        .build();
    let clusterer = SemanticClusterer::new(SemanticClusterer::DEFAULT_THRESHOLD, MAX_LEADERS);
    Fleet::new(
        node,
        RoutingConfig::new(RoutingPolicy::CacheAffinity, NODES)
            .clusterer(clusterer)
            .index_policy(index_policy)
            .build(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    let requests = if smoke { 20_000 } else { 1_000_000 };
    let trace = TraceBuilder::diffusion_db(11)
        .requests(requests)
        .rate_per_min(20_000.0)
        .build();
    let opts = RunOptions::saturated(requests / 20);

    // The headline runs the approximate probes (anchored inverted cache
    // index + two-level leader probe); smoke mode also runs the exact
    // backends so CI exercises both paths on every push.
    let fleet = build_fleet(IndexPolicy::Approx);
    let exact_summary = if smoke {
        let exact_fleet = build_fleet(IndexPolicy::Exact);
        let t0 = Instant::now();
        let exact_report = exact_fleet.run_with(&trace, opts);
        let exact_wall_ns = t0.elapsed().as_secs_f64() * 1e9;
        println!(
            "million/exact: {} requests in {} — {:.0} sim-requests/wall-sec (hit rate {:.3})",
            exact_report.completed,
            format_ns(exact_wall_ns),
            exact_report.completed as f64 / (exact_wall_ns / 1e9),
            exact_report.hit_rate()
        );
        Some((exact_report.completed, exact_report.hit_rate()))
    } else {
        None
    };

    // Headline: the median of `RUNS_K` unprofiled end-to-end runs. Runs
    // are deterministic, so every one completes the same requests.
    let mut walls_ns = Vec::with_capacity(RUNS_K);
    let mut report: Option<ElasticReport> = None;
    for _ in 0..RUNS_K {
        let t0 = Instant::now();
        let run = fleet.run_with(&trace, opts);
        walls_ns.push(t0.elapsed().as_secs_f64() * 1e9);
        if let Some(previous) = &report {
            assert_eq!(previous.completed, run.completed, "runs are deterministic");
        }
        report = Some(run);
    }
    let report = report.expect("at least one headline run");
    walls_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let wall_ns = walls_ns[RUNS_K / 2];
    let headline = report.completed as f64 / (wall_ns / 1e9);
    println!(
        "million/headline: {} requests in {} (median of {RUNS_K}; min {}, max {}) — \
         {:.0} sim-requests/wall-sec (hit rate {:.3})",
        report.completed,
        format_ns(wall_ns),
        format_ns(walls_ns[0]),
        format_ns(walls_ns[RUNS_K - 1]),
        headline,
        report.hit_rate()
    );
    if let Some((exact_completed, exact_hits)) = exact_summary {
        assert_eq!(
            report.completed, exact_completed,
            "approx run must complete the same closed-loop request count"
        );
        let drift = (report.hit_rate() - exact_hits).abs();
        assert!(
            drift < 0.05,
            "approx hit rate drifted {drift:.3} from exact"
        );
    }

    // Attribution: the same run under the self-profiler. Profiling adds
    // per-call `Instant::now` overhead, so the headline above is timed
    // without it; results are bit-identical either way.
    let profiler = Profiler::start();
    let profiled = fleet.run_with(&trace, opts);
    let prof = profiler.report();
    drop(profiler);
    assert_eq!(
        profiled.completed, report.completed,
        "profiling must not change simulation results"
    );

    let total = prof.total_nanos().max(1) as f64;
    let mut rows: Vec<Json> = Vec::new();
    let mut top = Subsystem::ALL[0];
    for sub in Subsystem::ALL {
        if prof.nanos(sub) > prof.nanos(top) {
            top = sub;
        }
        rows.push(Json::obj([
            ("subsystem", Json::Str(sub.label().into())),
            ("calls", Json::Num(prof.calls(sub) as f64)),
            ("total_ms", Json::Num(prof.nanos(sub) as f64 / 1e6)),
            ("ns_per_call", Json::Num(prof.mean_nanos(sub))),
            ("frac", Json::Num(prof.nanos(sub) as f64 / total)),
        ]));
    }
    println!("\n{prof}");
    println!("top subsystem by attributed wall-clock: {}", top.label());

    let doc = Json::obj([
        ("bench", Json::Str("million".into())),
        ("smoke", Json::Num(if smoke { 1.0 } else { 0.0 })),
        ("trace_requests", Json::Num(requests as f64)),
        ("nodes", Json::Num(NODES as f64)),
        ("gpus_per_node", Json::Num(GPUS_PER_NODE as f64)),
        ("cache_per_node", Json::Num(CACHE_PER_NODE as f64)),
        ("policy", Json::Str("cache-affinity".into())),
        ("index_policy", Json::Str("approx".into())),
        ("completed", Json::Num(report.completed as f64)),
        ("hit_rate", Json::Num(report.hit_rate())),
        ("wall_secs", Json::Num(wall_ns / 1e9)),
        ("wall_ms_min", Json::Num(walls_ns[0] / 1e6)),
        ("wall_ms_max", Json::Num(walls_ns[RUNS_K - 1] / 1e6)),
        ("runs_k", Json::Num(RUNS_K as f64)),
        ("sim_requests_per_wall_sec", Json::Num(headline)),
        ("top_subsystem", Json::Str(top.label().into())),
        ("profile", Json::Arr(rows)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_million.json");
    write_json(path, &doc).expect("write BENCH_million.json");
    println!("\nwrote {path}");
}
