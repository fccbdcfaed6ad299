//! End-to-end simulation speed: virtual requests served per wall-clock
//! second for MoDM and the baselines, plus the observer-overhead checks —
//! the `BENCH_serving.json` trajectory point records the with/without
//! observer delta (a bare counting observer, and the full telemetry
//! pipeline) so the "zero-cost when unused" property of the typed event
//! stream and the "<5% when fully observed" telemetry budget stay
//! measured, not assumed.
//!
//! The bare system's wall time is the median of its `runs_k` timed runs
//! across the paired rounds, recorded with the fastest and slowest run
//! so the spread travels with the point.
//!
//! `--smoke` is accepted for CLI uniformity but runs the full sizing:
//! the overhead fractions need the full run length to clear timer and
//! scheduler noise, and the whole bench takes only a few seconds.

use modm_baselines::VanillaSystem;
use modm_bench::{median_frac, write_json, Bench};
use modm_cluster::GpuKind;
use modm_core::events::{Observer, SimEvent};
use modm_core::{MoDMConfig, RunOptions};
use modm_deploy::{Deployment, ServingBackend};
use modm_diffusion::ModelId;
use modm_simkit::{Json, SimTime};
use modm_telemetry::{TelemetryConfig, TelemetryObserver};
use modm_trace::{TraceConfig, TraceObserver};
use modm_workload::TraceBuilder;

/// The cheapest real observer: counts events, nothing else. Measures the
/// per-event dispatch cost without any observer-side work drowning it.
#[derive(Default)]
struct CountingObserver {
    events: u64,
}

impl Observer for CountingObserver {
    fn on_event(&mut self, _at: SimTime, _event: &SimEvent) {
        self.events += 1;
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    // Overhead fractions are single-digit percent against gate limits
    // (−2% floor, 5% telemetry budget) only a couple of points away, so
    // the sizing is chosen for estimator precision: runs long enough
    // that a ~1 ms scheduler preemption stays small relative to them
    // (at 200 requests a run lasts ~2 ms and the fractions are pure
    // noise), blocks short enough that a host regime change rarely
    // lands inside one, and enough rounds that the median's error is
    // well under a point. ~30 s total — cheap next to a flaky gate.
    let (requests, rounds) = (600, 321);

    let trace = TraceBuilder::diffusion_db(5)
        .requests(requests)
        .rate_per_min(10.0)
        .build();
    let opts = RunOptions::saturated(requests / 6);
    let served = (requests - requests / 6) as f64;

    let mut bench = Bench::new("end_to_end");
    let config = MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 16)
        .cache_capacity(2_000)
        .build();
    // One deployment per arm: each closure below serves through its own.
    let mut systems: [Deployment; 5] = std::array::from_fn(|_| Deployment::single(config.clone()));
    let [plain, observed, telemetry, traced, checked] = &mut systems;

    // The observed configurations are measured against the bare system
    // with ABBA pairing (base, arm, arm, base per round): a sequential
    // per-arm layout let late-session warm-up make the observed arms
    // look *faster* than the bare system (negative overhead), and even
    // round-robin interleaving left base and arm far enough apart in
    // the round to land in different frequency/steal regimes on a noisy
    // host. The symmetric block cancels drift and position bias inside
    // ~4 run-lengths, and the per-round medians discard the rest.
    let mut arm_plain = || {
        std::hint::black_box(plain.run_with(&trace, opts));
    };
    let mut arm_observed = || {
        let mut counter = CountingObserver::default();
        std::hint::black_box(observed.run_observed(&trace, opts, &mut counter));
    };
    // The full telemetry pipeline: registry + series + spans + alerts.
    let mut arm_telemetry = || {
        let mut observer = TelemetryObserver::new(TelemetryConfig::new(192.0));
        std::hint::black_box(telemetry.run_observed(&trace, opts, &mut observer));
    };
    // Causal tracing: span-tree assembly under default tail sampling.
    let mut arm_trace = || {
        let mut tracer = TraceObserver::new(TraceConfig::new());
        std::hint::black_box(traced.run_observed(&trace, opts, &mut tracer));
    };
    let arm_vanilla = || {
        let mut v = VanillaSystem::new(ModelId::Sd35Large, GpuKind::Mi210, 16);
        std::hint::black_box(v.run_with(&trace, opts));
    };
    let fracs = bench.measure_paired(
        "system/modm",
        &mut arm_plain,
        &mut [
            ("system/modm-observed", &mut arm_observed),
            ("system/modm-telemetry", &mut arm_telemetry),
            ("system/modm-trace", &mut arm_trace),
        ],
        rounds,
    );
    bench.measure("system/vanilla", arm_vanilla);
    let plain = bench.results()[0].clone();
    let plain_ns = plain.median_ns;
    let observed_ns = bench.results()[1].median_ns;
    let telemetry_ns = bench.results()[2].median_ns;
    let trace_ns = bench.results()[3].median_ns;

    // One verification run for the event tally and the report cross-check.
    let mut counter = CountingObserver::default();
    let outcome = checked.run_observed(&trace, opts, &mut counter);
    assert_eq!(
        outcome.completed() as f64,
        served,
        "observer changes nothing"
    );

    let overhead = median_frac(&fracs[0]);
    let telemetry_overhead = median_frac(&fracs[1]);
    let trace_overhead = median_frac(&fracs[2]);
    println!(
        "\nobserver overhead: {:+.2}% ({} events/run); full telemetry: {:+.2}%; tracing: {:+.2}%",
        overhead * 100.0,
        counter.events,
        telemetry_overhead * 100.0,
        trace_overhead * 100.0
    );

    let doc = Json::obj([
        ("bench", Json::Str("serving".into())),
        ("smoke", Json::Num(if smoke { 1.0 } else { 0.0 })),
        ("trace_requests", Json::Num(requests as f64)),
        ("modm_ns", Json::Num(plain_ns)),
        ("wall_ms_min", Json::Num(plain.min_ns / 1e6)),
        ("wall_ms_max", Json::Num(plain.max_ns / 1e6)),
        ("runs_k", Json::Num(plain.samples as f64)),
        ("modm_observed_ns", Json::Num(observed_ns)),
        ("observer_overhead_frac", Json::Num(overhead)),
        ("modm_telemetry_ns", Json::Num(telemetry_ns)),
        ("telemetry_overhead_frac", Json::Num(telemetry_overhead)),
        ("modm_trace_ns", Json::Num(trace_ns)),
        ("trace_overhead_frac", Json::Num(trace_overhead)),
        ("events_per_run", Json::Num(counter.events as f64)),
        (
            "sim_requests_per_wall_sec",
            Json::Num(served / (plain_ns / 1e9)),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    write_json(path, &doc).expect("write BENCH_serving.json");
    println!("wrote {path}");
}
