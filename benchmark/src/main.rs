//! The repository benchmark: how fast the discrete-event simulator
//! computes MoDM's result, and what that simulated result is, on three
//! serving tiers.
//!
//! # Running it
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <saturated_fleet|tenant_overload|elastic_diurnal> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! `--seed` is the only source of the workload's inputs: the same seed
//! generates the same traces, deployments and crash schedules. A run
//! measures `SUBSEEDS` (4) independent traces derived from it (sub-seeds
//! `seed * SUBSEEDS + i`), so one run averages over several inputs
//! instead of resting on one trace's luck. The program under test only
//! ever sees the generated inputs, through its public entry points:
//! `TraceBuilder`, `Deployment::{single, fleet, elastic}` and
//! `ServingBackend::{run_with, run_observed}`.
//!
//! The command cycles through the sub-seeds in this single thread — set
//! up (generate the trace, build the deployment), then time one run —
//! until `--seconds` have passed and every sub-seed ran at least
//! `MIN_REPS` (2) times. It checks every repetition's outputs, prints a
//! human-readable table and ends with one JSON line: `{"correct",
//! "attempted", "failed", "metrics"}`. `attempted` counts the simulated
//! requests offered across all runs, `failed` those that never reached a
//! terminal state (0 unless a check fails). With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` one more, traced run follows
//! and the metrics are the per-layer ones. The process exits non-zero if
//! any check fails, and with status 2 on a bad command line.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! "sim" is simulated time; "host" is the wall clock running the
//! benchmark. Host times are medians over a sub-seed's repetitions;
//! simulated values are per sub-seed (the first repetition's) and are
//! pooled across sub-seeds as stated.
//!
//! | name | unit | better | meaning |
//! |---|---|---|---|
//! | `sim_req_per_s` | req/s | higher | completed simulated requests ÷ host seconds of the run call (warmup included), summed over sub-seeds |
//! | `setup_s` | s | lower | host time to generate one trace and build its deployment, median over every repetition |
//! | `peak_rss_mb` | MiB | lower | host memory high-water mark (`VmHWM`) |
//! | `hit_rate` | fraction | higher | cache hits ÷ cache decisions, summed over sub-seeds |
//! | `throughput_rpm` | req/sim_min | higher | completions ÷ simulated minutes, mean over sub-seeds; the paper's max throughput on `saturated_fleet` |
//! | `p50_latency_s`, `p99_latency_s` | sim_s | lower | simulated arrival → completion from the scheduled arrival, mean over sub-seeds of each trace's percentile (sample counts printed beside them) |
//! | `slo_attainment` | fraction | higher | completions within 2× the large-model latency ÷ **offered** requests; refused and shed requests count as misses |
//! | `completed_frac` | fraction | higher | completions ÷ offered = 1 − `failed_frac`, where `failed_frac` = (refused + shed + never completed) ÷ offered (printed beside it) |
//! | `gpu_hours` | GPU-h | lower | simulated GPU occupancy, mean over sub-seeds |
//!
//! Every workload reports every metric, so each metric has one value per
//! workload to compare. `failed_frac` itself is 0 on two workloads, so
//! the bounded metric is its complement. Under saturation every request
//! is scheduled at t = 0, so on `saturated_fleet` the latency
//! percentiles are completion times and `slo_attainment` counts what
//! completes in the first 192 s: guards on the simulated result there,
//! not service-quality numbers. `clip_score` (completion-weighted mean
//! of each node's `QualityAggregator::mean_clip`) is printed here and
//! reported per layer, because the elastic tier exposes no per-node
//! quality.
//!
//! # Workloads
//!
//! * `saturated_fleet` — closed loop (each completion admits the next
//!   request, backlog 2 per worker) over a 60k-request DiffusionDB-like
//!   trace with 5% warmup, on 64 nodes × 2 MI210 with 128-entry shards,
//!   `CacheAffinity` routing and `IndexPolicy::Approx`: the `million`
//!   shape. Routing, the cache hit path, prompt encoding and completion
//!   rendering do the work; admission, the fair queue and shedding idle.
//! * `tenant_overload` — open loop: three Poisson tenants (interactive 3,
//!   standard 20, best effort 5 req/min) offer 20k MJHQ-like requests to
//!   one 16-GPU node, about twice what it serves, under the overload
//!   control plane (token buckets, GPU-cost WFQ, adaptive aging, 480 s
//!   queue budget) and a 1,600-entry exact cache. The cache miss-and-insert
//!   path, admission, the fair queue and shedding do the work; there is
//!   no router.
//! * `elastic_diurnal` — open loop: an 8k-request diurnal trace (mean
//!   12 req/min, 40-minute days) on `Deployment::elastic` with the
//!   elastic study's predictive autoscaler, 3 to 12 nodes starting at 6,
//!   4 GPUs and a 600-entry shard each, and three seeded crashes inside
//!   the arrival horizon. The only workload where router membership
//!   changes, the cache migrates entries between shards, and GPU-hours
//!   are metered per node. Its simulated result is not yet deterministic
//!   within a process (`sim.digest_distinct` can read above 1), so it is
//!   exempt from the traced-equals-untraced check.
//!
//! On `saturated_fleet` and `tenant_overload` the simulated statistics
//! repeat bit for bit per seed: a speed-only change must leave them
//! unchanged, while the host-time metrics carry speed claims.
//!
//! # Checks
//!
//! Every run must conserve requests: per tenant and in total, offered =
//! completed + refused + shed. `saturated_fleet` must complete exactly
//! the trace length minus the warmup. The traced run's event counts must
//! match its summary, and on the deterministic workloads its `Summary`
//! must equal the untraced one.
//!
//! # Traced run and per-layer metrics (`--trace 1`)
//!
//! After the untraced repetitions, one more run of the first sub-seed
//! executes under the DES self-profiler
//! (`modm_simkit::profile::Profiler`: event heap, fair queue, image
//! cache, routing, admission, shed sweep) with an observer attached
//! through `run_observed`. The observer keeps each request's simulated
//! span (admitted → dispatched → completed) by id and counts every event
//! kind; at the end it writes them as tab-separated text to
//! `<CARGO_TARGET_DIR or benchmark/target>/traces/<workload>-seed<sub-seed>.tsv`.
//! Scale, crash and migration counts come from `ElasticReport::events`.
//!
//! Functions the profiler does not reach are priced by replaying them
//! on the workload's own prompts (`TextEncoder::encode`,
//! `render_completion`, `LatencyReport::record` +
//! `QualityAggregator::record`, `ShardedCache::{pull_owned, handoff}`
//! with `Router::shard_for`) and multiplied by the traced run's call
//! counts. A `pull_owned` evaluates every entry on the other shards, so
//! it is priced per entry and its entry count estimated from the shard
//! sizes that drain and crash events reveal; `shard.prewarm_ms` is that
//! price for one joining node. `host.unattributed_frac` = 1 −
//! (profiled + replay-priced) ÷ traced wall time.
//! `host.trace_overhead_frac` is the traced wall time over the same
//! sub-seed's untraced median, minus one. `host.allocs_per_req` comes
//! from the counting global allocator installed in this binary only.
//! `sim.digest_distinct` hashes each repetition's `Summary::to_json`
//! (FNV-1a) and counts the distinct hashes per sub-seed, reporting the
//! largest count; 1 means deterministic.
//!
//! Counts, fractions and wall shares of a layer a workload never calls
//! read 0. Its per-call price is still reported: `router.route_ns` on
//! `tenant_overload` (which has no router) is the replayed price of
//! `Router::route` on its prompts, and `clip_score` reads 0 on
//! `elastic_diurnal`, whose tier exposes no quality aggregate.
//!
//! Simulated quantities carry the unit `sim_s` (or `req/sim_min`), host
//! times `s`, `ms` or `ns`.
//!
//! This benchmark leaves the `BENCH_*.json` files, the benches in
//! `crates/bench` and the CI `bench-gate` untouched; it is a package of
//! its own with its own `[workspace]`.

mod alloc;
mod replay;
mod stats;
mod tracer;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use modm_controlplane::FleetEventKind;
use modm_deploy::{RunOutcome, ServingBackend, Summary};
use modm_metrics::LatencyReport;
use modm_simkit::profile::{ProfileReport, Profiler, Subsystem};
use modm_workload::Trace;

use stats::{median, Metric, Percentile};
use tracer::SpanRecorder;
use workloads::{Workload, SLO_MULTIPLE};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Independent traces one run measures.
const SUBSEEDS: u64 = 4;
/// Repetitions of every sub-seed, even when `--seconds` has passed.
const MIN_REPS: usize = 2;

const USAGE: &str = "usage: modm-benchmark --workload <saturated_fleet|tenant_overload|\
                     elastic_diurnal> --seed <u64> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value} must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The `i`-th trace seed of a run seeded `seed`.
fn subseed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(SUBSEEDS).wrapping_add(i)
}

/// Control-plane activity read from `ElasticReport::events`.
#[derive(Debug, Clone, Copy, Default)]
struct ControlPlane {
    scale_actions: u64,
    /// `pull_owned` calls (a node joined).
    pulls: u64,
    /// `handoff` calls (a node drained).
    handoffs: u64,
    /// Entries the drain handoffs exported.
    exported: u64,
    /// Shards whose resident count an event reveals (drained or crashed),
    /// and the entries they held: their mean stands in for a shard's
    /// resident count when pricing `pull_owned`, which evaluates every
    /// entry on the other shards.
    sized_shards: u64,
    sized_entries: u64,
    moved_entries: u64,
    redelivered: u64,
}

impl ControlPlane {
    /// Estimated entries one `pull_owned` evaluated: the mean observed
    /// shard size times the active nodes it scans (`capacity` per shard
    /// when no event revealed a size).
    fn entries_per_pull(&self, mean_active_nodes: f64, capacity: usize) -> f64 {
        let per_shard = if self.sized_shards == 0 {
            capacity as f64
        } else {
            self.sized_entries as f64 / self.sized_shards as f64
        };
        per_shard * mean_active_nodes
    }
}

/// The simulated result of one run, flattened.
#[derive(Debug, Clone)]
struct SimResult {
    summary: Summary,
    digest: u64,
    offered: u64,
    p50: Percentile,
    p99: Percentile,
    clip: Option<f64>,
    load_imbalance: f64,
    evictions: Option<u64>,
    mean_active_nodes: f64,
    control: ControlPlane,
    /// Offered requests that reached no terminal state.
    lost: u64,
    errors: Vec<String>,
}

/// One repetition: set up, run, analyze.
#[derive(Debug)]
struct Rep {
    trace_len: usize,
    trace_build_s: f64,
    setup_s: f64,
    run_s: f64,
    allocs: u64,
    sim: SimResult,
}

fn latency_of(outcome: &RunOutcome) -> LatencyReport {
    if let Some(r) = outcome.as_single() {
        r.latency.clone()
    } else if let Some(r) = outcome.as_fleet() {
        r.latency.clone()
    } else {
        outcome
            .as_elastic()
            .expect("every workload runs a single, fleet or elastic tier")
            .latency
            .clone()
    }
}

fn analyze(workload: Workload, trace: &Trace, mut outcome: RunOutcome) -> SimResult {
    let summary = outcome.summary(SLO_MULTIPLE);
    let offered_per_tenant = stats::offered_per_tenant(trace, workload.warmup());
    let offered: u64 = offered_per_tenant.values().sum();
    let (lost, mut errors) = stats::conservation(&offered_per_tenant, &summary);
    if workload == Workload::SaturatedFleet && summary.completed != offered {
        errors.push(format!(
            "saturated run completed {} of {offered} post-warmup requests",
            summary.completed
        ));
    }
    let mut latency = latency_of(&outcome);
    let samples = latency.count();
    let mut quantile = |q| Percentile {
        value: latency.quantile_secs(q).unwrap_or(0.0),
        samples,
    };
    let p50 = quantile(0.5);
    let p99 = quantile(0.99);

    let routed: Vec<u64> = outcome
        .per_node()
        .iter()
        .map(|n| n.routed)
        .filter(|&r| r > 0)
        .collect();
    let load_imbalance = match routed.iter().max() {
        Some(&max) => max as f64 * routed.len() as f64 / routed.iter().sum::<u64>() as f64,
        None => 0.0,
    };
    let (clip, evictions) = match (outcome.as_single(), outcome.as_fleet()) {
        (Some(r), _) => (Some(r.quality.mean_clip()), Some(r.cache_stats.evictions())),
        (_, Some(r)) => {
            let weight: u64 = r.nodes.iter().map(|n| n.report.quality.count()).sum();
            let sum: f64 = r
                .nodes
                .iter()
                .map(|n| n.report.quality.mean_clip() * n.report.quality.count() as f64)
                .sum();
            (Some(sum / weight.max(1) as f64), Some(r.cache.evictions))
        }
        _ => (None, None),
    };
    let mut control = ControlPlane::default();
    let mean_active_nodes = match outcome.as_elastic() {
        Some(r) => {
            for e in &r.events {
                match e.kind {
                    FleetEventKind::ScaleUp { .. } => control.scale_actions += 1,
                    FleetEventKind::ScaleDown { handoff, .. } => {
                        control.scale_actions += 1;
                        control.handoffs += 1;
                        control.exported += handoff.exported as u64;
                        control.moved_entries += handoff.migrated as u64;
                        control.sized_shards += 1;
                        control.sized_entries += (handoff.exported + handoff.abandoned) as u64;
                    }
                    FleetEventKind::NodeActive { prewarmed, .. } => {
                        control.pulls += 1;
                        control.moved_entries += prewarmed as u64;
                    }
                    FleetEventKind::Crash {
                        redelivered,
                        lost_entries,
                        ..
                    } => {
                        control.redelivered += redelivered as u64;
                        control.sized_shards += 1;
                        control.sized_entries += lost_entries as u64;
                    }
                    _ => {}
                }
            }
            r.mean_active_nodes()
        }
        None => outcome.nodes() as f64,
    };
    SimResult {
        digest: stats::digest(summary.to_json(workload.name()).as_bytes()),
        summary,
        offered,
        p50,
        p99,
        clip,
        load_imbalance,
        evictions,
        mean_active_nodes,
        control,
        lost,
        errors,
    }
}

/// Sets the workload up from `seed` and runs it once, observed when an
/// observer is given. Returns the repetition and its trace.
fn repetition(workload: Workload, seed: u64, observer: Option<&mut SpanRecorder>) -> (Rep, Trace) {
    let t0 = Instant::now();
    let trace = workload.trace(seed);
    let trace_build_s = t0.elapsed().as_secs_f64();
    let mut deployment = workload.deployment(seed, &trace);
    let setup_s = t0.elapsed().as_secs_f64();
    let allocs_before = alloc::allocations();
    let t1 = Instant::now();
    let outcome = match observer {
        Some(obs) => deployment.run_observed(&trace, workload.options(), obs),
        None => deployment.run_with(&trace, workload.options()),
    };
    let run_s = t1.elapsed().as_secs_f64();
    let allocs = alloc::allocations() - allocs_before;
    let sim = analyze(workload, &trace, outcome);
    let rep = Rep {
        trace_len: trace.len(),
        trace_build_s,
        setup_s,
        run_s,
        allocs,
        sim,
    };
    (rep, trace)
}

/// The untraced repetitions of one run, grouped by sub-seed (every group
/// holds at least one repetition).
struct Runs {
    groups: Vec<Vec<Rep>>,
}

impl Runs {
    fn reps(&self) -> impl Iterator<Item = &Rep> {
        self.groups.iter().flatten()
    }

    /// Each sub-seed's simulated result (from its first repetition).
    fn sims(&self) -> impl Iterator<Item = &SimResult> {
        self.groups.iter().map(|g| &g[0].sim)
    }

    /// Median over every repetition of `f`.
    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps().map(f).collect::<Vec<_>>())
    }

    /// Mean over sub-seeds of `f`.
    fn mean_of(&self, f: impl Fn(&SimResult) -> f64) -> f64 {
        self.sims().map(f).sum::<f64>() / self.groups.len() as f64
    }

    /// Sum over sub-seeds of `f`.
    fn sum_of(&self, f: impl Fn(&SimResult) -> u64) -> f64 {
        self.sims().map(f).sum::<u64>() as f64
    }

    /// Completed requests per host second, each sub-seed timed by the
    /// median of its repetitions.
    fn sim_req_per_s(&self) -> f64 {
        let seconds: f64 = self
            .groups
            .iter()
            .map(|g| median(&g.iter().map(|r| r.run_s).collect::<Vec<_>>()))
            .sum();
        self.sum_of(|s| s.summary.completed) / seconds
    }

    /// The largest count of distinct summary digests within a sub-seed.
    fn digest_distinct(&self) -> usize {
        self.groups
            .iter()
            .map(|g| stats::distinct(&g.iter().map(|r| r.sim.digest).collect::<Vec<_>>()))
            .max()
            .unwrap_or(0)
    }
}

fn end_to_end(runs: &Runs, peak_rss_mb: f64) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    let offered = runs.sum_of(|s| s.offered);
    let decisions = runs.sum_of(|s| s.summary.hits + s.summary.misses);
    vec![
        m("sim_req_per_s", "req/s", runs.sim_req_per_s()),
        m("setup_s", "s", runs.median_of(|r| r.setup_s)),
        m("peak_rss_mb", "MiB", peak_rss_mb),
        m(
            "hit_rate",
            "fraction",
            runs.sum_of(|s| s.summary.hits) / decisions.max(1.0),
        ),
        m(
            "throughput_rpm",
            "req/sim_min",
            runs.mean_of(|s| s.summary.requests_per_minute),
        ),
        m("p50_latency_s", "sim_s", runs.mean_of(|s| s.p50.value)),
        m("p99_latency_s", "sim_s", runs.mean_of(|s| s.p99.value)),
        m(
            "slo_attainment",
            "fraction",
            runs.sum_of(|s| s.summary.goodput) / offered,
        ),
        m(
            "completed_frac",
            "fraction",
            runs.sum_of(|s| s.summary.completed) / offered,
        ),
        m("gpu_hours", "GPU-h", runs.mean_of(|s| s.summary.gpu_hours)),
    ]
}

fn range(values: impl Iterator<Item = f64>) -> String {
    let values: Vec<f64> = values.collect();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("[min {min:.6}, max {max:.6}, n {}]", values.len())
}

fn print_end_to_end(workload: Workload, runs: &Runs, metrics: &[Metric]) {
    println!(
        "\n== {} end to end ({} sub-seeds, {} repetitions) ==",
        workload.name(),
        runs.groups.len(),
        runs.reps().count()
    );
    for m in metrics {
        let extra = match m.name {
            "sim_req_per_s" => range(
                runs.reps()
                    .map(|r| r.sim.summary.completed as f64 / r.run_s),
            ),
            "setup_s" => range(runs.reps().map(|r| r.setup_s)),
            "p50_latency_s" | "p99_latency_s" => format!(
                "[{} samples over {} sub-seeds]",
                runs.sum_of(|s| s.p50.samples as u64),
                runs.groups.len()
            ),
            "completed_frac" => format!("[failed_frac {:.6}]", 1.0 - m.value),
            _ => String::new(),
        };
        println!("{:<16} {:>18.6} {:<9} {extra}", m.name, m.value, m.unit);
    }
    let clip = if runs.sims().all(|s| s.clip.is_some()) {
        format!("{:.4}", runs.mean_of(|s| s.clip.unwrap_or(0.0)))
    } else {
        "n/a (the tier exposes no per-node quality)".into()
    };
    println!("{:<16} {:>18} score", "clip_score", clip);
    println!(
        "{:<16} {:>18} [largest count of distinct summaries within a sub-seed]",
        "sim.digests",
        runs.digest_distinct()
    );
}

/// Where the traced run writes its spans and counters.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
    dir.join("traces")
        .join(format!("{}-seed{seed}.tsv", workload.name()))
}

/// The traced run of sub-seed `seed` plus layer replay: per-layer
/// metrics, the traced run's offered count, and any failed checks.
fn per_layer(workload: Workload, seed: u64, runs: &Runs) -> (Vec<Metric>, u64, Vec<String>) {
    let untraced = &runs.groups[0];
    let mut recorder = SpanRecorder::default();
    let profiler = Profiler::start();
    let (traced, trace) = repetition(workload, seed, Some(&mut recorder));
    let prof = profiler.report();
    drop(profiler);

    let mut errors = traced.sim.errors.clone();
    let summary = &traced.sim.summary;
    if workload.deterministic() && *summary != untraced[0].sim.summary {
        errors.push("traced run's Summary differs from the untraced run's".into());
    }
    for (kind, want) in [
        ("completed", summary.completed),
        ("rejected", summary.rejected),
        ("shed_deadline", summary.shed),
    ] {
        if recorder.count(kind) != want {
            errors.push(format!(
                "traced run saw {} {kind} events, summary says {want}",
                recorder.count(kind)
            ));
        }
    }
    let path = trace_path(workload, seed);
    match recorder.write(&path) {
        Ok(()) => println!(
            "\ntraced run: spans and counters written to {}",
            path.display()
        ),
        Err(e) => errors.push(format!("writing {}: {e}", path.display())),
    }

    let (capacity, nodes) = workload.replay_shape();
    let prices = replay::measure(&trace, capacity, nodes, |n| workload.router(n));
    let wall_ns = traced.run_s * 1e9;
    let completions = summary.completed as f64;
    let offered = traced.sim.offered as f64;
    let warmup = workload.warmup() as f64;
    let control = traced.sim.control;
    let encode_calls = warmup + recorder.arrivals() as f64;
    let render_calls = warmup + completions;
    let pull_ns = control.entries_per_pull(traced.sim.mean_active_nodes, capacity)
        * prices.pull_owned_ns_per_entry;
    let migration_ns =
        control.pulls as f64 * pull_ns + control.exported as f64 * prices.handoff_ns_per_entry;
    let replayed_ns = encode_calls * prices.encode_ns
        + render_calls * prices.render_ns
        + completions * prices.record_ns
        + migration_ns;
    let per_req = |calls: f64| calls / completions;
    let frac = |ns: f64| ns / wall_ns;
    let calls = |s| prof.calls(s) as f64;
    let hits = recorder.count("cache_hit") as f64;
    let decisions = hits + recorder.count("cache_miss") as f64;
    let untraced_run_s = median(&untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let last_untraced = untraced.last().expect("every sub-seed ran");
    let wait50 = recorder.wait(0.5);
    let wait99 = recorder.wait(0.99);
    let service50 = recorder.service(0.5);

    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m(
            "workload.build_ns_per_req",
            "ns",
            runs.median_of(|r| r.trace_build_s * 1e9 / r.trace_len as f64),
        ),
        m("embedding.encode_ns", "ns", prices.encode_ns),
        m("embedding.calls_per_req", "count", per_req(encode_calls)),
        m(
            "embedding.wall_frac",
            "fraction",
            frac(encode_calls * prices.encode_ns),
        ),
        m(
            "router.route_ns",
            "ns",
            if calls(Subsystem::Routing) > 0.0 {
                prof.mean_nanos(Subsystem::Routing)
            } else {
                prices.route_ns
            },
        ),
        m(
            "router.calls_per_req",
            "count",
            per_req(calls(Subsystem::Routing)),
        ),
        m(
            "router.wall_frac",
            "fraction",
            frac(prof.nanos(Subsystem::Routing) as f64),
        ),
        m("router.load_imbalance", "ratio", traced.sim.load_imbalance),
        m(
            "shard.migrations",
            "count",
            (control.pulls + control.handoffs) as f64,
        ),
        m("shard.moved_entries", "count", control.moved_entries as f64),
        m("shard.prewarm_ms", "ms", pull_ns / 1e6),
        m("shard.wall_frac", "fraction", frac(migration_ns)),
        m("cache.op_ns", "ns", prof.mean_nanos(Subsystem::ImageCache)),
        m(
            "cache.ops_per_req",
            "count",
            per_req(calls(Subsystem::ImageCache)),
        ),
        m(
            "cache.wall_frac",
            "fraction",
            frac(prof.nanos(Subsystem::ImageCache) as f64),
        ),
        m(
            "cache.hit_ratio",
            "fraction",
            if decisions > 0.0 {
                hits / decisions
            } else {
                0.0
            },
        ),
        m(
            "cache.evictions_per_req",
            "count",
            per_req(traced.sim.evictions.unwrap_or(0) as f64),
        ),
        m(
            "admission.op_ns",
            "ns",
            prof.mean_nanos(Subsystem::Admission),
        ),
        m(
            "admission.refused_frac",
            "fraction",
            summary.rejected as f64 / offered,
        ),
        m(
            "fairqueue.op_ns",
            "ns",
            prof.mean_nanos(Subsystem::FairQueue),
        ),
        m(
            "fairqueue.wait_p50_s",
            "sim_s",
            wait50.map_or(0.0, |p| p.value),
        ),
        m(
            "fairqueue.wait_p99_s",
            "sim_s",
            wait99.map_or(0.0, |p| p.value),
        ),
        m("shed.op_ns", "ns", prof.mean_nanos(Subsystem::ShedSweep)),
        m("shed.frac", "fraction", summary.shed as f64 / offered),
        m(
            "node.service_p50_s",
            "sim_s",
            service50.map_or(0.0, |p| p.value),
        ),
        m("node.mean_k", "steps", recorder.mean_k()),
        m(
            "node.model_switches",
            "count",
            recorder.model_switches() as f64,
        ),
        m("clip_score", "score", traced.sim.clip.unwrap_or(0.0)),
        m(
            "event_heap.op_ns",
            "ns",
            prof.mean_nanos(Subsystem::EventHeap),
        ),
        m(
            "event_heap.ops_per_req",
            "count",
            per_req(calls(Subsystem::EventHeap)),
        ),
        m(
            "event_heap.wall_frac",
            "fraction",
            frac(prof.nanos(Subsystem::EventHeap) as f64),
        ),
        m("render.op_ns", "ns", prices.render_ns),
        m(
            "render.wall_frac",
            "fraction",
            frac(render_calls * prices.render_ns),
        ),
        m("metrics.record_ns", "ns", prices.record_ns),
        m(
            "controlplane.scale_actions",
            "count",
            control.scale_actions as f64,
        ),
        m(
            "controlplane.mean_active_nodes",
            "nodes",
            traced.sim.mean_active_nodes,
        ),
        m(
            "controlplane.redelivered",
            "count",
            control.redelivered as f64,
        ),
        m(
            "host.allocs_per_req",
            "count",
            last_untraced.allocs as f64 / last_untraced.sim.summary.completed as f64,
        ),
        m(
            "host.unattributed_frac",
            "fraction",
            1.0 - frac(prof.total_nanos() as f64 + replayed_ns),
        ),
        m(
            "host.trace_overhead_frac",
            "fraction",
            traced.run_s / untraced_run_s - 1.0,
        ),
        m(
            "sim.digest_distinct",
            "count",
            runs.digest_distinct() as f64,
        ),
    ];
    print_per_layer(workload, &prof, &metrics, [wait50, wait99, service50]);
    (metrics, traced.sim.offered, errors)
}

fn print_per_layer(
    workload: Workload,
    prof: &ProfileReport,
    metrics: &[Metric],
    samples: [Option<Percentile>; 3],
) {
    println!(
        "\n== {} self-profile of the traced run ==\n{prof}",
        workload.name()
    );
    println!("== {} per layer ==", workload.name());
    for m in metrics {
        let extra = match m.name {
            "fairqueue.wait_p50_s" => samples[0],
            "fairqueue.wait_p99_s" => samples[1],
            "node.service_p50_s" => samples[2],
            _ => None,
        }
        .map_or_else(String::new, |p| format!("[{} samples]", p.samples));
        println!("{:<32} {:>18.6} {:<9} {extra}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    println!(
        "modm-benchmark: workload {} seed {} (sub-seeds {}..{}) for {} s, trace {}",
        workload.name(),
        args.seed,
        subseed(args.seed, 0),
        subseed(args.seed, SUBSEEDS - 1),
        args.seconds,
        u8::from(args.trace),
    );
    let start = Instant::now();
    let mut groups: Vec<Vec<Rep>> = (0..SUBSEEDS).map(|_| Vec::new()).collect();
    for i in (0..SUBSEEDS).cycle() {
        let rep = repetition(workload, subseed(args.seed, i), None).0;
        groups[i as usize].push(rep);
        let enough = groups.iter().all(|g| g.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let runs = Runs { groups };
    let peak_rss_mb = alloc::peak_rss_mib().unwrap_or(0.0);
    let mut errors: Vec<String> = runs.reps().flat_map(|r| r.sim.errors.clone()).collect();
    let mut attempted: u64 = runs.reps().map(|r| r.sim.offered).sum();
    let failed: u64 = runs.reps().map(|r| r.sim.lost).sum();

    let e2e = end_to_end(&runs, peak_rss_mb);
    print_end_to_end(workload, &runs, &e2e);
    let metrics = if args.trace {
        let (layers, offered, layer_errors) = per_layer(workload, subseed(args.seed, 0), &runs);
        attempted += offered;
        errors.extend(layer_errors);
        layers
    } else {
        e2e
    };
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        stats::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        assert_eq!(
            args("--workload tenant_overload --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::TenantOverload,
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(args("--workload tenant_overload --seed 7 --seconds 10").is_err());
        assert!(args("--workload tenant_overload --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload tenant_overload --seed x --seconds 10 --trace 0").is_err());
    }

    #[test]
    fn subseeds_of_distinct_seeds_never_collide() {
        let mut all: Vec<u64> = (0..50)
            .flat_map(|seed| (0..SUBSEEDS).map(move |i| subseed(seed, i)))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    /// Every metric the command prints is declared in `BENCHMARK.json`
    /// with the same unit, and every name passes the charset rule.
    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let runs = Runs { groups: Vec::new() };
        for m in &end_to_end(&runs, 1.0) {
            assert!(stats::valid_metric_name(m.name), "{}", m.name);
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in PER_LAYER_NAMES {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks per-layer metric {name}"
            );
        }
        for w in Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    /// The per-layer metric names, in the order `per_layer` reports them.
    const PER_LAYER_NAMES: [&str; 41] = [
        "workload.build_ns_per_req",
        "embedding.encode_ns",
        "embedding.calls_per_req",
        "embedding.wall_frac",
        "router.route_ns",
        "router.calls_per_req",
        "router.wall_frac",
        "router.load_imbalance",
        "shard.migrations",
        "shard.moved_entries",
        "shard.prewarm_ms",
        "shard.wall_frac",
        "cache.op_ns",
        "cache.ops_per_req",
        "cache.wall_frac",
        "cache.hit_ratio",
        "cache.evictions_per_req",
        "admission.op_ns",
        "admission.refused_frac",
        "fairqueue.op_ns",
        "fairqueue.wait_p50_s",
        "fairqueue.wait_p99_s",
        "shed.op_ns",
        "shed.frac",
        "node.service_p50_s",
        "node.mean_k",
        "node.model_switches",
        "clip_score",
        "event_heap.op_ns",
        "event_heap.ops_per_req",
        "event_heap.wall_frac",
        "render.op_ns",
        "render.wall_frac",
        "metrics.record_ns",
        "controlplane.scale_actions",
        "controlplane.mean_active_nodes",
        "controlplane.redelivered",
        "host.allocs_per_req",
        "host.unattributed_frac",
        "host.trace_overhead_frac",
        "sim.digest_distinct",
    ];
}
