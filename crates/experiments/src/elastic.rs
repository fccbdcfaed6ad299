//! Elastic autoscaling study: static-N fleets vs reactive and predictive
//! autoscaling on a diurnal trace, plus crash recovery under fault
//! injection.
//!
//! The question a capacity planner asks: provisioned for the diurnal
//! *peak*, a static fleet wastes GPU-hours all night; provisioned for the
//! *mean*, it violates SLOs every peak. The control plane should track the
//! cycle instead — meeting the peak-provisioned fleet's SLO attainment at
//! close to the mean-provisioned fleet's cost — and a scale-down must not
//! torch the cache: the drain handoff migrates each shard's hottest
//! entries to the ring successors inheriting its keyspace.

use modm_cluster::GpuKind;
use modm_controlplane::{
    Autoscaler, FaultInjector, FleetEventKind, HoldAutoscaler, PredictiveAutoscaler,
    PredictiveConfig, ReactiveAutoscaler, ReactiveConfig,
};
use modm_core::MoDMConfig;
use modm_deploy::{Deployment, LifecyclePlan, RunOutcome, ServingBackend};
use modm_workload::{RateSchedule, Trace, TraceBuilder};

use crate::common::banner;

/// GPUs per node (MI210s, as in the paper's 16-node cluster).
pub const GPUS_PER_NODE: usize = 4;
/// Per-shard cache capacity.
pub const CACHE_PER_NODE: usize = 600;
/// The diurnal cycle: mean 12 req/min, 3..21 peak-to-trough, 40-minute
/// "days" so several cycles fit in one run.
pub const DIURNAL_BASE: f64 = 12.0;
const DIURNAL_AMPLITUDE: f64 = 0.75;
const DIURNAL_PERIOD_MINS: f64 = 40.0;

/// The study's per-node configuration.
pub fn node_config() -> MoDMConfig {
    MoDMConfig::builder()
        .gpus(GpuKind::Mi210, GPUS_PER_NODE)
        .cache_capacity(CACHE_PER_NODE)
        .build()
}

/// The diurnal trace both the experiment and the integration tests run.
pub fn diurnal_trace(seed: u64, requests: usize) -> Trace {
    TraceBuilder::diffusion_db(seed)
        .requests(requests)
        .rate_schedule(RateSchedule::diurnal(
            DIURNAL_BASE,
            DIURNAL_AMPLITUDE,
            DIURNAL_PERIOD_MINS,
        ))
        .build()
}

/// A fault-free elastic fleet of study nodes between `min` and `max`
/// nodes, starting at `initial`, under `scaler`.
pub fn deployment(
    initial: usize,
    min: usize,
    max: usize,
    scaler: impl Autoscaler + 'static,
) -> Deployment {
    Deployment::elastic(
        node_config(),
        scaler,
        LifecyclePlan::new(initial, min, max),
        FaultInjector::none(),
    )
}

/// The study's reactive scaler: eager up (shallow trigger, escalating
/// step), reluctant down (sustained idle required) — the asymmetry that
/// protects SLOs through the diurnal ramp.
pub fn reactive() -> ReactiveAutoscaler {
    ReactiveAutoscaler::new(ReactiveConfig {
        up_queue_depth: 2.5,
        up_slo_violations: 0.05,
        down_queue_depth: 0.8,
        up_after: 1,
        down_after: 4,
        cooldown: 1,
    })
}

/// The study's predictive scaler: per-node capacity estimated from the
/// profiled miss throughput, haircut for the observed ~0.5+ hit rate
/// running ~half-cost refinements; fast level tracking (alpha 0.4) with
/// four windows of lookahead covers the 75 s cold start, and 60% headroom
/// absorbs Poisson noise around the forecast.
pub fn predictive() -> PredictiveAutoscaler {
    let cfg = node_config();
    let miss_rate = cfg.gpu.profiled_throughput_per_min(cfg.large_model) * cfg.num_gpus as f64;
    // Hits cost roughly half a miss on the small model; at hit rate h=0.55
    // effective capacity ~= miss_rate / (1 - h + h/2).
    let per_node = miss_rate / 0.72;
    let mut config = PredictiveConfig::for_node_rate(per_node);
    config.alpha = 0.4;
    config.headroom = 1.6;
    config.lookahead_windows = 4.0;
    PredictiveAutoscaler::new(config)
}

/// The study's trace seed.
pub const STUDY_SEED: u64 = 2_024;

/// Labeled elastic rows — a peak-static baseline plus the two
/// autoscalers — over an explicit trace: the entry point the golden-run
/// snapshots (`tests/golden.rs`) pin byte for byte.
pub fn run_rows_on(trace: &Trace) -> Vec<(String, modm_deploy::Summary)> {
    vec![
        (
            "elastic static-4".into(),
            deployment(4, 4, 4, HoldAutoscaler).run(trace).summary(2.0),
        ),
        (
            "elastic reactive".into(),
            deployment(6, 3, 6, reactive()).run(trace).summary(2.0),
        ),
        (
            "elastic predictive".into(),
            deployment(6, 3, 6, predictive()).run(trace).summary(2.0),
        ),
    ]
}

fn row(label: &str, outcome: &RunOutcome) {
    let r = outcome.as_elastic().expect("elastic outcome");
    println!(
        "{label:<22} {:>5.0} {:>8.3} {:>8.3} {:>9.2} {:>10.1} {:>7.2}",
        outcome.completed(),
        outcome.hit_rate(),
        outcome.slo_attainment(2.0),
        outcome.gpu_hours(),
        outcome.requests_per_minute(),
        r.mean_active_nodes(),
    );
}

/// Runs the elastic autoscaling study.
pub fn run() {
    banner("Elastic control plane: static-N vs autoscaled fleets (diurnal trace)");
    let trace = diurnal_trace(2_024, 1_600);
    println!(
        "{:<22} {:>5} {:>8} {:>8} {:>9} {:>10} {:>7}",
        "fleet", "req", "hit", "slo", "gpu-hrs", "req/min", "nodes"
    );

    // Static baselines: provisioned for the peak and for the mean.
    let peak = deployment(8, 8, 8, HoldAutoscaler).run(&trace);
    row("static-8 (peak)", &peak);
    let mean = deployment(4, 4, 4, HoldAutoscaler).run(&trace);
    row("static-4 (mean)", &mean);

    // Autoscaled fleets: start peak-provisioned (matching static-8's
    // cold-cache first cycle) and let the scaler trim the troughs.
    let r = deployment(8, 3, 8, reactive()).run(&trace);
    row("autoscaled reactive", &r);
    let p = deployment(8, 3, 8, predictive()).run(&trace);
    row("autoscaled predictive", &p);

    let scale_events = |outcome: &RunOutcome| {
        outcome
            .as_elastic()
            .expect("elastic outcome")
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FleetEventKind::ScaleUp { .. } | FleetEventKind::ScaleDown { .. }
                )
            })
            .count()
    };
    println!(
        "\n(reactive took {} scale actions, predictive {}; the autoscaled fleets",
        scale_events(&r),
        scale_events(&p)
    );
    println!(" track the cycle, matching peak-provisioned SLO attainment at");
    println!(" mean-provisioned GPU-hours — handoff keeps the hit rate through");
    println!(" every scale-down)");

    banner("Crash recovery: fault injection mid-cycle (hit rate around the crash)");
    let faults = FaultInjector::at(&[55.0], 5.0);
    let crashed = Deployment::elastic(
        node_config(),
        HoldAutoscaler,
        LifecyclePlan::new(6, 2, 8),
        faults,
    )
    .run(&trace);
    row("static-6 + crash", &crashed);
    let crashed = crashed.as_elastic().expect("elastic outcome");
    if let Some(e) = crashed.find_event(|k| matches!(k, FleetEventKind::Crash { .. })) {
        let FleetEventKind::Crash {
            node,
            lost_entries,
            redelivered,
        } = e.kind
        else {
            unreachable!()
        };
        println!(
            "\ncrash: node {node} at {:.1} min, {lost_entries} cache entries lost, \
             {redelivered} requests re-delivered",
            e.at.as_mins_f64()
        );
        if let Some((before, after)) = crashed.hit_rate_around(e.at, 4) {
            println!(
                "hit rate {before:.3} (4 windows before) -> {after:.3} (4 windows after); \
                 recovery refills the shard"
            );
        }
    }
}
