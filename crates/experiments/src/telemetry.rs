//! Telemetry study: the overload trace observed end to end — metrics
//! registry, windowed series, per-tenant span breakdown, SLO burn-rate
//! alerts and DES self-profiling, from one [`TelemetryObserver`].
//!
//! The `overload` study shows the queue-only fleet collapsing under a
//! 2× flood *after the fact*: the end-of-run summary reports attainment
//! already gone. This study attaches the telemetry pipeline to exactly
//! that run and pins the operational claims a production deployment
//! would live on:
//!
//! * **The burn-rate alert beats the collapse.** The multi-window
//!   `slo-burn` rule (60 s fast / 300 s slow) fires while the backlog is
//!   still building — strictly before the interactive tenant's
//!   *cumulative* SLO attainment first drops below its 0.9 target. The
//!   alert is actionable; the summary is an obituary.
//! * **Telemetry is an observer, not a participant.** The observed run's
//!   summary is identical to the unobserved run's — same completions,
//!   goodput, GPU-hours, per-tenant rows (`tests/telemetry.rs` pins
//!   bit-identical goldens too).
//! * **Every pillar agrees.** Registry counters, windowed series sums
//!   and the span breakdown all reproduce the summary's totals exactly.
//! * **The simulator profiles itself.** Wall-clock counters around the
//!   event heap, fair queue, image cache and router show where DES time
//!   actually goes (counters only — virtual time never reads the wall
//!   clock, so determinism is untouched).
//!
//! `tests/telemetry.rs` pins exactly these claims.

use modm_cluster::GpuKind;
use modm_deploy::{DeployOptions, ServingBackend, Summary};
use modm_diffusion::ModelId;
use modm_metrics::SloThresholds;
use modm_simkit::Profiler;
use modm_telemetry::{metric, ProfileReport, TelemetryConfig, TelemetryObserver};

use crate::common::banner;
use crate::overload::{
    queue_only_policy, study_fleet, study_trace, INTERACTIVE, INTERACTIVE_TARGET, SLO_MULTIPLE,
};

/// The SLO latency bound the study alerts on: the same
/// `SLO_MULTIPLE` × large-model reference the overload summaries are
/// judged at (the study fleet deploys `Sd35Large` on `Mi210`).
pub fn study_slo_bound_secs() -> f64 {
    SloThresholds::for_deployment(GpuKind::Mi210, ModelId::Sd35Large).bound_secs(SLO_MULTIPLE)
}

/// The study's telemetry pipeline: 60 s windows, the interactive
/// tenant's 0.9 target and the default fast/slow burn-rate rule.
pub fn study_telemetry() -> TelemetryObserver {
    TelemetryObserver::new(
        TelemetryConfig::new(study_slo_bound_secs()).with_slo_target(INTERACTIVE_TARGET),
    )
}

/// Runs the queue-only overload study observed by [`study_telemetry`],
/// with the DES profiler armed: `(summary, telemetry, profile)`.
pub fn run_observed_study() -> (Summary, TelemetryObserver, ProfileReport) {
    let mut telemetry = study_telemetry();
    let profiler = Profiler::start();
    let summary = study_fleet(queue_only_policy())
        .run_observed(&study_trace(), DeployOptions::default(), &mut telemetry)
        .summary(SLO_MULTIPLE);
    let profile = profiler.report();
    (summary, telemetry, profile)
}

/// Runs the telemetry study.
pub fn run() {
    banner("Telemetry: the queue-only overload run, fully observed");
    let (summary, telemetry, profile) = run_observed_study();

    println!("{}", Summary::table_header());
    println!("{}", summary.row("fleet queue-only FIFO"));

    println!("\nper-tenant span breakdown (queue vs service time):");
    println!("{}", telemetry.spans());

    let windows = telemetry.hit_rate_windows();
    let shown: Vec<String> = windows.iter().take(8).map(|h| format!("{h:.2}")).collect();
    println!(
        "hit rate by 60 s window (first {} of {}): [{}]",
        shown.len(),
        windows.len(),
        shown.join(", ")
    );

    println!("\nalerts:");
    for alert in telemetry.alerts() {
        println!("  {alert}");
    }
    let first = telemetry
        .first_alert()
        .expect("the 2x flood must trip the burn-rate rule");
    let collapse = telemetry
        .attainment_first_below(INTERACTIVE)
        .expect("queue-only FIFO must lose the interactive target");
    println!(
        "\n(first alert at {:.0} s; interactive cumulative attainment first dropped \
         below {INTERACTIVE_TARGET} at {:.0} s — the alert led the collapse by {:.0} s)",
        first.at.as_secs_f64(),
        collapse.as_secs_f64(),
        (collapse - first.at).as_secs_f64()
    );

    println!("\nDES self-profile (wall clock; virtual time never sees it):");
    println!("{profile}");

    let completed = telemetry
        .registry()
        .counter_sum(metric::COMPLETED, None, None);
    println!(
        "(registry agrees with the summary: {} == {} completed; exports: {} Prometheus \
         lines, {} JSON bytes)",
        completed,
        summary.completed,
        telemetry.prometheus_text().lines().count(),
        telemetry.json_snapshot_with_profile(&profile).len()
    );
}
