//! Acceptance tests for the telemetry pipeline: the claims the
//! `telemetry` experiment prints must hold on its exact setup, plus
//! conservation of the telemetry accounting itself — against the
//! end-of-run summary, across windows, and through elastic crash and
//! drain.

use std::sync::OnceLock;

use modm::cluster::GpuKind;
use modm::controlplane::{FaultInjector, ScaleDecision, ScheduledAutoscaler};
use modm::core::{MoDMConfig, TenancyPolicy, TenantShare};
use modm::deploy::{DeployOptions, Deployment, LifecyclePlan, ServingBackend, Summary};
use modm::simkit::{Json, SimDuration};
use modm::telemetry::{metric, TelemetryConfig, TelemetryObserver};
use modm::workload::{QosClass, TenantId, TenantMix, Trace, TraceBuilder};
use modm_experiments::overload::{
    queue_only_policy, run_discipline, INTERACTIVE, INTERACTIVE_TARGET,
};
use modm_experiments::telemetry::run_observed_study;

/// The observed study is deterministic and moderately expensive; run it
/// once for the whole test binary.
fn observed() -> &'static (Summary, TelemetryObserver, modm::telemetry::ProfileReport) {
    static RUN: OnceLock<(Summary, TelemetryObserver, modm::telemetry::ProfileReport)> =
        OnceLock::new();
    RUN.get_or_init(run_observed_study)
}

#[test]
fn telemetry_observation_does_not_perturb_the_run() {
    // The observer reads the event stream and nothing else: the observed
    // run's summary is bit-for-bit the unobserved run's (derived
    // `PartialEq` compares raw f64 bits).
    let (observed_summary, _, _) = observed();
    let unobserved = run_discipline(queue_only_policy());
    assert_eq!(*observed_summary, unobserved);
}

#[test]
fn every_pillar_agrees_with_the_summary_exactly() {
    let (summary, telemetry, _) = observed();
    let registry = telemetry.registry();

    // Registry counters reproduce the summary's totals.
    assert_eq!(
        registry.counter_sum(metric::COMPLETED, None, None),
        summary.completed
    );
    assert_eq!(
        registry.counter_sum(metric::REJECTED, None, None),
        summary.rejected
    );
    assert_eq!(registry.counter_sum(metric::SHED, None, None), summary.shed);
    assert_eq!(
        registry.counter_sum(metric::GOODPUT, None, None),
        summary.goodput
    );
    assert_eq!(
        registry.counter_sum(metric::SLO_VIOLATIONS, None, None),
        summary.completed - summary.goodput
    );
    assert_eq!(
        registry.counter_sum(metric::CACHE_HITS, None, None),
        summary.hits
    );

    // ... per tenant as well, and the windowed series sum to the same
    // counters (no event falls between windows), and the span breakdown
    // carries the same terminal counts.
    for t in &summary.tenants {
        assert_eq!(
            registry.counter_sum(metric::COMPLETED, Some(t.tenant), None),
            t.completed,
            "tenant {} completed",
            t.tenant
        );
        assert_eq!(
            registry.counter_sum(metric::GOODPUT, Some(t.tenant), None),
            t.goodput,
            "tenant {} goodput",
            t.tenant
        );
        let series_total = telemetry.series().total(metric::COMPLETED, Some(t.tenant));
        assert_eq!(
            series_total as u64, t.completed,
            "tenant {} series",
            t.tenant
        );
        let windows: f64 = telemetry
            .series()
            .window_sums(metric::COMPLETED, Some(t.tenant))
            .iter()
            .sum();
        assert_eq!(windows, series_total, "tenant {} window sums", t.tenant);
        let b = telemetry.spans().by_tenant()[&t.tenant];
        assert_eq!(
            b.completed, t.completed,
            "tenant {} span completions",
            t.tenant
        );
        assert_eq!(b.hits, t.hits, "tenant {} span hits", t.tenant);
        assert_eq!(
            b.terminal(),
            t.offered(),
            "tenant {} span conservation",
            t.tenant
        );
    }

    // Spans fully resolved: nothing left open at end of run, and stage
    // times decompose the end-to-end latency exactly (queue + service ==
    // total, per tenant).
    assert_eq!(telemetry.spans().open_spans(), 0);
    for (tenant, b) in telemetry.spans().by_tenant() {
        assert!(
            (b.queue_secs + b.service_secs - b.total_secs).abs() < 1e-6,
            "tenant {tenant}: queue {} + service {} != total {}",
            b.queue_secs,
            b.service_secs,
            b.total_secs
        );
    }
}

#[test]
fn burn_rate_alert_fires_before_attainment_collapses() {
    // The operational claim: the multi-window burn-rate rule fires while
    // the overload is developing — strictly before the interactive
    // tenant's cumulative SLO attainment first drops below its target.
    let (summary, telemetry, _) = observed();
    let interactive = summary
        .tenants
        .iter()
        .find(|t| t.tenant == INTERACTIVE)
        .expect("interactive row");
    assert!(
        interactive.slo_attainment < INTERACTIVE_TARGET,
        "queue-only FIFO must lose the interactive target for this claim to bite"
    );
    let first = telemetry.first_alert().expect("the flood trips the rule");
    let collapse = telemetry
        .attainment_first_below(INTERACTIVE)
        .expect("cumulative attainment must cross below the target");
    assert!(
        first.at < collapse,
        "alert at {:.1} s must strictly precede the collapse at {:.1} s",
        first.at.as_secs_f64(),
        collapse.as_secs_f64()
    );
    assert!(
        first.fast_burn >= 2.0 && first.slow_burn >= 2.0,
        "both windows hot"
    );
}

#[test]
fn json_snapshot_parses_into_typed_sections() {
    let (_, telemetry, profile) = observed();
    let text = telemetry.json_snapshot_with_profile(profile);
    let doc = Json::parse(&text).expect("the snapshot is one JSON document");
    for section in ["counters", "histograms", "series", "spans"] {
        let members = doc.get(section).and_then(Json::as_obj);
        assert!(members.is_some_and(|m| !m.is_empty()), "{section}");
    }
    // The export carries the alert.
    let alerts = doc.get("alerts").and_then(Json::as_arr).expect("alerts");
    let rules: Vec<&str> = alerts
        .iter()
        .map(|a| a.get("rule").and_then(Json::as_str).expect("string rule"))
        .collect();
    assert!(rules.contains(&"slo-burn"), "rules: {rules:?}");
    let rows = doc.get("profile").and_then(Json::as_obj).expect("profile");
    assert_eq!(rows.len(), profile.rows().len());
    for (label, row) in rows {
        for field in ["calls", "total_ns"] {
            let value = row.get(field).and_then(Json::as_f64);
            assert!(value.is_some(), "{label}.{field}");
        }
    }
}

#[test]
fn des_profile_covers_every_instrumented_subsystem() {
    let (_, _, profile) = observed();
    for (subsystem, calls, _) in profile.rows() {
        assert!(
            calls > 0,
            "{} never ticked during a 900-request fleet run",
            subsystem.label()
        );
    }
    // The fleet routed and queued every offered request at least once.
    let routing = profile
        .rows()
        .iter()
        .find(|(s, _, _)| s.label() == "routing")
        .map(|&(_, calls, _)| calls)
        .unwrap();
    assert!(routing >= 900);
}

const T_INTERACTIVE: TenantId = TenantId(1);
const T_BATCH: TenantId = TenantId(2);
const T_FREE: TenantId = TenantId(3);

fn crash_drain_trace() -> Trace {
    TraceBuilder::diffusion_db(3_131)
        .requests(420)
        .tenants(vec![
            TenantMix::new(T_INTERACTIVE, QosClass::Interactive, 3.0),
            TenantMix::new(T_BATCH, QosClass::Standard, 12.0),
            TenantMix::new(T_FREE, QosClass::BestEffort, 3.0),
        ])
        .build()
}

#[test]
fn telemetry_conserves_through_elastic_crash_and_drain() {
    // Satellite claim: per-tenant span and counter totals survive node
    // teardown exactly. A node crashes mid-run (its queue redelivered,
    // its cache lost) and the fleet later drains two nodes — yet every
    // offered request still ends in exactly one terminal event, per
    // tenant, and the windowed series still sum to the counters.
    let trace = crash_drain_trace();
    let node = MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 2)
        .cache_capacity(300)
        .tenancy(
            TenancyPolicy::weighted_fair(vec![
                TenantShare::new(T_INTERACTIVE, 4.0),
                TenantShare::new(T_BATCH, 2.0),
                TenantShare::new(T_FREE, 1.0),
            ])
            .with_rate_limit(T_BATCH, 1.5, 4.0)
            .with_queue_budget(SimDuration::from_secs_f64(480.0)),
        )
        .build();
    let plan = ScheduledAutoscaler::new(vec![
        ScaleDecision::Hold,
        ScaleDecision::Hold,
        ScaleDecision::Down(2),
        ScaleDecision::Hold,
    ]);
    let mut deployment = Deployment::elastic(
        node,
        plan,
        LifecyclePlan::new(4, 2, 8),
        FaultInjector::at(&[8.0], 4.0),
    );
    let mut telemetry = TelemetryObserver::new(TelemetryConfig::new(192.0));
    let summary = deployment
        .run_observed(&trace, DeployOptions::default(), &mut telemetry)
        .summary(2.0);

    // The run actually exercised teardown both ways.
    let registry = telemetry.registry();
    assert!(
        registry.counter_sum(metric::CRASHES, None, None) >= 1,
        "the injected fault must fire"
    );
    assert!(
        registry.counter_sum(metric::DECOMMISSIONS, None, None) >= 1,
        "the scheduled scale-down must drain nodes"
    );
    assert!(
        summary.rejected > 0,
        "the rate limit must refuse some flood"
    );

    // Conservation, per tenant: spans and counters agree with the
    // summary, and completed + rejected + shed covers the tenant's
    // offered load exactly — no terminal lost or doubled through
    // redelivery or drain.
    for tenant in [T_INTERACTIVE, T_BATCH, T_FREE] {
        let offered = trace.tenant_len(tenant) as u64;
        let row = summary
            .tenants
            .iter()
            .find(|t| t.tenant == tenant)
            .expect("tenant row");
        assert_eq!(row.offered(), offered, "summary conservation {tenant}");
        let b = telemetry.spans().by_tenant()[&tenant];
        assert_eq!(b.terminal(), offered, "span conservation {tenant}");
        assert_eq!(b.completed, row.completed, "span completions {tenant}");
        assert_eq!(b.rejected, row.rejected, "span rejections {tenant}");
        assert_eq!(b.shed, row.shed, "span sheds {tenant}");
        let counters = registry.counter_sum(metric::COMPLETED, Some(tenant), None)
            + registry.counter_sum(metric::REJECTED, Some(tenant), None)
            + registry.counter_sum(metric::SHED, Some(tenant), None);
        assert_eq!(counters, offered, "counter conservation {tenant}");
        // Windowed series sum to the same totals: terminals land in
        // exactly one window each.
        let windows: f64 = [metric::COMPLETED, metric::REJECTED, metric::SHED]
            .iter()
            .map(|m| {
                telemetry
                    .series()
                    .window_sums(m, Some(tenant))
                    .iter()
                    .sum::<f64>()
            })
            .sum();
        assert_eq!(windows as u64, offered, "window conservation {tenant}");
    }
    assert_eq!(telemetry.spans().open_spans(), 0, "nothing left in flight");
    assert_eq!(telemetry.spans().totals().terminal(), 420);
}
