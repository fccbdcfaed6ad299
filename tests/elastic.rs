//! Integration tests for the elastic control plane: the acceptance claims
//! of the autoscaling study must hold on full serving runs.
//!
//! The trace, node shape and scaler tuning are shared with the `elastic`
//! experiment (`cargo run -p modm-experiments -- elastic`), so these tests
//! pin exactly what the experiment reports.

use modm::controlplane::{FleetEventKind, HoldAutoscaler, ScaleDecision, ScheduledAutoscaler};
use modm_experiments::elastic::{diurnal_trace, elastic_fleet, predictive, reactive};

#[test]
fn autoscaled_fleet_matches_static_slo_with_fewer_gpu_hours() {
    // The tentpole acceptance claim, on the experiment's exact setup: over
    // a diurnal cycle, the predictive autoscaler must meet (or beat) the
    // peak-provisioned static fleet's SLO attainment while paying
    // measurably fewer GPU-hours; the reactive scaler must do the same.
    let trace = diurnal_trace(2_024, 1_600);
    let static_peak = elastic_fleet(8, 8, 8).run(&trace, &mut HoldAutoscaler);

    let mut pre = predictive();
    let p = elastic_fleet(8, 3, 8).run(&trace, &mut pre);
    assert_eq!(p.completed, 1_600, "scaling never loses a request");
    assert!(
        p.slo_attainment() >= static_peak.slo_attainment(),
        "predictive SLO {} must meet static {}",
        p.slo_attainment(),
        static_peak.slo_attainment()
    );
    assert!(
        p.gpu_hours < 0.8 * static_peak.gpu_hours,
        "predictive {} GPU-hours vs static {} is not a measurable saving",
        p.gpu_hours,
        static_peak.gpu_hours
    );

    let mut re = reactive();
    let r = elastic_fleet(8, 3, 8).run(&trace, &mut re);
    assert_eq!(r.completed, 1_600);
    assert!(
        r.slo_attainment() >= static_peak.slo_attainment(),
        "reactive SLO {} must meet static {}",
        r.slo_attainment(),
        static_peak.slo_attainment()
    );
    assert!(
        r.gpu_hours < static_peak.gpu_hours,
        "reactive {} GPU-hours vs static {}",
        r.gpu_hours,
        static_peak.gpu_hours
    );
}

#[test]
fn scale_down_with_handoff_preserves_hit_rate() {
    // The cache-handoff acceptance claim: after a scripted mid-run
    // scale-down, the fleet-wide hit rate over the following windows must
    // stay within 10% of the pre-drain level, because the draining shard
    // migrated its hottest entries to the ring successors that inherited
    // its keyspace.
    let trace = diurnal_trace(2_024, 1_600);
    let mut plan_decisions = vec![ScaleDecision::Hold; 40];
    plan_decisions[30] = ScaleDecision::Down(1); // mid-run, cache warm
    let mut plan = ScheduledAutoscaler::new(plan_decisions);
    let report = elastic_fleet(6, 2, 6).run(&trace, &mut plan);
    assert_eq!(report.completed, 1_600);

    let drain = report
        .find_event(|k| matches!(k, FleetEventKind::ScaleDown { .. }))
        .expect("the scripted drain happened");
    let FleetEventKind::ScaleDown { handoff, .. } = drain.kind else {
        unreachable!()
    };
    assert!(handoff.migrated > 0, "handoff moved hot entries");
    let (before, after) = report
        .hit_rate_around(drain.at, 6)
        .expect("traffic on both sides of the drain");
    assert!(
        after >= 0.9 * before,
        "hit rate after drain ({after:.3}) fell more than 10% below pre-drain ({before:.3})"
    );
}

#[test]
fn crash_recovery_restores_the_hit_rate() {
    // Fault injection: a mid-run crash torches one shard; the fleet must
    // re-serve the lost backlog (exact completion conservation) and the
    // hit rate must recover once the node re-provisions and the ring
    // re-warms its slice.
    use modm::controlplane::FaultInjector;
    let trace = diurnal_trace(2_024, 1_600);
    let faults = FaultInjector::at(&[55.0], 5.0);
    let report = elastic_fleet(6, 2, 8).run_with_faults(&trace, &mut HoldAutoscaler, &faults);
    assert_eq!(report.completed, 1_600, "crashed work is re-served");

    let crash = report
        .find_event(|k| matches!(k, FleetEventKind::Crash { .. }))
        .expect("the crash fired");
    let FleetEventKind::Crash { lost_entries, .. } = crash.kind else {
        unreachable!()
    };
    assert!(lost_entries > 0, "the warm shard died with the node");
    assert!(
        report
            .find_event(|k| matches!(k, FleetEventKind::NodeActive { .. }))
            .is_some(),
        "the crashed node recovered into the active set"
    );
    // Recovery: the last third of the run must hit at least as well as
    // 90% of the pre-crash level.
    let (before, _) = report
        .hit_rate_around(crash.at, 6)
        .expect("traffic around the crash");
    let tail = &report.windows[report.windows.len() * 2 / 3..];
    let tail_hits: u64 = tail.iter().map(|w| w.hits).sum();
    let tail_total: u64 = tail.iter().map(|w| w.completions).sum();
    assert!(tail_total > 0);
    let tail_rate = tail_hits as f64 / tail_total as f64;
    assert!(
        tail_rate >= 0.9 * before,
        "hit rate did not recover: tail {tail_rate:.3} vs pre-crash {before:.3}"
    );
}

#[test]
fn elastic_and_static_fleet_agree_on_workload_accounting() {
    // Cross-check the two multi-node entry points: an ElasticFleet that
    // never scales and a Fleet over the same node count serve the same
    // trace with the same per-node shape; their hit rates must be in the
    // same regime (the entry points differ in RNG salt and router).
    use modm::cluster::GpuKind;
    use modm::controlplane::Fleet;
    use modm::core::MoDMConfig;
    use modm::fleet::{Router, RoutingPolicy};
    use modm::workload::TraceBuilder;

    let trace = TraceBuilder::diffusion_db(77)
        .requests(800)
        .rate_per_min(16.0)
        .build();
    let node = MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 4)
        .cache_capacity(600)
        .build();
    let fixed = Fleet::new(node.clone(), Router::new(RoutingPolicy::CacheAffinity, 4)).run(&trace);
    let elastic = modm::controlplane::ElasticFleet::new(
        modm::controlplane::ElasticFleetConfig::new(node, 4, 4, 4),
    )
    .run(&trace, &mut HoldAutoscaler);
    assert_eq!(elastic.completed, fixed.completed);
    assert!(
        (elastic.hit_rate() - fixed.hit_rate()).abs() < 0.05,
        "elastic {} vs fixed {} hit rate",
        elastic.hit_rate(),
        fixed.hit_rate()
    );
}
