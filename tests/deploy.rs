//! Tests of the unified deployment API across its tiers: observing a run
//! never changes it, the event stream agrees with the report, a
//! single-tenant trace runs bit-identically with or without the
//! tenancy-aware machinery, and every tier's summary reads the same
//! quantities the same way.

use modm::cluster::GpuKind;
use modm::controlplane::{FaultInjector, HoldAutoscaler, ScaleDecision, ScheduledAutoscaler};
use modm::core::{MoDMConfig, TenancyPolicy, TenantShare};
use modm::deploy::{
    DeployOptions, Deployment, EventLogObserver, LifecyclePlan, ServingBackend, SimEvent, Summary,
};
use modm::fleet::{Router, RoutingPolicy};
use modm::workload::{TenantId, Trace, TraceBuilder};

fn node_config(gpus: usize, cache: usize) -> MoDMConfig {
    MoDMConfig::builder()
        .gpus(GpuKind::Mi210, gpus)
        .cache_capacity(cache)
        .build()
}

fn trace(seed: u64, requests: usize) -> Trace {
    TraceBuilder::diffusion_db(seed)
        .requests(requests)
        .rate_per_min(12.0)
        .build()
}

#[test]
fn observation_never_perturbs_results() {
    // Same seeds, observer attached vs not: summaries must be identical
    // across every tier — the stream is a tap, not a participant.
    type MakeDeployment = fn() -> Deployment;
    let t = trace(105, 300);
    let deployments: [(&str, MakeDeployment); 3] = [
        ("single", || Deployment::single(node_config(4, 600))),
        ("fleet", || {
            Deployment::fleet(
                node_config(2, 300),
                Router::new(RoutingPolicy::HybridAffinity, 2),
            )
        }),
        ("elastic", || {
            Deployment::elastic(
                node_config(2, 300),
                HoldAutoscaler,
                LifecyclePlan::new(2, 2, 4),
                FaultInjector::none(),
            )
        }),
    ];
    for (label, make) in deployments {
        let mut plain = make().run(&t);
        let mut log = EventLogObserver::new();
        let mut observed = make().run_observed(&t, DeployOptions::default(), &mut log);
        assert_eq!(plain.summary(2.0), observed.summary(2.0), "{label}");

        // The stream agrees with the report's own accounting.
        let completed = log.count(|e| matches!(e, SimEvent::Completed { .. })) as u64;
        let admitted = log.count(|e| matches!(e, SimEvent::Admitted { .. })) as u64;
        let hits = log.count(|e| matches!(e, SimEvent::CacheHit { .. })) as u64;
        let misses = log.count(|e| matches!(e, SimEvent::CacheMiss { .. })) as u64;
        let dispatched = log.count(|e| matches!(e, SimEvent::Dispatched { .. })) as u64;
        assert_eq!(completed, observed.completed(), "{label}");
        assert_eq!(admitted, 300, "{label}: every request admitted once");
        assert_eq!(hits + misses, admitted, "{label}: every admission decided");
        assert_eq!(hits, observed.hits(), "{label}");
        assert_eq!(
            dispatched, completed,
            "{label}: every completion was dispatched"
        );
    }
}

#[test]
fn observer_sees_control_plane_transitions() {
    let t = trace(106, 500);
    let plan = ScheduledAutoscaler::new(vec![
        ScaleDecision::Up(1),
        ScaleDecision::Hold,
        ScaleDecision::Down(1),
    ]);
    let mut log = EventLogObserver::new();
    let outcome = Deployment::elastic(
        node_config(2, 400),
        plan,
        LifecyclePlan::new(3, 2, 4),
        FaultInjector::none(),
    )
    .run_observed(&t, DeployOptions::default(), &mut log);
    let elastic = outcome.as_elastic().expect("elastic tier");

    // Every logged control-plane event also reached the observer.
    assert_eq!(
        log.count(|e| matches!(
            e,
            SimEvent::ScaleUp { .. }
                | SimEvent::NodeActive { .. }
                | SimEvent::ScaleDown { .. }
                | SimEvent::Decommissioned { .. }
                | SimEvent::Crash { .. }
                | SimEvent::RecoveryStarted { .. }
        )),
        elastic.events.len(),
        "the typed stream mirrors the report's event log"
    );
    assert_eq!(log.count(|e| matches!(e, SimEvent::ScaleUp { .. })), 1);
    assert_eq!(log.count(|e| matches!(e, SimEvent::ScaleDown { .. })), 1);
    // The stream is time-ordered: the scale-up precedes the activation.
    let up_at = log
        .find(|e| matches!(e, SimEvent::ScaleUp { .. }))
        .expect("scale-up seen")
        .0;
    let active_at = log
        .find(|e| matches!(e, SimEvent::NodeActive { .. }))
        .expect("activation seen")
        .0;
    assert!(up_at < active_at, "cold start takes time");
}

#[test]
fn tenancy_aware_path_is_seed_identical_for_single_tenant_traces() {
    // Tenant neutrality, end to end: a single-tenant trace run under the
    // full tenancy-aware configuration (weighted-fair discipline plus a
    // cache reserve for the default tenant) must reproduce the legacy
    // FIFO path seed for seed, on all three tiers. The WFQ queue with one
    // tenant degenerates to FIFO, and a tenant's reserve never protects
    // it from itself — so the two configurations must be *bit*-identical,
    // which the derived PartialEq on Summary checks.
    let t = trace(108, 300);
    let tenancy = || {
        TenancyPolicy::weighted_fair(vec![
            TenantShare::new(TenantId::DEFAULT, 2.0).with_cache_reserve(100)
        ])
    };
    let legacy_cfg = |gpus, cache| node_config(gpus, cache);
    let tenant_cfg = |gpus, cache| {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, gpus)
            .cache_capacity(cache)
            .tenancy(tenancy())
            .build()
    };

    // Single node.
    let mut legacy = Deployment::single(legacy_cfg(4, 600)).run(&t);
    let mut tenanted = Deployment::single(tenant_cfg(4, 600)).run(&t);
    assert_eq!(tenanted.summary(2.0), legacy.summary(2.0), "single tier");
    let (l, n) = (legacy.as_single().unwrap(), tenanted.as_single().unwrap());
    assert_eq!(n.hits, l.hits);
    assert_eq!(n.k_histogram, l.k_histogram);
    assert_eq!(n.finished_at, l.finished_at);

    // Fleet.
    let router = || Router::new(RoutingPolicy::CacheAffinity, 3);
    let mut legacy = Deployment::fleet(legacy_cfg(2, 300), router()).run(&t);
    let mut tenanted = Deployment::fleet(tenant_cfg(2, 300), router()).run(&t);
    assert_eq!(tenanted.summary(2.0), legacy.summary(2.0), "fleet tier");
    let (l, n) = (legacy.as_fleet().unwrap(), tenanted.as_fleet().unwrap());
    for (x, y) in l.nodes.iter().zip(&n.nodes) {
        assert_eq!(x.routed, y.routed);
        assert_eq!(x.report.hits, y.report.hits);
    }

    // Elastic, with scripted scaling and a crash so the re-delivery path
    // is exercised through the fair queue's drain too.
    let scaler = || {
        ScheduledAutoscaler::new(vec![
            ScaleDecision::Up(1),
            ScaleDecision::Hold,
            ScaleDecision::Down(1),
        ])
    };
    let faults = FaultInjector::seeded(7, 5.0, 1, 3.0);
    let mut legacy = Deployment::elastic(
        legacy_cfg(2, 300),
        scaler(),
        LifecyclePlan::new(3, 2, 4),
        faults.clone(),
    )
    .run(&t);
    let mut tenanted = Deployment::elastic(
        tenant_cfg(2, 300),
        scaler(),
        LifecyclePlan::new(3, 2, 4),
        faults,
    )
    .run(&t);
    assert_eq!(tenanted.summary(2.0), legacy.summary(2.0), "elastic tier");
    let (l, n) = (legacy.as_elastic().unwrap(), tenanted.as_elastic().unwrap());
    assert_eq!(n.routed_per_node, l.routed_per_node);
    assert_eq!(n.events.len(), l.events.len());

    // The tenant slices themselves agree: one default-tenant slice whose
    // totals equal the aggregate.
    let summary = tenanted.summary(2.0);
    assert_eq!(summary.tenants.len(), 1);
    assert_eq!(summary.tenants[0].tenant, TenantId::DEFAULT);
    assert_eq!(summary.tenants[0].completed, summary.completed);
}

#[test]
fn summaries_expose_tier_appropriate_gpu_hours() {
    let t = trace(107, 200);
    for options in [DeployOptions::default(), DeployOptions::saturated(50)] {
        let mut single = Deployment::single(node_config(4, 400)).run_with(&t, options);
        let s = single.summary(2.0);
        // A static tier occupies all its GPUs for the whole run.
        let expect = 4.0 * s.finished_mins / 60.0;
        assert!((s.gpu_hours - expect).abs() < 1e-9);

        // The baselines summarize their node's own report. With nothing
        // shed, the single tier's node report summarizes to the same row
        // as the engine's.
        let node = single.as_single().expect("single tier").clone();
        assert_eq!(node.shed, 0);
        let from_node = Summary::from_node_report(node, 4, 2.0);
        assert_eq!(from_node, s, "{options:?}");
    }

    let mut fleet = Deployment::fleet(
        node_config(2, 200),
        Router::new(RoutingPolicy::RoundRobin, 2),
    )
    .run(&t);
    let f = fleet.summary(2.0);
    assert_eq!(f.total_gpus, 4);
    assert!((f.gpu_hours - 4.0 * f.finished_mins / 60.0).abs() < 1e-9);
    // The per-node breakdown reads each node's own report.
    let report = fleet.as_fleet().expect("fleet tier");
    let per_node = fleet.per_node();
    assert_eq!(per_node.len(), report.nodes.len());
    for (slice, node) in per_node.iter().zip(&report.nodes) {
        assert_eq!(slice.routed, node.routed);
        assert_eq!(slice.completed, Some(node.report.completed()));
    }
}
