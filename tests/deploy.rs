//! Cross-tier equivalence tests for the unified deployment API: every
//! tier driven through `Deployment` must reproduce the legacy entry
//! point's results seed-for-seed, with or without an observer attached.

use modm::cluster::GpuKind;
use modm::controlplane::{
    ElasticFleet, ElasticFleetConfig, FaultInjector, Fleet, HoldAutoscaler, ScaleDecision,
    ScheduledAutoscaler, ServingSystem,
};
use modm::core::{MoDMConfig, RunOptions, TenancyPolicy, TenantShare};
use modm::deploy::{
    DeployOptions, Deployment, EventLogObserver, LifecyclePlan, RunOutcome, ServingBackend,
    SimEvent, Summary, TierKind,
};
use modm::fleet::{Router, RoutingPolicy};
use modm::workload::{TenantId, Trace, TraceBuilder};

/// Float tolerance for [`modm::deploy::Summary::approx_eq`] in the
/// equivalence tests: tight enough that any behavioral drift fails, loose
/// enough that benign float reassociation (e.g. a reordered reduction in
/// a refactor) does not.
const EPS: f64 = 1e-9;

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
fn single_deployment_matches_legacy_serving_system() {
    let cfg = node_config(8, 1_000);
    let t = trace(101, 300);
    let system = ServingSystem::new(cfg.clone());
    let legacy = system.run(&t);
    let mut unified = Deployment::single(cfg.clone()).run(&t);
    assert_eq!(unified.tier(), TierKind::Single);

    // Summary-level identity (the acceptance criterion). approx_eq, not
    // the derived PartialEq: the claim is behavioral equivalence, and raw
    // f64 equality would also break on benign float reassociation.
    let summary = unified.summary(2.0);
    let engine = system.run_engine(&t, RunOptions::default(), None);
    let engine_summary = RunOutcome::new(TierKind::Single, engine, cfg.num_gpus).summary(2.0);
    assert!(summary.approx_eq(&engine_summary, EPS));
    // Nothing is shed, so the legacy report's scheduler-level counts and
    // static GPU-hours summarize to the same row.
    let legacy_summary = Summary::from_node_report(legacy.clone(), cfg.num_gpus, 2.0);
    assert!(summary.approx_eq(&legacy_summary, EPS));

    // ...and deep report identity underneath.
    let new = unified.as_single().expect("single tier");
    assert_eq!(format!("{new:?}"), format!("{legacy:?}"));
}

#[test]
fn single_deployment_matches_legacy_under_warmup_and_saturation() {
    let cfg = node_config(8, 1_000);
    let t = trace(102, 400);
    let system = ServingSystem::new(cfg.clone());
    let legacy = system.run_with(&t, RunOptions::saturated(100));
    let engine = system.run_engine(&t, RunOptions::saturated(100), None);
    let mut unified = Deployment::single(cfg.clone()).run_with(&t, DeployOptions::saturated(100));

    let summary = unified.summary(2.0);
    let engine_summary = RunOutcome::new(TierKind::Single, engine, cfg.num_gpus).summary(2.0);
    assert!(summary.approx_eq(&engine_summary, EPS));
    let legacy_summary = Summary::from_node_report(legacy.clone(), cfg.num_gpus, 2.0);
    assert!(summary.approx_eq(&legacy_summary, EPS));
    let new = unified.as_single().expect("single tier");
    assert_eq!(format!("{new:?}"), format!("{legacy:?}"));
}

#[test]
fn fleet_deployment_matches_legacy_fleet() {
    let cfg = node_config(2, 500);
    let t = trace(103, 400);
    let router = || Router::new(RoutingPolicy::CacheAffinity, 4);
    let legacy = Fleet::new(cfg.clone(), router()).run_with(
        &t,
        RunOptions {
            warmup: 50,
            saturate: false,
        },
    );
    let mut unified = Deployment::fleet(cfg.clone(), router()).run_with(
        &t,
        DeployOptions {
            warmup: 50,
            saturate: false,
        },
    );
    assert_eq!(unified.tier(), TierKind::Fleet);

    let legacy_outcome = RunOutcome::new(TierKind::Fleet, legacy.clone(), cfg.num_gpus);
    let per_node = unified.per_node();
    for (slice, node) in per_node.iter().zip(&legacy.nodes) {
        assert_eq!(slice.routed, node.routed);
        assert_eq!(slice.completed, Some(node.report.completed()));
    }
    assert!(unified
        .summary(2.0)
        .approx_eq(&legacy_outcome.clone().summary(2.0), EPS));
    let new = unified.as_fleet().expect("fleet tier");
    assert_eq!(new.hits, legacy.hits);
    assert_eq!(new.load_imbalance(), legacy.load_imbalance());
}

#[test]
fn elastic_deployment_matches_legacy_elastic_fleet() {
    let cfg = node_config(2, 500);
    let t = trace(104, 600);
    let plan = || {
        ScheduledAutoscaler::new(vec![
            ScaleDecision::Up(2),
            ScaleDecision::Hold,
            ScaleDecision::Down(1),
        ])
    };
    let faults = FaultInjector::seeded(9, 6.0, 1, 3.0);

    let mut legacy_plan = plan();
    let legacy = ElasticFleet::new(ElasticFleetConfig::new(cfg.clone(), 4, 2, 8)).run_with_faults(
        &t,
        &mut legacy_plan,
        &faults,
    );

    let mut unified =
        Deployment::elastic(cfg.clone(), plan(), LifecyclePlan::new(4, 2, 8), faults).run(&t);
    assert_eq!(unified.tier(), TierKind::Elastic);
    let legacy_outcome = RunOutcome::new(TierKind::Elastic, legacy.clone(), cfg.num_gpus);
    assert!(unified
        .summary(2.0)
        .approx_eq(&legacy_outcome.clone().summary(2.0), EPS));
    let new = unified.as_elastic().expect("elastic tier");
    assert_eq!(new.completed, legacy.completed);
    assert_eq!(new.hits, legacy.hits);
    assert_eq!(new.routed_per_node, legacy.routed_per_node);
    assert_eq!(new.events.len(), legacy.events.len());
    assert!((new.gpu_hours - legacy.gpu_hours).abs() < 1e-12);
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
    // which the derived PartialEq on Summary checks (approx_eq would hide
    // a real divergence here).
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
    let mut single = Deployment::single(node_config(4, 400)).run(&t);
    let s = single.summary(2.0);
    // A static tier occupies all its GPUs for the whole run.
    let expect = 4.0 * s.finished_mins / 60.0;
    assert!((s.gpu_hours - expect).abs() < 1e-9);

    let mut fleet = Deployment::fleet(
        node_config(2, 200),
        Router::new(RoutingPolicy::RoundRobin, 2),
    )
    .run(&t);
    let f = fleet.summary(2.0);
    assert_eq!(f.total_gpus, 4);
    assert!((f.gpu_hours - 4.0 * f.finished_mins / 60.0).abs() < 1e-9);
}
