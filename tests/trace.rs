//! Acceptance tests for causal tracing: the claims the `trace`
//! experiment prints must hold on its exact setup — observation never
//! perturbs any tier, phase decomposition is exact, the overload pair's
//! critical-path shift is real and the diagnoser finds it — plus
//! span-tree conservation through elastic crash and drain under the
//! seed sweep.

use std::sync::OnceLock;

use modm::cluster::GpuKind;
use modm::controlplane::{FaultInjector, HoldAutoscaler, ScaleDecision, ScheduledAutoscaler};
use modm::core::{MoDMConfig, TenancyPolicy, TenantShare};
use modm::deploy::{DeployOptions, Deployment, LifecyclePlan, ServingBackend};
use modm::fleet::{Router, RoutingPolicy};
use modm::simkit::{Json, SimDuration};
use modm::trace::{diagnose, perfetto_json, Phase, TraceConfig, TraceObserver};
use modm::workload::{QosClass, TenantId, TenantMix, Trace, TraceBuilder};
use modm_experiments::overload::{overload_policy, queue_only_policy, run_discipline, INTERACTIVE};
use modm_experiments::trace::{run_traced_study, TracedStudy};

/// Both traced studies are deterministic and moderately expensive; run
/// each once for the whole test binary.
fn fifo() -> &'static TracedStudy {
    static RUN: OnceLock<TracedStudy> = OnceLock::new();
    RUN.get_or_init(|| run_traced_study(queue_only_policy()))
}

fn ctrl() -> &'static TracedStudy {
    static RUN: OnceLock<TracedStudy> = OnceLock::new();
    RUN.get_or_init(|| run_traced_study(overload_policy()))
}

fn sweep_seeds() -> Vec<u64> {
    match std::env::var("MODM_TEST_SEEDS") {
        Ok(s) => {
            let seeds: Vec<u64> = s
                .split_whitespace()
                .map(|tok| tok.parse().expect("MODM_TEST_SEEDS: u64 seeds"))
                .collect();
            assert!(!seeds.is_empty(), "MODM_TEST_SEEDS set but empty");
            seeds
        }
        Err(_) => vec![1],
    }
}

#[test]
fn tracing_observation_does_not_perturb_any_tier() {
    // The tracer reads the event stream and nothing else: on every tier
    // the observed run's summary is bit-for-bit the unobserved run's
    // (derived `PartialEq` compares raw f64 bits).
    type MakeDeployment = fn() -> Deployment;
    let trace = TraceBuilder::diffusion_db(105)
        .requests(300)
        .rate_per_min(12.0)
        .build();
    let deployments: [(&str, MakeDeployment); 3] = [
        ("single", || {
            Deployment::single(
                MoDMConfig::builder()
                    .gpus(GpuKind::Mi210, 4)
                    .cache_capacity(600)
                    .build(),
            )
        }),
        ("fleet", || {
            Deployment::fleet(
                MoDMConfig::builder()
                    .gpus(GpuKind::Mi210, 2)
                    .cache_capacity(300)
                    .build(),
                Router::new(RoutingPolicy::HybridAffinity, 2),
            )
        }),
        ("elastic", || {
            Deployment::elastic(
                MoDMConfig::builder()
                    .gpus(GpuKind::Mi210, 2)
                    .cache_capacity(300)
                    .build(),
                HoldAutoscaler,
                LifecyclePlan::new(2, 2, 4),
                FaultInjector::none(),
            )
        }),
    ];
    for (label, make) in deployments {
        let mut plain = make().run(&trace);
        let mut tracer = TraceObserver::new(TraceConfig::new());
        let mut observed = make().run_observed(&trace, DeployOptions::default(), &mut tracer);
        assert_eq!(plain.summary(2.0), observed.summary(2.0), "{label}");
        assert_eq!(tracer.open_trees(), 0, "{label}: all spans resolved");
    }

    // ...and on the study itself, against the PR 5 experiment's runner.
    assert_eq!(fifo().summary, run_discipline(queue_only_policy()));
}

#[test]
fn phase_sums_equal_span_totals_exactly() {
    // The decomposition is exact by construction: per tenant, the five
    // phase sums reproduce the total span seconds, and every retained
    // tree's phases sum to its end-to-end latency.
    for study in [fifo(), ctrl()] {
        for &tenant in &[TenantId(1), TenantId(2), TenantId(3)] {
            let sums: f64 = study.trace.phase_sums(tenant).iter().sum();
            let total = study.trace.total_span_secs(tenant);
            assert!(
                (sums - total).abs() < 1e-6,
                "tenant {tenant}: phase sums {sums} != span total {total}"
            );
        }
        for tree in study.trace.sampled_trees() {
            if let Some(phases) = tree.phases() {
                let sum: f64 = phases.iter().sum();
                let total = tree.total_secs().expect("completed tree has a total");
                assert!(
                    (sum - total).abs() < 1e-9,
                    "request {}: {sum} != {total}",
                    tree.request_id
                );
            }
        }
    }
}

#[test]
fn queue_only_interactive_p99_is_queue_dominated() {
    // ≥80% of the interactive tenant's P99 latency under queue-only
    // FIFO is queue wait — the request sat behind the flood.
    let p99 = fifo()
        .trace
        .attribution(INTERACTIVE, 0.99)
        .expect("interactive completions under FIFO");
    let queue_frac = p99.fraction(Phase::Queue);
    assert!(
        queue_frac >= 0.8,
        "interactive P99 queue fraction {queue_frac:.3} < 0.8"
    );
    assert_eq!(p99.dominant(), Phase::Queue);
}

#[test]
fn control_plane_shifts_critical_path_to_service() {
    // Under the PR 5 control plane the interactive tenant's latency
    // becomes service-dominated: service is the largest phase of the
    // aggregate decomposition and GPU work (service + the cache-miss
    // regeneration penalty) outweighs queue wait — the opposite of the
    // queue-only run, where queue wait is >90% of everything.
    let fsums = fifo().trace.phase_sums(INTERACTIVE);
    let ftotal = fifo().trace.total_span_secs(INTERACTIVE);
    assert!(fsums[Phase::Queue.index()] / ftotal > 0.9);

    let csums = ctrl().trace.phase_sums(INTERACTIVE);
    let queue = csums[Phase::Queue.index()];
    let service = csums[Phase::Service.index()];
    let miss = csums[Phase::MissPenalty.index()];
    assert!(
        service > queue,
        "service {service:.1} s must be the dominant phase (queue {queue:.1} s)"
    );
    assert!(
        service + miss > queue,
        "GPU work {:.1} s must outweigh queue wait {queue:.1} s",
        service + miss
    );
}

#[test]
fn diagnoser_ranks_the_interactive_queue_shift_first() {
    // Given only the two snapshots, the run-diff localizes the biggest
    // change to (interactive, queue) — the same shift the tables show.
    let base = fifo().snapshot("queue-only");
    let cand = ctrl().snapshot("overload-control");
    let diff = diagnose(&base, &cand);
    let top = diff.top().expect("the pair differs");
    assert_eq!(top.tenant, INTERACTIVE);
    assert_eq!(top.phase, Phase::Queue);
    assert!(
        top.delta_secs < 0.0,
        "the control plane improves interactive queue wait"
    );
    // The rendered report leads with the same finding.
    let report = diff.report();
    let first_line = report
        .lines()
        .find(|l| l.trim_start().starts_with("#1"))
        .expect("ranked findings");
    assert!(first_line.contains("t1"), "report: {first_line}");
    assert!(first_line.contains("queue"), "report: {first_line}");
}

#[test]
fn perfetto_export_parses_and_counts_match_the_event_log() {
    for study in [fifo(), ctrl()] {
        let json = perfetto_json(&study.trace);
        let doc = Json::parse(&json).expect("exported JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // Every entry carries the mandatory Trace Event Format fields.
        for entry in events {
            let ph = entry
                .get("ph")
                .and_then(|v| v.as_str())
                .expect("phase field");
            assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        }
        // The export's event tally is the independent log's, kind for
        // kind — nothing double-counted or dropped by sampling.
        let counts = doc
            .get("otherData")
            .and_then(|v| v.get("event_counts"))
            .expect("event_counts object");
        let expected = study.log.kind_counts();
        assert_eq!(counts.as_obj().map(<[_]>::len), Some(expected.len()));
        for (kind, count) in expected {
            let exported = counts
                .get(kind)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("missing kind {kind}"));
            assert_eq!(exported as u64, count, "kind {kind}");
        }
    }
}

const T_INTERACTIVE: TenantId = TenantId(1);
const T_BATCH: TenantId = TenantId(2);
const T_FREE: TenantId = TenantId(3);

fn crash_drain_trace(seed: u64) -> Trace {
    TraceBuilder::diffusion_db(seed)
        .requests(420)
        .tenants(vec![
            TenantMix::new(T_INTERACTIVE, QosClass::Interactive, 3.0),
            TenantMix::new(T_BATCH, QosClass::Standard, 12.0),
            TenantMix::new(T_FREE, QosClass::BestEffort, 3.0),
        ])
        .build()
}

#[test]
fn span_trees_conserve_through_elastic_crash_and_drain() {
    // Property, swept under MODM_TEST_SEEDS: every admitted request id
    // ends in exactly one terminal across crash redelivery, rate-limit
    // rejection and drain — and the tail sampler's retention never
    // exceeds its configured bound.
    for seed in sweep_seeds() {
        let trace = crash_drain_trace(3_131 ^ seed.wrapping_mul(7_919));
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
        let config = TraceConfig::new()
            .with_slowest(8)
            .with_head_sample(32, 16)
            .with_class(T_INTERACTIVE, QosClass::Interactive)
            .with_class(T_BATCH, QosClass::Standard)
            .with_class(T_FREE, QosClass::BestEffort);
        let mut tracer = TraceObserver::new(config);
        let summary = deployment
            .run_observed(&trace, DeployOptions::default(), &mut tracer)
            .summary(2.0);

        for tenant in [T_INTERACTIVE, T_BATCH, T_FREE] {
            let offered = trace.tenant_len(tenant) as u64;
            let (completed, rejected, shed) = tracer.terminals(tenant);
            assert_eq!(
                completed + rejected + shed,
                offered,
                "seed {seed} tenant {tenant}: {completed}+{rejected}+{shed} != {offered}"
            );
            let row = summary
                .tenants
                .iter()
                .find(|t| t.tenant == tenant)
                .expect("tenant row");
            assert_eq!(completed, row.completed, "seed {seed} tenant {tenant}");
            assert_eq!(rejected, row.rejected, "seed {seed} tenant {tenant}");
            assert_eq!(shed, row.shed, "seed {seed} tenant {tenant}");
        }
        assert_eq!(tracer.open_trees(), 0, "seed {seed}: nothing in flight");
        let bound = tracer.config().tree_bound(tracer.tenants_seen());
        assert!(
            tracer.sampled_tree_count() <= bound,
            "seed {seed}: {} retained trees > bound {bound}",
            tracer.sampled_tree_count()
        );
    }
}
