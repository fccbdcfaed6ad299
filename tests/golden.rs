//! Golden-run regression tests: each study's summaries, rendered to
//! JSON Lines, must match the checked-in snapshots byte for byte.
//!
//! The suite's 400+ deterministic tests check *properties*; these
//! snapshots additionally pin the *exact numbers* fixed seeds produce,
//! so a refactor that silently shifts results — a reordered float
//! reduction, an RNG stream change, an off-by-one in the event loop —
//! fails loudly even when every property still holds. Five studies are
//! pinned: `tiers` (on two seeds), one seed each of `fleet`, `elastic`
//! and `tenancy`, plus the `trace` study's critical-path table (text,
//! not JSON — the rendered attribution itself is the artifact). One
//! more snapshot pins a single node under overload control, closed-loop
//! and open-loop with warmup, next to a one-node fleet, and another pins
//! the serving engine's multi-node paths under the same overload policy:
//! a closed-loop hybrid-affinity fleet with warmup, and an elastic fleet
//! that scales up, holds, scales down and survives a crash. A last
//! snapshot pins the scenario tier's five study runs at full precision
//! (the two scenario tables print three decimals).
//!
//! When a change is *supposed* to move the numbers (new feature, fixed
//! bug), regenerate the snapshots and review the diff like any other
//! code change:
//!
//! ```text
//! MODM_BLESS=1 cargo test --test golden
//! git diff tests/golden/
//! ```

use modm::cluster::GpuKind;
use modm::controlplane::{FaultInjector, ScaleDecision, ScheduledAutoscaler};
use modm::core::{MoDMConfig, ServingReport, TenancyPolicy, TenantShare};
use modm::deploy::{
    summaries_to_json, DeployOptions, Deployment, EventLogObserver, LifecyclePlan, RunOutcome,
    ServingBackend, Summary, TierKind,
};
use modm::fleet::{Router, RoutingPolicy};
use modm::scenario::RetryPolicy;
use modm::simkit::SimDuration;
use modm::workload::{QosClass, TenantId, TenantMix, Trace, TraceBuilder};
use modm_experiments::{elastic, fleet_scaling, scenarios, tenancy, tiers, trace};

/// The `tiers` study's pinned seeds: its own seed and an independent
/// one. Snapshot lengths are reduced from the experiments' full traces
/// to keep the debug-mode test suite fast; determinism does not depend
/// on length.
const TIERS_SEEDS: [u64; 2] = [tiers::STUDY_SEED, 1_913];
const TIERS_REQUESTS: usize = 600;
const FLEET_REQUESTS: usize = 500;
const ELASTIC_REQUESTS: usize = 400;
const TENANCY_REQUESTS: usize = 300;
const TRACE_REQUESTS: usize = 400;
const SINGLE_SEED: u64 = 5_150;
const SINGLE_REQUESTS: usize = 600;
const SINGLE_WARMUP: usize = 100;
const ENGINE_SEED: u64 = 6_161;
const ENGINE_REQUESTS: usize = 600;
const ENGINE_WARMUP: usize = 100;

fn golden_path(study: &str, seed: u64) -> String {
    format!(
        "{}/tests/golden/{study}_seed{seed}.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Compares free-form rendered text byte-for-byte against a checked-in
/// `.txt` snapshot (or regenerates it under `MODM_BLESS=1`).
fn check_text(study: &str, seed: u64, rendered: &str) {
    let path = format!(
        "{}/tests/golden/{study}_seed{seed}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("MODM_BLESS").is_ok() {
        std::fs::write(&path, rendered).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path}: {e}; regenerate with MODM_BLESS=1")
    });
    assert!(
        rendered == want,
        "{study} output for seed {seed} diverged from {path}.\n\
         If the change is intentional, regenerate with:\n\
         MODM_BLESS=1 cargo test --test golden\n\
         and commit the snapshot diff.\n\
         --- got ---\n{rendered}\n--- want ---\n{want}"
    );
}

/// Renders `rows` and compares them byte-for-byte against the study's
/// checked-in snapshot (or regenerates it under `MODM_BLESS=1`).
fn check_rows(study: &str, seed: u64, rows: &[(String, Summary)]) {
    let rendered = summaries_to_json(rows);
    let path = golden_path(study, seed);
    if std::env::var("MODM_BLESS").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path}: {e}; regenerate with MODM_BLESS=1")
    });
    assert!(
        rendered == want,
        "{study} summaries for seed {seed} diverged from {path}.\n\
         If the change is intentional, regenerate with:\n\
         MODM_BLESS=1 cargo test --test golden\n\
         and commit the snapshot diff.\n\
         --- got ---\n{rendered}\n--- want ---\n{want}"
    );
}

#[test]
fn tiers_summaries_match_golden_snapshot_seed_a() {
    let seed = TIERS_SEEDS[0];
    let rows = tiers::run_rows_on(&tiers::study_trace_for(seed, TIERS_REQUESTS));
    check_rows("tiers", seed, &rows);
}

#[test]
fn tiers_summaries_match_golden_snapshot_seed_b() {
    let seed = TIERS_SEEDS[1];
    let rows = tiers::run_rows_on(&tiers::study_trace_for(seed, TIERS_REQUESTS));
    check_rows("tiers", seed, &rows);
}

#[test]
fn fleet_summaries_match_golden_snapshot() {
    let seed = fleet_scaling::STUDY_SEED;
    let rows = fleet_scaling::run_rows_on(&fleet_scaling::study_trace_for(seed, FLEET_REQUESTS));
    check_rows("fleet", seed, &rows);
}

#[test]
fn elastic_summaries_match_golden_snapshot() {
    let seed = elastic::STUDY_SEED;
    let rows = elastic::run_rows_on(&elastic::diurnal_trace(seed, ELASTIC_REQUESTS));
    check_rows("elastic", seed, &rows);
}

#[test]
fn tenancy_summaries_match_golden_snapshot() {
    let seed = tenancy::STUDY_SEED;
    let rows = tenancy::run_rows_on(&tenancy::study_trace_for(seed, TENANCY_REQUESTS));
    check_rows("tenancy", seed, &rows);
}

#[test]
fn trace_critical_path_table_matches_golden_snapshot() {
    // The queue-only overload study's critical-path table: every count,
    // percentage and quantile the attribution renders, byte for byte.
    let seed = modm_experiments::overload::STUDY_SEED;
    let table = trace::critical_path_table_for(seed, TRACE_REQUESTS);
    check_text("trace", seed, &table);
}

#[test]
fn scenarios_retry_storm_table_matches_golden_snapshot() {
    // The closed-loop retry-storm convergence table: honoring vs naive
    // client populations on the identical flash-crowd trace — offers,
    // re-offers, abandonment, crowd outcomes, bystander SLO, goodput.
    let seed = scenarios::STUDY_SEED;
    check_text("scenarios_retry", seed, &scenarios::retry_table_for(seed));
}

#[test]
fn scenarios_failover_table_matches_golden_snapshot() {
    // The two-region failover table: steady vs region-loss runs —
    // redeliveries, per-region completions and hit rates, GPU-hours.
    let seed = scenarios::STUDY_SEED;
    check_text(
        "scenarios_failover",
        seed,
        &scenarios::failover_table_for(seed),
    );
}

/// Renders the scenario tier at full precision: the honoring and naive
/// storms with the crowd, the steady and loss failovers, and churn. Each
/// run is its `Summary` JSON followed by the report fields the summary
/// omits — retry accounting, every region slice, per-node routing, and
/// the exact bits of the GPU-hours and the last completion.
fn scenarios_full_rows() -> String {
    let seed = scenarios::STUDY_SEED;
    let runs = [
        (
            "honoring storm",
            scenarios::storm_scenario_for(seed, RetryPolicy::honoring(), true),
        ),
        (
            "naive storm",
            scenarios::storm_scenario_for(seed, RetryPolicy::naive(), true),
        ),
        (
            "steady failover",
            scenarios::failover_scenario_for(seed, false),
        ),
        (
            "loss failover",
            scenarios::failover_scenario_for(seed, true),
        ),
        ("churn", scenarios::churn_scenario_for(seed)),
    ];
    let mut rendered = String::new();
    for (label, scenario) in runs {
        let gpus = scenario.node_config().num_gpus;
        let mut outcome = RunOutcome::new(TierKind::Scenario, scenario.run(), gpus);
        rendered.push_str(&outcome.summary(scenarios::SLO_MULTIPLE).to_json(label));
        rendered.push('\n');
        let report = outcome.as_elastic().expect("the engine's report");
        rendered.push_str(&format!(
            "retry={:?}\nregions={:?}\nrouted_per_node={:?} gpu_hours_bits={:#018x} \
             finished_at={:?}\n",
            report.retry,
            report.regions,
            report.routed_per_node,
            report.gpu_hours.to_bits(),
            report.finished_at,
        ));
    }
    rendered
}

#[test]
fn scenarios_full_precision_matches_golden_snapshot() {
    check_text(
        "scenarios_full",
        scenarios::STUDY_SEED,
        &scenarios_full_rows(),
    );
}

/// One `gpus`-GPU node under overload control: token buckets on two of
/// the three tenants and a queue-time budget tight enough to shed.
fn overloaded_node(gpus: usize) -> MoDMConfig {
    MoDMConfig::builder()
        .gpus(GpuKind::Mi210, gpus)
        .cache_capacity(300)
        .tenancy(
            TenancyPolicy::weighted_fair(vec![
                TenantShare::new(TenantId(1), 4.0),
                TenantShare::new(TenantId(2), 2.0),
                TenantShare::new(TenantId(3), 1.0),
            ])
            .with_rate_limit(TenantId(2), 6.0, 4.0)
            .with_rate_limit(TenantId(3), 3.0, 2.0)
            .with_queue_budget(SimDuration::from_secs_f64(240.0)),
        )
        .build()
}

/// A three-tenant trace offered at about twice a 4-GPU node's capacity.
fn overload_trace(seed: u64, requests: usize) -> Trace {
    TraceBuilder::diffusion_db(seed)
        .requests(requests)
        .tenants(vec![
            TenantMix::new(TenantId(1), QosClass::Interactive, 3.0),
            TenantMix::new(TenantId(2), QosClass::Standard, 20.0),
            TenantMix::new(TenantId(3), QosClass::BestEffort, 5.0),
        ])
        .build()
}

/// The `ServingReport` fields `Summary` leaves out, as one text line.
fn report_extras(report: &ServingReport) -> String {
    format!(
        "k_histogram={:?} model_switches={} cache_insertions={} cache_evictions={} \
         allocation_samples={} mean_clip_bits={:#018x}",
        report.k_histogram,
        report.model_switches,
        report.cache_stats.insertions(),
        report.cache_stats.evictions(),
        report.allocation_series.len(),
        report.quality.mean_clip().to_bits(),
    )
}

/// Renders the single-node snapshot: a saturated (closed-loop) single
/// node with warmup, the same node open-loop with warmup, and a one-node
/// cache-affinity fleet with warmup. Each run is two lines: its
/// `Summary` JSON and the report fields the summary omits.
fn single_closed_loop_rows(observe: bool) -> (String, Vec<Summary>) {
    let trace = overload_trace(SINGLE_SEED, SINGLE_REQUESTS);
    let runs = [
        (
            "single saturated",
            Deployment::single(overloaded_node(4)),
            DeployOptions::saturated(SINGLE_WARMUP),
        ),
        (
            "single open-loop",
            Deployment::single(overloaded_node(4)),
            DeployOptions {
                warmup: SINGLE_WARMUP,
                saturate: false,
            },
        ),
        (
            "fleet of one",
            Deployment::fleet(
                overloaded_node(4),
                Router::new(RoutingPolicy::CacheAffinity, 1),
            ),
            DeployOptions::saturated(SINGLE_WARMUP),
        ),
    ];
    let mut rendered = String::new();
    let mut summaries = Vec::new();
    for (label, mut deployment, options) in runs {
        let mut outcome = if observe {
            let mut log = EventLogObserver::new();
            deployment.run_observed(&trace, options, &mut log)
        } else {
            deployment.run_with(&trace, options)
        };
        let summary = outcome.summary(2.0);
        let report = outcome
            .as_single()
            .or_else(|| outcome.as_fleet().map(|f| &f.nodes[0].report))
            .expect("a one-node tier");
        rendered.push_str(&summary.to_json(label));
        rendered.push('\n');
        rendered.push_str(&report_extras(report));
        rendered.push('\n');
        summaries.push(summary);
    }
    (rendered, summaries)
}

/// Asserts one accounting: every row, and each of its tenants, counts a
/// request as a hit or a miss exactly when it completes.
fn assert_each_completion_counts_once(summaries: &[Summary]) {
    for summary in summaries {
        let tier = summary.tier.name();
        assert_eq!(summary.hits + summary.misses, summary.completed, "{tier}");
        for t in &summary.tenants {
            assert_eq!(t.hits + t.misses, t.completed, "{tier} tenant {}", t.tenant);
        }
    }
}

#[test]
fn single_closed_loop_matches_golden_snapshot() {
    let (rendered, summaries) = single_closed_loop_rows(false);
    assert_each_completion_counts_once(&summaries);
    // The saturated run must exercise both closed-loop backfill paths:
    // refusals retry after their hint, sheds release their slot.
    assert!(summaries[0].rejected > 0, "token buckets must refuse");
    assert!(summaries[0].shed > 0, "the queue budget must shed");
    let (observed, _) = single_closed_loop_rows(true);
    assert!(observed == rendered, "observation perturbed the runs");
    check_text("single_closed_loop", SINGLE_SEED, &rendered);
}

/// Runs `deployment` on `trace`, observed or not.
fn serve(
    deployment: &mut Deployment,
    trace: &Trace,
    options: DeployOptions,
    observe: bool,
) -> RunOutcome {
    if observe {
        let mut log = EventLogObserver::new();
        deployment.run_observed(trace, options, &mut log)
    } else {
        deployment.run_with(trace, options)
    }
}

/// Renders the engine snapshot: a closed-loop 4-node hybrid-affinity
/// fleet with warmup, and an elastic fleet that scales up, holds, scales
/// down and loses a node to a crash, both under the overload policy.
/// Each run is its `Summary` JSON followed by the report fields the
/// summary omits.
fn engine_rows(observe: bool) -> (String, Vec<Summary>) {
    let trace = overload_trace(ENGINE_SEED, ENGINE_REQUESTS);
    let mut rendered = String::new();
    let mut summaries = Vec::new();

    let mut fleet = Deployment::fleet(
        overloaded_node(2),
        Router::new(RoutingPolicy::HybridAffinity, 4),
    );
    let mut outcome = serve(
        &mut fleet,
        &trace,
        DeployOptions::saturated(ENGINE_WARMUP),
        observe,
    );
    let summary = outcome.summary(2.0);
    rendered.push_str(&summary.to_json("hybrid fleet saturated"));
    rendered.push('\n');
    let report = outcome.as_fleet().expect("a fleet outcome");
    for node in &report.nodes {
        rendered.push_str(&format!(
            "node={} routed={} {}\n",
            node.node,
            node.routed,
            report_extras(&node.report)
        ));
    }
    let cache = &report.cache;
    rendered.push_str(&format!(
        "cache lookups={} hits={} insertions={} evictions={} len={} capacity={}\n",
        cache.lookups, cache.hits, cache.insertions, cache.evictions, cache.len, cache.capacity
    ));
    summaries.push(summary);

    let mut elastic = Deployment::elastic(
        overloaded_node(4),
        ScheduledAutoscaler::new(vec![
            ScaleDecision::Up(1),
            ScaleDecision::Hold,
            ScaleDecision::Down(1),
        ]),
        LifecyclePlan::new(3, 2, 5),
        FaultInjector::seeded(ENGINE_SEED, 6.0, 1, 3.0),
    );
    let mut outcome = serve(&mut elastic, &trace, DeployOptions::default(), observe);
    let summary = outcome.summary(2.0);
    rendered.push_str(&summary.to_json("elastic scripted crash"));
    rendered.push('\n');
    let report = outcome.as_elastic().expect("an elastic outcome");
    // Each event's Debug form carries its node and its prewarm, handoff
    // or crash counts.
    for event in &report.events {
        rendered.push_str(&format!("event at={:?} {:?}\n", event.at, event.kind));
    }
    rendered.push_str(&format!(
        "windows={} routed_per_node={:?} gpu_hours_bits={:#018x}\n",
        report.windows.len(),
        report.routed_per_node,
        report.gpu_hours.to_bits()
    ));
    summaries.push(summary);
    (rendered, summaries)
}

#[test]
fn engine_matches_golden_snapshot() {
    let (rendered, summaries) = engine_rows(false);
    assert_each_completion_counts_once(&summaries);
    for (summary, tier) in summaries.iter().zip(["fleet", "elastic"]) {
        assert!(summary.rejected > 0, "{tier}: token buckets must refuse");
        assert!(summary.shed > 0, "{tier}: the queue budget must shed");
    }
    assert!(rendered.contains(" Crash {"), "the fault must fire");
    let (observed, _) = engine_rows(true);
    assert!(observed == rendered, "observation perturbed the runs");
    check_text("engine", ENGINE_SEED, &rendered);
}

/// Each node's decision counts and tenant slices, one line per node.
fn node_views(report: &modm::controlplane::ElasticReport) -> String {
    let mut rendered = String::new();
    for node in &report.nodes {
        let r = &node.report;
        rendered.push_str(&format!(
            "node={} hits={} misses={} k={:?} shed={} rejected={}",
            node.node, r.hits, r.misses, r.k_histogram, r.shed, r.rejected
        ));
        for s in &r.tenant_slices {
            rendered.push_str(&format!(
                " t{}:{}/c{}/h{}/m{}/r{}/s{}",
                s.tenant.0, s.qos, s.completed, s.hits, s.misses, s.rejected, s.shed
            ));
        }
        rendered.push('\n');
    }
    rendered
}

#[test]
fn node_views_under_shedding_are_pinned() {
    // An open-loop 4-node cache-affinity fleet under the overload
    // policy: every node refuses and sheds, so each node's hits, misses
    // and k histogram include work that never completed.
    let trace = overload_trace(ENGINE_SEED, ENGINE_REQUESTS);
    let mut fleet = Deployment::fleet(
        overloaded_node(2),
        Router::new(RoutingPolicy::CacheAffinity, 4),
    );
    let options = DeployOptions {
        warmup: ENGINE_WARMUP,
        saturate: false,
    };
    let outcome = fleet.run_with(&trace, options);
    let report = outcome.as_fleet().expect("a fleet outcome");
    // These equal the decisions counted at admission: a node that serves
    // the whole run serves or sheds every request it admits.
    let want = "\
node=0 hits=84 misses=24 k=[37, 25, 16, 0, 5, 1] shed=43 rejected=11 \
t1:interactive/c15/h14/m1/r0/s0 t2:standard/c48/h68/m16/r11/s36 t3:best-effort/c2/h2/m7/r0/s7
node=1 hits=122 misses=20 k=[43, 20, 48, 0, 10, 1] shed=24 rejected=41 \
t1:interactive/c21/h17/m4/r0/s0 t2:standard/c95/h94/m6/r36/s5 t3:best-effort/c2/h11/m10/r5/s19
node=2 hits=88 misses=36 k=[18, 59, 6, 0, 5, 0] shed=74 rejected=4 \
t1:interactive/c4/h2/m4/r0/s2 t2:standard/c39/h84/m9/r1/s54 t3:best-effort/c7/h2/m23/r3/s18
node=3 hits=33 misses=32 k=[22, 2, 6, 0, 2, 1] shed=29 rejected=5 \
t1:interactive/c5/h2/m4/r0/s1 t2:standard/c29/h17/m19/r0/s7 t3:best-effort/c2/h14/m9/r5/s21
";
    assert_eq!(node_views(report), want);
}
