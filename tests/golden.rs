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
//! and open-loop with warmup, next to a one-node fleet.
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
use modm::core::{MoDMConfig, ServingReport, TenancyPolicy, TenantShare};
use modm::deploy::{
    summaries_to_json, DeployOptions, Deployment, EventLogObserver, ServingBackend, Summary,
};
use modm::fleet::{Router, RoutingPolicy};
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

/// One 4-GPU node under overload control: token buckets on two of the
/// three tenants and a queue-time budget tight enough to shed.
fn overloaded_node() -> MoDMConfig {
    MoDMConfig::builder()
        .gpus(GpuKind::Mi210, 4)
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

/// A three-tenant trace offered at about twice the node's capacity.
fn overload_trace() -> Trace {
    TraceBuilder::diffusion_db(SINGLE_SEED)
        .requests(SINGLE_REQUESTS)
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
    let trace = overload_trace();
    let runs = [
        (
            "single saturated",
            Deployment::single(overloaded_node()),
            DeployOptions::saturated(SINGLE_WARMUP),
        ),
        (
            "single open-loop",
            Deployment::single(overloaded_node()),
            DeployOptions {
                warmup: SINGLE_WARMUP,
                saturate: false,
            },
        ),
        (
            "fleet of one",
            Deployment::fleet(
                overloaded_node(),
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

#[test]
fn single_closed_loop_matches_golden_snapshot() {
    let (rendered, summaries) = single_closed_loop_rows(false);
    // The saturated run must exercise both closed-loop backfill paths:
    // refusals retry after their hint, sheds release their slot.
    assert!(summaries[0].rejected > 0, "token buckets must refuse");
    assert!(summaries[0].shed > 0, "the queue budget must shed");
    let (observed, _) = single_closed_loop_rows(true);
    assert!(observed == rendered, "observation perturbed the runs");
    check_text("single_closed_loop", SINGLE_SEED, &rendered);
}
