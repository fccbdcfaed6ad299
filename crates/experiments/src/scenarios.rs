//! Adversarial-scenario study: the closed loop under a retry storm and
//! under whole-region loss.
//!
//! Every other study replays its trace open-loop — a rejected request is
//! simply gone. This study drives the same serving stack through
//! `modm-scenario`'s closed loop, where rejected clients come back:
//!
//! * **Retry storm.** One tenant goes viral (a 10× flash crowd for three
//!   minutes) against a token-bucket cap sized near its steady share.
//!   The same trace is replayed under two client populations:
//!   [`RetryPolicy::honoring`] waits out the server's `retry_after`
//!   hint with capped exponential backoff, [`RetryPolicy::naive`]
//!   hammers every half-second until its budget burns. Honoring clients
//!   spread the surge over the bucket's refill and land far more of it;
//!   naive clients amplify offers during the crunch, then abandon. The
//!   bystander tenants — including the interactive one sharing the
//!   crowd's home region — hold their SLO either way, because admission
//!   rejects are cheap; what the retry policy decides is the *crowd's
//!   own* fate.
//! * **Region failover.** Two regions, half the tenants homed in each.
//!   At minute 12 region 1 drops: its queued and in-flight backlog is
//!   redelivered to the survivor (one RTT later) and the hottest half of
//!   its cache shards is handed off across the region boundary. The
//!   survivor absorbs the redelivered backlog — every request still
//!   reaches exactly one terminal — and the handoff keeps the aggregate
//!   hit rate within a few points of the no-loss run.
//!
//! `tests/scenarios.rs` pins these claims; `tests/golden.rs` pins both
//! tables byte-for-byte.

use modm_cluster::GpuKind;
use modm_core::{MoDMConfig, TenancyPolicy, TenantShare};
use modm_scenario::{
    RetryPolicy, Scenario, ScenarioAction, ScenarioReport, ScenarioScript, TwoRegion,
};
use modm_workload::{QosClass, TenantId, TenantMix};

use crate::common::banner;

/// Trace seed shared by the experiment, its acceptance tests and the
/// golden snapshots.
pub const STUDY_SEED: u64 = 9_191;
/// SLO multiple the study judges at (× large-model latency). Closed-loop
/// latencies include client backoff, so the bar is more lenient than the
/// open-loop studies'.
pub const SLO_MULTIPLE: f64 = 4.0;

/// The steady tenant homed in region 1 (1 mod 2), away from the crowd.
pub const REMOTE: TenantId = TenantId(1);
/// The tenant that goes viral; homes in region 0.
pub const CROWD: TenantId = TenantId(2);
/// The interactive bystander sharing the crowd's home region (4 mod 2 =
/// 0) — the tenant the flash-crowd fairness claim is about.
pub const INTERACTIVE: TenantId = TenantId(4);

/// Nodes per region (two regions — [`TwoRegion::REGIONS`]).
const NODES_PER_REGION: usize = 2;
/// GPUs per node: 12 per region, ~10 req/min sustainable on this mix.
const GPUS_PER_NODE: usize = 6;
/// Cache entries per shard.
const CACHE_PER_NODE: usize = 400;

/// When the flash crowd hits, minutes into the run.
pub const CROWD_AT_MINS: f64 = 8.0;
/// How long the crowd lasts.
pub const CROWD_DURATION_MINS: f64 = 3.0;
/// The surge multiplier.
pub const CROWD_MULTIPLIER: f64 = 10.0;
/// Retry-storm study horizon.
const STORM_HORIZON_MINS: f64 = 25.0;

/// When region 1 is lost in the failover study, minutes into the run.
pub const LOSS_AT_MINS: f64 = 12.0;
/// The region the failover study kills.
pub const LOST_REGION: usize = 1;
/// Failover study horizon.
const FAILOVER_HORIZON_MINS: f64 = 30.0;

/// Per-tenant admission and fairness for the storm study: the crowd is
/// token-bucket-capped at 4 req/min/node — 8 req/min across its home
/// region, four times its 2 req/min base rate, so honoring retries have
/// real refill headroom to drain into — the interactive bystander
/// carries double weight, nobody else is limited.
fn storm_policy() -> TenancyPolicy {
    TenancyPolicy::weighted_fair(vec![
        TenantShare::new(REMOTE, 1.0).with_cache_reserve(60),
        TenantShare::new(CROWD, 1.0).with_cache_reserve(60),
        TenantShare::new(INTERACTIVE, 2.0).with_cache_reserve(60),
    ])
    .with_rate_limit(CROWD, 4.0, 8.0)
}

fn node_config(tenancy: TenancyPolicy, seed: u64) -> MoDMConfig {
    MoDMConfig::builder()
        .gpus(GpuKind::Mi210, GPUS_PER_NODE)
        .cache_capacity(CACHE_PER_NODE)
        .tenancy(tenancy)
        .seed(seed)
        .build()
}

/// The storm script: three tenants at ~10 req/min aggregate, with the
/// crowd's 10× surge folded in unless `with_crowd` is false (the
/// baseline the flash-crowd fairness claim compares against).
pub fn storm_script(with_crowd: bool) -> ScenarioScript {
    let script = ScenarioScript::new(
        STORM_HORIZON_MINS,
        vec![
            TenantMix::new(REMOTE, QosClass::Standard, 4.0),
            TenantMix::new(CROWD, QosClass::Standard, 2.0),
            TenantMix::new(INTERACTIVE, QosClass::Interactive, 3.0),
        ],
    );
    if with_crowd {
        script.with_action(ScenarioAction::FlashCrowd {
            tenant: CROWD,
            at_mins: CROWD_AT_MINS,
            duration_mins: CROWD_DURATION_MINS,
            multiplier: CROWD_MULTIPLIER,
        })
    } else {
        script
    }
}

/// The retry-storm scenario under `retry`, with or without the crowd.
/// Same seed ⇒ same trace, so two retry policies see identical arrivals.
pub fn storm_scenario_for(seed: u64, retry: RetryPolicy, with_crowd: bool) -> Scenario {
    Scenario::new(
        node_config(storm_policy(), seed),
        storm_script(with_crowd),
        TwoRegion::new(NODES_PER_REGION),
    )
    .expect("the storm script validates against its policy")
    .with_retry(retry)
}

/// The failover script: two tenants, one homed in each region, and —
/// when `with_loss` — region 1 lost at minute 12.
pub fn failover_script(with_loss: bool) -> ScenarioScript {
    let script = ScenarioScript::new(
        FAILOVER_HORIZON_MINS,
        vec![
            TenantMix::new(TenantId(1), QosClass::Standard, 4.0),
            TenantMix::new(TenantId(2), QosClass::Standard, 4.0),
        ],
    );
    if with_loss {
        script.with_action(ScenarioAction::RegionLoss {
            at_mins: LOSS_AT_MINS,
            region: LOST_REGION,
        })
    } else {
        script
    }
}

/// The failover scenario: hottest-half cache handoff on loss; the
/// no-loss variant is the hit-rate baseline.
pub fn failover_scenario_for(seed: u64, with_loss: bool) -> Scenario {
    let tenancy = TenancyPolicy::weighted_fair(vec![
        TenantShare::new(TenantId(1), 1.0).with_cache_reserve(80),
        TenantShare::new(TenantId(2), 1.0).with_cache_reserve(80),
    ]);
    Scenario::new(
        node_config(tenancy, seed),
        failover_script(with_loss),
        TwoRegion::new(NODES_PER_REGION),
    )
    .expect("the failover script validates against its policy")
}

/// The churn scenario: tenant 3 joins at minute 6 (weight 1, 60-entry
/// cache reserve, its own token bucket) and leaves at minute 18, under
/// otherwise steady two-tenant load. Exercised by the accounting claims
/// and the seed-matrix property test, not by the printed tables.
pub fn churn_scenario_for(seed: u64) -> Scenario {
    let tenancy = TenancyPolicy::weighted_fair(vec![
        TenantShare::new(TenantId(1), 1.0).with_cache_reserve(80),
        TenantShare::new(TenantId(2), 1.0).with_cache_reserve(80),
    ]);
    let script = ScenarioScript::new(
        24.0,
        vec![
            TenantMix::new(TenantId(1), QosClass::Standard, 4.0),
            TenantMix::new(TenantId(2), QosClass::Standard, 4.0),
        ],
    )
    .with_action(ScenarioAction::TenantJoin {
        at_mins: 6.0,
        mix: TenantMix::new(TenantId(3), QosClass::BestEffort, 4.0),
        weight: 1.0,
        cache_reserve: 60,
        rate_limit: Some((6.0, 8.0)),
    })
    .with_action(ScenarioAction::TenantLeave {
        at_mins: 18.0,
        tenant: TenantId(3),
    });
    Scenario::new(
        node_config(tenancy, seed),
        script,
        TwoRegion::new(NODES_PER_REGION),
    )
    .expect("the churn script validates against its policy")
}

fn tenant_slice(report: &ScenarioReport, tenant: TenantId) -> Option<&modm_core::TenantSlice> {
    report.tenant_slices.iter().find(|s| s.tenant == tenant)
}

/// The retry-storm table: the flash-crowd trace under honoring vs naive
/// clients, crowd-tenant and bystander outcomes side by side.
/// Byte-stable per seed — `tests/golden.rs` snapshots it.
pub fn retry_table_for(seed: u64) -> String {
    let mut out = String::new();
    out.push_str(
        "population  offers  reoffers  abandoned  completed  crowd-done  crowd-left  \
         inter-slo  goodput\n",
    );
    for (name, retry) in [
        ("honoring", RetryPolicy::honoring()),
        ("naive", RetryPolicy::naive()),
    ] {
        let scenario = storm_scenario_for(seed, retry, true);
        let report = scenario.run();
        let crowd = tenant_slice(&report, CROWD).expect("crowd tenant ran");
        let inter = tenant_slice(&report, INTERACTIVE).expect("interactive tenant ran");
        out.push_str(&format!(
            "{name:<10}  {:>6}  {:>8}  {:>9}  {:>9}  {:>10}  {:>10}  {:>9.3}  {:>7}\n",
            report.retry.offers,
            report.retry.reoffers,
            report.retry.abandoned,
            report.completed(),
            crowd.completed,
            crowd.rejected,
            inter.slo_attainment(&report.slo, SLO_MULTIPLE),
            report.goodput(SLO_MULTIPLE),
        ));
    }
    out
}

/// The failover table: the two-region run with and without region loss —
/// per-region completions and hit rates, redeliveries, aggregate hit
/// rate, GPU-hours. Byte-stable per seed — `tests/golden.rs` snapshots
/// it.
pub fn failover_table_for(seed: u64) -> String {
    let mut out = String::new();
    out.push_str(
        "variant  completed  redelivered  hit-rate  r0-done  r0-hit  r1-done  r1-hit  \
         lost@min  gpu-hours\n",
    );
    for (name, with_loss) in [("steady", false), ("loss", true)] {
        let scenario = failover_scenario_for(seed, with_loss);
        let report = scenario.run();
        let r0 = report.region(0).expect("region 0 reported");
        let r1 = report.region(1).expect("region 1 reported");
        let lost = r1
            .lost_at_mins
            .map_or("-".to_string(), |m| format!("{m:.1}"));
        out.push_str(&format!(
            "{name:<7}  {:>9}  {:>11}  {:>8.3}  {:>7}  {:>6.3}  {:>7}  {:>6.3}  {lost:>8}  {:>9.2}\n",
            report.completed(),
            report.retry.redelivered,
            report.hit_rate(),
            r0.completed,
            r0.hit_rate,
            r1.completed,
            r1.hit_rate,
            report.gpu_hours,
        ));
    }
    out
}

/// Prints the retry-storm and region-failover tables.
pub fn run() {
    banner("scenarios: retry storm and two-region failover (closed loop)");
    println!(
        "flash crowd: tenant {} x{CROWD_MULTIPLIER} at minute {CROWD_AT_MINS} for \
         {CROWD_DURATION_MINS} min, token bucket at 4/min/node\n",
        CROWD.0
    );
    println!("{}", retry_table_for(STUDY_SEED));
    println!(
        "region loss: region {LOST_REGION} at minute {LOSS_AT_MINS}, hottest-half cache handoff\n"
    );
    println!("{}", failover_table_for(STUDY_SEED));
}
