//! Acceptance tests for the adversarial-scenario study: the four claims
//! the `scenarios` experiment prints must hold on its exact setup, plus
//! closed-loop conservation laws swept over the CI seed matrix.

use std::sync::OnceLock;

use modm::core::{TenancyPolicy, TenantShare};
use modm::scenario::{ElasticReport, RetryPolicy, ScenarioAction, ScenarioError, ScenarioScript};
use modm::trace::TraceObserver;
use modm::workload::{QosClass, TenantId, TenantMix};
use modm_experiments::scenarios::{
    churn_scenario_for, failover_scenario_for, storm_scenario_for, CROWD, INTERACTIVE,
    LOSS_AT_MINS, LOST_REGION, REMOTE, SLO_MULTIPLE, STUDY_SEED,
};

/// Seeds the conservation sweep runs under. Defaults to `[1]`; CI's
/// seed-matrix job widens the sweep with e.g. `MODM_TEST_SEEDS="1 7 42"`.
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

/// The storm pair — the same flash-crowd trace under honoring vs naive
/// clients — shared across the retry-storm claims.
fn storm_pair() -> &'static (ElasticReport, ElasticReport) {
    static PAIR: OnceLock<(ElasticReport, ElasticReport)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let honored = storm_scenario_for(STUDY_SEED, RetryPolicy::honoring(), true).run();
        let naive = storm_scenario_for(STUDY_SEED, RetryPolicy::naive(), true).run();
        (honored, naive)
    })
}

fn slice(report: &ElasticReport, tenant: TenantId) -> &modm::core::TenantSlice {
    report
        .tenant_slices
        .iter()
        .find(|s| s.tenant == tenant)
        .expect("tenant present in the report")
}

/// Fraction of the tenant's offered requests that completed.
fn completion_fraction(report: &ElasticReport, tenant: TenantId) -> f64 {
    let s = slice(report, tenant);
    s.completed as f64 / s.offered() as f64
}

// ---------------------------------------------------------------- claim (a)

#[test]
fn honoring_retry_after_converges_where_naive_hammering_abandons() {
    // Same trace, same fleet, same admission policy — the only variable
    // is what a rejected client does next. Honoring clients spread the
    // flash crowd over the token bucket's refill and land nearly all of
    // it; naive half-second hammering burns the retry budget inside the
    // crunch and abandons a fifth of the crowd.
    let (honored, naive) = storm_pair();
    let offered = honored.completed + honored.rejected + honored.shed;
    assert_eq!(
        offered,
        naive.completed + naive.rejected + naive.shed,
        "both populations face the identical offered load"
    );

    let h_crowd = completion_fraction(honored, CROWD);
    let n_crowd = completion_fraction(naive, CROWD);
    assert!(
        h_crowd >= 0.9,
        "honoring clients converge: crowd completion {h_crowd:.3} < 0.9"
    );
    assert!(
        n_crowd < 0.9,
        "naive clients must not converge: crowd completion {n_crowd:.3}"
    );
    assert!(
        naive.retry.abandoned >= 2 * honored.retry.abandoned + 10,
        "naive abandonment must dominate: {} vs {}",
        naive.retry.abandoned,
        honored.retry.abandoned
    );
    assert!(
        honored.goodput(SLO_MULTIPLE) >= naive.goodput(SLO_MULTIPLE),
        "waiting out the hint must not cost goodput: {} < {}",
        honored.goodput(SLO_MULTIPLE),
        naive.goodput(SLO_MULTIPLE)
    );
    // SLO recovery: after the storm the honoring run still lands the
    // interactive bystander at its target.
    let inter = slice(honored, INTERACTIVE).slo_attainment(&honored.slo, SLO_MULTIPLE);
    assert!(
        inter >= 0.9,
        "interactive SLO must recover under honoring retries: {inter:.3}"
    );
}

// ---------------------------------------------------------------- claim (b)

#[test]
fn flash_crowd_leaves_bystander_slos_intact_under_the_control_plane() {
    // The crowd's surge is refused at admission, so the tenants sharing
    // its fleet — including the interactive one homed in the same
    // region — keep their SLO attainment within five points of the
    // no-crowd baseline.
    let baseline = storm_scenario_for(STUDY_SEED, RetryPolicy::honoring(), false).run();
    let (crowded, _) = storm_pair();
    for tenant in [INTERACTIVE, REMOTE] {
        let base = slice(&baseline, tenant).slo_attainment(&baseline.slo, SLO_MULTIPLE);
        let under = slice(crowded, tenant).slo_attainment(&crowded.slo, SLO_MULTIPLE);
        assert!(
            (base - under).abs() <= 0.05,
            "tenant {} attainment moved more than 5 points: {base:.3} -> {under:.3}",
            tenant.0
        );
    }
}

// ---------------------------------------------------------------- claim (c)

#[test]
fn tenant_churn_preserves_accounting_and_reserve_invariants() {
    // Tenant 3 joins at minute 6 and leaves at minute 18: the policy is
    // rewritten on every node and shard mid-run, and nothing leaks —
    // every request of every tenant (including the transient one)
    // reaches exactly one terminal.
    let scenario = churn_scenario_for(STUDY_SEED);
    let trace = scenario.trace();
    let report = scenario.run();
    assert_eq!(
        report.completed + report.rejected + report.shed,
        trace.len() as u64,
        "churn must conserve the request population"
    );
    for tenant in [TenantId(1), TenantId(2), TenantId(3)] {
        let s = slice(&report, tenant);
        assert_eq!(
            s.offered(),
            trace.tenant_len(tenant) as u64,
            "tenant {} accounting must match its trace slice",
            tenant.0
        );
    }
    let joined = slice(&report, TenantId(3));
    assert!(
        joined.completed > 0,
        "the joined tenant must actually be served"
    );
}

#[test]
fn overcommitted_join_is_rejected_before_the_run_starts() {
    // The reserve invariant is enforced end to end: a join whose cache
    // reserve overcommits the shard capacity is refused at script
    // validation with the typed policy error, so no run ever starts
    // with reserves exceeding capacity.
    let script = ScenarioScript::new(
        20.0,
        vec![TenantMix::new(TenantId(1), QosClass::Standard, 4.0)],
    )
    .with_action(ScenarioAction::TenantJoin {
        at_mins: 5.0,
        mix: TenantMix::new(TenantId(2), QosClass::Standard, 2.0),
        weight: 1.0,
        cache_reserve: 100_000,
        rate_limit: None,
    });
    let policy = TenancyPolicy::weighted_fair(vec![
        TenantShare::new(TenantId(1), 1.0).with_cache_reserve(80)
    ]);
    let err = script
        .validate(&policy, 400, 2)
        .expect_err("an overcommitted reserve must not validate");
    assert!(
        matches!(err, ScenarioError::InvalidPolicy(_)),
        "expected the typed policy error, got {err:?}"
    );
}

// ---------------------------------------------------------------- claim (d)

#[test]
fn region_loss_redelivers_the_backlog_and_handoff_preserves_hit_rate() {
    let steady = failover_scenario_for(STUDY_SEED, false).run();
    let scenario = failover_scenario_for(STUDY_SEED, true);
    let lossy = scenario.run();

    // The lost region's backlog is redelivered, not dropped: the
    // population is conserved and the survivor absorbs the rest of the
    // run.
    assert_eq!(
        lossy.completed + lossy.rejected + lossy.shed,
        scenario.trace().len() as u64,
        "region loss must conserve the request population"
    );
    assert!(lossy.retry.redelivered > 0, "the backlog must redeliver");
    let lost = lossy.region(LOST_REGION).expect("lost region reported");
    let survivor = lossy.region(0).expect("survivor reported");
    assert_eq!(lost.lost_at_mins, Some(LOSS_AT_MINS));
    let steady_survivor = steady.region(0).expect("steady region 0");
    assert!(
        survivor.completed > steady_survivor.completed,
        "the survivor must absorb the lost region's load: {} <= {}",
        survivor.completed,
        steady_survivor.completed
    );

    // The hottest-half cache handoff keeps the aggregate hit rate
    // within 10% of the no-loss run.
    assert!(
        lossy.hit_rate() >= 0.9 * steady.hit_rate(),
        "hit rate must recover via handoff: {:.3} vs steady {:.3}",
        lossy.hit_rate(),
        steady.hit_rate()
    );

    // And losing a region bills fewer GPU-hours, not more.
    assert!(lossy.gpu_hours < steady.gpu_hours);
}

#[test]
fn traced_failover_runs_bit_identical_to_untraced() {
    // Observation must never perturb the simulation: the failover run
    // with a full TraceObserver attached reproduces the untraced run
    // bit for bit.
    let scenario = failover_scenario_for(STUDY_SEED, true);
    let untraced = scenario.run();
    let mut tracer = TraceObserver::default();
    let traced = scenario.run_observed_scenario(&mut tracer);

    assert_eq!(traced.hits, untraced.hits);
    assert_eq!(traced.misses, untraced.misses);
    assert_eq!(traced.rejected, untraced.rejected);
    assert_eq!(traced.shed, untraced.shed);
    assert_eq!(traced.retry, untraced.retry);
    assert_eq!(traced.routed_per_node, untraced.routed_per_node);
    assert_eq!(traced.finished_at, untraced.finished_at);
    assert_eq!(traced.regions, untraced.regions);
    assert_eq!(traced.gpu_hours.to_bits(), untraced.gpu_hours.to_bits());
    let (mut traced, mut untraced) = (traced, untraced);
    assert_eq!(
        traced.latency.p99_secs().map(f64::to_bits),
        untraced.latency.p99_secs().map(f64::to_bits)
    );
}

// ------------------------------------------------------- conservation sweep

#[test]
fn closed_loop_conservation_holds_under_churn_and_failover_across_seeds() {
    // The property behind every claim above: under tenant churn and
    // region loss combined with closed-loop retries, no request is ever
    // double-counted (a re-offer is the same request, not a new one)
    // and every request id reaches exactly one terminal.
    for seed in sweep_seeds() {
        for scenario in [churn_scenario_for(seed), failover_scenario_for(seed, true)] {
            let trace = scenario.trace();
            let report = scenario.run();
            let terminals = report.completed + report.rejected + report.shed;
            assert_eq!(
                terminals,
                trace.len() as u64,
                "seed {seed}: exactly one terminal per request"
            );
            // Offers decompose exactly: one first offer per request,
            // plus client re-offers, plus crash redeliveries. If a
            // re-offer were ever treated as a fresh request, this (and
            // the terminal count above) would break.
            assert_eq!(
                report.retry.offers,
                trace.len() as u64 + report.retry.reoffers + report.retry.redelivered,
                "seed {seed}: offer decomposition"
            );
            for tenant in trace.tenant_ids() {
                let s = slice(&report, tenant);
                assert_eq!(
                    s.offered(),
                    trace.tenant_len(tenant) as u64,
                    "seed {seed}: tenant {} slice conserved",
                    tenant.0
                );
            }
        }
    }
}
