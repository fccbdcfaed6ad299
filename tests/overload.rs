//! Acceptance tests for the overload-control study: the claims the
//! `overload` experiment prints must hold on its exact setup (trace
//! seed, fleet shape, policies), plus overload-accounting conservation
//! laws.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use modm::cache::MaintenancePolicy;
use modm::cluster::GpuKind;
use modm::controlplane::ServingSystem;
use modm::core::config::AdmissionPolicy;
use modm::core::fairqueue::TenancyPolicy;
use modm::core::{MoDMConfig, Observer, RunOptions, SimEvent};
use modm::deploy::Summary;
use modm::simkit::{SimDuration, SimTime};
use modm::workload::{DatasetKind, Request, TenantId, Trace};
use modm_experiments::overload::{
    run_pair, study_trace, tenant_of, BATCH, FREE, INTERACTIVE, INTERACTIVE_TARGET, REQUESTS,
};

/// The study pair is deterministic and moderately expensive; run it once
/// for the whole test binary.
fn pair() -> &'static (Summary, Summary) {
    static PAIR: OnceLock<(Summary, Summary)> = OnceLock::new();
    PAIR.get_or_init(run_pair)
}

#[test]
fn overload_control_meets_interactive_slo_where_queue_only_collapses() {
    // The tentpole acceptance claim: at 2x offered load on the same
    // trace, seed and GPUs, token-bucket admission + GPU-cost WFQ meets
    // the interactive tenant's SLO target where the queue-only FIFO
    // configuration collapses.
    let (fifo, ctrl) = pair().clone();
    let f = tenant_of(&fifo, INTERACTIVE);
    let c = tenant_of(&ctrl, INTERACTIVE);
    assert!(
        f.slo_attainment < INTERACTIVE_TARGET,
        "queue-only FIFO must fail the interactive target: {} >= {INTERACTIVE_TARGET}",
        f.slo_attainment
    );
    assert!(
        c.slo_attainment >= INTERACTIVE_TARGET,
        "overload control must meet the interactive target: {} < {INTERACTIVE_TARGET}",
        c.slo_attainment
    );
    assert_eq!(fifo.total_gpus, ctrl.total_gpus, "identical hardware");
}

#[test]
fn overload_control_wins_total_goodput_on_fewer_gpu_hours() {
    // Refusing the un-serveable fraction up front beats absorbing it:
    // higher goodput in absolute terms, and at far fewer GPU-hours (the
    // queue-only fleet grinds through a hopeless backlog long after the
    // trace ends), so goodput *per GPU-hour* is not even close.
    let (fifo, ctrl) = pair().clone();
    assert!(
        ctrl.goodput > fifo.goodput,
        "controlled goodput {} must beat queue-only {}",
        ctrl.goodput,
        fifo.goodput
    );
    assert!(
        ctrl.gpu_hours < fifo.gpu_hours,
        "admission control must not burn more GPU-hours: {} vs {}",
        ctrl.gpu_hours,
        fifo.gpu_hours
    );
    let per_hour = |s: &Summary| s.goodput as f64 / s.gpu_hours;
    assert!(
        per_hour(&ctrl) > 2.0 * per_hour(&fifo),
        "goodput per GPU-hour must at least double: {} vs {}",
        per_hour(&ctrl),
        per_hour(&fifo)
    );
}

#[test]
fn queue_only_p99_is_unbounded_where_controlled_is_not() {
    // The failure mode the control plane exists to prevent: under
    // sustained 2x overload the FIFO backlog grows for the whole trace
    // and P99 grows with it; bounded queues keep the controlled tail
    // within a small multiple of the shed budget.
    let (fifo, ctrl) = pair().clone();
    let fifo_p99 = fifo.p99_secs.expect("completions recorded");
    let ctrl_p99 = ctrl.p99_secs.expect("completions recorded");
    assert!(
        fifo_p99 > 4.0 * ctrl_p99,
        "queue-only P99 {fifo_p99} must dwarf the controlled {ctrl_p99}"
    );
}

#[test]
fn overload_accounting_conserves_every_request() {
    // Nothing is lost and nothing is double-counted: completed +
    // rejected + shed covers the trace exactly, per tenant and overall.
    let trace = study_trace();
    let (fifo, ctrl) = pair().clone();
    for (label, summary) in [("queue-only", &fifo), ("controlled", &ctrl)] {
        assert_eq!(summary.tenants.len(), 3, "{label}");
        let offered: u64 = summary.tenants.iter().map(|t| t.offered()).sum();
        assert_eq!(
            offered, REQUESTS as u64,
            "{label}: offered covers the trace"
        );
        assert_eq!(
            summary.completed + summary.rejected + summary.shed,
            REQUESTS as u64,
            "{label}: aggregate conservation"
        );
        let rejected: u64 = summary.tenants.iter().map(|t| t.rejected).sum();
        let shed: u64 = summary.tenants.iter().map(|t| t.shed).sum();
        assert_eq!(rejected, summary.rejected, "{label}: tenant rejected sum");
        assert_eq!(shed, summary.shed, "{label}: tenant shed sum");
        for tenant in [INTERACTIVE, BATCH, FREE] {
            assert_eq!(
                tenant_of(summary, tenant).offered(),
                trace.tenant_len(tenant) as u64,
                "{label}: tenant {tenant} conservation"
            );
        }
        // Goodput can never exceed completions.
        assert!(summary.goodput <= summary.completed, "{label}");
    }
    // The queue-only configuration never refuses or sheds anything.
    assert_eq!(fifo.rejected, 0);
    assert_eq!(fifo.shed, 0);
    assert_eq!(fifo.completed, REQUESTS as u64);
}

#[test]
fn rate_limited_tenants_are_refused_but_interactive_never_is() {
    let (_, ctrl) = pair().clone();
    assert!(ctrl.rejected > 0, "2x overload must trip the token buckets");
    assert_eq!(
        tenant_of(&ctrl, INTERACTIVE).rejected,
        0,
        "the interactive tenant carries no rate limit"
    );
    assert!(
        tenant_of(&ctrl, BATCH).rejected > tenant_of(&ctrl, FREE).rejected,
        "the heavier flood is refused more"
    );
    // The free tier is throttled, not denied: it still completes work.
    assert!(tenant_of(&ctrl, FREE).completed > 0);
}

/// The cache decision each request drew, by request id, in a single-node
/// run: `"cache_hit"`, `"cache_miss"` or `"rejected"`.
fn cache_decisions(config: MoDMConfig, trace: &Trace) -> BTreeMap<u64, Vec<&'static str>> {
    #[derive(Default)]
    struct Decisions(BTreeMap<u64, Vec<&'static str>>);
    impl Observer for Decisions {
        fn on_event(&mut self, _at: SimTime, event: &SimEvent) {
            if let (kind @ ("cache_hit" | "cache_miss" | "rejected"), Some(id)) =
                (event.kind(), event.request_id())
            {
                self.0.entry(id).or_default().push(kind);
            }
        }
    }
    let mut decisions = Decisions::default();
    ServingSystem::new(config).run_observed(trace, RunOptions::default(), Some(&mut decisions));
    decisions.0
}

#[test]
fn refused_requests_do_not_keep_lru_entries_warm() {
    // Tenant 1 caches an image for `OLD`, then floods the node with the
    // same prompt; tenant 2 meanwhile fills the two-entry LRU cache with
    // unrelated images, and finally asks for `OLD` itself. When the flood
    // is admitted its hits keep the old entry the most recently used, so
    // the newer filler is evicted and tenant 2 hits. When tenant 1 is
    // rate-limited the flood is refused before it reaches the cache, so
    // the old entry stays the least recently used and is evicted.
    const OLD: &str = "ancient dragon soaring mountains dusk oil painting moody golden";
    let at = |mins: f64| SimTime::ZERO + SimDuration::from_mins_f64(mins);
    let offer = |id: u64, tenant: u16, prompt: &str, mins: f64| Request {
        tenant: TenantId(tenant),
        ..Request::new(id, prompt, at(mins))
    };
    let mut requests = vec![
        offer(0, 1, OLD, 0.0),
        offer(
            1,
            2,
            "neon harbor cyberpunk rain reflections night city",
            10.0,
        ),
    ];
    requests.extend((2..6).map(|id| offer(id, 1, OLD, 20.0 + id as f64)));
    requests.push(offer(
        6,
        2,
        "quiet snowy forest cabin watercolor morning",
        30.0,
    ));
    requests.push(offer(7, 2, OLD, 40.0));
    let trace = Trace::from_requests(DatasetKind::DiffusionDb, requests);
    let config = |tenancy: TenancyPolicy| {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 2)
            .cache_capacity(2)
            .cache_policy(MaintenancePolicy::Lru)
            .admission(AdmissionPolicy::CacheLarge)
            .tenancy(tenancy)
            .build()
    };

    let admitted = cache_decisions(config(TenancyPolicy::fifo()), &trace);
    let limited = cache_decisions(
        config(TenancyPolicy::fifo().with_rate_limit(TenantId(1), 0.01, 1.0)),
        &trace,
    );
    for decisions in [&admitted, &limited] {
        for id in [0, 1, 6] {
            assert_eq!(
                decisions[&id],
                ["cache_miss"],
                "request {id} fills the cache"
            );
        }
    }
    for id in 2..6 {
        assert_eq!(admitted[&id], ["cache_hit"], "admitted flood request {id}");
        assert_eq!(limited[&id], ["rejected"], "refused flood request {id}");
    }
    assert_eq!(
        admitted[&7],
        ["cache_hit"],
        "the admitted flood kept OLD warm"
    );
    assert_eq!(
        limited[&7],
        ["cache_miss"],
        "a refused flood must not save OLD from eviction"
    );
}
