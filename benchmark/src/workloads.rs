//! The three workloads: each turns a seed into a trace and a deployment,
//! built only through the repository's public entry points.

use modm_cluster::GpuKind;
use modm_controlplane::{FaultInjector, PredictiveAutoscaler, PredictiveConfig};
use modm_core::{FairnessCharge, IndexPolicy, MoDMConfig, TenancyPolicy, TenantShare};
use modm_deploy::{DeployOptions, Deployment, LifecyclePlan};
use modm_fleet::{Router, RoutingConfig, RoutingPolicy, SemanticClusterer};
use modm_simkit::{SimDuration, SimRng};
use modm_workload::{QosClass, RateSchedule, TenantId, TenantMix, Trace, TraceBuilder};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop DiffusionDB-like trace on the 64-node `million` fleet.
    SaturatedFleet,
    /// Three Poisson tenants overloading one 16-GPU node under the
    /// overload control plane.
    TenantOverload,
    /// Diurnal open-loop trace on a predictively autoscaled fleet with
    /// seeded crashes.
    ElasticDiurnal,
}

/// `saturated_fleet` trace length (5% of it is warmup).
const SATURATED_REQUESTS: usize = 60_000;
const SATURATED_NODES: usize = 64;
const SATURATED_GPUS: usize = 2;
const SATURATED_SHARD: usize = 128;
const SATURATED_LEADERS: usize = 512;

/// `tenant_overload` offered requests.
const OVERLOAD_REQUESTS: usize = 20_000;
const OVERLOAD_GPUS: usize = 16;
const OVERLOAD_CACHE: usize = 1_600;
const INTERACTIVE: TenantId = TenantId(1);
const STANDARD: TenantId = TenantId(2);
const BEST_EFFORT: TenantId = TenantId(3);

/// `elastic_diurnal` trace length: fixed, because simulator throughput
/// falls as this trace grows.
const ELASTIC_REQUESTS: usize = 8_000;
const ELASTIC_GPUS: usize = 4;
const ELASTIC_SHARD: usize = 600;
/// Initial, minimum and maximum active nodes.
pub const ELASTIC_NODES: (usize, usize, usize) = (6, 3, 12);
const ELASTIC_CRASHES: usize = 3;
const ELASTIC_RECOVERY_MINS: f64 = 5.0;

/// The SLO multiple every workload is judged at (× large-model latency).
pub const SLO_MULTIPLE: f64 = 2.0;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SaturatedFleet,
        Workload::TenantOverload,
        Workload::ElasticDiurnal,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SaturatedFleet => "saturated_fleet",
            Workload::TenantOverload => "tenant_overload",
            Workload::ElasticDiurnal => "elastic_diurnal",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Leading trace requests that only warm the cache.
    pub fn warmup(self) -> usize {
        match self {
            Workload::SaturatedFleet => SATURATED_REQUESTS / 20,
            Workload::TenantOverload | Workload::ElasticDiurnal => 0,
        }
    }

    /// How the deployment replays the trace.
    pub fn options(self) -> DeployOptions {
        match self {
            Workload::SaturatedFleet => DeployOptions::saturated(self.warmup()),
            Workload::TenantOverload | Workload::ElasticDiurnal => DeployOptions::default(),
        }
    }

    /// True when the simulated result repeats bit for bit per seed, so a
    /// traced run must reproduce the untraced one exactly.
    pub fn deterministic(self) -> bool {
        !matches!(self, Workload::ElasticDiurnal)
    }

    /// Per-node cache capacity and (initial) node count: the shape the
    /// layer replay reproduces.
    pub fn replay_shape(self) -> (usize, usize) {
        match self {
            Workload::SaturatedFleet => (SATURATED_SHARD, SATURATED_NODES),
            Workload::TenantOverload => (OVERLOAD_CACHE, 1),
            Workload::ElasticDiurnal => (ELASTIC_SHARD, ELASTIC_NODES.0),
        }
    }

    /// A router over `nodes` nodes configured as this workload's tier
    /// configures its own (the single node of `tenant_overload` has none;
    /// it gets the elastic tier's default affinity router).
    pub fn router(self, nodes: usize) -> Router {
        match self {
            Workload::SaturatedFleet => saturated_routing(nodes),
            Workload::TenantOverload | Workload::ElasticDiurnal => {
                Router::new(RoutingPolicy::CacheAffinity, nodes)
            }
        }
    }

    /// The workload's trace for `seed`.
    pub fn trace(self, seed: u64) -> Trace {
        match self {
            Workload::SaturatedFleet => TraceBuilder::diffusion_db(seed)
                .requests(SATURATED_REQUESTS)
                .rate_per_min(20_000.0)
                .build(),
            Workload::TenantOverload => TraceBuilder::mjhq(seed)
                .requests(OVERLOAD_REQUESTS)
                .tenants(vec![
                    TenantMix::new(INTERACTIVE, QosClass::Interactive, 3.0),
                    TenantMix::new(STANDARD, QosClass::Standard, 20.0),
                    TenantMix::new(BEST_EFFORT, QosClass::BestEffort, 5.0),
                ])
                .build(),
            Workload::ElasticDiurnal => TraceBuilder::diffusion_db(seed)
                .requests(ELASTIC_REQUESTS)
                .rate_schedule(RateSchedule::diurnal(12.0, 0.75, 40.0))
                .build(),
        }
    }

    /// The deployment serving `trace` (generated from `seed`).
    pub fn deployment(self, seed: u64, trace: &Trace) -> Deployment {
        match self {
            Workload::SaturatedFleet => {
                let node = MoDMConfig::builder()
                    .gpus(GpuKind::Mi210, SATURATED_GPUS)
                    .cache_capacity(SATURATED_SHARD)
                    .index_policy(IndexPolicy::Approx)
                    .build();
                Deployment::fleet(node, saturated_routing(SATURATED_NODES))
            }
            Workload::TenantOverload => Deployment::single(
                MoDMConfig::builder()
                    .gpus(GpuKind::Mi210, OVERLOAD_GPUS)
                    .cache_capacity(OVERLOAD_CACHE)
                    .tenancy(overload_policy())
                    .build(),
            ),
            Workload::ElasticDiurnal => {
                let node = elastic_node();
                let scaler = predictive(&node);
                let (initial, min, max) = ELASTIC_NODES;
                Deployment::elastic(
                    node,
                    scaler,
                    LifecyclePlan::new(initial, min, max),
                    crashes_within(seed, trace),
                )
            }
        }
    }
}

/// The `million` router: cache affinity over a 512-leader clusterer,
/// both probes approximate.
fn saturated_routing(nodes: usize) -> Router {
    RoutingConfig::new(RoutingPolicy::CacheAffinity, nodes)
        .clusterer(SemanticClusterer::new(
            SemanticClusterer::DEFAULT_THRESHOLD,
            SATURATED_LEADERS,
        ))
        .index_policy(IndexPolicy::Approx)
        .build()
}

/// The overload study's control plane on one node: token buckets capping
/// the standard tenant at 6 req/min and best effort at 3 (the interactive
/// tenant is never refused), GPU-cost weighted fair queuing, adaptive
/// aging between 5 and 60 minutes, and a 480 s queue-time budget.
fn overload_policy() -> TenancyPolicy {
    TenancyPolicy::weighted_fair(vec![
        TenantShare::new(INTERACTIVE, 4.0).with_cache_reserve(80),
        TenantShare::new(STANDARD, 2.0).with_cache_reserve(80),
        TenantShare::new(BEST_EFFORT, 1.0).with_cache_reserve(40),
    ])
    .with_charge(FairnessCharge::GpuCost)
    .with_rate_limit(STANDARD, 6.0, 6.0)
    .with_rate_limit(BEST_EFFORT, 3.0, 4.0)
    .with_adaptive_aging(
        SimDuration::from_secs_f64(300.0),
        SimDuration::from_secs_f64(3_600.0),
    )
    .with_queue_budget(SimDuration::from_secs_f64(480.0))
}

fn elastic_node() -> MoDMConfig {
    MoDMConfig::builder()
        .gpus(GpuKind::Mi210, ELASTIC_GPUS)
        .cache_capacity(ELASTIC_SHARD)
        .build()
}

/// The elastic study's predictive scaler: per-node capacity from the
/// profiled miss throughput, haircut for hits running as cheaper
/// refinements, fast level tracking, four windows of lookahead to cover
/// the cold start, and 60% headroom.
fn predictive(node: &MoDMConfig) -> PredictiveAutoscaler {
    let miss_rate = node.gpu.profiled_throughput_per_min(node.large_model) * node.num_gpus as f64;
    let mut config = PredictiveConfig::for_node_rate(miss_rate / 0.72);
    config.alpha = 0.4;
    config.headroom = 1.6;
    config.lookahead_windows = 4.0;
    PredictiveAutoscaler::new(config)
}

/// Seeded crashes strictly inside the trace's arrival horizon (between
/// 10% and 90% of it), so every crashed node recovers and stops being
/// metered before the run ends.
fn crashes_within(seed: u64, trace: &Trace) -> FaultInjector {
    let horizon = trace
        .requests()
        .last()
        .map_or(0.0, |r| r.arrival.as_mins_f64());
    let mut rng = SimRng::seed_from(seed ^ 0x0043_5241_5348); // "CRASH"
    let mut at: Vec<f64> = (0..ELASTIC_CRASHES)
        .map(|_| rng.uniform_in(0.1 * horizon, 0.9 * horizon))
        .collect();
    at.sort_by(f64::total_cmp);
    FaultInjector::at(&at, ELASTIC_RECOVERY_MINS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn crashes_fall_inside_the_horizon() {
        let trace = Workload::ElasticDiurnal.trace(3);
        let horizon = trace.requests().last().unwrap().arrival.as_mins_f64();
        let faults = crashes_within(3, &trace);
        assert_eq!(faults.crash_times().len(), ELASTIC_CRASHES);
        for t in faults.crash_times() {
            let m = t.as_mins_f64();
            assert!(
                m > 0.0 && m < horizon,
                "crash at {m} outside (0, {horizon})"
            );
        }
    }
}
