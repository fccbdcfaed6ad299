//! The scenario tier: a script, a client population and a two-region
//! topology, run on the serving engine.
//!
//! A [`Scenario`] stitches the whole stack together under adversarial
//! conditions. Two regional fleets (each its own router and cache shards
//! over shared-config serving nodes) sit behind a latency-biased geo
//! router; a closed-loop client population ([`RetryPolicy`]) re-offers
//! rejected requests — honoring or ignoring the server's `retry_after`
//! hint — until they complete, shed, or exhaust their retry budget; and
//! the script's control timeline fires mid-run: tenancy-policy rewrites
//! on every live node and shard (tenant churn) and wholesale region loss
//! with backlog redelivery and cross-region cache handoff.
//!
//! The event loop is `modm-controlplane`'s engine
//! ([`run_regions`]), the one that serves the single, fleet and elastic
//! tiers; this module lowers the script and fixes the topology. The run
//! is exactly deterministic under a fixed seed, and observation never
//! perturbs it.

use modm_controlplane::{run_regions, LifecyclePlan};
use modm_core::config::MoDMConfig;
use modm_core::events::Observer;
use modm_deploy::{DeployOptions, ElasticReport, RunOutcome, ServingBackend, TierKind};
use modm_fleet::{GeoRouter, RoutingPolicy};
use modm_simkit::{SimDuration, SimTime};
use modm_workload::{Trace, TraceBuilder};

use crate::script::{ScenarioError, ScenarioScript};
use crate::RetryPolicy;

/// RNG salt of scenario runs ("SCNR").
const SCENARIO_SALT: u64 = 0x5343_4E52;
/// One inter-region round trip, in seconds: what a failed-over offer
/// pays, and how long backlog redelivery takes after a region loss.
const RTT_SECS: f64 = 0.2;
/// Fraction of each lost shard's entries (hottest first) handed off to
/// the surviving region on failover; the rest is lost with the region.
const HANDOFF_FRACTION: f64 = 0.5;
/// Routing within each region.
const ROUTING: RoutingPolicy = RoutingPolicy::CacheAffinity;

/// The two-region topology a scenario deploys: a 200 ms inter-region
/// round trip, cache-affinity routing within each region, and half of
/// each lost shard handed off on failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoRegion {
    /// Serving nodes per region.
    pub nodes_per_region: usize,
}

impl TwoRegion {
    /// Regions in the topology (the type is the contract).
    pub const REGIONS: usize = 2;

    /// A topology of `nodes_per_region` nodes per region.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_region` is zero.
    pub fn new(nodes_per_region: usize) -> Self {
        assert!(nodes_per_region > 0, "regions need at least one node");
        TwoRegion { nodes_per_region }
    }
}

/// A fully validated adversarial scenario, ready to run.
///
/// # Example
///
/// ```
/// use modm_cluster::GpuKind;
/// use modm_core::MoDMConfig;
/// use modm_scenario::{Scenario, ScenarioScript, TwoRegion};
/// use modm_workload::{QosClass, TenantId, TenantMix};
///
/// let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 2).cache_capacity(400).build();
/// let script = ScenarioScript::new(
///     30.0,
///     vec![TenantMix::new(TenantId(1), QosClass::Standard, 8.0)],
/// );
/// let scenario = Scenario::new(node, script, TwoRegion::new(2)).unwrap();
/// let report = scenario.run();
/// assert_eq!(
///     report.completed + report.rejected + report.shed,
///     scenario.trace().len() as u64,
///     "every request reaches exactly one terminal"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    node_config: MoDMConfig,
    script: ScenarioScript,
    topology: TwoRegion,
    retry: RetryPolicy,
}

impl Scenario {
    /// Builds a scenario over `node_config` (every node in both regions
    /// runs it; its tenancy policy is the minute-zero policy the script
    /// evolves). The client population defaults to
    /// [`RetryPolicy::honoring`].
    ///
    /// # Errors
    ///
    /// Returns the script's first [`ScenarioError`] — the whole control
    /// timeline is validated here, so the run itself cannot hit an
    /// invalid policy or region transition.
    pub fn new(
        node_config: MoDMConfig,
        script: ScenarioScript,
        topology: TwoRegion,
    ) -> Result<Self, ScenarioError> {
        script.validate(
            &node_config.tenancy,
            node_config.cache_capacity,
            TwoRegion::REGIONS,
        )?;
        Ok(Scenario {
            node_config,
            script,
            topology,
            retry: RetryPolicy::honoring(),
        })
    }

    /// Overrides the client population's retry policy (builder style).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The per-node configuration.
    pub fn node_config(&self) -> &MoDMConfig {
        &self.node_config
    }

    /// The validated script.
    pub fn script(&self) -> &ScenarioScript {
        &self.script
    }

    /// The topology.
    pub fn topology(&self) -> TwoRegion {
        self.topology
    }

    /// The client population's retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Total nodes across both regions.
    pub fn nodes(&self) -> usize {
        TwoRegion::REGIONS * self.topology.nodes_per_region
    }

    /// Total GPUs across both regions.
    pub fn total_gpus(&self) -> usize {
        self.nodes() * self.node_config.num_gpus
    }

    /// The scenario's canonical trace: the script's lowered tenant mix
    /// (spikes, join windows, leave clips) sampled over its horizon,
    /// seeded from the node config.
    pub fn trace(&self) -> Trace {
        TraceBuilder::diffusion_db(self.node_config.seed)
            .tenants(self.script.workload_tenants())
            .build_over(self.script.horizon_mins())
    }

    /// Runs the scenario on its canonical trace.
    pub fn run(&self) -> ElasticReport {
        self.run_trace(&self.trace(), None)
    }

    /// Runs the scenario on its canonical trace, streaming every
    /// [`SimEvent`](modm_core::events::SimEvent) to `observer`. Results are identical to
    /// [`Scenario::run`]: observation never perturbs the simulation.
    pub fn run_observed_scenario(&self, observer: &mut dyn Observer) -> ElasticReport {
        self.run_trace(&self.trace(), Some(observer))
    }

    fn run_trace(&self, trace: &Trace, observer: Option<&mut dyn Observer>) -> ElasticReport {
        let nodes = self.nodes();
        let plan = LifecyclePlan {
            policy: ROUTING,
            handoff_fraction: HANDOFF_FRACTION,
            ..LifecyclePlan::new(nodes, nodes, nodes)
        };
        let timeline = self
            .script
            .control_timeline(&self.node_config.tenancy)
            .into_iter()
            .map(|(mins, action)| (SimTime::ZERO + SimDuration::from_mins_f64(mins), action))
            .collect();
        let geo = GeoRouter::new(TwoRegion::REGIONS, SimDuration::from_secs_f64(RTT_SECS));
        run_regions(
            &self.node_config,
            &plan,
            geo,
            trace,
            self.retry,
            timeline,
            SCENARIO_SALT,
            observer,
        )
    }

    fn assert_default_options(options: DeployOptions) {
        assert!(
            options == DeployOptions::default(),
            "scenario deployments replay real arrival times; \
             warmup/saturate apply to single and fleet tiers only"
        );
    }
}

impl ServingBackend for Scenario {
    fn tier(&self) -> TierKind {
        TierKind::Scenario
    }

    fn run_with(&mut self, trace: &Trace, options: DeployOptions) -> RunOutcome {
        Self::assert_default_options(options);
        let report = self.run_trace(trace, None);
        RunOutcome::new(TierKind::Scenario, report, self.node_config.num_gpus)
    }

    fn run_observed(
        &mut self,
        trace: &Trace,
        options: DeployOptions,
        observer: &mut dyn Observer,
    ) -> RunOutcome {
        Self::assert_default_options(options);
        let report = self.run_trace(trace, Some(observer));
        RunOutcome::new(TierKind::Scenario, report, self.node_config.num_gpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ScenarioAction;
    use modm_cluster::GpuKind;
    use modm_core::events::SimEvent;
    use modm_workload::{QosClass, TenantId, TenantMix};

    fn node_config(gpus: usize, cache: usize) -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, gpus)
            .cache_capacity(cache)
            .build()
    }

    fn quiet_script() -> ScenarioScript {
        ScenarioScript::new(
            20.0,
            vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
                TenantMix::new(TenantId(2), QosClass::Standard, 6.0),
            ],
        )
    }

    #[test]
    fn quiet_scenario_completes_everything() {
        let scenario = Scenario::new(node_config(2, 400), quiet_script(), TwoRegion::new(2))
            .expect("valid script");
        let trace = scenario.trace();
        let report = scenario.run();
        assert_eq!(report.completed, trace.len() as u64);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.shed, 0);
        assert_eq!(
            report.retry.amplification(),
            1.0,
            "no rejections, no retries"
        );
        assert_eq!(report.retry.redelivered, 0);
        assert_eq!(report.regions.len(), 2);
        // Both regions saw traffic (tenants stripe by id).
        assert!(report.regions.iter().all(|r| r.routed > 0));
        assert!(report.regions.iter().all(|r| r.lost_at_mins.is_none()));
        assert_eq!(
            report.routed_per_node.iter().sum::<u64>(),
            report.retry.offers
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let scenario = Scenario::new(node_config(2, 400), quiet_script(), TwoRegion::new(2))
            .expect("valid script");
        let a = scenario.run();
        let b = scenario.run();
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.retry, b.retry);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.routed_per_node, b.routed_per_node);
    }

    #[test]
    fn region_loss_fails_over_and_redelivers() {
        let script = ScenarioScript::new(
            30.0,
            vec![
                TenantMix::new(TenantId(1), QosClass::Standard, 10.0),
                TenantMix::new(TenantId(2), QosClass::Standard, 10.0),
            ],
        )
        .with_action(ScenarioAction::RegionLoss {
            at_mins: 10.0,
            region: 1,
        });
        let scenario =
            Scenario::new(node_config(2, 400), script, TwoRegion::new(2)).expect("valid script");
        let trace = scenario.trace();
        let report = scenario.run();
        assert_eq!(
            report.completed + report.rejected + report.shed,
            trace.len() as u64,
            "terminals conserved across the failover"
        );
        let lost = report.region(1).unwrap();
        assert_eq!(lost.lost_at_mins, Some(10.0));
        assert!(report.retry.redelivered > 0, "the backlog was redelivered");
        let survivor = report.region(0).unwrap();
        assert!(
            survivor.completed > lost.completed,
            "the survivor absorbed the failed-over load"
        );
        // GPU-hours bill the lost region only up to the loss.
        let full = report.finished_at.as_mins_f64() / 60.0 * 4.0;
        let lost_bill = 10.0 / 60.0 * 4.0;
        assert!((report.gpu_hours - (full + lost_bill)).abs() < 1e-6);
    }

    #[test]
    fn observation_never_perturbs() {
        struct Count(u64);
        impl Observer for Count {
            fn on_event(&mut self, _at: SimTime, _event: &SimEvent) {
                self.0 += 1;
            }
        }
        let script = quiet_script().with_action(ScenarioAction::RegionLoss {
            at_mins: 8.0,
            region: 0,
        });
        let scenario =
            Scenario::new(node_config(2, 400), script, TwoRegion::new(2)).expect("valid script");
        let untraced = scenario.run();
        let mut count = Count(0);
        let traced = scenario.run_observed_scenario(&mut count);
        assert!(count.0 > 0, "events streamed");
        assert_eq!(untraced.hits, traced.hits);
        assert_eq!(untraced.retry, traced.retry);
        assert_eq!(untraced.finished_at, traced.finished_at);
        assert_eq!(untraced.routed_per_node, traced.routed_per_node);
    }

    #[test]
    fn backend_impl_reports_scenario_tier() {
        let mut scenario = Scenario::new(node_config(2, 400), quiet_script(), TwoRegion::new(2))
            .expect("valid script");
        assert_eq!(scenario.tier(), TierKind::Scenario);
        let trace = scenario.trace();
        let outcome = scenario.run_with(&trace, DeployOptions::default());
        assert_eq!(outcome.tier(), TierKind::Scenario);
        assert_eq!(outcome.completed(), trace.len() as u64);
        let report = outcome.as_elastic().expect("the engine's report");
        assert_eq!(report.regions.len(), TwoRegion::REGIONS);
    }
}
