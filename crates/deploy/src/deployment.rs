//! The deployment builder and the one trait every tier serves through.

use modm_controlplane::{
    Autoscaler, ElasticConfigError, ElasticFleet, ElasticFleetConfig, FaultInjector, Fleet,
    ServingSystem,
};
use modm_core::events::Observer;
use modm_core::{MoDMConfig, RunOptions};
use modm_fleet::{Router, RoutingPolicy};
use modm_simkit::SimDuration;
use modm_workload::Trace;

use crate::outcome::{RunOutcome, TierKind};

/// Options controlling a deployment run, uniform across tiers.
///
/// `warmup` and `saturate` apply to the single-node and fleet tiers
/// (which replay or collapse trace timestamps); the elastic tier always
/// replays real arrival times — its whole point is reacting to them — and
/// rejects non-default options.
pub type DeployOptions = RunOptions;

/// How an elastic deployment's node set behaves over time: bounds,
/// routing, control cadence and the cold-start/drain mechanics.
///
/// This is the "lifecycle" argument of [`Deployment::elastic`], kept
/// separate from the per-node [`MoDMConfig`] so the same node shape can
/// be deployed under different elasticity regimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecyclePlan {
    /// Nodes active (warm) at time zero.
    pub initial_nodes: usize,
    /// The control plane never drains below this many active nodes.
    pub min_nodes: usize,
    /// The control plane never provisions beyond this many nodes.
    pub max_nodes: usize,
    /// Front-end routing policy.
    pub policy: RoutingPolicy,
    /// Control-plane observation/decision period.
    pub control_period: SimDuration,
    /// Cold-start: hardware request to model loading.
    pub provision_delay: SimDuration,
    /// Cold-start: model loading to serving.
    pub warm_delay: SimDuration,
    /// Fraction of a draining shard's residents migrated (hottest first)
    /// to its ring successors.
    pub handoff_fraction: f64,
    /// SLO multiple (× large-model latency) the run is judged against.
    pub slo_multiple: f64,
}

impl LifecyclePlan {
    /// A plan with production-shaped defaults (matching
    /// [`ElasticFleetConfig::new`]): cache-affinity routing, 60 s control
    /// period, 45 s + 30 s cold start, hottest-60% handoff, 2× SLO.
    pub fn new(initial_nodes: usize, min_nodes: usize, max_nodes: usize) -> Self {
        LifecyclePlan {
            initial_nodes,
            min_nodes,
            max_nodes,
            policy: RoutingPolicy::CacheAffinity,
            control_period: SimDuration::from_secs_f64(60.0),
            provision_delay: SimDuration::from_secs_f64(45.0),
            warm_delay: SimDuration::from_secs_f64(30.0),
            handoff_fraction: 0.6,
            slo_multiple: 2.0,
        }
    }

    /// Expands the plan into a full [`ElasticFleetConfig`] around
    /// `node_config`.
    pub fn into_config(self, node_config: MoDMConfig) -> ElasticFleetConfig {
        ElasticFleetConfig {
            node_config,
            policy: self.policy,
            initial_nodes: self.initial_nodes,
            min_nodes: self.min_nodes,
            max_nodes: self.max_nodes,
            control_period: self.control_period,
            provision_delay: self.provision_delay,
            warm_delay: self.warm_delay,
            handoff_fraction: self.handoff_fraction,
            slo_multiple: self.slo_multiple,
        }
    }
}

/// Anything that can serve a trace end to end and report a unified
/// [`RunOutcome`] — the one interface all three tiers (and any future
/// scenario harness) are driven through.
pub trait ServingBackend {
    /// Which tier this backend deploys.
    fn tier(&self) -> TierKind;

    /// Serves the trace with default options. Safe on every tier.
    fn run(&mut self, trace: &Trace) -> RunOutcome {
        self.run_with(trace, DeployOptions::default())
    }

    /// Serves the trace with explicit options.
    ///
    /// # Panics
    ///
    /// Elastic backends reject non-default options (`warmup` /
    /// `saturate` rewrite trace timestamps, and reacting to real arrival
    /// times is the elastic tier's whole job). Generic drivers that mix
    /// tiers must either pass [`DeployOptions::default`] or branch on
    /// [`ServingBackend::tier`] before applying tier-specific options.
    fn run_with(&mut self, trace: &Trace, options: DeployOptions) -> RunOutcome;

    /// Serves the trace while streaming every
    /// [`SimEvent`](modm_core::events::SimEvent) to `observer`.
    /// Observation never perturbs results: the outcome is identical to
    /// [`ServingBackend::run_with`] on the same inputs.
    ///
    /// # Panics
    ///
    /// As [`ServingBackend::run_with`]: elastic backends reject
    /// non-default options.
    fn run_observed(
        &mut self,
        trace: &Trace,
        options: DeployOptions,
        observer: &mut dyn Observer,
    ) -> RunOutcome;
}

enum Tier {
    Single(Box<ServingSystem>),
    Fleet(Box<Fleet>),
    Elastic {
        fleet: Box<ElasticFleet>,
        scaler: Box<dyn Autoscaler>,
        faults: FaultInjector,
    },
}

/// A serving deployment: one builder for every tier.
///
/// `Deployment` is the front door of the whole reproduction — the same
/// trace can be replayed through a single node, a sharded fleet, or an
/// autoscaled elastic fleet, and the [`RunOutcome`]s compare through one
/// accessor surface. A deployment is a thin, uniformly-shaped handle over
/// one event loop, `modm-controlplane`'s engine: `ElasticFleet` runs it
/// with the control plane on, `Fleet` as an elastic fleet that holds, and
/// `ServingSystem` as a fleet of one. The tests in `tests/deploy.rs` pin
/// that each handle reproduces its per-tier entry point seed for seed.
///
/// # Example
///
/// The [`IndexPolicy`](modm_core::IndexPolicy) on the node config selects
/// the cache backend on every tier (each tier builds its caches from
/// `MoDMConfig::cache_config`). A fixed fleet's affinity leader probe
/// follows the policy on its [`RoutingConfig`](modm_fleet::RoutingConfig);
/// the elastic and scenario tiers route with the exact probe. `Exact` —
/// the default — keeps every scan bit-identical to the historical one,
/// while `Approx` swaps in the anchored inverted cache index and the
/// two-level leader probe.
///
/// ```
/// use modm_deploy::{Deployment, ServingBackend};
/// use modm_core::{IndexPolicy, MoDMConfig};
/// use modm_cluster::GpuKind;
/// use modm_fleet::{RoutingConfig, RoutingPolicy};
/// use modm_workload::TraceBuilder;
///
/// let trace = TraceBuilder::diffusion_db(42).requests(120).rate_per_min(12.0).build();
/// let node = MoDMConfig::builder()
///     .gpus(GpuKind::Mi210, 4)
///     .cache_capacity(500)
///     .index_policy(IndexPolicy::Approx)
///     .build();
///
/// // The same workload through two tiers, compared generically.
/// let mut single = Deployment::single(node.clone());
/// let mut fleet = Deployment::fleet(
///     node,
///     RoutingConfig::new(RoutingPolicy::CacheAffinity, 4)
///         .index_policy(IndexPolicy::Approx)
///         .build(),
/// );
/// let single_summary = single.run(&trace).summary(2.0);
/// let fleet_summary = fleet.run(&trace).summary(2.0);
/// assert_eq!(single_summary.completed, 120);
/// assert_eq!(fleet_summary.completed, 120);
/// assert_eq!(fleet_summary.nodes, 4);
/// ```
pub struct Deployment {
    tier: Tier,
}

impl Deployment {
    /// One MoDM node with a monolithic cache: `config.num_gpus` workers,
    /// the paper's deployment.
    pub fn single(config: MoDMConfig) -> Self {
        Deployment {
            tier: Tier::Single(Box::new(ServingSystem::new(config))),
        }
    }

    /// A fixed fleet: every one of `router.nodes()` nodes runs
    /// `node_config` with its own cache shard, behind `router`.
    pub fn fleet(node_config: MoDMConfig, router: Router) -> Self {
        Deployment {
            tier: Tier::Fleet(Box::new(Fleet::new(node_config, router))),
        }
    }

    /// An elastic fleet: homogeneous `node_config` nodes whose count
    /// `scaler` drives within `lifecycle`'s bounds, with `faults`
    /// crashing nodes along the way (use [`FaultInjector::none`] for a
    /// fault-free run).
    ///
    /// # Panics
    ///
    /// Panics if `lifecycle` is invalid (see [`Deployment::try_elastic`]).
    pub fn elastic(
        node_config: MoDMConfig,
        scaler: impl Autoscaler + 'static,
        lifecycle: LifecyclePlan,
        faults: FaultInjector,
    ) -> Self {
        match Self::try_elastic(node_config, scaler, lifecycle, faults) {
            Ok(deployment) => deployment,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Deployment::elastic`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= min <= initial <= max`, the handoff
    /// fraction is in `[0, 1]`, the control period is non-zero and the
    /// SLO multiple is positive.
    pub fn try_elastic(
        node_config: MoDMConfig,
        scaler: impl Autoscaler + 'static,
        lifecycle: LifecyclePlan,
        faults: FaultInjector,
    ) -> Result<Self, ElasticConfigError> {
        let fleet = Box::new(ElasticFleet::try_new(lifecycle.into_config(node_config))?);
        Ok(Deployment {
            tier: Tier::Elastic {
                fleet,
                scaler: Box::new(scaler),
                faults,
            },
        })
    }

    /// Nodes the deployment manages (the ceiling, for elastic tiers).
    pub fn nodes(&self) -> usize {
        match &self.tier {
            Tier::Single(_) => 1,
            Tier::Fleet(f) => f.nodes(),
            Tier::Elastic { fleet, .. } => fleet.config().max_nodes,
        }
    }

    /// The per-node MoDM configuration.
    pub fn node_config(&self) -> &MoDMConfig {
        match &self.tier {
            Tier::Single(s) => s.config(),
            Tier::Fleet(f) => f.node_config(),
            Tier::Elastic { fleet, .. } => &fleet.config().node_config,
        }
    }

    fn assert_elastic_options(options: DeployOptions) {
        assert!(
            options == DeployOptions::default(),
            "elastic deployments replay real arrival times; \
             warmup/saturate apply to single and fleet tiers only"
        );
    }

    /// The one run path behind both [`ServingBackend`] entry points.
    fn serve(
        &mut self,
        trace: &Trace,
        options: DeployOptions,
        observer: Option<&mut dyn Observer>,
    ) -> RunOutcome {
        let gpus = self.node_config().num_gpus;
        let tier = self.tier();
        let report = match &mut self.tier {
            Tier::Single(system) => system.run_engine(trace, options, observer),
            Tier::Fleet(fleet) => fleet.run_observed(trace, options, observer),
            Tier::Elastic {
                fleet,
                scaler,
                faults,
            } => {
                Self::assert_elastic_options(options);
                match observer {
                    Some(observer) => fleet.run_observed(trace, scaler.as_mut(), faults, observer),
                    None => fleet.run_with_faults(trace, scaler.as_mut(), faults),
                }
            }
        };
        RunOutcome::new(tier, report, gpus)
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("tier", &self.tier())
            .field("nodes", &self.nodes())
            .finish()
    }
}

impl ServingBackend for Deployment {
    fn tier(&self) -> TierKind {
        match &self.tier {
            Tier::Single(_) => TierKind::Single,
            Tier::Fleet(_) => TierKind::Fleet,
            Tier::Elastic { .. } => TierKind::Elastic,
        }
    }

    fn run_with(&mut self, trace: &Trace, options: DeployOptions) -> RunOutcome {
        self.serve(trace, options, None)
    }

    fn run_observed(
        &mut self,
        trace: &Trace,
        options: DeployOptions,
        observer: &mut dyn Observer,
    ) -> RunOutcome {
        self.serve(trace, options, Some(observer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_cluster::GpuKind;
    use modm_controlplane::HoldAutoscaler;
    use modm_workload::TraceBuilder;

    fn config(gpus: usize) -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, gpus)
            .cache_capacity(400)
            .build()
    }

    #[test]
    fn tiers_report_their_kind_and_shape() {
        let single = Deployment::single(config(8));
        assert_eq!(single.tier(), TierKind::Single);
        assert_eq!(single.nodes(), 1);
        let fleet = Deployment::fleet(config(2), Router::new(RoutingPolicy::RoundRobin, 4));
        assert_eq!(fleet.tier(), TierKind::Fleet);
        assert_eq!(fleet.nodes(), 4);
        let elastic = Deployment::elastic(
            config(2),
            HoldAutoscaler,
            LifecyclePlan::new(4, 2, 8),
            FaultInjector::none(),
        );
        assert_eq!(elastic.tier(), TierKind::Elastic);
        assert_eq!(elastic.nodes(), 8, "elastic reports its ceiling");
    }

    #[test]
    fn try_elastic_rejects_bad_lifecycle() {
        let err = Deployment::try_elastic(
            config(2),
            HoldAutoscaler,
            LifecyclePlan::new(9, 2, 8), // initial > max
            FaultInjector::none(),
        )
        .unwrap_err();
        assert!(matches!(err, ElasticConfigError::BadNodeBounds { .. }));
    }

    #[test]
    #[should_panic(expected = "elastic deployments replay real arrival times")]
    fn elastic_rejects_saturation_options() {
        let trace = TraceBuilder::diffusion_db(3)
            .requests(40)
            .rate_per_min(10.0)
            .build();
        let mut d = Deployment::elastic(
            config(2),
            HoldAutoscaler,
            LifecyclePlan::new(2, 2, 2),
            FaultInjector::none(),
        );
        let _ = d.run_with(&trace, DeployOptions::saturated(10));
    }

    #[test]
    fn generic_driver_runs_any_backend() {
        let trace = TraceBuilder::diffusion_db(4)
            .requests(60)
            .rate_per_min(12.0)
            .build();
        let mut deployments: Vec<Deployment> = vec![
            Deployment::single(config(4)),
            Deployment::fleet(config(2), Router::new(RoutingPolicy::CacheAffinity, 2)),
            Deployment::elastic(
                config(2),
                HoldAutoscaler,
                LifecyclePlan::new(2, 2, 2),
                FaultInjector::none(),
            ),
        ];
        for d in &mut deployments {
            let backend: &mut dyn ServingBackend = d;
            let outcome = backend.run_with(&trace, DeployOptions::default());
            assert_eq!(outcome.completed(), 60, "{:?}", outcome.tier());
        }
    }
}
