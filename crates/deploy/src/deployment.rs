//! The deployment builder and the one trait every tier serves through.

use modm_controlplane::{
    run_tier, Autoscaler, ElasticConfigError, FaultInjector, HoldAutoscaler, LifecyclePlan,
    TierKind,
};
use modm_core::events::Observer;
use modm_core::{MoDMConfig, RunOptions};
use modm_fleet::{Router, RoutingPolicy};
use modm_workload::Trace;

use crate::outcome::RunOutcome;

/// Options controlling a deployment run, uniform across tiers.
///
/// `warmup` and `saturate` apply to the single-node and fleet tiers
/// (which replay or collapse trace timestamps); the elastic tier always
/// replays real arrival times — its whole point is reacting to them — and
/// rejects non-default options.
pub type DeployOptions = RunOptions;

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

/// A serving deployment: one builder for every tier.
///
/// `Deployment` is the front door of the whole reproduction — the same
/// trace can be replayed through a single node, a sharded fleet, or an
/// autoscaled elastic fleet, and the [`RunOutcome`]s compare through one
/// accessor surface. Every tier is plain data for one event loop,
/// `modm-controlplane`'s engine: a node config, a router, a
/// [`LifecyclePlan`], an autoscaler and a fault schedule. The elastic
/// tier runs the plan it is given; a fixed fleet is the plan `n, n, n`
/// under [`HoldAutoscaler`] with no faults, and the single node is a
/// fixed fleet of one.
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
    tier: TierKind,
    config: MoDMConfig,
    /// The router every run starts from.
    router: Router,
    plan: LifecyclePlan,
    scaler: Box<dyn Autoscaler>,
    faults: FaultInjector,
}

impl Deployment {
    /// One MoDM node with a monolithic cache: `config.num_gpus` workers,
    /// the paper's deployment.
    pub fn single(config: MoDMConfig) -> Self {
        Self::fixed(
            TierKind::Single,
            config,
            Router::new(RoutingPolicy::RoundRobin, 1),
        )
    }

    /// A fixed fleet: every one of `router.nodes()` nodes runs
    /// `node_config` with its own cache shard, behind `router`.
    pub fn fleet(node_config: MoDMConfig, router: Router) -> Self {
        Self::fixed(TierKind::Fleet, node_config, router)
    }

    /// A static tier: `router.nodes()` nodes that hold.
    fn fixed(tier: TierKind, config: MoDMConfig, router: Router) -> Self {
        let n = router.nodes();
        Deployment {
            tier,
            config,
            plan: LifecyclePlan {
                policy: router.policy(),
                ..LifecyclePlan::new(n, n, n)
            },
            router,
            scaler: Box::new(HoldAutoscaler),
            faults: FaultInjector::none(),
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
    /// Returns the error [`LifecyclePlan::validate`] finds in `lifecycle`.
    pub fn try_elastic(
        node_config: MoDMConfig,
        scaler: impl Autoscaler + 'static,
        lifecycle: LifecyclePlan,
        faults: FaultInjector,
    ) -> Result<Self, ElasticConfigError> {
        lifecycle.validate()?;
        Ok(Deployment {
            tier: TierKind::Elastic,
            config: node_config,
            router: Router::new(lifecycle.policy, lifecycle.initial_nodes),
            plan: lifecycle,
            scaler: Box::new(scaler),
            faults,
        })
    }

    /// Nodes the deployment manages (the ceiling, for elastic tiers).
    pub fn nodes(&self) -> usize {
        self.plan.max_nodes
    }

    /// The per-node MoDM configuration.
    pub fn node_config(&self) -> &MoDMConfig {
        &self.config
    }

    /// The one run path behind both [`ServingBackend`] entry points.
    fn serve(
        &mut self,
        trace: &Trace,
        options: DeployOptions,
        observer: Option<&mut dyn Observer>,
    ) -> RunOutcome {
        assert!(
            self.tier != TierKind::Elastic || options == DeployOptions::default(),
            "elastic deployments replay real arrival times; \
             warmup/saturate apply to single and fleet tiers only"
        );
        let report = run_tier(
            self.tier,
            &self.config,
            &self.plan,
            self.router.clone(),
            trace,
            options,
            self.scaler.as_mut(),
            &self.faults,
            observer,
        );
        RunOutcome::new(self.tier, report, self.config.num_gpus)
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
        self.tier
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
