//! The one-region tiers' entry point, and the plan every run follows.
//!
//! A tier is a setting of the engine's knobs, not a loop of its own. A
//! [`LifecyclePlan`] bounds the node set and sets the control cadence; the
//! single node is the plan `1, 1, 1` behind a one-node router, a fixed
//! fleet is `n, n, n` under a holding autoscaler, and an elastic fleet is
//! any valid plan under any [`Autoscaler`]. [`run_tier`] serves all three.

use std::fmt;

use modm_core::config::{MoDMConfig, RunOptions};
use modm_core::events::Observer;
use modm_fleet::{Router, RoutingPolicy};
use modm_simkit::SimDuration;
use modm_workload::Trace;

use crate::autoscaler::Autoscaler;
use crate::client::Clients;
use crate::engine::ElasticRun;
use crate::fault::FaultInjector;
use crate::report::ElasticReport;

/// RNG salt of single-node runs ("RUN").
const SINGLE_SALT: u64 = 0x52_554E;
/// RNG salt of fixed-fleet runs ("FLTR").
const FLEET_SALT: u64 = 0x464C_5452;
/// RNG salt of elastic runs ("ELAS").
pub(crate) const ELASTIC_SALT: u64 = 0x454C_4153;

/// Which serving tier produced a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierKind {
    /// One MoDM node with a monolithic cache: a fixed fleet of one.
    Single,
    /// A fixed fleet of nodes behind a router: an elastic fleet that
    /// holds.
    Fleet,
    /// An autoscaled fleet under a control plane.
    Elastic,
    /// A multi-region closed-loop scenario run ([`crate::run_regions`]).
    Scenario,
}

impl TierKind {
    /// Short display name for tables.
    pub fn name(self) -> &'static str {
        match self {
            TierKind::Single => "single",
            TierKind::Fleet => "fleet",
            TierKind::Elastic => "elastic",
            TierKind::Scenario => "scenario",
        }
    }
}

/// Why [`LifecyclePlan::validate`] rejected a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ElasticConfigError {
    /// `min_nodes` was zero — the fleet needs at least one permanent node.
    NoPermanentNodes,
    /// The node bounds violated `min <= initial <= max`.
    BadNodeBounds {
        /// Configured floor.
        min: usize,
        /// Configured starting count.
        initial: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// The drain handoff fraction was outside `[0, 1]`.
    HandoffFractionOutOfRange(f64),
    /// The control period was zero.
    ZeroControlPeriod,
    /// The SLO multiple was not positive.
    NonPositiveSloMultiple(f64),
}

impl fmt::Display for ElasticConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticConfigError::NoPermanentNodes => {
                write!(f, "need at least one permanent node")
            }
            ElasticConfigError::BadNodeBounds { min, initial, max } => {
                write!(
                    f,
                    "need min <= initial <= max, got {min} <= {initial} <= {max}"
                )
            }
            ElasticConfigError::HandoffFractionOutOfRange(v) => {
                write!(f, "handoff fraction must be in [0, 1], got {v}")
            }
            ElasticConfigError::ZeroControlPeriod => write!(f, "control period must be positive"),
            ElasticConfigError::NonPositiveSloMultiple(v) => {
                write!(f, "SLO multiple must be positive, got {v}")
            }
        }
    }
}

impl std::error::Error for ElasticConfigError {}

/// How a deployment's node set behaves over time: bounds, routing,
/// control cadence and the cold-start/drain mechanics.
///
/// It is kept separate from the per-node [`MoDMConfig`] so the same node
/// shape can be deployed under different elasticity regimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecyclePlan {
    /// Nodes active (warm) at time zero.
    pub initial_nodes: usize,
    /// The control plane never drains below this many active nodes.
    pub min_nodes: usize,
    /// Node-id capacity: the control plane never provisions beyond this.
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
    /// to its ring successors; the cold remainder dies with the shard.
    pub handoff_fraction: f64,
    /// SLO multiple (× large-model latency) the run is judged against.
    pub slo_multiple: f64,
}

impl LifecyclePlan {
    /// A plan with production-shaped defaults: cache-affinity routing,
    /// 60 s control period, 45 s + 30 s cold start, hottest-60% handoff,
    /// 2× SLO.
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

    /// Checks the plan's invariants.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= min_nodes <= initial_nodes <=
    /// max_nodes`, the handoff fraction is in `[0, 1]`, the control
    /// period is non-zero, and the SLO multiple is positive.
    pub fn validate(&self) -> Result<(), ElasticConfigError> {
        if self.min_nodes < 1 {
            return Err(ElasticConfigError::NoPermanentNodes);
        }
        if self.min_nodes > self.initial_nodes || self.initial_nodes > self.max_nodes {
            return Err(ElasticConfigError::BadNodeBounds {
                min: self.min_nodes,
                initial: self.initial_nodes,
                max: self.max_nodes,
            });
        }
        if !(0.0..=1.0).contains(&self.handoff_fraction) {
            return Err(ElasticConfigError::HandoffFractionOutOfRange(
                self.handoff_fraction,
            ));
        }
        if self.control_period.is_zero() {
            return Err(ElasticConfigError::ZeroControlPeriod);
        }
        if self.slo_multiple <= 0.0 {
            return Err(ElasticConfigError::NonPositiveSloMultiple(
                self.slo_multiple,
            ));
        }
        Ok(())
    }
}

/// Serves `trace` as a one-region `tier` run: `config` nodes under
/// `plan`, starting from `router` (which routes over the plan's initial
/// nodes), with `scaler` deciding each control window and `faults`
/// crashing nodes along the way. The first `options.warmup` requests
/// pre-fill the shards off-line; `options.saturate` replaces the arrival
/// times with a closed loop. Every [`SimEvent`](modm_core::events::SimEvent)
/// streams to `observer`, if one is attached; observation never perturbs
/// the run. Each tier salts the run's RNG with its own constant, so its
/// results stay seed-for-seed stable.
///
/// # Panics
///
/// Panics if `plan` is invalid (see [`LifecyclePlan::validate`]), if
/// `options.warmup >= trace.len()`, or if `tier` is
/// [`TierKind::Scenario`], whose runs [`crate::run_regions`] serves.
#[allow(clippy::too_many_arguments)]
pub fn run_tier(
    tier: TierKind,
    config: &MoDMConfig,
    plan: &LifecyclePlan,
    router: Router,
    trace: &Trace,
    options: RunOptions,
    scaler: &mut dyn Autoscaler,
    faults: &FaultInjector,
    observer: Option<&mut dyn Observer>,
) -> ElasticReport {
    let salt = match tier {
        TierKind::Single => SINGLE_SALT,
        TierKind::Fleet => FLEET_SALT,
        TierKind::Elastic => ELASTIC_SALT,
        TierKind::Scenario => panic!("scenario runs are served by `run_regions`"),
    };
    run_salted(
        config, plan, router, trace, options, salt, scaler, faults, observer,
    )
}

/// [`run_tier`] with the RNG salt given directly, so the engine's tests
/// can run two tiers under one salt.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_salted(
    config: &MoDMConfig,
    plan: &LifecyclePlan,
    router: Router,
    trace: &Trace,
    options: RunOptions,
    salt: u64,
    scaler: &mut dyn Autoscaler,
    faults: &FaultInjector,
    observer: Option<&mut dyn Observer>,
) -> ElasticReport {
    if let Err(e) = plan.validate() {
        panic!("{e}");
    }
    assert!(
        options.warmup < trace.len(),
        "warmup consumes the whole trace"
    );
    scaler.reset();
    let clients = if options.saturate {
        Clients::Saturated { next: 0 }
    } else {
        Clients::open_loop()
    };
    ElasticRun::one_region(
        config,
        plan,
        router,
        trace,
        options.warmup,
        clients,
        salt,
        scaler,
        faults,
        observer,
    )
    .execute()
    .into_elastic_report()
}

#[cfg(test)]
pub(crate) mod tests {
    //! Each one-region tier's run, set up as `modm_deploy::Deployment`
    //! sets it up, for the tier behaviour tests.

    use super::*;
    use crate::autoscaler::HoldAutoscaler;

    /// The single tier: one node behind a one-node round-robin router.
    pub(crate) fn single(config: &MoDMConfig, trace: &Trace, options: RunOptions) -> ElasticReport {
        let router = Router::new(RoutingPolicy::RoundRobin, 1);
        holding(TierKind::Single, config, router, trace, options)
    }

    /// The fleet tier: every one of `router.nodes()` nodes runs `config`.
    pub(crate) fn fleet(
        config: &MoDMConfig,
        router: Router,
        trace: &Trace,
        options: RunOptions,
    ) -> ElasticReport {
        holding(TierKind::Fleet, config, router, trace, options)
    }

    fn holding(
        tier: TierKind,
        config: &MoDMConfig,
        router: Router,
        trace: &Trace,
        options: RunOptions,
    ) -> ElasticReport {
        let n = router.nodes();
        let plan = LifecyclePlan {
            policy: router.policy(),
            ..LifecyclePlan::new(n, n, n)
        };
        let faults = FaultInjector::none();
        run_tier(
            tier,
            config,
            &plan,
            router,
            trace,
            options,
            &mut HoldAutoscaler,
            &faults,
            None,
        )
    }

    /// The elastic tier: `plan` under `scaler`, with `faults`.
    pub(crate) fn elastic(
        config: &MoDMConfig,
        plan: LifecyclePlan,
        trace: &Trace,
        scaler: &mut dyn Autoscaler,
        faults: &FaultInjector,
    ) -> ElasticReport {
        let router = Router::new(plan.policy, plan.initial_nodes);
        let options = RunOptions::default();
        run_tier(
            TierKind::Elastic,
            config,
            &plan,
            router,
            trace,
            options,
            scaler,
            faults,
            None,
        )
    }
}
