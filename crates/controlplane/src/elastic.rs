//! The elastic fleet: a MoDM fleet whose node count is a control variable.
//!
//! [`ElasticFleet`] runs the serving engine — per-node [`ServingNode`]s
//! behind a [`Router`], one shard per node — with the control plane
//! switched on:
//!
//! * a **control tick** every `control_period` observes the last window
//!   (arrival rate, queue depth, SLO violations) and asks the
//!   [`Autoscaler`] whether to scale;
//! * **scale-up** walks a spare node through `Provisioning → Warming →
//!   Active`, paying the cold-start delays before it takes traffic;
//! * **scale-down** removes a node from the router (draining nodes accept
//!   nothing new), *hands its hottest cache entries to its ring
//!   successors* — the shards that inherit its keyspace — lets it finish
//!   its backlog, then decommissions it;
//! * **crashes** from a seeded [`FaultInjector`] destroy a node's shard
//!   and re-deliver its backlog to the survivors; recovery re-provisions
//!   the node from cold.
//!
//! GPU-hours are metered per node from provisioning to release, so a run
//! reports both *how well* it served (SLO attainment, hit rate) and *what
//! it paid* — the autoscaling trade-off the `elastic` experiment plots.
//!
//! [`ServingNode`]: modm_core::node::ServingNode

use std::fmt;

use modm_core::config::MoDMConfig;
use modm_core::events::Observer;
use modm_fleet::{Router, RoutingPolicy};
use modm_simkit::SimDuration;
use modm_workload::Trace;

use crate::autoscaler::Autoscaler;
use crate::client::Clients;
use crate::engine::ElasticRun;
use crate::fault::FaultInjector;
use crate::report::ElasticReport;

/// RNG salt of elastic runs ("ELAS").
pub(crate) const ELASTIC_SALT: u64 = 0x454C_4153;

/// Why [`ElasticFleet::try_new`] rejected its configuration.
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

/// Configuration of an [`ElasticFleet`].
#[derive(Debug, Clone)]
pub struct ElasticFleetConfig {
    /// Per-node MoDM configuration (every node is homogeneous).
    pub node_config: MoDMConfig,
    /// Front-end routing policy.
    pub policy: RoutingPolicy,
    /// Nodes active (warm) at time zero.
    pub initial_nodes: usize,
    /// The control plane never drains below this many active nodes.
    pub min_nodes: usize,
    /// Node-id capacity: the control plane never provisions beyond this.
    pub max_nodes: usize,
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

impl ElasticFleetConfig {
    /// A config with production-shaped defaults: 60 s control period,
    /// 45 s + 30 s cold start, hottest-60% handoff, 2× SLO.
    pub fn new(
        node_config: MoDMConfig,
        initial_nodes: usize,
        min_nodes: usize,
        max_nodes: usize,
    ) -> Self {
        ElasticFleetConfig {
            node_config,
            policy: RoutingPolicy::CacheAffinity,
            initial_nodes,
            min_nodes,
            max_nodes,
            control_period: SimDuration::from_secs_f64(60.0),
            provision_delay: SimDuration::from_secs_f64(45.0),
            warm_delay: SimDuration::from_secs_f64(30.0),
            handoff_fraction: 0.6,
            slo_multiple: 2.0,
        }
    }
}

/// A fleet driven through time by a control plane.
///
/// # Example
///
/// ```
/// use modm_controlplane::{ElasticFleet, ElasticFleetConfig, HoldAutoscaler};
/// use modm_core::MoDMConfig;
/// use modm_cluster::GpuKind;
/// use modm_workload::TraceBuilder;
///
/// let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 2).cache_capacity(400).build();
/// let fleet = ElasticFleet::new(ElasticFleetConfig::new(node, 4, 2, 8));
/// let trace = TraceBuilder::diffusion_db(9).requests(150).rate_per_min(10.0).build();
/// let report = fleet.run(&trace, &mut HoldAutoscaler);
/// assert_eq!(report.completed, 150);
/// assert!(report.gpu_hours > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ElasticFleet {
    config: ElasticFleetConfig,
}

impl ElasticFleet {
    /// Validates and wraps the configuration.
    ///
    /// # Panics
    ///
    /// Panics on the same invariants [`ElasticFleet::try_new`] reports as
    /// errors.
    pub fn new(config: ElasticFleetConfig) -> Self {
        match Self::try_new(config) {
            Ok(fleet) => fleet,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`ElasticFleet::new`].
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= min_nodes <= initial_nodes <=
    /// max_nodes`, the handoff fraction is in `[0, 1]`, the control
    /// period is non-zero, and the SLO multiple is positive.
    pub fn try_new(config: ElasticFleetConfig) -> Result<Self, ElasticConfigError> {
        if config.min_nodes < 1 {
            return Err(ElasticConfigError::NoPermanentNodes);
        }
        if config.min_nodes > config.initial_nodes || config.initial_nodes > config.max_nodes {
            return Err(ElasticConfigError::BadNodeBounds {
                min: config.min_nodes,
                initial: config.initial_nodes,
                max: config.max_nodes,
            });
        }
        if !(0.0..=1.0).contains(&config.handoff_fraction) {
            return Err(ElasticConfigError::HandoffFractionOutOfRange(
                config.handoff_fraction,
            ));
        }
        if config.control_period.is_zero() {
            return Err(ElasticConfigError::ZeroControlPeriod);
        }
        if config.slo_multiple <= 0.0 {
            return Err(ElasticConfigError::NonPositiveSloMultiple(
                config.slo_multiple,
            ));
        }
        Ok(ElasticFleet { config })
    }

    /// The configuration.
    pub fn config(&self) -> &ElasticFleetConfig {
        &self.config
    }

    /// Serves `trace` under `scaler`, without failure injection.
    pub fn run(&self, trace: &Trace, scaler: &mut dyn Autoscaler) -> ElasticReport {
        self.run_with_faults(trace, scaler, &FaultInjector::none())
    }

    /// Serves `trace` under `scaler` with `faults` crashing nodes along
    /// the way. Deterministic in (trace, config, scaler, faults).
    pub fn run_with_faults(
        &self,
        trace: &Trace,
        scaler: &mut dyn Autoscaler,
        faults: &FaultInjector,
    ) -> ElasticReport {
        self.serve(trace, scaler, faults, None)
    }

    /// Serves `trace` under `scaler` and `faults` while streaming every
    /// [`SimEvent`](modm_core::events::SimEvent) to `observer`: the
    /// request-level stream the nodes emit *plus* the control-plane
    /// transitions (scale-up/down, activation, decommission, crash,
    /// recovery). Identical results to [`ElasticFleet::run_with_faults`]:
    /// observation never perturbs the simulation.
    pub fn run_observed(
        &self,
        trace: &Trace,
        scaler: &mut dyn Autoscaler,
        faults: &FaultInjector,
        observer: &mut dyn Observer,
    ) -> ElasticReport {
        self.serve(trace, scaler, faults, Some(observer))
    }

    fn serve(
        &self,
        trace: &Trace,
        scaler: &mut dyn Autoscaler,
        faults: &FaultInjector,
        obs: Option<&mut dyn Observer>,
    ) -> ElasticReport {
        scaler.reset();
        let router = Router::new(self.config.policy, self.config.initial_nodes);
        ElasticRun::one_region(
            &self.config,
            router,
            trace,
            0,
            Clients::open_loop(),
            ELASTIC_SALT,
            scaler,
            faults,
            obs,
        )
        .execute()
        .into_elastic_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::{HoldAutoscaler, ScaleDecision, ScheduledAutoscaler};
    use crate::report::FleetEventKind;
    use modm_cluster::GpuKind;
    use modm_workload::TraceBuilder;

    fn node_config() -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 2)
            .cache_capacity(500)
            .build()
    }

    fn fleet(initial: usize, min: usize, max: usize) -> ElasticFleet {
        ElasticFleet::new(ElasticFleetConfig::new(node_config(), initial, min, max))
    }

    #[test]
    fn shards_follow_the_node_config_index_policy() {
        // Every shard is built from `MoDMConfig::cache_config`, so the
        // node config's index policy reaches the elastic tier's caches;
        // the default stays on the exact flat scan.
        let trace = TraceBuilder::diffusion_db(43)
            .requests(60)
            .rate_per_min(12.0)
            .build();
        let approx = MoDMConfig {
            index_policy: modm_core::IndexPolicy::Approx,
            ..node_config()
        };
        for (node, backend) in [(node_config(), "flat"), (approx, "inverted")] {
            let config = ElasticFleetConfig::new(node, 2, 1, 4);
            let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
            let router = Router::new(config.policy, config.initial_nodes);
            let run = ElasticRun::one_region(
                &config,
                router,
                &trace,
                0,
                Clients::open_loop(),
                ELASTIC_SALT,
                &mut scaler,
                &faults,
                None,
            );
            for shard in 0..run.cache().num_shards() {
                assert_eq!(run.cache().shard(shard).index_backend(), backend);
            }
            let report = ElasticFleet::new(config).run(&trace, &mut HoldAutoscaler);
            assert_eq!(report.completed, 60, "{backend} shards serve everything");
        }
    }

    #[test]
    fn static_run_serves_everything_and_meters_gpu_hours() {
        let trace = TraceBuilder::diffusion_db(41)
            .requests(200)
            .rate_per_min(12.0)
            .build();
        let report = fleet(4, 4, 4).run(&trace, &mut HoldAutoscaler);
        assert_eq!(report.completed, 200);
        assert_eq!(report.hits + report.misses, 200);
        assert!(report.events.is_empty(), "static fleet never scales");
        // 4 nodes x 2 GPUs over the whole run.
        let expect = 4.0 * 2.0 * report.finished_at.as_secs_f64() / 3600.0;
        assert!((report.gpu_hours - expect).abs() < 1e-9);
    }

    #[test]
    fn scheduled_scale_up_and_down_walks_the_lifecycle() {
        let trace = TraceBuilder::diffusion_db(42)
            .requests(500)
            .rate_per_min(16.0)
            .build();
        let mut plan = ScheduledAutoscaler::new(vec![
            ScaleDecision::Up(2),
            ScaleDecision::Hold,
            ScaleDecision::Hold,
            ScaleDecision::Down(1),
        ]);
        let report = fleet(4, 2, 8).run(&trace, &mut plan);
        assert_eq!(report.completed, 500, "scaling never loses a request");
        let ups = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::ScaleUp { .. }))
            .count();
        let actives = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::NodeActive { .. }))
            .count();
        let downs = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::ScaleDown { .. }))
            .count();
        let decom = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::Decommissioned { .. }))
            .count();
        assert_eq!(ups, 2);
        assert_eq!(actives, 2, "both provisioned nodes reached Active");
        assert_eq!(downs, 1);
        assert_eq!(decom, 1, "the drained node released its GPUs");
        assert_eq!(report.peak_active_nodes(), 6);
        // Cold start is real: activation lags the scale-up decision by the
        // provision + warm delays.
        let up_at = report
            .find_event(|k| matches!(k, FleetEventKind::ScaleUp { .. }))
            .unwrap()
            .at;
        let active_at = report
            .find_event(|k| matches!(k, FleetEventKind::NodeActive { .. }))
            .unwrap()
            .at;
        assert!(
            (active_at.saturating_since(up_at).as_secs_f64() - 75.0).abs() < 1e-6,
            "45s provisioning + 30s warming"
        );
    }

    #[test]
    fn elastic_runs_are_deterministic() {
        let trace = TraceBuilder::diffusion_db(43)
            .requests(400)
            .rate_per_min(14.0)
            .build();
        let run = || {
            let mut plan = ScheduledAutoscaler::new(vec![
                ScaleDecision::Up(1),
                ScaleDecision::Hold,
                ScaleDecision::Down(1),
            ]);
            fleet(3, 2, 6).run(&trace, &mut plan)
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.routed_per_node, b.routed_per_node);
        assert_eq!(a.events.len(), b.events.len());
        assert!((a.gpu_hours - b.gpu_hours).abs() < 1e-12);
        for (x, y) in a.windows.iter().zip(&b.windows) {
            assert_eq!(x.completions, y.completions);
            assert_eq!(x.decision, y.decision);
        }
    }

    #[test]
    fn draining_node_finishes_backlog_but_gets_nothing_new() {
        // Run with a scripted drain; the debug_assert in route_to_node
        // (active-only routing) plus exact completion conservation proves
        // the draining node served its backlog and nothing else.
        let trace = TraceBuilder::diffusion_db(44)
            .requests(600)
            .rate_per_min(25.0)
            .build();
        let mut plan = ScheduledAutoscaler::new(vec![
            ScaleDecision::Hold,
            ScaleDecision::Down(1),
            ScaleDecision::Down(1),
        ]);
        let report = fleet(5, 2, 5).run(&trace, &mut plan);
        assert_eq!(report.completed, 600);
        let drains = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::ScaleDown { .. }))
            .count();
        assert_eq!(drains, 2);
        // Handoffs preserved capacity invariants (successor shards admit
        // through their normal insert path): every routed request was
        // still served exactly once after the drains.
        assert_eq!(report.hits + report.misses, 600);
    }

    #[test]
    fn crash_redelivers_backlog_and_recovery_rejoins() {
        let trace = TraceBuilder::diffusion_db(45)
            .requests(700)
            .rate_per_min(20.0)
            .build();
        let faults = FaultInjector::seeded(5, 8.0, 1, 4.0);
        let report = fleet(4, 2, 6).run_with_faults(&trace, &mut HoldAutoscaler, &faults);
        assert_eq!(report.completed, 700, "crashed work is re-served");
        let crash = report
            .find_event(|k| matches!(k, FleetEventKind::Crash { .. }))
            .expect("a crash fired");
        let FleetEventKind::Crash { lost_entries, .. } = crash.kind else {
            unreachable!()
        };
        assert!(lost_entries > 0, "the shard died with the node");
        assert!(
            report
                .find_event(|k| matches!(k, FleetEventKind::RecoveryStarted { .. }))
                .is_some(),
            "recovery began"
        );
        assert!(
            report
                .find_event(|k| matches!(k, FleetEventKind::NodeActive { .. }))
                .is_some(),
            "the recovered node rejoined the active set"
        );
    }
}
