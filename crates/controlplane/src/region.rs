//! Regions: the lifecycle state machine, and the multi-region entry
//! point of the serving engine.
//!
//! A region loss needs one fact per region — alive or lost, and since
//! when — with the same typed-`Result` discipline as
//! [`crate::NodeLifecycle`]: a scripted `RegionLoss` firing twice is a
//! script bug that should surface as an error, not silently corrupt the
//! run. Routing across the surviving regions is the geo router's job
//! (`modm_fleet::GeoRouter`); this machine owns the authoritative state
//! and its history.
//!
//! [`run_regions`] serves a trace over several equal regions with
//! clients that retry under a [`RetryPolicy`] and a control timeline —
//! the scenario tier.

use modm_core::config::MoDMConfig;
use modm_core::events::Observer;
use modm_fleet::{GeoRouter, Router};
use modm_simkit::{SimRng, SimTime};
use modm_workload::Trace;

use crate::autoscaler::HoldAutoscaler;
use crate::client::{Clients, RetryPolicy};
use crate::engine::{ControlAction, ElasticRun};
use crate::fault::FaultInjector;
use crate::report::ElasticReport;
use crate::tier::LifecyclePlan;

/// Salt of the retrying clients' jitter stream ("JITT"), forked off the
/// run's stream before anything else draws from it.
const JITTER_SALT: u64 = 0x4A49_5454;

/// Serves `trace` on `geo.regions()` regions of `plan.max_nodes /
/// geo.regions()` `config` nodes each, every region routed by its own
/// `plan.policy` router over its own cache shards, under a holding
/// control plane with no faults. Clients retry refusals under `retry`,
/// and `timeline`'s actions fire at their times: a policy rewrite
/// reaches every live node and shard, and a region loss redelivers its
/// backlog after one `geo` round trip and hands the hottest
/// `plan.handoff_fraction` of each lost shard to the survivors. The
/// run's RNG is salted by `salt`. Observation never perturbs the run.
///
/// # Panics
///
/// Panics unless the timeline's policies validate against the node
/// config and its region losses are legal for `geo`, or if the run
/// breaks request conservation.
#[allow(clippy::too_many_arguments)]
pub fn run_regions(
    config: &MoDMConfig,
    plan: &LifecyclePlan,
    geo: GeoRouter,
    trace: &Trace,
    retry: RetryPolicy,
    timeline: Vec<(SimTime, ControlAction)>,
    salt: u64,
    observer: Option<&mut dyn Observer>,
) -> ElasticReport {
    let mut rng = SimRng::seed_from(config.seed ^ salt);
    let jitter = rng.fork(JITTER_SALT);
    let routers = (0..geo.regions())
        .map(|_| Router::new(plan.policy, plan.max_nodes / geo.regions()))
        .collect();
    let clients = Clients::Retrying {
        policy: retry,
        jitter,
    };
    let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
    ElasticRun::new(
        config,
        plan,
        geo,
        routers,
        trace,
        0,
        clients,
        rng,
        &mut scaler,
        &faults,
        observer,
    )
    .with_timeline(timeline)
    .execute()
    .into_elastic_report()
}

/// Where a region is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionState {
    /// Serving traffic.
    Active,
    /// Lost wholesale: every node, queue and cache shard in it is gone.
    Lost,
}

/// An attempted region transition the state machine forbids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegionTransitionError {
    /// The region is already lost; it cannot be lost again.
    AlreadyLost,
}

impl std::fmt::Display for RegionTransitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionTransitionError::AlreadyLost => f.write_str("region is already lost"),
        }
    }
}

impl std::error::Error for RegionTransitionError {}

/// One region's lifecycle: current state plus the transition history.
#[derive(Debug, Clone)]
pub struct RegionLifecycle {
    state: RegionState,
    since: SimTime,
    history: Vec<(SimTime, RegionState)>,
}

impl RegionLifecycle {
    /// Starts an active region at time `at`.
    pub fn new(at: SimTime) -> Self {
        RegionLifecycle {
            state: RegionState::Active,
            since: at,
            history: vec![(at, RegionState::Active)],
        }
    }

    /// The current state.
    pub fn state(&self) -> RegionState {
        self.state
    }

    /// True while the region serves traffic.
    pub fn is_alive(&self) -> bool {
        self.state == RegionState::Active
    }

    /// When the current state was entered.
    pub fn since(&self) -> SimTime {
        self.since
    }

    /// When the region was lost, if it currently is.
    pub fn lost_at(&self) -> Option<SimTime> {
        (self.state == RegionState::Lost).then_some(self.since)
    }

    /// Every `(time, state)` entered, oldest first.
    pub fn history(&self) -> &[(SimTime, RegionState)] {
        &self.history
    }

    /// Marks the region lost at `at`.
    ///
    /// # Errors
    ///
    /// Returns [`RegionTransitionError::AlreadyLost`] if it already is.
    pub fn fail(&mut self, at: SimTime) -> Result<(), RegionTransitionError> {
        if self.state == RegionState::Lost {
            return Err(RegionTransitionError::AlreadyLost);
        }
        self.state = RegionState::Lost;
        self.since = at;
        self.history.push((at, RegionState::Lost));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn loss_is_recorded_with_its_time() {
        let mut r = RegionLifecycle::new(t(0.0));
        assert!(r.is_alive());
        assert_eq!(r.lost_at(), None);
        r.fail(t(10.0)).expect("first loss is legal");
        assert!(!r.is_alive());
        assert_eq!(r.lost_at(), Some(t(10.0)));
        assert_eq!(r.history().len(), 2);
    }

    #[test]
    fn illegal_edges_are_typed_and_leave_state_alone() {
        let mut r = RegionLifecycle::new(t(0.0));
        r.fail(t(2.0)).unwrap();
        assert_eq!(r.fail(t(3.0)), Err(RegionTransitionError::AlreadyLost));
        assert_eq!(r.lost_at(), Some(t(2.0)), "rejected edge must not move");
        assert_eq!(r.history().len(), 2);
    }
}
