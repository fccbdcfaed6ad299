//! `modm-controlplane` — the serving engine and the elastic control
//! plane above it.
//!
//! One discrete-event loop serves every tier. In production, capacity
//! itself is a control variable: diurnal load, bursts and failures all
//! change how many nodes should exist. The engine drives a fleet of
//! [`modm_core::node::ServingNode`]s behind a `modm_fleet::Router`
//! through time, and a fixed node count is the case where the control
//! plane holds:
//!
//! * [`run_tier`] — the single, fleet and elastic tiers: one region
//!   whose node set follows a [`LifecyclePlan`] under an [`Autoscaler`].
//!   An elastic fleet switches the control plane on: an autoscaler, node
//!   lifecycles, cache handoff and injected faults. A fixed fleet is an
//!   elastic fleet under [`HoldAutoscaler`] with no faults and `min =
//!   initial = max` nodes, routed by the caller's router template; the
//!   paper's single-node deployment is a fixed fleet of one.
//! * [`run_regions`] — the scenario tier: a holding fleet split into
//!   regions behind a `modm_fleet::GeoRouter`, offered by clients that
//!   retry under a [`RetryPolicy`], with a control timeline of tenancy
//!   rewrites and region losses ([`ControlAction`]).
//!
//! Every run reports an [`ElasticReport`]: fleet-wide counters that
//! count each request once, at its terminal (a hit or a miss when it
//! completes), GPU-hours metered per node, the control-plane log, retry
//! accounting ([`RetryStats`]), one [`RegionSlice`] per region, and one
//! [`NodeReport`] per node when every node served the whole run — every
//! node of a fixed fleet.
//!
//! Each tier salts the run's RNG with its own private constant, so every
//! tier's results stay seed-for-seed stable; a caller picks the tier,
//! never the salt. Most callers reach [`run_tier`] through
//! `modm_deploy::Deployment`. The control-plane pieces:
//!
//! * [`Autoscaler`] — the scaling policy interface, with
//!   [`ReactiveAutoscaler`] (queue-depth/SLO hysteresis),
//!   [`PredictiveAutoscaler`] (EWMA level+trend forecast of the arrival
//!   rate), the static baseline [`HoldAutoscaler`], and the scripted
//!   [`ScheduledAutoscaler`].
//! * [`NodeLifecycle`] — the per-node state machine
//!   `Provisioning → Warming → Active → Draining → Decommissioned`
//!   (plus `Failed`), with illegal transitions rejected.
//! * **Cache handoff** — a draining node migrates its hottest shard
//!   entries to the ring successors inheriting its keyspace, so
//!   scale-down does not torch the fleet's hit rate.
//! * [`FaultInjector`] — seeded node crashes and recovery, for measuring
//!   hit-rate/SLO recovery after shard loss.
//!
//! # Example: a scripted 4 → 6 → 4 run
//!
//! ```
//! use modm_controlplane::{
//!     run_tier, FaultInjector, LifecyclePlan, ScaleDecision, ScheduledAutoscaler, TierKind,
//! };
//! use modm_core::{MoDMConfig, RunOptions};
//! use modm_cluster::GpuKind;
//! use modm_fleet::Router;
//! use modm_workload::TraceBuilder;
//!
//! let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 2).cache_capacity(400).build();
//! let plan = LifecyclePlan::new(4, 2, 8);
//! let trace = TraceBuilder::diffusion_db(7).requests(400).rate_per_min(16.0).build();
//! let mut scaler = ScheduledAutoscaler::new(vec![
//!     ScaleDecision::Up(2),    // window 1: provision two nodes
//!     ScaleDecision::Hold,     // window 2: let them warm
//!     ScaleDecision::Down(2),  // window 3: drain two (with cache handoff)
//! ]);
//! let router = Router::new(plan.policy, plan.initial_nodes);
//! let report = run_tier(
//!     TierKind::Elastic,
//!     &node,
//!     &plan,
//!     router,
//!     &trace,
//!     RunOptions::default(),
//!     &mut scaler,
//!     &FaultInjector::none(),
//!     None,
//! );
//! assert_eq!(report.completed, 400);
//! assert_eq!(report.peak_active_nodes(), 6);
//! ```

mod autoscaler;
mod client;
mod engine;
mod fault;
mod lifecycle;
mod region;
mod report;
mod tier;

// Behaviour tests of the single-node (`system`), fixed-fleet and elastic
// tiers, each run through `run_tier`.
mod elastic;
mod fleet;
mod system;

pub use autoscaler::{
    Autoscaler, HoldAutoscaler, PredictiveAutoscaler, PredictiveConfig, ReactiveAutoscaler,
    ReactiveConfig, ScaleDecision, ScalerConfigError, ScalerObservation, ScheduledAutoscaler,
};
pub use client::RetryPolicy;
pub use engine::ControlAction;
pub use fault::FaultInjector;
pub use lifecycle::{IllegalTransition, NodeLifecycle, NodeState};
pub use region::{run_regions, RegionLifecycle, RegionState, RegionTransitionError};
pub use report::{
    ElasticReport, FleetEvent, FleetEventKind, NodeReport, RegionSlice, RetryStats, WindowSample,
};
pub use tier::{run_tier, ElasticConfigError, LifecyclePlan, TierKind};
