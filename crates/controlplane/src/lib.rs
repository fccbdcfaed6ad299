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
//! * [`ElasticFleet`] — the control plane switched on: an autoscaler,
//!   node lifecycles, cache handoff and injected faults.
//! * [`Fleet`] — a fixed fleet: an elastic fleet under
//!   [`HoldAutoscaler`] with no faults and `min = initial = max` nodes,
//!   routed by the caller's router template.
//! * [`ServingSystem`] — the paper's single-node deployment: a [`Fleet`]
//!   of one.
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
//! node of a fixed fleet. [`ServingSystem`] hands back its one node's
//! `ServingReport`.
//!
//! Each entry point salts the run's RNG with its own private constant,
//! so every tier's results stay seed-for-seed stable. The control-plane
//! pieces:
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
//!     ElasticFleet, ElasticFleetConfig, ScaleDecision, ScheduledAutoscaler,
//! };
//! use modm_core::MoDMConfig;
//! use modm_cluster::GpuKind;
//! use modm_workload::TraceBuilder;
//!
//! let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 2).cache_capacity(400).build();
//! let fleet = ElasticFleet::new(ElasticFleetConfig::new(node, 4, 2, 8));
//! let trace = TraceBuilder::diffusion_db(7).requests(400).rate_per_min(16.0).build();
//! let mut plan = ScheduledAutoscaler::new(vec![
//!     ScaleDecision::Up(2),    // window 1: provision two nodes
//!     ScaleDecision::Hold,     // window 2: let them warm
//!     ScaleDecision::Down(2),  // window 3: drain two (with cache handoff)
//! ]);
//! let report = fleet.run(&trace, &mut plan);
//! assert_eq!(report.completed, 400);
//! assert_eq!(report.peak_active_nodes(), 6);
//! ```

pub mod autoscaler;
pub mod client;
pub mod elastic;
mod engine;
pub mod fault;
pub mod fleet;
pub mod lifecycle;
pub mod region;
pub mod report;
pub mod system;

pub use autoscaler::{
    Autoscaler, HoldAutoscaler, PredictiveAutoscaler, PredictiveConfig, ReactiveAutoscaler,
    ReactiveConfig, ScaleDecision, ScalerConfigError, ScalerObservation, ScheduledAutoscaler,
};
pub use client::RetryPolicy;
pub use elastic::{ElasticConfigError, ElasticFleet, ElasticFleetConfig};
pub use engine::ControlAction;
pub use fault::FaultInjector;
pub use fleet::Fleet;
pub use lifecycle::{IllegalTransition, NodeLifecycle, NodeState};
pub use region::{run_regions, RegionLifecycle, RegionState, RegionTransitionError};
pub use report::{
    ElasticReport, FleetEvent, FleetEventKind, NodeReport, RegionSlice, RetryStats, WindowSample,
};
pub use system::ServingSystem;
