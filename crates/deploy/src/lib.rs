//! `modm-deploy` — one deployment API across every serving tier.
//!
//! Every MoDM serving tier — one node, a sharded fleet, an autoscaled
//! fleet — runs on `modm-controlplane`'s one event loop and reports one
//! [`ElasticReport`]; each tier is a setting of that engine's knobs. This
//! crate is the one way in, built from three pieces:
//!
//! * [`Deployment`] — one builder for every tier:
//!   [`Deployment::single`], [`Deployment::fleet`],
//!   [`Deployment::elastic`]. All implement [`ServingBackend`], so
//!   experiments, benches and tests drive any tier through one
//!   `run(&Trace) -> RunOutcome` interface.
//! * [`RunOutcome`] / [`Summary`] — the unified result layer: every tier
//!   reports the engine's [`ElasticReport`], and one accessor surface
//!   answers over it (completions, hit rate, SLO attainment, GPU-hours,
//!   per-node breakdowns), so cross-tier comparison tables are generic
//!   code. Each request counts once, at its terminal: a hit or a miss
//!   when it completes.
//! * The typed observer API — an [`Observer`] receives every
//!   [`SimEvent`] (admitted, cache hit/miss, dispatched, completed,
//!   scale-up/down, crash/recover) emitted from the shared
//!   `modm_core::node::ServingNode` step and the control loop, with
//!   built-in observers for latency histograms
//!   ([`LatencyHistogramObserver`]) and event-log capture
//!   ([`EventLogObserver`]), whose capture exports as CSV or JSON
//!   ([`events_to_csv`], [`events_to_json`]).
//!
//! # Example: the same trace through all three tiers
//!
//! ```
//! use modm_deploy::{
//!     Deployment, EventLogObserver, DeployOptions, LifecyclePlan, ServingBackend, Summary,
//! };
//! use modm_core::events::SimEvent;
//! use modm_core::MoDMConfig;
//! use modm_cluster::GpuKind;
//! use modm_controlplane::{FaultInjector, HoldAutoscaler};
//! use modm_fleet::{Router, RoutingPolicy};
//! use modm_workload::TraceBuilder;
//!
//! let trace = TraceBuilder::diffusion_db(7).requests(90).rate_per_min(12.0).build();
//! let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 2).cache_capacity(400).build();
//!
//! let mut tiers: Vec<(&str, Deployment)> = vec![
//!     ("single", Deployment::single(node.clone())),
//!     ("fleet", Deployment::fleet(node.clone(), Router::new(RoutingPolicy::CacheAffinity, 3))),
//!     ("elastic", Deployment::elastic(
//!         node, HoldAutoscaler, LifecyclePlan::new(3, 3, 3), FaultInjector::none(),
//!     )),
//! ];
//!
//! // One generic loop serves every tier and compares summaries.
//! println!("{}", Summary::table_header());
//! for (label, deployment) in &mut tiers {
//!     let mut log = EventLogObserver::new();
//!     let mut outcome = deployment.run_observed(&trace, DeployOptions::default(), &mut log);
//!     let summary = outcome.summary(2.0);
//!     assert_eq!(summary.completed, 90);
//!     assert_eq!(
//!         log.count(|e| matches!(e, SimEvent::Completed { .. })) as u64,
//!         summary.completed,
//!         "the event stream agrees with the report",
//!     );
//!     println!("{}", summary.row(label));
//! }
//! ```

mod deployment;
mod observers;
mod outcome;

pub use deployment::{DeployOptions, Deployment, ServingBackend};
pub use observers::{
    events_to_csv, events_to_json, EventLogObserver, LatencyHistogramObserver, MultiObserver,
};
pub use outcome::{summaries_to_json, NodeSlice, RunOutcome, Summary, TenantSummary};
// Every tier's report is built by the serving engine, which also owns the
// plan and tier vocabulary; re-export them so deployment users need only
// this crate.
pub use modm_controlplane::{ElasticReport, LifecyclePlan, RegionSlice, RetryStats, TierKind};

// The observer vocabulary lives in modm-core (the nodes emit it); re-export
// it so deployment users need only this crate.
pub use modm_core::events::{Observer, SimEvent};
