//! `modm-scenario` — adversarial workload scenarios over the deployment
//! stack: a script, client and topology layer over the serving engine.
//!
//! The fleet and elastic tiers replay a trace open-loop and drop
//! whatever the system refuses. That measures capacity; it says nothing
//! about *overload dynamics* — what happens when rejected clients come
//! back, one tenant goes viral, the tenant set churns mid-run, or a
//! whole region disappears. This crate scripts those and runs them on
//! `modm-controlplane`'s engine ([`run_regions`](modm_controlplane::run_regions)),
//! the same event loop every other tier uses:
//!
//! * [`RetryPolicy`] — the client population model: rejected requests
//!   re-offer with capped exponential backoff and jitter, either
//!   honoring the server's `retry_after` hint
//!   ([`RetryPolicy::honoring`]) or hammering it
//!   ([`RetryPolicy::naive`]), until they complete or abandon.
//! * [`ScenarioScript`] — typed, timed adversarial actions
//!   ([`ScenarioAction`]): flash crowds (one tenant's rate spikes 10x),
//!   tenant join/leave (live [`TenancyPolicy`](modm_core::TenancyPolicy)
//!   rewrites — WFQ weights, rate limits and cache reserves — on every
//!   node and shard mid-run), and wholesale region loss. Scripts are
//!   validated end to end before the run ([`ScenarioError`]).
//! * [`TwoRegion`] / [`Scenario`] — two regional fleets behind a
//!   latency-biased [`GeoRouter`](modm_fleet::GeoRouter) with a fixed
//!   200 ms round trip and cache-affinity routing; on region loss the
//!   backlog is redelivered to the survivor and the hottest half of the
//!   cache entries is handed off across the region boundary.
//!
//! Runs produce the engine's [`ElasticReport`], the report every tier
//! shares: the familiar latency/SLO/tenant surface plus
//! retry accounting ([`RetryStats`]) and per-region slices
//! ([`RegionSlice`]). [`Scenario`] implements
//! [`ServingBackend`](modm_deploy::ServingBackend), so scenarios drop
//! into every generic driver in `modm-deploy`.
//!
//! # Example: a flash crowd under a fair control plane
//!
//! ```
//! use modm_cluster::GpuKind;
//! use modm_core::{MoDMConfig, TenancyPolicy, TenantShare};
//! use modm_scenario::{Scenario, ScenarioAction, ScenarioScript, TwoRegion};
//! use modm_workload::{QosClass, TenantId, TenantMix};
//!
//! // Two tenants share the fleet under weighted-fair admission.
//! let node = MoDMConfig::builder()
//!     .gpus(GpuKind::Mi210, 2)
//!     .cache_capacity(400)
//!     .tenancy(TenancyPolicy::weighted_fair(vec![
//!         TenantShare::new(TenantId(1), 2.0),
//!         TenantShare::new(TenantId(2), 1.0),
//!     ]))
//!     .build();
//! // Tenant 2 goes viral at minute 10: a 10x surge for five minutes.
//! let script = ScenarioScript::new(
//!     25.0,
//!     vec![
//!         TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
//!         TenantMix::new(TenantId(2), QosClass::Standard, 6.0),
//!     ],
//! )
//! .with_action(ScenarioAction::FlashCrowd {
//!     tenant: TenantId(2),
//!     at_mins: 10.0,
//!     duration_mins: 5.0,
//!     multiplier: 10.0,
//! });
//! let scenario = Scenario::new(node, script, TwoRegion::new(2)).unwrap();
//! let report = scenario.run();
//! // Every request reaches exactly one terminal, crowd or no crowd.
//! assert_eq!(
//!     report.completed + report.rejected + report.shed,
//!     scenario.trace().len() as u64,
//! );
//! ```

pub mod run;
pub mod script;

pub use run::{Scenario, TwoRegion};
pub use script::{ScenarioAction, ScenarioError, ScenarioScript};

// The client population, the control vocabulary and the report belong
// to the serving engine that runs them; re-export them so scenario
// users need only this crate.
pub use modm_controlplane::{ControlAction, ElasticReport, RegionSlice, RetryPolicy, RetryStats};
