//! # MoDM — Mixture-of-Diffusion-Models serving, reproduced in Rust
//!
//! Facade crate re-exporting every component of the MoDM reproduction:
//!
//! * [`simkit`] — deterministic discrete-event simulation engine.
//! * [`numerics`] — linear algebra and Fréchet-distance kernels.
//! * [`embedding`] — synthetic CLIP-like semantic space and retrieval index.
//! * [`diffusion`] — diffusion model zoo, schedules, samplers and quality model.
//! * [`workload`] — DiffusionDB/MJHQ-like traces and arrival processes.
//! * [`cache`] — image cache (FIFO/LRU/utility/S3-FIFO) and Nirvana's latent cache.
//! * [`cluster`] — GPU workers, model switching and energy accounting.
//! * [`metrics`] — CLIPScore, FID, IS, PickScore, latency/SLO/throughput.
//! * [`core`] — the MoDM node (scheduler decision, global monitor, PID,
//!   per-node serving step) and the typed [`core::events`] stream.
//! * [`baselines`] — Vanilla, Nirvana and Pinecone baselines.
//! * [`fleet`] — multi-node sharded serving: pluggable request routing
//!   and a consistent-hash semantic cache.
//! * [`controlplane`] — the serving engine, one event loop behind the
//!   single node ([`controlplane::ServingSystem`], a fleet of one), the
//!   fixed fleet ([`controlplane::Fleet`], an elastic fleet that holds)
//!   and elastic autoscaling: node lifecycle, cache handoff, fault
//!   injection. Every run reports one [`controlplane::ElasticReport`].
//! * [`deploy`] — **the front door**: one [`deploy::Deployment`] builder
//!   across all three tiers, the unified [`deploy::RunOutcome`] /
//!   [`deploy::Summary`] result layer, and the [`deploy::Observer`] API.
//! * [`telemetry`] — observability over the event stream: metrics
//!   registry, windowed series, request spans, SLO burn-rate alerts and
//!   DES self-profiling, exported as Prometheus text or JSON.
//! * [`trace`] — causal request tracing: span trees under bounded-memory
//!   tail sampling, critical-path attribution of P50/P99 latency,
//!   Chrome-trace/Perfetto export and a run-diff diagnoser.
//!
//! # Quickstart
//!
//! Every serving tier is built through [`deploy::Deployment`] and run
//! through [`deploy::ServingBackend`]; one node with a monolithic cache
//! is the paper's deployment:
//!
//! ```
//! use modm::deploy::{Deployment, ServingBackend};
//! use modm::core::MoDMConfig;
//! use modm::workload::TraceBuilder;
//! use modm::cluster::GpuKind;
//!
//! // A small DiffusionDB-like trace at 12 requests/minute.
//! let trace = TraceBuilder::diffusion_db(42).requests(200).rate_per_min(12.0).build();
//! let config = MoDMConfig::builder()
//!     .gpus(GpuKind::Mi210, 16)
//!     .cache_capacity(2_000)
//!     .build();
//! let mut outcome = Deployment::single(config).run(&trace);
//! let summary = outcome.summary(2.0);
//! assert_eq!(summary.completed, 200);
//! assert!(summary.hit_rate > 0.0);
//! ```
//!
//! # Fleet quickstart
//!
//! The same workload served by a four-node fleet: each node is a miniature
//! MoDM deployment with its own cache shard, and the front-end
//! [`fleet::Router`] consistent-hashes each prompt's coarse semantic
//! cluster onto a node so similar prompts keep hitting the same shard.
//! The run is the same one-liner — only the builder changes:
//!
//! ```
//! use modm::deploy::{Deployment, ServingBackend};
//! use modm::fleet::{Router, RoutingPolicy};
//! use modm::core::MoDMConfig;
//! use modm::workload::TraceBuilder;
//! use modm::cluster::GpuKind;
//!
//! let trace = TraceBuilder::diffusion_db(42).requests(200).rate_per_min(12.0).build();
//! let node = MoDMConfig::builder()
//!     .gpus(GpuKind::Mi210, 4)      // 4 GPUs per node, 16 fleet-wide
//!     .cache_capacity(500)          // 500 images per shard, 2 000 fleet-wide
//!     .build();
//! let mut deployment = Deployment::fleet(node, Router::new(RoutingPolicy::CacheAffinity, 4));
//! let outcome = deployment.run(&trace);
//! assert_eq!(outcome.completed(), 200);
//! assert!(outcome.hit_rate() > 0.0);
//! assert_eq!(outcome.per_node().len(), 4);
//! ```
//!
//! # Elastic quickstart, with the typed event stream
//!
//! The control plane makes the node count itself dynamic: a scripted
//! 4 → 8 → 4 run provisions four extra nodes (each walking
//! `Provisioning → Warming → Active` through its cold start), then drains
//! them again — every drain handing the shard's hottest images to its
//! ring successors so the hit rate survives the scale-down. Attach an
//! observer to watch it happen: every admission, cache decision,
//! dispatch, completion and scale event arrives as a typed
//! [`deploy::SimEvent`]. Swap the script for a
//! [`controlplane::ReactiveAutoscaler`] or
//! [`controlplane::PredictiveAutoscaler`] to let load drive it.
//!
//! ```
//! use modm::deploy::{
//!     DeployOptions, Deployment, EventLogObserver, LifecyclePlan, ServingBackend, SimEvent,
//! };
//! use modm::controlplane::{FaultInjector, ScaleDecision, ScheduledAutoscaler};
//! use modm::core::MoDMConfig;
//! use modm::cluster::GpuKind;
//! use modm::workload::{RateSchedule, TraceBuilder};
//!
//! let trace = TraceBuilder::diffusion_db(42)
//!     .requests(600)
//!     .rate_schedule(RateSchedule::diurnal(16.0, 0.5, 30.0))
//!     .build();
//! let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 2).cache_capacity(400).build();
//! let plan = ScheduledAutoscaler::new(vec![
//!     ScaleDecision::Up(4),    // 4 -> 8 for the approaching peak
//!     ScaleDecision::Hold,
//!     ScaleDecision::Hold,
//!     ScaleDecision::Hold,
//!     ScaleDecision::Down(4),  // 8 -> 4 into the trough, with cache handoff
//! ]);
//! let mut deployment = Deployment::elastic(
//!     node,
//!     plan,
//!     LifecyclePlan::new(4, 2, 8),
//!     FaultInjector::none(),
//! );
//! let mut log = EventLogObserver::new();
//! let outcome = deployment.run_observed(&trace, DeployOptions::default(), &mut log);
//! assert_eq!(outcome.completed(), 600);
//! assert_eq!(outcome.nodes(), 8, "peak active set");
//! assert!(outcome.gpu_hours() > 0.0);
//! assert_eq!(log.count(|e| matches!(e, SimEvent::ScaleUp { .. })), 4);
//! assert_eq!(log.count(|e| matches!(e, SimEvent::Completed { .. })), 600);
//! ```
//!
//! # Multi-tenant QoS quickstart
//!
//! Serving is tenant-aware end to end: tag a trace with per-tenant
//! arrival mixes, give the deployment a [`core::TenancyPolicy`]
//! (weighted-fair admission within a QoS class, strict priority between
//! classes, per-tenant cache reserves), and every tier reports per-tenant
//! slices. Here an interactive tenant rides ahead of a batch flood and a
//! free tier, on the same GPUs:
//!
//! ```
//! use modm::deploy::{Deployment, ServingBackend};
//! use modm::core::{MoDMConfig, TenancyPolicy, TenantShare};
//! use modm::cluster::GpuKind;
//! use modm::fleet::{Router, RoutingPolicy};
//! use modm::workload::{QosClass, TenantId, TenantMix, TraceBuilder};
//!
//! let interactive = TenantId(1);
//! let batch = TenantId(2);
//! let free = TenantId(3);
//! // Three independent request streams, merged by arrival time.
//! let trace = TraceBuilder::diffusion_db(7)
//!     .requests(300)
//!     .tenants(vec![
//!         TenantMix::new(interactive, QosClass::Interactive, 2.0),
//!         TenantMix::new(batch, QosClass::Standard, 8.0),
//!         TenantMix::new(free, QosClass::BestEffort, 2.0),
//!     ])
//!     .build();
//! let node = MoDMConfig::builder()
//!     .gpus(GpuKind::Mi210, 4)
//!     .cache_capacity(400)
//!     .tenancy(TenancyPolicy::weighted_fair(vec![
//!         TenantShare::new(interactive, 4.0).with_cache_reserve(80),
//!         TenantShare::new(batch, 2.0).with_cache_reserve(80),
//!         TenantShare::new(free, 1.0).with_cache_reserve(40),
//!     ]))
//!     .build();
//! let mut deployment = Deployment::fleet(node, Router::new(RoutingPolicy::CacheAffinity, 4));
//! let summary = deployment.run(&trace).summary(2.0);
//! assert_eq!(summary.completed, 300);
//! assert_eq!(summary.tenants.len(), 3, "one slice per tenant");
//! let per_tenant: u64 = summary.tenants.iter().map(|t| t.completed).sum();
//! assert_eq!(per_tenant, 300, "fairness reorders service, never drops work");
//! ```
//!
//! # Overload control quickstart
//!
//! Fairness decides who is served first; under *sustained* overload the
//! queues would still grow without bound. The overload control plane
//! refuses the un-serveable fraction up front instead: per-tenant token
//! buckets at admission (`with_rate_limit`; buckets are per node),
//! GPU-cost-weighted fair shares (`FairnessCharge::GpuCost` charges
//! each request's denoising-step estimate instead of one unit), and a
//! queue-time budget (`with_queue_budget`) that sheds work already
//! hopeless for its SLO. Refusals, sheds and goodput (completions that
//! met the SLO) are first-class columns of every summary:
//!
//! ```
//! use modm::deploy::{Deployment, ServingBackend, Summary};
//! use modm::core::{FairnessCharge, MoDMConfig, TenancyPolicy, TenantShare};
//! use modm::cluster::GpuKind;
//! use modm::fleet::{Router, RoutingPolicy};
//! use modm::simkit::SimDuration;
//! use modm::workload::{QosClass, TenantId, TenantMix, TraceBuilder};
//!
//! let interactive = TenantId(1);
//! let batch = TenantId(2);
//! // ~6.5 req/min offered against a 2-node fleet that sustains ~3.5:
//! // sustained ~2x overload, driven by the batch flood.
//! let trace = TraceBuilder::diffusion_db(11)
//!     .requests(240)
//!     .tenants(vec![
//!         TenantMix::new(interactive, QosClass::Interactive, 1.5),
//!         TenantMix::new(batch, QosClass::Standard, 5.0),
//!     ])
//!     .build();
//! let node = MoDMConfig::builder()
//!     .gpus(GpuKind::Mi210, 2)
//!     .cache_capacity(400)
//!     .tenancy(
//!         TenancyPolicy::weighted_fair(vec![
//!             TenantShare::new(interactive, 4.0),
//!             TenantShare::new(batch, 1.0),
//!         ])
//!         .with_charge(FairnessCharge::GpuCost)
//!         // Per-node bucket: the 2-node fleet admits ~2 req/min of batch.
//!         .with_rate_limit(batch, 1.0, 4.0)
//!         .with_queue_budget(SimDuration::from_secs_f64(480.0)),
//!     )
//!     .build();
//! let mut deployment = Deployment::fleet(node, Router::new(RoutingPolicy::CacheAffinity, 2));
//! let summary = deployment.run(&trace).summary(2.0);
//!
//! // Overload is refused, not absorbed — and nothing is lost: every
//! // request ends exactly one of completed / rejected / shed.
//! assert!(summary.rejected > 0, "the flood trips the token bucket");
//! assert_eq!(summary.completed + summary.rejected + summary.shed, 240);
//! assert!(summary.goodput <= summary.completed);
//! let b = summary.tenants.iter().find(|t| t.tenant == batch).unwrap();
//! let i = summary.tenants.iter().find(|t| t.tenant == interactive).unwrap();
//! assert!(b.rejected > 0, "only the rate-limited tenant is refused");
//! assert_eq!(i.rejected, 0, "the interactive tenant carries no limit");
//!
//! // Per-tenant overload accounting renders as one table.
//! println!("{}", Summary::overload_table_header());
//! for row in summary.overload_rows("overloaded fleet") {
//!     println!("{row}");
//! }
//! ```
//!
//! # Telemetry quickstart
//!
//! Attach one [`telemetry::TelemetryObserver`] to any tier and the run
//! narrates itself: per-`(metric, tenant, node)` counters and latency
//! histograms, sim-time windowed series, a per-request span breakdown
//! (queue vs service time per tenant), and multi-window SLO burn-rate
//! alerts that fire while an overload is developing. Everything the
//! registry counts agrees exactly with the end-of-run [`deploy::Summary`]:
//!
//! ```
//! use modm::deploy::{DeployOptions, Deployment, ServingBackend};
//! use modm::core::MoDMConfig;
//! use modm::cluster::GpuKind;
//! use modm::metrics::SloThresholds;
//! use modm::telemetry::{metric, TelemetryConfig, TelemetryObserver};
//! use modm::workload::{QosClass, TenantId, TenantMix, TraceBuilder};
//!
//! let interactive = TenantId(1);
//! let batch = TenantId(2);
//! let trace = TraceBuilder::diffusion_db(7)
//!     .requests(200)
//!     .tenants(vec![
//!         TenantMix::new(interactive, QosClass::Interactive, 2.0),
//!         TenantMix::new(batch, QosClass::Standard, 6.0),
//!     ])
//!     .build();
//! let config = MoDMConfig::builder().gpus(GpuKind::Mi210, 8).cache_capacity(800).build();
//!
//! // Judge the same 2x SLO the summary reports, in 60 s windows, with
//! // the default fast/slow burn-rate rule.
//! let slo = SloThresholds::for_deployment(config.gpu, config.large_model);
//! let mut telemetry = TelemetryObserver::new(TelemetryConfig::new(slo.bound_secs(2.0)));
//! let summary = Deployment::single(config)
//!     .run_observed(&trace, DeployOptions::default(), &mut telemetry)
//!     .summary(2.0);
//!
//! // The registry, the windowed series and the span breakdown all
//! // agree exactly with the end-of-run summary.
//! let registry = telemetry.registry();
//! assert_eq!(registry.counter_sum(metric::COMPLETED, None, None), summary.completed);
//! assert_eq!(registry.counter_sum(metric::GOODPUT, None, None), summary.goodput);
//! assert_eq!(telemetry.series().total(metric::COMPLETED, None) as u64, summary.completed);
//! assert_eq!(telemetry.spans().totals().completed, summary.completed);
//!
//! // And everything exports as Prometheus text or a JSON snapshot.
//! assert!(telemetry.prometheus_text().contains("modm_requests_completed_total"));
//! assert!(telemetry.json_snapshot().contains("\"alerts\""));
//! ```
//!
//! # Tracing & diagnosis quickstart
//!
//! Where telemetry counts, [`trace`] explains: a
//! [`trace::TraceObserver`] assembles every request's events into a
//! causal span tree (admit → cache decision → queue wait → dispatch →
//! service → terminal) under bounded-memory tail sampling, decomposes
//! each tenant's P50/P99 latency into phases — queue, service,
//! cache-miss regeneration penalty, redelivery, retry back-off — and
//! exports any run as Chrome-trace/Perfetto JSON for `ui.perfetto.dev`:
//!
//! ```
//! use modm::deploy::{DeployOptions, Deployment, ServingBackend};
//! use modm::core::MoDMConfig;
//! use modm::cluster::GpuKind;
//! use modm::fleet::{Router, RoutingPolicy};
//! use modm::simkit::Json;
//! use modm::trace::{perfetto_json, CriticalPathReport, TraceConfig, TraceObserver};
//! use modm::workload::{QosClass, TenantId, TenantMix, TraceBuilder};
//!
//! let interactive = TenantId(1);
//! let batch = TenantId(2);
//! let trace = TraceBuilder::diffusion_db(7)
//!     .requests(200)
//!     .tenants(vec![
//!         TenantMix::new(interactive, QosClass::Interactive, 2.0),
//!         TenantMix::new(batch, QosClass::Standard, 6.0),
//!     ])
//!     .build();
//! let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 4).cache_capacity(400).build();
//!
//! let mut tracer = TraceObserver::new(
//!     TraceConfig::new().with_class(interactive, QosClass::Interactive),
//! );
//! let summary = Deployment::fleet(node, Router::new(RoutingPolicy::CacheAffinity, 2))
//!     .run_observed(&trace, DeployOptions::default(), &mut tracer)
//!     .summary(2.0);
//!
//! // Every request's tree resolved, and the phase decomposition is
//! // exact: per tenant, the five phase sums reproduce the span totals.
//! assert_eq!(tracer.open_trees(), 0);
//! for tenant in [interactive, batch] {
//!     let sums: f64 = tracer.phase_sums(tenant).iter().sum();
//!     assert!((sums - tracer.total_span_secs(tenant)).abs() < 1e-6);
//! }
//!
//! // The critical-path table says where each tenant's tail comes from.
//! println!("{}", CriticalPathReport::capture(&tracer));
//!
//! // And the whole run exports as Perfetto JSON (nodes as processes,
//! // workers as threads) — written anywhere, loadable in the trace UI.
//! let json = perfetto_json(&tracer);
//! assert!(Json::parse(&json).is_ok());
//! let path = std::env::temp_dir().join("modm_quickstart.perfetto.json");
//! std::fs::write(&path, &json).unwrap();
//! assert_eq!(summary.completed, 200);
//! ```
//!
//! # Adversarial scenarios quickstart
//!
//! Every tier above replays its trace *open-loop*: a rejected request
//! is gone. [`scenario`] closes the loop — rejected clients come back
//! under a [`scenario::RetryPolicy`], a [`scenario::ScenarioScript`]
//! injects timed adversities (flash crowds, tenant join/leave, region
//! loss), and a [`scenario::TwoRegion`] topology runs two fleets behind
//! a latency-biased geo router with cache handoff on failover. Here one
//! tenant goes viral against a token-bucket cap while a well-behaved
//! client population honors the server's `retry_after` hints:
//!
//! ```
//! use modm::cluster::GpuKind;
//! use modm::core::{MoDMConfig, TenancyPolicy, TenantShare};
//! use modm::scenario::{RetryPolicy, Scenario, ScenarioAction, ScenarioScript, TwoRegion};
//! use modm::workload::{QosClass, TenantId, TenantMix};
//!
//! let steady = TenantId(1);
//! let crowd = TenantId(2);
//! let node = MoDMConfig::builder()
//!     .gpus(GpuKind::Mi210, 4)
//!     .cache_capacity(400)
//!     .tenancy(
//!         TenancyPolicy::weighted_fair(vec![
//!             TenantShare::new(steady, 2.0).with_cache_reserve(80),
//!             TenantShare::new(crowd, 1.0).with_cache_reserve(80),
//!         ])
//!         // Per-node bucket: the crowd is capped near its base rate.
//!         .with_rate_limit(crowd, 3.0, 6.0),
//!     )
//!     .build();
//! // The crowd's rate spikes 10x at minute 10, for five minutes.
//! let script = ScenarioScript::new(
//!     25.0,
//!     vec![
//!         TenantMix::new(steady, QosClass::Interactive, 4.0),
//!         TenantMix::new(crowd, QosClass::Standard, 3.0),
//!     ],
//! )
//! .with_action(ScenarioAction::FlashCrowd {
//!     tenant: crowd,
//!     at_mins: 10.0,
//!     duration_mins: 5.0,
//!     multiplier: 10.0,
//! });
//! let scenario = Scenario::new(node, script, TwoRegion::new(2))
//!     .expect("script validates against the policy")
//!     .with_retry(RetryPolicy::honoring());
//!
//! let report = scenario.run();
//! // The closed loop conserves requests: every arrival ends exactly one
//! // of completed / abandoned-after-retries / shed.
//! assert_eq!(
//!     report.completed + report.rejected + report.shed,
//!     scenario.trace().len() as u64,
//! );
//! // The surge trips the bucket and the clients re-offer.
//! assert!(report.retry.reoffers > 0, "the flash crowd forces retries");
//! ```

pub use modm_baselines as baselines;
pub use modm_cache as cache;
pub use modm_cluster as cluster;
pub use modm_controlplane as controlplane;
pub use modm_core as core;
pub use modm_deploy as deploy;
pub use modm_diffusion as diffusion;
pub use modm_embedding as embedding;
pub use modm_fleet as fleet;
pub use modm_metrics as metrics;
pub use modm_numerics as numerics;
pub use modm_scenario as scenario;
pub use modm_simkit as simkit;
pub use modm_telemetry as telemetry;
pub use modm_trace as trace;
pub use modm_workload as workload;
