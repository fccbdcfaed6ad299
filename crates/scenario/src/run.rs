//! The scenario engine: a closed-loop, two-region discrete-event run.
//!
//! A [`Scenario`] stitches the whole stack together under adversarial
//! conditions. Two regional fleets (each its own [`Router`] and
//! [`ShardedCache`] over shared-config [`ServingNode`]s) sit behind a
//! latency-biased [`GeoRouter`]; a closed-loop client population
//! ([`RetryPolicy`]) re-offers rejected requests — honoring or ignoring
//! the server's `retry_after` hint — until they complete, shed, or
//! exhaust their retry budget; and the script's control timeline fires
//! mid-run: tenancy-policy rewrites on every live node and shard
//! (tenant churn) and wholesale region loss with backlog redelivery and
//! cross-region cache handoff.
//!
//! The run is exactly deterministic under a fixed seed, and observation
//! never perturbs it: the engine always routes node events through an
//! internal tap (it needs the shed stream for terminal accounting), so
//! the event construction path is identical whether or not an external
//! [`Observer`] is attached.

use std::collections::BTreeMap;

use modm_controlplane::RegionLifecycle;
use modm_core::config::{AdmissionPolicy, MoDMConfig};
use modm_core::events::{Obs, Observer, SimEvent};
use modm_core::node::{render_completion, NodeInFlight, ServingNode};
use modm_core::report::TenantSlice;
use modm_core::scheduler::{route_against_cache, RouteKind, RoutedRequest};
use modm_deploy::{
    DeployOptions, RegionSlice, RetryStats, RunOutcome, ScenarioReport, ServingBackend, TierKind,
};
use modm_diffusion::{QualityModel, Sampler};
use modm_embedding::{SemanticSpace, TextEncoder};
use modm_fleet::{GeoRouter, Router, RoutingPolicy, ShardedCache};
use modm_metrics::{LatencyReport, SloThresholds, ThroughputReport};
use modm_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use modm_workload::{Request, TenantId, Trace, TraceBuilder};

use crate::client::RetryPolicy;
use crate::script::{ControlAction, ScenarioError, ScenarioScript};

/// The two-region topology a scenario deploys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoRegion {
    /// Serving nodes per region.
    pub nodes_per_region: usize,
    /// One inter-region round trip — what a failed-over offer pays, and
    /// how long backlog redelivery takes after a region loss.
    pub rtt: SimDuration,
    /// Fraction of each lost shard's entries (hottest first) handed off
    /// to the surviving region on failover; the rest is lost with the
    /// region.
    pub handoff_fraction: f64,
}

impl TwoRegion {
    /// Regions in the topology (the type is the contract).
    pub const REGIONS: usize = 2;

    /// A topology of `nodes_per_region` nodes per region, with a 200 ms
    /// inter-region round trip and half of each lost shard handed off.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_region` is zero.
    pub fn new(nodes_per_region: usize) -> Self {
        assert!(nodes_per_region > 0, "regions need at least one node");
        TwoRegion {
            nodes_per_region,
            rtt: SimDuration::from_secs_f64(0.2),
            handoff_fraction: 0.5,
        }
    }

    /// Overrides the inter-region round trip (builder style).
    #[must_use]
    pub fn with_rtt(mut self, rtt: SimDuration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Overrides the handoff fraction (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless the fraction is in `[0, 1]`.
    #[must_use]
    pub fn with_handoff_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "handoff fraction must be in [0, 1], got {fraction}"
        );
        self.handoff_fraction = fraction;
        self
    }
}

/// A fully validated adversarial scenario, ready to run.
///
/// # Example
///
/// ```
/// use modm_cluster::GpuKind;
/// use modm_core::MoDMConfig;
/// use modm_scenario::{Scenario, ScenarioScript, TwoRegion};
/// use modm_workload::{QosClass, TenantId, TenantMix};
///
/// let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 2).cache_capacity(400).build();
/// let script = ScenarioScript::new(
///     30.0,
///     vec![TenantMix::new(TenantId(1), QosClass::Standard, 8.0)],
/// );
/// let scenario = Scenario::new(node, script, TwoRegion::new(2)).unwrap();
/// let report = scenario.run();
/// assert_eq!(
///     report.completed() + report.rejected + report.shed,
///     scenario.trace().len() as u64,
///     "every request reaches exactly one terminal"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    node_config: MoDMConfig,
    script: ScenarioScript,
    topology: TwoRegion,
    routing: RoutingPolicy,
    retry: RetryPolicy,
}

impl Scenario {
    /// Builds a scenario over `node_config` (every node in both regions
    /// runs it; its tenancy policy is the minute-zero policy the script
    /// evolves). Routing defaults to cache affinity and the client
    /// population to [`RetryPolicy::honoring`].
    ///
    /// # Errors
    ///
    /// Returns the script's first [`ScenarioError`] — the whole control
    /// timeline is validated here, so the run itself cannot hit an
    /// invalid policy or region transition.
    pub fn new(
        node_config: MoDMConfig,
        script: ScenarioScript,
        topology: TwoRegion,
    ) -> Result<Self, ScenarioError> {
        script.validate(
            &node_config.tenancy,
            node_config.cache_capacity,
            TwoRegion::REGIONS,
        )?;
        Ok(Scenario {
            node_config,
            script,
            topology,
            routing: RoutingPolicy::CacheAffinity,
            retry: RetryPolicy::honoring(),
        })
    }

    /// Overrides the per-region routing policy (builder style).
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Overrides the client population's retry policy (builder style).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The per-node configuration.
    pub fn node_config(&self) -> &MoDMConfig {
        &self.node_config
    }

    /// The validated script.
    pub fn script(&self) -> &ScenarioScript {
        &self.script
    }

    /// The topology.
    pub fn topology(&self) -> TwoRegion {
        self.topology
    }

    /// The client population's retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Total nodes across both regions.
    pub fn nodes(&self) -> usize {
        TwoRegion::REGIONS * self.topology.nodes_per_region
    }

    /// Total GPUs across both regions.
    pub fn total_gpus(&self) -> usize {
        self.nodes() * self.node_config.num_gpus
    }

    /// The scenario's canonical trace: the script's lowered tenant mix
    /// (spikes, join windows, leave clips) sampled over its horizon,
    /// seeded from the node config.
    pub fn trace(&self) -> Trace {
        TraceBuilder::diffusion_db(self.node_config.seed)
            .tenants(self.script.workload_tenants())
            .build_over(self.script.horizon_mins())
    }

    /// Runs the scenario on its canonical trace.
    pub fn run(&self) -> ScenarioReport {
        self.run_trace(&self.trace(), None)
    }

    /// Runs the scenario on its canonical trace, streaming every
    /// [`SimEvent`] to `observer`. Results are identical to
    /// [`Scenario::run`]: observation never perturbs the simulation.
    pub fn run_observed_scenario(&self, observer: &mut dyn Observer) -> ScenarioReport {
        self.run_trace(&self.trace(), Some(observer))
    }

    fn run_trace<'a>(&'a self, trace: &Trace, obs: Obs<'a, 'a>) -> ScenarioReport {
        ScenarioRun::new(self, trace, obs).execute()
    }

    fn assert_default_options(options: DeployOptions) {
        assert!(
            options == DeployOptions::default(),
            "scenario deployments replay real arrival times; \
             warmup/saturate apply to single and fleet tiers only"
        );
    }
}

impl ServingBackend for Scenario {
    fn tier(&self) -> TierKind {
        TierKind::Scenario
    }

    fn run_with(&mut self, trace: &Trace, options: DeployOptions) -> RunOutcome {
        Self::assert_default_options(options);
        let report = self.run_trace(trace, None);
        RunOutcome::from_scenario(report, self.nodes(), self.total_gpus())
    }

    fn run_observed(
        &mut self,
        trace: &Trace,
        options: DeployOptions,
        observer: &mut dyn Observer,
    ) -> RunOutcome {
        Self::assert_default_options(options);
        let report = self.run_trace(trace, Some(observer));
        RunOutcome::from_scenario(report, self.nodes(), self.total_gpus())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Request `idx` is offered to the serving fleet (attempt 0 is the
    /// first offer; `delayed` marks a cross-region offer that already
    /// paid its round trip).
    Offer {
        idx: usize,
        attempt: u32,
        delayed: bool,
    },
    /// Request `idx`, drained from a lost region, reaches the survivor.
    Redeliver(usize),
    /// Worker `worker` on global node `node` finishes.
    WorkerFree { node: usize, worker: usize },
    /// Node-local global-monitor tick.
    MonitorTick(usize),
    /// The `k`-th scripted control action fires.
    Control(usize),
}

/// Where a request's closed loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    Pending,
    Completed,
    Abandoned,
    Shed,
}

/// The engine's always-on observer: forwards everything to the external
/// observer (if any) and records the shed stream, which the engine needs
/// for terminal accounting. Because the tap is installed on every run,
/// traced and untraced runs execute identical code paths.
struct ShedTap<'a, 'b> {
    inner: Obs<'a, 'b>,
    log: &'a mut Vec<u64>,
}

impl Observer for ShedTap<'_, '_> {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        if let SimEvent::ShedDeadline { request_id, .. } = event {
            self.log.push(*request_id);
        }
        if let Some(observer) = self.inner.as_deref_mut() {
            observer.on_event(at, event);
        }
    }
}

struct ScenarioRun<'a> {
    config: &'a MoDMConfig,
    nodes_per_region: usize,
    handoff_fraction: f64,
    retry: RetryPolicy,
    routers: Vec<Router>,
    caches: Vec<ShardedCache>,
    geo: GeoRouter,
    lifecycles: Vec<RegionLifecycle>,
    nodes: Vec<ServingNode>,
    requests: Vec<Request>,
    id_to_idx: BTreeMap<u64, usize>,
    control: Vec<(SimTime, ControlAction)>,
    encoder: TextEncoder,
    sampler: Sampler,
    events: EventQueue<Event>,
    rng: SimRng,
    jitter_rng: SimRng,
    shed_log: Vec<u64>,
    terminal: Vec<Terminal>,
    attempts: Vec<u32>,
    outstanding: usize,
    stats: RetryStats,
    shed: u64,
    region_routed: Vec<u64>,
    region_completed: Vec<u64>,
    region_hits: Vec<u64>,
    region_misses: Vec<u64>,
    latency: LatencyReport,
    throughput: ThroughputReport,
    tenants: BTreeMap<TenantId, TenantSlice>,
    finished_at: SimTime,
    obs: Obs<'a, 'a>,
}

impl<'a> ScenarioRun<'a> {
    fn new(scenario: &'a Scenario, trace: &Trace, obs: Obs<'a, 'a>) -> Self {
        let config = &scenario.node_config;
        let npr = scenario.topology.nodes_per_region;
        let regions = TwoRegion::REGIONS;
        let space = SemanticSpace::default();
        let encoder = TextEncoder::new(space.clone());
        let quality_model = QualityModel::new(space, config.seed, trace.dataset().fid_floor());
        let sampler = Sampler::new(quality_model);
        let mut rng = SimRng::seed_from(config.seed ^ 0x5343_4E52); // "SCNR"
        let jitter_rng = rng.fork(0x4A49_5454); // "JITT"

        let routers: Vec<Router> = (0..regions)
            .map(|_| Router::new(scenario.routing, npr))
            .collect();
        let caches: Vec<ShardedCache> = (0..regions)
            .map(|_| ShardedCache::new(npr, config.cache_config()))
            .collect();
        let geo = GeoRouter::new(regions, scenario.topology.rtt);
        let lifecycles = vec![RegionLifecycle::new(SimTime::ZERO); regions];
        let nodes: Vec<ServingNode> = (0..regions * npr)
            .map(|id| ServingNode::new(config, id))
            .collect();

        // Re-base arrivals to start at zero so the script's absolute
        // action times line up with any trace.
        let base = trace
            .requests()
            .first()
            .map_or(SimTime::ZERO, |r| r.arrival);
        let requests: Vec<Request> = trace
            .iter()
            .map(|r| r.rebased(SimTime::ZERO + r.arrival.saturating_since(base)))
            .collect();
        let id_to_idx: BTreeMap<u64, usize> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i))
            .collect();

        let mut events = EventQueue::with_capacity(requests.len() + 64);
        for (i, r) in requests.iter().enumerate() {
            events.schedule(
                r.arrival,
                Event::Offer {
                    idx: i,
                    attempt: 0,
                    delayed: false,
                },
            );
        }
        for node in 0..regions * npr {
            events.schedule(
                SimTime::ZERO + config.monitor_period,
                Event::MonitorTick(node),
            );
        }
        let control: Vec<(SimTime, ControlAction)> = scenario
            .script
            .control_timeline(&config.tenancy)
            .into_iter()
            .map(|(mins, action)| (SimTime::ZERO + SimDuration::from_mins_f64(mins), action))
            .collect();
        for (k, (at, _)) in control.iter().enumerate() {
            events.schedule(*at, Event::Control(k));
        }

        let outstanding = requests.len();
        let terminal = vec![Terminal::Pending; requests.len()];
        let attempts = vec![0u32; requests.len()];
        ScenarioRun {
            config,
            nodes_per_region: npr,
            handoff_fraction: scenario.topology.handoff_fraction,
            retry: scenario.retry,
            routers,
            caches,
            geo,
            lifecycles,
            nodes,
            requests,
            id_to_idx,
            control,
            encoder,
            sampler,
            events,
            rng,
            jitter_rng,
            shed_log: Vec::new(),
            terminal,
            attempts,
            outstanding,
            stats: RetryStats::default(),
            shed: 0,
            region_routed: vec![0; regions],
            region_completed: vec![0; regions],
            region_hits: vec![0; regions],
            region_misses: vec![0; regions],
            latency: LatencyReport::new(),
            throughput: ThroughputReport::new(),
            tenants: BTreeMap::new(),
            finished_at: SimTime::ZERO,
            obs,
        }
    }

    fn execute(mut self) -> ScenarioReport {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Offer {
                    idx,
                    attempt,
                    delayed,
                } => {
                    if let Some(node) = self.on_offer(now, idx, attempt, delayed) {
                        self.dispatch(now, node);
                    }
                }
                Event::Redeliver(idx) => {
                    // The round trip was paid when the redelivery was
                    // scheduled; place directly. Redeliveries keep their
                    // attempt count but are not client retries.
                    let attempt = self.attempts[idx];
                    if let Some(node) = self.place(now, idx, attempt, false) {
                        self.dispatch(now, node);
                    }
                }
                Event::WorkerFree { node, worker } => {
                    self.on_worker_free(now, node, worker);
                    self.dispatch(now, node);
                }
                Event::MonitorTick(node) => {
                    self.on_monitor_tick(now, node);
                    self.dispatch(now, node);
                }
                Event::Control(k) => self.on_control(now, k),
            }
        }
        self.finish()
    }

    /// Handles one offer: cross-region offers pay the round trip first,
    /// then the request is placed in its current target region. Returns
    /// the node to dispatch, if the offer was admitted.
    fn on_offer(&mut self, now: SimTime, idx: usize, attempt: u32, delayed: bool) -> Option<usize> {
        if self.terminal[idx] != Terminal::Pending {
            return None;
        }
        let tenant = self.requests[idx].tenant;
        let (_, crossed) = self.geo.target_region(tenant);
        if crossed && !delayed {
            self.events.schedule(
                now + self.geo.rtt(),
                Event::Offer {
                    idx,
                    attempt,
                    delayed: true,
                },
            );
            return None;
        }
        self.place(now, idx, attempt, attempt > 0)
    }

    /// Routes request `idx` into its target region and offers it to the
    /// chosen node. A rejection schedules the client's next retry (or
    /// abandons the request once the budget is burnt).
    fn place(&mut self, now: SimTime, idx: usize, attempt: u32, is_retry: bool) -> Option<usize> {
        if self.terminal[idx] != Terminal::Pending {
            return None;
        }
        let request = self.requests[idx].clone();
        let (region, _) = self.geo.target_region(request.tenant);
        let embedding = self.encoder.encode(&request.prompt);
        let first = region * self.nodes_per_region;
        let loads: Vec<f64> = self.nodes[first..first + self.nodes_per_region]
            .iter()
            .map(ServingNode::load)
            .collect();
        let local = self.routers[region].route(&embedding, &loads);
        let node_idx = first + local;
        let route = route_against_cache(
            self.caches[region].shard_mut(local),
            now,
            &embedding,
            self.config.threshold_shift,
        );
        let routed = RoutedRequest {
            request_id: request.id,
            arrival: request.arrival,
            tenant: request.tenant,
            qos: request.qos,
            prompt_embedding: embedding,
            route,
        };
        self.stats.offers += 1;
        if is_retry {
            self.stats.reoffers += 1;
        }
        self.region_routed[region] += 1;
        let outcome = {
            let mut tap = ShedTap {
                inner: self.obs.as_deref_mut(),
                log: &mut self.shed_log,
            };
            self.nodes[node_idx].enqueue(now, routed, Some(&mut tap))
        };
        if let Some(hint) = outcome.retry_after_secs() {
            let next = attempt + 1;
            match self.retry.delay(next, hint, &mut self.jitter_rng) {
                Some(wait) => {
                    self.attempts[idx] = next;
                    self.events.schedule(
                        now + wait,
                        Event::Offer {
                            idx,
                            attempt: next,
                            delayed: false,
                        },
                    );
                }
                None => self.abandon(idx),
            }
            None
        } else {
            Some(node_idx)
        }
    }

    fn abandon(&mut self, idx: usize) {
        self.terminal[idx] = Terminal::Abandoned;
        self.outstanding -= 1;
        self.stats.abandoned += 1;
        let request = &self.requests[idx];
        self.tenants
            .entry(request.tenant)
            .or_insert_with(|| TenantSlice::new(request.tenant, request.qos))
            .absorb_overload(1, 0);
    }

    fn on_worker_free(&mut self, now: SimTime, node: usize, worker: usize) {
        if let Some(inflight) = self.nodes[node].take_finished(worker) {
            self.complete(now, node, inflight);
        }
    }

    fn on_monitor_tick(&mut self, now: SimTime, node_idx: usize) {
        if !self.lifecycles[node_idx / self.nodes_per_region].is_alive() {
            return;
        }
        self.nodes[node_idx].monitor_tick(now, self.config.monitor_period);
        // Keep ticking while any request may still reach this node:
        // pending closed loops anywhere (retries re-route) or local
        // backlog draining.
        if self.outstanding > 0 || self.nodes[node_idx].busy() {
            self.events.schedule(
                now + self.config.monitor_period,
                Event::MonitorTick(node_idx),
            );
        }
    }

    fn complete(&mut self, now: SimTime, node_idx: usize, inflight: NodeInFlight) {
        let image = render_completion(
            &self.sampler,
            &inflight.routed,
            inflight.model,
            &mut self.rng,
        );
        {
            let mut tap = ShedTap {
                inner: self.obs.as_deref_mut(),
                log: &mut self.shed_log,
            };
            self.nodes[node_idx].record_completion(now, &inflight.routed, &image, Some(&mut tap));
        }
        let idx = self.id_to_idx[&inflight.routed.request_id];
        debug_assert_eq!(self.terminal[idx], Terminal::Pending);
        self.terminal[idx] = Terminal::Completed;
        self.outstanding -= 1;
        // End-to-end latency from the *original* arrival: a retried
        // request's backoff is part of what the client waited.
        self.latency.record(inflight.routed.arrival, now);
        self.throughput.record_completion(now);
        let region = node_idx / self.nodes_per_region;
        self.region_completed[region] += 1;
        let slice = self
            .tenants
            .entry(inflight.routed.tenant)
            .or_insert_with(|| TenantSlice::new(inflight.routed.tenant, inflight.routed.qos));
        slice.qos = inflight.routed.qos;
        slice.completed += 1;
        slice.latency.record(inflight.routed.arrival, now);
        match inflight.routed.route {
            RouteKind::Hit { .. } => {
                slice.hits += 1;
                self.region_hits[region] += 1;
            }
            RouteKind::Miss => {
                slice.misses += 1;
                self.region_misses[region] += 1;
            }
        }
        self.finished_at = self.finished_at.max(now);
        let admit = match self.config.admission {
            AdmissionPolicy::CacheAll => true,
            AdmissionPolicy::CacheLarge => image.is_full_generation(),
        };
        if admit {
            self.caches[region]
                .shard_mut(node_idx % self.nodes_per_region)
                .insert_for(now, inflight.routed.tenant, image);
        }
    }

    fn dispatch(&mut self, now: SimTime, node_idx: usize) {
        if !self.lifecycles[node_idx / self.nodes_per_region].is_alive() {
            return;
        }
        {
            let events = &mut self.events;
            let mut tap = ShedTap {
                inner: self.obs.as_deref_mut(),
                log: &mut self.shed_log,
            };
            self.nodes[node_idx].dispatch(
                now,
                |done, worker| {
                    events.schedule(
                        done,
                        Event::WorkerFree {
                            node: node_idx,
                            worker,
                        },
                    );
                },
                Some(&mut tap),
            );
        }
        self.drain_shed();
    }

    /// Converts the tap's shed stream into terminals: a shed request's
    /// closed loop ends (the client got no retry hint — the server
    /// dropped it at dispatch, past the queue-time budget).
    fn drain_shed(&mut self) {
        if self.shed_log.is_empty() {
            return;
        }
        let shed: Vec<u64> = self.shed_log.drain(..).collect();
        for id in shed {
            let idx = self.id_to_idx[&id];
            if self.terminal[idx] != Terminal::Pending {
                continue;
            }
            self.terminal[idx] = Terminal::Shed;
            self.outstanding -= 1;
            self.shed += 1;
            let request = &self.requests[idx];
            self.tenants
                .entry(request.tenant)
                .or_insert_with(|| TenantSlice::new(request.tenant, request.qos))
                .absorb_overload(0, 1);
        }
    }

    fn on_control(&mut self, now: SimTime, k: usize) {
        match self.control[k].1.clone() {
            ControlAction::Policy(policy) => self.apply_policy(&policy),
            ControlAction::RegionLoss(region) => self.lose_region(now, region),
        }
    }

    /// Swaps the tenancy policy on every live node and cache shard —
    /// the runtime half of tenant join/leave. The script was validated
    /// at construction, so these rewrites cannot fail.
    fn apply_policy(&mut self, policy: &modm_core::TenancyPolicy) {
        let reserves = policy.cache_reserves();
        for region in 0..TwoRegion::REGIONS {
            if !self.lifecycles[region].is_alive() {
                continue;
            }
            for local in 0..self.nodes_per_region {
                self.nodes[region * self.nodes_per_region + local]
                    .try_update_tenancy(policy, self.config.cache_capacity)
                    .expect("script pre-validated every policy snapshot");
                self.caches[region]
                    .shard_mut(local)
                    .try_set_reserves(reserves.clone())
                    .expect("script pre-validated every reserve set");
            }
        }
    }

    /// Kills a region: its backlog (queued and in-flight requests) is
    /// redelivered to the surviving region after one round trip, and the
    /// hottest `handoff_fraction` of each lost shard crosses over; the
    /// rest of the cache is lost with the region.
    fn lose_region(&mut self, now: SimTime, region: usize) {
        self.geo
            .fail_region(region)
            .expect("script pre-validated the region loss");
        self.lifecycles[region]
            .fail(now)
            .expect("geo router and lifecycle agree");
        let rtt = self.geo.rtt();
        for local in 0..self.nodes_per_region {
            let node_idx = region * self.nodes_per_region + local;
            let pending = self.nodes[node_idx].drain_pending();
            let lost_entries = self.caches[region].shard_mut(local).len();
            let mut redelivered = 0usize;
            for routed in &pending {
                let idx = self.id_to_idx[&routed.request_id];
                if self.terminal[idx] != Terminal::Pending {
                    continue;
                }
                redelivered += 1;
                self.stats.redelivered += 1;
                self.events.schedule(now + rtt, Event::Redeliver(idx));
            }
            if let Some(observer) = self.obs.as_deref_mut() {
                observer.on_event(
                    now,
                    &SimEvent::Crash {
                        node: node_idx,
                        redelivered,
                        lost_entries,
                    },
                );
            }
        }
        for local in 0..self.nodes_per_region {
            let exported = {
                let shard = self.caches[region].shard_mut(local);
                let keep = ((shard.len() as f64) * self.handoff_fraction).ceil() as usize;
                let exported = shard.export_hottest(keep);
                shard.drain_images();
                exported
            };
            for (tenant, image) in exported {
                let (dest, _) = self.geo.target_region(tenant);
                let dest_local = self.routers[dest].shard_for(&image.embedding);
                self.caches[dest]
                    .shard_mut(dest_local)
                    .insert_for(now, tenant, image);
            }
        }
    }

    fn finish(self) -> ScenarioReport {
        assert_eq!(
            self.outstanding, 0,
            "the closed loop drained: every request reached exactly one terminal"
        );
        let slo = SloThresholds::for_deployment(self.config.gpu, self.config.large_model);
        let finished_at = self.finished_at;
        let mut routed_per_node = Vec::with_capacity(self.nodes.len());
        for router in &self.routers {
            routed_per_node.extend_from_slice(router.routed_per_node());
        }
        let regions: Vec<RegionSlice> = (0..TwoRegion::REGIONS)
            .map(|r| {
                let (hits, misses) = (self.region_hits[r], self.region_misses[r]);
                RegionSlice {
                    region: r,
                    routed: self.region_routed[r],
                    completed: self.region_completed[r],
                    hit_rate: if hits + misses == 0 {
                        0.0
                    } else {
                        hits as f64 / (hits + misses) as f64
                    },
                    lost_at_mins: self.lifecycles[r].lost_at().map(SimTime::as_mins_f64),
                }
            })
            .collect();
        let gpus_per_region = (self.nodes_per_region * self.config.num_gpus) as f64;
        let gpu_hours: f64 = (0..TwoRegion::REGIONS)
            .map(|r| {
                // A lost region stops billing at the loss instant.
                let end = self.lifecycles[r].lost_at().unwrap_or(finished_at);
                gpus_per_region * end.as_mins_f64() / 60.0
            })
            .sum();
        ScenarioReport {
            latency: self.latency,
            throughput: self.throughput,
            slo,
            hits: self.region_hits.iter().sum(),
            misses: self.region_misses.iter().sum(),
            rejected: self.stats.abandoned,
            shed: self.shed,
            retry: self.stats,
            regions,
            tenant_slices: self.tenants.into_values().collect(),
            routed_per_node,
            gpu_hours,
            finished_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ScenarioAction;
    use modm_cluster::GpuKind;
    use modm_workload::{QosClass, TenantMix};

    fn node_config(gpus: usize, cache: usize) -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, gpus)
            .cache_capacity(cache)
            .build()
    }

    fn quiet_script() -> ScenarioScript {
        ScenarioScript::new(
            20.0,
            vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
                TenantMix::new(TenantId(2), QosClass::Standard, 6.0),
            ],
        )
    }

    #[test]
    fn shards_follow_the_node_config_index_policy() {
        // Both regions' shards are built from `MoDMConfig::cache_config`,
        // so the node config's index policy reaches the scenario tier's
        // caches; the default stays on the exact flat scan.
        let approx = MoDMConfig {
            index_policy: modm_core::IndexPolicy::Approx,
            ..node_config(2, 400)
        };
        for (node, backend) in [(node_config(2, 400), "flat"), (approx, "inverted")] {
            let scenario =
                Scenario::new(node, quiet_script(), TwoRegion::new(2)).expect("valid script");
            let trace = scenario.trace();
            let run = ScenarioRun::new(&scenario, &trace, None);
            for cache in &run.caches {
                for shard in 0..cache.num_shards() {
                    assert_eq!(cache.shard(shard).index_backend(), backend);
                }
            }
            assert_eq!(scenario.run().completed(), trace.len() as u64);
        }
    }

    #[test]
    fn quiet_scenario_completes_everything() {
        let scenario = Scenario::new(node_config(2, 400), quiet_script(), TwoRegion::new(2))
            .expect("valid script");
        let trace = scenario.trace();
        let report = scenario.run();
        assert_eq!(report.completed(), trace.len() as u64);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.shed, 0);
        assert_eq!(
            report.retry.amplification(),
            1.0,
            "no rejections, no retries"
        );
        assert_eq!(report.retry.redelivered, 0);
        assert_eq!(report.regions.len(), 2);
        // Both regions saw traffic (tenants stripe by id).
        assert!(report.regions.iter().all(|r| r.routed > 0));
        assert!(report.regions.iter().all(|r| r.lost_at_mins.is_none()));
        assert_eq!(
            report.routed_per_node.iter().sum::<u64>(),
            report.retry.offers
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let scenario = Scenario::new(node_config(2, 400), quiet_script(), TwoRegion::new(2))
            .expect("valid script");
        let a = scenario.run();
        let b = scenario.run();
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.retry, b.retry);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.routed_per_node, b.routed_per_node);
    }

    #[test]
    fn region_loss_fails_over_and_redelivers() {
        let script = ScenarioScript::new(
            30.0,
            vec![
                TenantMix::new(TenantId(1), QosClass::Standard, 10.0),
                TenantMix::new(TenantId(2), QosClass::Standard, 10.0),
            ],
        )
        .with_action(ScenarioAction::RegionLoss {
            at_mins: 10.0,
            region: 1,
        });
        let scenario =
            Scenario::new(node_config(2, 400), script, TwoRegion::new(2)).expect("valid script");
        let trace = scenario.trace();
        let report = scenario.run();
        assert_eq!(
            report.completed() + report.rejected + report.shed,
            trace.len() as u64,
            "terminals conserved across the failover"
        );
        let lost = report.region(1).unwrap();
        assert_eq!(lost.lost_at_mins, Some(10.0));
        assert!(report.retry.redelivered > 0, "the backlog was redelivered");
        let survivor = report.region(0).unwrap();
        assert!(
            survivor.completed > lost.completed,
            "the survivor absorbed the failed-over load"
        );
        // GPU-hours bill the lost region only up to the loss.
        let full = report.finished_at.as_mins_f64() / 60.0 * 4.0;
        let lost_bill = 10.0 / 60.0 * 4.0;
        assert!((report.gpu_hours - (full + lost_bill)).abs() < 1e-6);
    }

    #[test]
    fn observation_never_perturbs() {
        struct Count(u64);
        impl Observer for Count {
            fn on_event(&mut self, _at: SimTime, _event: &SimEvent) {
                self.0 += 1;
            }
        }
        let script = quiet_script().with_action(ScenarioAction::RegionLoss {
            at_mins: 8.0,
            region: 0,
        });
        let scenario =
            Scenario::new(node_config(2, 400), script, TwoRegion::new(2)).expect("valid script");
        let untraced = scenario.run();
        let mut count = Count(0);
        let traced = scenario.run_observed_scenario(&mut count);
        assert!(count.0 > 0, "events streamed");
        assert_eq!(untraced.hits, traced.hits);
        assert_eq!(untraced.retry, traced.retry);
        assert_eq!(untraced.finished_at, traced.finished_at);
        assert_eq!(untraced.routed_per_node, traced.routed_per_node);
    }

    #[test]
    fn backend_impl_reports_scenario_tier() {
        let mut scenario = Scenario::new(node_config(2, 400), quiet_script(), TwoRegion::new(2))
            .expect("valid script");
        assert_eq!(scenario.tier(), TierKind::Scenario);
        let trace = scenario.trace();
        let outcome = scenario.run_with(&trace, DeployOptions::default());
        assert_eq!(outcome.tier(), TierKind::Scenario);
        assert_eq!(outcome.completed(), trace.len() as u64);
        assert!(outcome.region_slices().is_some());
    }
}
