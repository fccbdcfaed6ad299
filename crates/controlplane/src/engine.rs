//! The serving engine: the one discrete-event loop behind every tier.
//!
//! [`run_tier`](crate::run_tier) (the single, fleet and elastic tiers)
//! and [`run_regions`](crate::run_regions) (the scenario tier) are thin
//! entry points over [`ElasticRun`]: per-node [`ServingNode`]s,
//! one cache shard per node, arrivals, worker completions and monitor
//! ticks interleaved on one virtual clock, and a control tick that asks
//! an [`Autoscaler`] whether to change the node count. Three pieces of
//! data shape a run, not tier branches:
//!
//! * **The topology**: regions, each a [`Router`] and a [`ShardedCache`]
//!   over a contiguous range of node ids, with a [`GeoRouter`] picking
//!   the region. Single, fleet and elastic runs are one region.
//! * **The client population** ([`Clients`]): the open loop, the
//!   saturated closed loop, or clients that retry under a
//!   [`RetryPolicy`](crate::RetryPolicy).
//! * **The control timeline**: scripted tenancy rewrites and region
//!   losses ([`ControlAction`]) fire next to the [`FaultInjector`]'s
//!   crashes.
//!
//! A fixed fleet is an elastic fleet that holds —
//! [`HoldAutoscaler`](crate::HoldAutoscaler), no faults,
//! `min = initial = max` — and the single node is a fixed fleet of one.
//! Under a holding scaler the control tick changes no serving state, and
//! ties on the clock break in scheduling order, so the extra ticks leave
//! every other event where it was.
//!
//! Each tier salts the run's RNG with its own constant, which keeps
//! every tier's results seed-for-seed stable.

use std::collections::BTreeMap;

use modm_core::config::{AdmissionPolicy, MoDMConfig};
use modm_core::events::{emit, Obs, SimEvent};
use modm_core::node::{render_completion, EnqueueOutcome, NodeInFlight, ServingNode};
use modm_core::report::{fold_terminals, FleetViews, Outcome, Terminal, TerminalKind, TerminalLog};
use modm_core::scheduler::{route_against_cache, IncomingRequest};
use modm_core::TenancyPolicy;
use modm_diffusion::{QualityModel, Sampler};
use modm_embedding::{SemanticSpace, TextEncoder};
use modm_fleet::{GeoRouter, Router, ShardedCache};
use modm_metrics::SloThresholds;
use modm_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use modm_workload::{Request, Trace};

use crate::autoscaler::{Autoscaler, ScaleDecision, ScalerObservation};
use crate::client::Clients;
use crate::fault::FaultInjector;
use crate::lifecycle::{NodeLifecycle, NodeState};
use crate::region::RegionLifecycle;
use crate::report::{
    ElasticReport, FleetEvent, FleetEventKind, NodeReport, RegionSlice, RetryStats, WindowSample,
};
use crate::tier::LifecyclePlan;

/// Closed-loop backlog depth per worker under saturation.
const SATURATION_BACKLOG_PER_WORKER: usize = 2;

/// A control-plane action the engine replays at a scripted time.
#[derive(Debug, Clone)]
pub enum ControlAction {
    /// Swap every live node and shard to this policy snapshot.
    Policy(TenancyPolicy),
    /// Kill the region.
    RegionLoss(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Serving-phase request `idx` is offered for the first time.
    Arrival(usize),
    /// Parked offer `idx` (a retry, a crossing offer or a redelivery)
    /// reaches the front end.
    Reoffer(usize),
    /// Worker completion; stale epochs are dropped.
    WorkerFree {
        node: usize,
        worker: usize,
        epoch: u64,
    },
    /// Node-local monitor tick; stale epochs are dropped.
    MonitorTick { node: usize, epoch: u64 },
    /// Control-plane observation + scaling decision.
    ControlTick,
    /// Provisioning finished: the node starts warming.
    Provisioned { node: usize, epoch: u64 },
    /// Warming finished: the node joins the active set.
    Warmed { node: usize, epoch: u64 },
    /// The `idx`-th planned fault fires.
    Crash(usize),
    /// A crashed node begins re-provisioning.
    Recover { node: usize, epoch: u64 },
    /// The `idx`-th action of the control timeline fires.
    Control(usize),
}

/// How a parked offer reaches the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// A client's offer: it pays one inter-region round trip first when
    /// its home region is lost.
    Client,
    /// A client's offer that already paid the round trip.
    Crossed,
    /// A failed node's request, re-placed by the front end (not a client
    /// retry).
    Redelivered,
}

/// A request waiting off-node for its [`Event::Reoffer`].
struct Parked {
    request: IncomingRequest,
    /// Client retries the request has made so far.
    attempt: u32,
    leg: Leg,
}

/// One region: a router and a cache shard per node over a contiguous
/// range of node ids, with the region's own lifecycle.
struct Region {
    router: Router,
    cache: ShardedCache,
    lifecycle: RegionLifecycle,
}

/// One run of the serving engine.
pub(crate) struct ElasticRun<'a, 'o> {
    node_config: &'a MoDMConfig,
    plan: &'a LifecyclePlan,
    scaler: &'a mut dyn Autoscaler,
    faults: &'a FaultInjector,
    /// The serving phase: the trace past its warmup.
    requests: &'a [Request],
    /// The serving phase's first arrival; arrivals are re-based to start
    /// at time zero.
    base: SimTime,
    clients: Clients,
    encoder: TextEncoder,
    sampler: Sampler,
    rng: SimRng,
    geo: GeoRouter,
    regions: Vec<Region>,
    /// Node ids per region; region `r` owns ids `r * region_size..`.
    region_size: usize,
    /// Per-local-node backlog, refreshed on each placement for
    /// load-aware routers.
    loads: Vec<f64>,
    nodes: Vec<Option<ServingNode>>,
    lifecycle: Vec<NodeLifecycle>,
    /// Incarnation counter per node id; events from dead incarnations are
    /// dropped on arrival.
    epoch: Vec<u64>,
    events: EventQueue<Event>,
    timeline: Vec<(SimTime, ControlAction)>,
    /// Offers waiting off-node (retries, crossings, redeliveries).
    parked: Vec<Option<Parked>>,
    /// Work that may still reach a node: first offers not yet made,
    /// parked offers, and control actions not yet fired.
    arrivals_pending: usize,
    parked_pending: usize,
    controls_pending: usize,
    /// The attempt each re-offered request is on, by request id: a
    /// redelivery keeps its request's retry count.
    retried: BTreeMap<u64, u32>,
    stats: RetryStats,
    /// Every request's terminal, once: the report folds the fleet's,
    /// the regions' and the nodes' views from it (so every request counts
    /// once even if a crash re-routed it), and each control tick folds
    /// the terminals logged since the last.
    terminals: TerminalLog,
    slo: SloThresholds,
    slo_bound_secs: f64,
    // Control window: admitted offers, and where its terminals start.
    win_arrivals: u64,
    win_from: usize,
    // GPU-hour metering.
    gpu_since: Vec<Option<SimTime>>,
    gpu_secs: Vec<f64>,
    // Logs.
    log: Vec<FleetEvent>,
    windows: Vec<WindowSample>,
    obs: Obs<'o, 'o>,
}

impl<'a, 'o> ElasticRun<'a, 'o> {
    /// Sets up a run of `config` over one region per router in
    /// `routers` (`geo` picks the region; each region owns an equal share
    /// of `plan.max_nodes`), drawing from `rng`. The first `warmup`
    /// requests pre-fill the shards off-line; `clients` offer the rest.
    ///
    /// # Panics
    ///
    /// Panics if `warmup > trace.len()`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node_config: &'a MoDMConfig,
        plan: &'a LifecyclePlan,
        geo: GeoRouter,
        mut routers: Vec<Router>,
        trace: &'a Trace,
        warmup: usize,
        mut clients: Clients,
        mut rng: SimRng,
        scaler: &'a mut dyn Autoscaler,
        faults: &'a FaultInjector,
        obs: Obs<'o, 'o>,
    ) -> Self {
        debug_assert_eq!(routers.len(), geo.regions(), "one router per region");
        let space = SemanticSpace::default();
        let encoder = TextEncoder::new(space.clone());
        let quality_model = QualityModel::new(space, node_config.seed, trace.dataset().fid_floor());
        let sampler = Sampler::new(quality_model);
        let region_size = plan.max_nodes / routers.len();
        let mut caches: Vec<ShardedCache> = routers
            .iter()
            .map(|_| ShardedCache::new(region_size, node_config.cache_config()))
            .collect();

        // Warm the shards off-line via the affinity placement map (not
        // `route`, which would count warmup traffic in the per-node routed
        // metrics — and, under LeastLoaded's uniform tie-break, pile every
        // warmup image onto node 0).
        for req in trace.iter().take(warmup) {
            let emb = encoder.encode(&req.prompt);
            let (region, _) = geo.target_region(req.tenant);
            let shard = routers[region].shard_for(&emb);
            let img = sampler.generate_for(node_config.large_model, &emb, req.id, &mut rng);
            caches[region]
                .shard_mut(shard)
                .insert_for(SimTime::ZERO, req.tenant, img);
        }
        let requests = &trace.requests()[warmup..];
        let base = requests.first().map_or(SimTime::ZERO, |r| r.arrival);

        let mut nodes: Vec<Option<ServingNode>> = (0..plan.max_nodes).map(|_| None).collect();
        let mut lifecycle = Vec::with_capacity(plan.max_nodes);
        let mut gpu_since = vec![None; plan.max_nodes];
        for id in 0..plan.max_nodes {
            if id < plan.initial_nodes {
                nodes[id] = Some(ServingNode::new(node_config, id));
                lifecycle.push(NodeLifecycle::new(NodeState::Active, SimTime::ZERO));
                gpu_since[id] = Some(SimTime::ZERO);
            } else {
                lifecycle.push(NodeLifecycle::new(NodeState::Decommissioned, SimTime::ZERO));
            }
        }

        let mut events = EventQueue::with_capacity(requests.len() + 64);
        match &mut clients {
            Clients::Saturated { next } => {
                let workers = plan.initial_nodes * node_config.num_gpus;
                *next = (workers * SATURATION_BACKLOG_PER_WORKER).min(requests.len());
                for i in 0..*next {
                    events.schedule(SimTime::ZERO, Event::Arrival(i));
                }
            }
            Clients::Retrying { .. } => {
                for (i, r) in requests.iter().enumerate() {
                    events.schedule(
                        SimTime::ZERO + r.arrival.saturating_since(base),
                        Event::Arrival(i),
                    );
                }
            }
        }
        for id in 0..plan.initial_nodes {
            events.schedule(
                SimTime::ZERO + node_config.monitor_period,
                Event::MonitorTick { node: id, epoch: 0 },
            );
        }
        events.schedule(SimTime::ZERO + plan.control_period, Event::ControlTick);
        for (k, &at) in faults.crash_times().iter().enumerate() {
            events.schedule(at, Event::Crash(k));
        }

        let regions = routers
            .into_iter()
            .zip(caches)
            .map(|(router, cache)| Region {
                router,
                cache,
                lifecycle: RegionLifecycle::new(SimTime::ZERO),
            })
            .collect();
        let slo = SloThresholds::for_deployment(node_config.gpu, node_config.large_model);
        ElasticRun {
            node_config,
            plan,
            scaler,
            faults,
            requests,
            base,
            clients,
            encoder,
            sampler,
            rng,
            geo,
            regions,
            region_size,
            loads: vec![0.0; region_size],
            nodes,
            lifecycle,
            epoch: vec![0; plan.max_nodes],
            events,
            timeline: Vec::new(),
            parked: Vec::new(),
            arrivals_pending: requests.len(),
            parked_pending: 0,
            controls_pending: 0,
            retried: BTreeMap::new(),
            stats: RetryStats::default(),
            terminals: TerminalLog::with_capacity(requests.len()),
            slo_bound_secs: slo.bound_secs(plan.slo_multiple),
            slo,
            win_arrivals: 0,
            win_from: 0,
            gpu_since,
            gpu_secs: vec![0.0; plan.max_nodes],
            log: Vec::new(),
            windows: Vec::new(),
            obs,
        }
    }

    /// A one-region run — the single, fleet and elastic tiers — starting
    /// from `router`, whose RNG stream is salted by `salt`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn one_region(
        node_config: &'a MoDMConfig,
        plan: &'a LifecyclePlan,
        router: Router,
        trace: &'a Trace,
        warmup: usize,
        clients: Clients,
        salt: u64,
        scaler: &'a mut dyn Autoscaler,
        faults: &'a FaultInjector,
        obs: Obs<'o, 'o>,
    ) -> Self {
        Self::new(
            node_config,
            plan,
            GeoRouter::new(1, SimDuration::ZERO),
            vec![router],
            trace,
            warmup,
            clients,
            SimRng::seed_from(node_config.seed ^ salt),
            scaler,
            faults,
            obs,
        )
    }

    /// Schedules the control timeline: each action fires at its time,
    /// after any event already scheduled for that instant.
    pub(crate) fn with_timeline(mut self, timeline: Vec<(SimTime, ControlAction)>) -> Self {
        for (k, (at, _)) in timeline.iter().enumerate() {
            self.events.schedule(*at, Event::Control(k));
        }
        self.controls_pending = timeline.len();
        self.timeline = timeline;
        self
    }

    /// The first region's shards, as the run left them.
    #[cfg(test)]
    pub(crate) fn cache(&self) -> &ShardedCache {
        &self.regions[0].cache
    }

    /// Runs the event loop to exhaustion, then closes GPU metering.
    ///
    /// # Panics
    ///
    /// Panics unless the log holds one terminal per request (debug
    /// builds also check that each request id logged exactly one).
    pub(crate) fn execute(mut self) -> Self {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Arrival(i) => {
                    let requests = self.requests;
                    let request = &requests[i];
                    let arrival = match self.clients {
                        Clients::Saturated { .. } => SimTime::ZERO,
                        Clients::Retrying { .. } => {
                            SimTime::ZERO + request.arrival.saturating_since(self.base)
                        }
                    };
                    let incoming = IncomingRequest {
                        request_id: request.id,
                        arrival,
                        tenant: request.tenant,
                        qos: request.qos,
                        prompt_embedding: self.encoder.encode(&request.prompt),
                    };
                    self.arrivals_pending -= 1;
                    self.offer(now, incoming, 0, Leg::Client);
                }
                Event::Reoffer(i) => {
                    let parked = self.parked[i].take().expect("re-offered once");
                    self.parked_pending -= 1;
                    self.offer(now, parked.request, parked.attempt, parked.leg);
                }
                Event::WorkerFree {
                    node,
                    worker,
                    epoch,
                } => {
                    if self.epoch[node] != epoch || self.nodes[node].is_none() {
                        continue; // the incarnation that scheduled this is gone
                    }
                    if let Some(inflight) = self.nodes[node].as_mut().unwrap().take_finished(worker)
                    {
                        self.complete(now, node, inflight);
                    }
                    self.dispatch(now, node);
                    self.maybe_finish_drain(now, node);
                }
                Event::MonitorTick { node, epoch } => {
                    if self.epoch[node] != epoch || self.nodes[node].is_none() {
                        continue;
                    }
                    let period = self.node_config.monitor_period;
                    self.nodes[node].as_mut().unwrap().monitor_tick(now, period);
                    let busy = self.nodes[node].as_ref().unwrap().busy();
                    // Keep ticking while this node may still see work: any
                    // pending offer could route here, or it is draining.
                    if self.lifecycle[node].state().serves() && (self.work_pending() || busy) {
                        self.events
                            .schedule(now + period, Event::MonitorTick { node, epoch });
                    }
                    self.dispatch(now, node);
                }
                Event::ControlTick => self.on_control_tick(now),
                Event::Provisioned { node, epoch } => {
                    if self.epoch[node] != epoch {
                        continue;
                    }
                    self.transition(node, NodeState::Warming, now);
                    self.events
                        .schedule(now + self.plan.warm_delay, Event::Warmed { node, epoch });
                }
                Event::Warmed { node, epoch } => {
                    if self.epoch[node] != epoch {
                        continue;
                    }
                    self.activate(now, node, epoch);
                }
                Event::Crash(k) => self.on_crash(now, k),
                Event::Recover { node, epoch } => {
                    if self.epoch[node] != epoch
                        || self.lifecycle[node].state() != NodeState::Failed
                    {
                        continue;
                    }
                    self.log.push(FleetEvent {
                        at: now,
                        kind: FleetEventKind::RecoveryStarted { node },
                    });
                    emit(&mut self.obs, now, || SimEvent::RecoveryStarted { node });
                    self.provision(now, node);
                }
                Event::Control(k) => {
                    self.controls_pending -= 1;
                    match self.timeline[k].1.clone() {
                        ControlAction::Policy(policy) => self.apply_policy(&policy),
                        ControlAction::RegionLoss(region) => self.lose_region(now, region),
                    }
                }
            }
        }
        let end = self.terminals.finished_at();
        for node in 0..self.plan.max_nodes {
            self.end_gpu(node, end);
        }
        assert_eq!(
            self.terminals.len(),
            self.requests.len(),
            "every request reaches exactly one terminal"
        );
        self.terminals
            .assert_covers(self.requests.iter().map(|r| r.id));
        self
    }

    /// True while a request may still reach some node: a first offer not
    /// yet made, a parked offer (a client waiting out its backoff, a
    /// crossing, a redelivery), or a control action that may move work.
    fn work_pending(&self) -> bool {
        self.arrivals_pending > 0 || self.parked_pending > 0 || self.controls_pending > 0
    }

    /// Closed-loop saturation: schedules the next request's arrival at
    /// `at`. A no-op for other populations, or once the trace is
    /// exhausted.
    fn admit_next(&mut self, at: SimTime) {
        if let Clients::Saturated { next } = &mut self.clients {
            if *next < self.requests.len() {
                self.events.schedule(at, Event::Arrival(*next));
                *next += 1;
            }
        }
    }

    /// Parks `parked` until `at`.
    fn park(&mut self, at: SimTime, parked: Parked) {
        self.events.schedule(at, Event::Reoffer(self.parked.len()));
        self.parked.push(Some(parked));
        self.parked_pending += 1;
    }

    /// Offers one request to the region serving its tenant. A client
    /// whose home region is lost pays one round trip first; the node the
    /// request lands on dispatches if it was admitted.
    fn offer(&mut self, now: SimTime, request: IncomingRequest, attempt: u32, leg: Leg) {
        let (region, crossed) = self.geo.target_region(request.tenant);
        if crossed && leg == Leg::Client {
            let leg = Leg::Crossed;
            self.park(
                now + self.geo.rtt(),
                Parked {
                    request,
                    attempt,
                    leg,
                },
            );
            return;
        }
        if attempt > 0 && leg != Leg::Redelivered {
            self.stats.reoffers += 1;
        }
        if let Some(node) = self.place(now, region, request, attempt) {
            self.dispatch(now, node);
        }
    }

    /// Routes one request onto an active node of `region` and offers it
    /// there: the node's admission runs first, and only an admitted
    /// request decides hit/miss against that node's shard (a refused one
    /// never probes it). Returns the node if it admitted the request.
    fn place(
        &mut self,
        now: SimTime,
        region: usize,
        request: IncomingRequest,
        attempt: u32,
    ) -> Option<usize> {
        let first = region * self.region_size;
        let Region { router, cache, .. } = &mut self.regions[region];
        if router.needs_loads() {
            for (load, node) in self.loads.iter_mut().zip(&self.nodes[first..]) {
                *load = node.as_ref().map_or(0.0, ServingNode::load);
            }
        }
        let local = router.route(&request.prompt_embedding, &self.loads);
        let node_idx = first + local;
        debug_assert!(
            self.lifecycle[node_idx].state().accepts_traffic(),
            "routed to node {node_idx} in state {:?}",
            self.lifecycle[node_idx].state()
        );
        let shard = cache.shard_mut(local);
        let shift = self.node_config.threshold_shift;
        let outcome = self.nodes[node_idx]
            .as_mut()
            .expect("active node exists")
            .enqueue(
                now,
                request,
                |e| route_against_cache(shard, now, e, shift),
                self.obs.as_deref_mut(),
            );
        match outcome {
            // The control window sees admitted work only: refused requests
            // are being deliberately turned away, so they must not drive
            // the autoscaler toward capacity the policy chose not to serve.
            EnqueueOutcome::Accepted => {
                self.win_arrivals += 1;
                Some(node_idx)
            }
            EnqueueOutcome::Rejected {
                retry_after_secs,
                request,
            } => {
                self.refused(now, node_idx, request, attempt, retry_after_secs);
                None
            }
        }
    }

    /// What the client population does with `node`'s refusal: retry
    /// after its backoff, or abandon the request. Under saturation the
    /// abandoned request frees its backlog slot, and the replacement
    /// arrives after the refusal's hint, like a backing-off client.
    fn refused(
        &mut self,
        now: SimTime,
        node: usize,
        request: IncomingRequest,
        attempt: u32,
        hint: f64,
    ) {
        let retry = match &mut self.clients {
            Clients::Saturated { .. } => None,
            Clients::Retrying { policy, jitter } => policy.delay(attempt + 1, hint, jitter),
        };
        let Some(wait) = retry else {
            let abandoned = Terminal {
                arrival: request.arrival,
                at: now,
                node: node as u32,
                tenant: request.tenant,
                qos: request.qos,
                outcome: Outcome::ABANDONED,
            };
            self.terminals.push(request.request_id, abandoned);
            self.admit_next(now + SimDuration::from_secs_f64(hint));
            return;
        };
        let attempt = attempt + 1;
        self.retried.insert(request.request_id, attempt);
        let leg = Leg::Client;
        self.park(
            now + wait,
            Parked {
                request,
                attempt,
                leg,
            },
        );
    }

    fn complete(&mut self, now: SimTime, node_idx: usize, inflight: NodeInFlight) {
        let image = render_completion(
            &self.sampler,
            &inflight.routed,
            inflight.model,
            &mut self.rng,
        );
        let node = self.nodes[node_idx].as_mut().expect("completing node");
        node.record_completion(now, &inflight.routed, &image, self.obs.as_deref_mut());
        let served = Terminal::routed(&inflight.routed, node_idx, now, TerminalKind::Served);
        self.terminals.push(inflight.routed.request_id, served);
        let admit = match self.node_config.admission {
            AdmissionPolicy::CacheAll => true,
            AdmissionPolicy::CacheLarge => image.is_full_generation(),
        };
        if admit {
            self.regions[node_idx / self.region_size]
                .cache
                .shard_mut(node_idx % self.region_size)
                .insert_for(now, inflight.routed.tenant, image);
        }
        // Closed-loop saturation: each completion admits the next request,
        // routed against the fleet as it exists *now*.
        self.admit_next(now);
    }

    /// Runs the per-node dispatch step for `node_idx`, wiring its
    /// completions back into the event queue.
    fn dispatch(&mut self, now: SimTime, node_idx: usize) {
        let Some(node) = self.nodes[node_idx].as_mut() else {
            return;
        };
        let logged = self.terminals.len();
        let epoch = self.epoch[node_idx];
        let events = &mut self.events;
        node.dispatch(
            now,
            |done, worker| {
                events.schedule(
                    done,
                    Event::WorkerFree {
                        node: node_idx,
                        worker,
                        epoch,
                    },
                );
            },
            &mut self.terminals,
            self.obs.as_deref_mut(),
        );
        // Closed-loop saturation: like refusals, sheds complete nothing
        // — each one must release its backlog slot or the closed loop
        // drains (and, past the prime depth, stalls).
        for _ in logged..self.terminals.len() {
            self.admit_next(now);
        }
    }

    /// A draining node that just went idle releases its GPUs.
    fn maybe_finish_drain(&mut self, now: SimTime, node_idx: usize) {
        if self.lifecycle[node_idx].state() == NodeState::Draining
            && self.nodes[node_idx].as_ref().is_some_and(|n| !n.busy())
        {
            self.decommission(now, node_idx);
        }
    }

    /// The region owning `node`, and the node's index within it.
    fn locate(&mut self, node: usize) -> (&mut Region, usize) {
        (
            &mut self.regions[node / self.region_size],
            node % self.region_size,
        )
    }

    fn on_control_tick(&mut self, now: SimTime) {
        let active: Vec<usize> = self.active_nodes();
        let loads: f64 = active
            .iter()
            .map(|&id| self.nodes[id].as_ref().map_or(0.0, ServingNode::load))
            .sum();
        let mean_queue = if active.is_empty() {
            0.0
        } else {
            loads / active.len() as f64
        };
        // The window's completions, hits and SLO violations, folded from
        // the terminals logged since the last tick.
        let (mut completions, mut hits, mut violations) = (0, 0, 0);
        for t in &self.terminals[self.win_from..] {
            if t.outcome.kind() == TerminalKind::Served {
                completions += 1;
                hits += u64::from(t.outcome.is_hit());
                let latency = t.at.saturating_since(t.arrival).as_secs_f64();
                violations += u64::from(latency > self.slo_bound_secs);
            }
        }
        self.win_from = self.terminals.len();
        let obs = ScalerObservation {
            arrival_rate_per_min: self.win_arrivals as f64 / self.plan.control_period.as_mins_f64(),
            queue_depth_per_node: mean_queue,
            slo_violation_rate: if completions == 0 {
                0.0
            } else {
                violations as f64 / completions as f64
            },
            active_nodes: active.len(),
            min_nodes: self.plan.min_nodes,
            max_nodes: self.plan.max_nodes,
        };
        let decision = self.scaler.decide(&obs);
        self.windows.push(WindowSample {
            end: now,
            arrival_rate_per_min: obs.arrival_rate_per_min,
            completions,
            hits,
            slo_violations: violations,
            active_nodes: active.len(),
            mean_queue_depth: mean_queue,
            decision,
        });
        self.win_arrivals = 0;
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => self.scale_up(now, n),
            ScaleDecision::Down(n) => self.scale_down(now, n),
        }
        if self.work_pending() || self.any_node_busy() {
            self.events
                .schedule(now + self.plan.control_period, Event::ControlTick);
        }
    }

    fn active_nodes(&self) -> Vec<usize> {
        (0..self.plan.max_nodes)
            .filter(|&id| self.lifecycle[id].state() == NodeState::Active)
            .collect()
    }

    fn any_node_busy(&self) -> bool {
        self.nodes.iter().flatten().any(|n| n.busy())
    }

    fn scale_up(&mut self, now: SimTime, n: usize) {
        for _ in 0..n {
            // Committed capacity: everything on its way to (or at) Active.
            let committed = (0..self.plan.max_nodes)
                .filter(|&id| {
                    matches!(
                        self.lifecycle[id].state(),
                        NodeState::Provisioning | NodeState::Warming | NodeState::Active
                    )
                })
                .count();
            if committed >= self.plan.max_nodes {
                break;
            }
            // Lowest decommissioned id becomes the new node (failed nodes
            // recover on their own schedule).
            let Some(spare) = (0..self.plan.max_nodes)
                .find(|&id| self.lifecycle[id].state() == NodeState::Decommissioned)
            else {
                break;
            };
            self.log.push(FleetEvent {
                at: now,
                kind: FleetEventKind::ScaleUp { node: spare },
            });
            emit(&mut self.obs, now, || SimEvent::ScaleUp { node: spare });
            self.provision(now, spare);
        }
    }

    /// Starts the provisioning chain for `node` (from Decommissioned or
    /// Failed): a fresh epoch, GPU metering on, Provisioned scheduled.
    fn provision(&mut self, now: SimTime, node: usize) {
        self.epoch[node] += 1;
        self.transition(node, NodeState::Provisioning, now);
        self.gpu_since[node] = Some(now);
        self.events.schedule(
            now + self.plan.provision_delay,
            Event::Provisioned {
                node,
                epoch: self.epoch[node],
            },
        );
    }

    /// The node joins the active set with a fresh serving state, and the
    /// cache pre-warms it: exactly the entries whose keyspace the new node
    /// inherits migrate in from their old shards (the scale-up mirror of
    /// the drain handoff — without it a fresh node steals ring slices it
    /// cannot hit on, and every scale-up dents the fleet's hit rate). The
    /// donors' other entries keep their hotness bookkeeping untouched.
    fn activate(&mut self, now: SimTime, node: usize, epoch: u64) {
        self.transition(node, NodeState::Active, now);
        self.nodes[node] = Some(ServingNode::new(self.node_config, node));
        let (region, local) = self.locate(node);
        region.router.add_node(local);
        let prewarmed = region.cache.pull_routed(now, local, &mut region.router);
        self.events.schedule(
            now + self.node_config.monitor_period,
            Event::MonitorTick { node, epoch },
        );
        self.log.push(FleetEvent {
            at: now,
            kind: FleetEventKind::NodeActive { node, prewarmed },
        });
        emit(&mut self.obs, now, || SimEvent::NodeActive {
            node,
            prewarmed,
        });
    }

    fn scale_down(&mut self, now: SimTime, n: usize) {
        for _ in 0..n {
            let active = self.active_nodes();
            if active.len() <= self.plan.min_nodes {
                break;
            }
            // Drain the least-loaded active node (cheapest to finish);
            // ties prefer the highest id so the permanent low ids persist.
            let victim = *active
                .iter()
                .rev()
                .min_by(|&&a, &&b| {
                    let la = self.nodes[a].as_ref().map_or(0.0, ServingNode::load);
                    let lb = self.nodes[b].as_ref().map_or(0.0, ServingNode::load);
                    la.partial_cmp(&lb).expect("finite loads")
                })
                .expect("non-empty active set");
            let fraction = self.plan.handoff_fraction;
            let (region, local) = self.locate(victim);
            region.router.remove_node(local);
            // Cache handoff: the hottest entries follow their keyspace to
            // the ring successors (the ring no longer contains the victim,
            // so its affinity map is exactly the successor map).
            let resident = region.cache.shard(local).len();
            let count = (resident as f64 * fraction).ceil() as usize;
            let handoff = region
                .cache
                .handoff_routed(now, local, count, &mut region.router);
            self.transition(victim, NodeState::Draining, now);
            self.log.push(FleetEvent {
                at: now,
                kind: FleetEventKind::ScaleDown {
                    node: victim,
                    handoff,
                },
            });
            emit(&mut self.obs, now, || SimEvent::ScaleDown { node: victim });
            self.maybe_finish_drain(now, victim);
        }
    }

    fn decommission(&mut self, now: SimTime, node: usize) {
        self.transition(node, NodeState::Decommissioned, now);
        self.epoch[node] += 1; // invalidate any straggler events
        self.nodes[node] = None;
        // The cold tail the handoff left behind dies with the shard.
        let (region, local) = self.locate(node);
        region.cache.shard_mut(local).clear();
        self.end_gpu(node, now);
        self.log.push(FleetEvent {
            at: now,
            kind: FleetEventKind::Decommissioned { node },
        });
        emit(&mut self.obs, now, || SimEvent::Decommissioned { node });
    }

    fn on_crash(&mut self, now: SimTime, k: usize) {
        let active = self.active_nodes();
        // Never crash the last active node: the simulated front-end would
        // have nowhere to re-deliver (a full outage is out of scope).
        if active.len() <= 1 {
            return;
        }
        let Some(victim) = self.faults.pick_victim(k, &active) else {
            return;
        };
        let (region, local) = self.locate(victim);
        region.router.remove_node(local);
        let lost = region.cache.shard_mut(local).clear();
        self.fail_node(now, victim, SimDuration::ZERO, lost);
        self.events.schedule(
            now + self.faults.recovery_delay(),
            Event::Recover {
                node: victim,
                epoch: self.epoch[victim],
            },
        );
    }

    /// The crash path: the node fails, its serving state is dropped, and
    /// its backlog (queued and in-flight) is redelivered through the
    /// front end after `delay`. The caller settles the node's router
    /// membership and its shard's `lost_entries`.
    fn fail_node(&mut self, now: SimTime, node: usize, delay: SimDuration, lost_entries: usize) {
        self.transition(node, NodeState::Failed, now);
        self.epoch[node] += 1;
        let mut serving = self.nodes[node].take().expect("failing node existed");
        let pending = serving.drain_pending();
        self.end_gpu(node, now);
        let redelivered = pending.len();
        self.stats.redelivered += redelivered as u64;
        for routed in pending {
            let attempt = self.retried.get(&routed.request_id).copied().unwrap_or(0);
            let request = IncomingRequest {
                request_id: routed.request_id,
                arrival: routed.arrival,
                tenant: routed.tenant,
                qos: routed.qos,
                prompt_embedding: routed.prompt_embedding,
            };
            let leg = Leg::Redelivered;
            self.park(
                now + delay,
                Parked {
                    request,
                    attempt,
                    leg,
                },
            );
        }
        self.log.push(FleetEvent {
            at: now,
            kind: FleetEventKind::Crash {
                node,
                lost_entries,
                redelivered,
            },
        });
        emit(&mut self.obs, now, || SimEvent::Crash {
            node,
            redelivered,
            lost_entries,
        });
    }

    /// Swaps the tenancy policy on every live node and every shard of a
    /// live region — the runtime half of tenant join/leave. Timelines
    /// are validated before the run, so these rewrites cannot fail.
    fn apply_policy(&mut self, policy: &TenancyPolicy) {
        let reserves = policy.cache_reserves();
        let capacity = self.node_config.cache_capacity;
        let nodes = self.nodes.chunks_mut(self.region_size);
        for (region, nodes) in self.regions.iter_mut().zip(nodes) {
            if !region.lifecycle.is_alive() {
                continue;
            }
            for (local, node) in nodes.iter_mut().enumerate() {
                if let Some(node) = node {
                    node.try_update_tenancy(policy, capacity)
                        .expect("timeline pre-validated every policy snapshot");
                }
                region
                    .cache
                    .shard_mut(local)
                    .try_set_reserves(reserves.clone())
                    .expect("timeline pre-validated every reserve set");
            }
        }
    }

    /// Loses a region: the crash path runs on each of its nodes, their
    /// backlog reaching the surviving region after one round trip, then
    /// the hottest `handoff_fraction` of each shard crosses over. The
    /// rest of the cache is lost with the region.
    fn lose_region(&mut self, now: SimTime, region: usize) {
        self.geo
            .fail_region(region)
            .expect("timeline pre-validated the region loss");
        self.regions[region]
            .lifecycle
            .fail(now)
            .expect("geo router and lifecycle agree");
        let first = region * self.region_size;
        for local in 0..self.region_size {
            if self.nodes[first + local].is_some() {
                let lost = self.regions[region].cache.shard(local).len();
                self.fail_node(now, first + local, self.geo.rtt(), lost);
            }
        }
        for local in 0..self.region_size {
            let shard = self.regions[region].cache.shard_mut(local);
            let keep = (shard.len() as f64 * self.plan.handoff_fraction).ceil() as usize;
            let exported = shard.export_hottest(keep);
            shard.clear();
            for (tenant, image) in exported {
                let dest = &mut self.regions[self.geo.target_region(tenant).0];
                let dest_local = dest.router.shard_for(&image.embedding);
                dest.cache
                    .shard_mut(dest_local)
                    .insert_for(now, tenant, image);
            }
        }
    }

    fn transition(&mut self, node: usize, to: NodeState, at: SimTime) {
        self.lifecycle[node]
            .transition(to, at)
            .expect("control plane only walks legal edges");
    }

    fn end_gpu(&mut self, node: usize, now: SimTime) {
        if let Some(since) = self.gpu_since[node].take() {
            self.gpu_secs[node] += now.saturating_since(since).as_secs_f64();
        }
    }

    /// Offers routed to each node id, across regions.
    fn routed_per_node(&self) -> Vec<u64> {
        let routers = self.regions.iter().map(|r| r.router.routed_per_node());
        routers.flatten().copied().collect()
    }

    /// The report of an executed run: fleet-wide counters, GPU-hours
    /// metered per node, the control-plane log, the per-window series,
    /// retry accounting, one slice per region, and one [`NodeReport`]
    /// per node when every node served the whole run. Every count and
    /// completion view is folded from the terminal log in one pass.
    pub(crate) fn into_elastic_report(mut self) -> ElasticReport {
        // The loop's buffers go first, so the views reuse their memory.
        drop(std::mem::take(&mut self.events));
        drop(std::mem::take(&mut self.parked));
        let gpu_hours =
            self.gpu_secs.iter().sum::<f64>() * self.node_config.num_gpus as f64 / 3600.0;
        let routed_per_node = self.routed_per_node();
        let finished_at = self.terminals.finished_at();
        // A node's serving report covers the whole run only if the node
        // served from time zero to the end; a fleet whose nodes came and
        // went reports routing counts alone.
        let mut lifecycles = self.nodes.iter().zip(&self.lifecycle);
        let whole_run =
            lifecycles.all(|(node, lifecycle)| node.is_some() && lifecycle.history().len() == 1);
        let mut reports: Vec<_> = if whole_run {
            let nodes = self.nodes.into_iter().flatten().enumerate();
            nodes
                .map(|(id, node)| {
                    let shard = self.regions[id / self.region_size]
                        .cache
                        .shard(id % self.region_size);
                    node.into_report(finished_at, self.slo, shard.stats().clone())
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut fleet = FleetViews {
            nodes: vec![(0, 0); self.plan.max_nodes],
            ..FleetViews::default()
        };
        fold_terminals(&self.terminals, Some(&mut fleet), &mut reports);
        let tallies = fleet.nodes.chunks(self.region_size);
        let regions = (self.regions.iter().zip(tallies))
            .enumerate()
            .map(|(r, (region, nodes))| {
                let (completed, hits) = nodes.iter().fold((0, 0), |(c, h), t| (c + t.0, h + t.1));
                RegionSlice {
                    region: r,
                    routed: region.router.routed_per_node().iter().sum(),
                    completed,
                    hit_rate: if completed == 0 {
                        0.0
                    } else {
                        hits as f64 / completed as f64
                    },
                    lost_at_mins: region.lifecycle.lost_at().map(SimTime::as_mins_f64),
                }
            })
            .collect();
        let nodes = reports
            .into_iter()
            .enumerate()
            .map(|(id, report)| NodeReport {
                node: id,
                routed: routed_per_node[id],
                report,
            })
            .collect();
        let completed = fleet.nodes.iter().map(|t| t.0).sum();
        let hits = fleet.nodes.iter().map(|t| t.1).sum();
        let abandoned = fleet.tenants.values().map(|t| t.rejected).sum();
        let shed = fleet.tenants.values().map(|t| t.shed).sum();
        ElasticReport {
            scaler: self.scaler.name(),
            completed,
            hits,
            misses: completed - hits,
            rejected: abandoned,
            shed,
            retry: RetryStats {
                offers: routed_per_node.iter().sum(),
                abandoned,
                ..self.stats
            },
            regions,
            nodes,
            cache: self.regions.iter().map(|r| r.cache.summary()).sum(),
            routed_per_node,
            latency: fleet.latency,
            slo: self.slo,
            slo_multiple: self.plan.slo_multiple,
            gpu_hours,
            events: self.log,
            windows: self.windows,
            tenant_slices: fleet.tenants.into_values().collect(),
            finished_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use modm_cache::ImageCache;
    use modm_cluster::GpuKind;
    use modm_core::config::{MoDMConfig, RunOptions};
    use modm_core::fairqueue::{TenancyPolicy, TenantShare};
    use modm_core::kselect::HIT_THRESHOLD;
    use modm_core::report::TenantSlice;
    use modm_fleet::RoutingPolicy;
    use modm_metrics::LatencyReport;
    use modm_workload::{QosClass, TenantId, TenantMix, Trace, TraceBuilder};

    use super::*;
    use crate::autoscaler::HoldAutoscaler;
    use crate::client::RetryPolicy;
    use crate::tier::tests::elastic;
    use crate::tier::{run_salted, ELASTIC_SALT};

    /// A 4-GPU node whose tenancy policy both refuses (token buckets)
    /// and sheds (a tight queue-time budget).
    fn overloaded_node() -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 4)
            .cache_capacity(300)
            .tenancy(
                TenancyPolicy::weighted_fair(vec![
                    TenantShare::new(TenantId(1), 4.0),
                    TenantShare::new(TenantId(2), 1.0),
                ])
                .with_rate_limit(TenantId(2), 3.0, 2.0)
                .with_queue_budget(SimDuration::from_secs_f64(120.0)),
            )
            .build()
    }

    /// Everything a cache probe could touch on a shard: its statistics
    /// and every entry's retrieval bookkeeping, in id order.
    fn probe_state(shard: &ImageCache) -> (String, Vec<(u64, u64, SimTime)>) {
        let mut entries: Vec<_> = shard
            .iter()
            .map(|e| (e.image.id.0, e.hit_count, e.last_used))
            .collect();
        entries.sort_unstable();
        (format!("{:?}", shard.stats()), entries)
    }

    #[test]
    fn refused_offer_leaves_the_shard_untouched() {
        // Tenant 2's bucket holds one token and refills once per 100
        // minutes: its first offer is admitted and probes the warm shard,
        // its second is refused and must not reach the shard at all.
        let node = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 2)
            .cache_capacity(100)
            .tenancy(TenancyPolicy::fifo().with_rate_limit(TenantId(2), 0.01, 1.0))
            .build();
        let plan = LifecyclePlan::new(1, 1, 1);
        let trace = TraceBuilder::diffusion_db(5).requests(40).build();
        let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
        let options = RunOptions {
            warmup: 30,
            saturate: false,
        };
        let router = Router::new(plan.policy, 1);
        let mut run = ElasticRun::one_region(
            &node,
            &plan,
            router,
            &trace,
            options.warmup,
            Clients::open_loop(),
            ELASTIC_SALT,
            &mut scaler,
            &faults,
            None,
        );
        // A prompt whose warm image a probe would retrieve (and refresh).
        let embedding = trace
            .iter()
            .take(options.warmup)
            .map(|r| run.encoder.encode(&r.prompt))
            .find(|e| run.cache().shard(0).peek(e, HIT_THRESHOLD).is_some())
            .expect("a retrievable warm image");
        let offer = |request_id| IncomingRequest {
            request_id,
            arrival: SimTime::ZERO,
            tenant: TenantId(2),
            qos: QosClass::Standard,
            prompt_embedding: embedding.clone(),
        };
        let counts = |run: &ElasticRun| {
            let node = run.nodes[0].as_ref().expect("node 0 is active");
            (run.cache().shard(0).stats().hits(), node.rejected())
        };

        let admitted = run.place(SimTime::from_secs_f64(60.0), 0, offer(1_000), 0);
        assert_eq!(admitted, Some(0));
        assert_eq!(counts(&run), (1, 0), "the admitted offer hits");
        let before = probe_state(run.cache().shard(0));
        let refused = run.place(SimTime::from_secs_f64(120.0), 0, offer(1_001), 0);
        assert_eq!(refused, None);
        assert_eq!(counts(&run), (1, 1), "the second offer is refused");
        assert_eq!(probe_state(run.cache().shard(0)), before);
    }

    #[test]
    fn region_shards_follow_the_node_config_index_policy() {
        // Every region's shards are built from `MoDMConfig::cache_config`,
        // so the node config's index policy reaches the scenario tier's
        // caches; the default stays on the exact flat scan.
        let trace = TraceBuilder::diffusion_db(43)
            .requests(60)
            .rate_per_min(12.0)
            .build();
        let plain = || MoDMConfig::builder().gpus(GpuKind::Mi210, 2).build();
        let approx = MoDMConfig {
            index_policy: modm_core::IndexPolicy::Approx,
            ..plain()
        };
        for (node, backend) in [(plain(), "flat"), (approx, "inverted")] {
            let plan = LifecyclePlan::new(4, 4, 4);
            let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
            let run = ElasticRun::new(
                &node,
                &plan,
                GeoRouter::new(2, SimDuration::ZERO),
                vec![Router::new(plan.policy, 2); 2],
                &trace,
                0,
                Clients::open_loop(),
                SimRng::seed_from(1),
                &mut scaler,
                &faults,
                None,
            );
            for region in &run.regions {
                assert_eq!(region.cache.num_shards(), 2);
                for shard in 0..region.cache.num_shards() {
                    assert_eq!(region.cache.shard(shard).index_backend(), backend);
                }
            }
            let report = run.execute().into_elastic_report();
            assert_eq!(report.completed, 60, "{backend} shards serve everything");
        }
    }

    #[test]
    fn redelivery_keeps_the_retry_count() {
        // Request 7 is refused once and parks a retry at attempt 1. Both
        // it and request 6 then land on region 1's one-GPU node, which is
        // lost before either completes: each redelivery resumes its own
        // request's retry count, so a later refusal continues the
        // client's budget instead of restarting it.
        let node = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 1)
            .cache_capacity(50)
            .build();
        let plan = LifecyclePlan::new(2, 2, 2);
        let trace = TraceBuilder::diffusion_db(5).requests(10).build();
        let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
        let clients = Clients::Retrying {
            policy: RetryPolicy::honoring(),
            jitter: SimRng::seed_from(2),
        };
        let mut run = ElasticRun::new(
            &node,
            &plan,
            GeoRouter::new(2, SimDuration::from_secs_f64(0.2)),
            vec![Router::new(plan.policy, 1); 2],
            &trace,
            0,
            clients,
            SimRng::seed_from(1),
            &mut scaler,
            &faults,
            None,
        );
        let embedding = run.encoder.encode("a quiet harbor at dawn");
        let request = |request_id| IncomingRequest {
            request_id,
            arrival: SimTime::ZERO,
            tenant: TenantId(1),
            qos: QosClass::Standard,
            prompt_embedding: embedding.clone(),
        };
        let now = SimTime::from_secs_f64(1.0);
        run.refused(now, 1, request(7), 0, 5.0);
        let retry = run.parked[0].take().expect("the refusal parks a retry");
        assert_eq!((retry.attempt, retry.leg), (1, Leg::Client));
        run.offer(now, request(6), 0, Leg::Client);
        run.offer(now, retry.request, retry.attempt, retry.leg);
        run.lose_region(now, 1);
        let mut redelivered: Vec<_> = run
            .parked
            .iter()
            .flatten()
            .map(|p| (p.request.request_id, p.attempt, p.leg))
            .collect();
        redelivered.sort_unstable_by_key(|&(id, _, _)| id);
        assert_eq!(
            redelivered,
            vec![(6, 0, Leg::Redelivered), (7, 1, Leg::Redelivered)]
        );
        assert_eq!(run.stats.redelivered, 2);
    }

    fn latency_quantiles(latency: &mut LatencyReport) -> [Option<f64>; 3] {
        [
            latency.quantile_secs(0.5),
            latency.quantile_secs(0.99),
            latency.quantile_secs(1.0),
        ]
    }

    /// A fixed fleet of `router.nodes()` `node` nodes, its RNG salted by
    /// `salt`.
    fn fixed(
        node: &MoDMConfig,
        router: Router,
        trace: &Trace,
        options: RunOptions,
        salt: u64,
    ) -> ElasticReport {
        let n = router.nodes();
        let plan = LifecyclePlan {
            policy: router.policy(),
            ..LifecyclePlan::new(n, n, n)
        };
        let faults = FaultInjector::none();
        run_salted(
            node,
            &plan,
            router,
            trace,
            options,
            salt,
            &mut HoldAutoscaler,
            &faults,
            None,
        )
    }

    /// The two-tenant trace `overloaded_node` refuses and sheds from.
    fn two_tenant_trace(seed: u64, requests: usize) -> Trace {
        TraceBuilder::diffusion_db(seed)
            .requests(requests)
            .tenants(vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
                TenantMix::new(TenantId(2), QosClass::BestEffort, 16.0),
            ])
            .build()
    }

    #[test]
    fn fixed_fleet_and_holding_elastic_fleet_agree() {
        // The cross-view oracle: one static configuration, one salt, run
        // once as a fixed fleet (its plan taken from its router) and once
        // as an elastic fleet (a router built from its plan) must report
        // the same run.
        const NODES: usize = 3;
        let trace = two_tenant_trace(77, 400);
        let policy = RoutingPolicy::HybridAffinity;
        let fleet = fixed(
            &overloaded_node(),
            Router::new(policy, NODES),
            &trace,
            RunOptions::default(),
            ELASTIC_SALT,
        );
        let plan = LifecyclePlan {
            policy,
            ..LifecyclePlan::new(NODES, NODES, NODES)
        };
        let faults = FaultInjector::none();
        let elastic = elastic(
            &overloaded_node(),
            plan,
            &trace,
            &mut HoldAutoscaler,
            &faults,
        );

        assert!(elastic.rejected > 0, "token buckets must refuse");
        assert!(elastic.shed > 0, "the queue budget must shed");
        assert!(elastic.events.is_empty(), "a holding fleet never scales");
        assert_eq!(
            elastic.nodes.len(),
            NODES,
            "a holding fleet keeps every node"
        );
        // Debug renders every field, floats as their shortest round-trip
        // form, so equal text is an equal report.
        assert_eq!(format!("{fleet:?}"), format!("{elastic:?}"));
        let gpus = NODES * overloaded_node().num_gpus;
        let expect = gpus as f64 * elastic.finished_at.as_secs_f64() / 3600.0;
        assert!(
            ((elastic.gpu_hours - expect) / expect).abs() < 1e-9,
            "{} GPU-h vs {expect}",
            elastic.gpu_hours
        );
    }

    #[test]
    fn one_node_fleet_is_the_single_node_under_every_policy() {
        // A tier reduction: under one salt, a fixed fleet of one node is
        // the single tier (one node behind a one-node round-robin router)
        // whatever its router's policy, in the open loop and under
        // warm-up plus saturation.
        let trace = two_tenant_trace(76, 300);
        for options in [RunOptions::default(), RunOptions::saturated(60)] {
            let single = Router::new(RoutingPolicy::RoundRobin, 1);
            let single = fixed(&overloaded_node(), single, &trace, options, ELASTIC_SALT);
            assert!(single.rejected > 0, "token buckets must refuse");
            assert!(single.shed > 0, "the queue budget must shed");
            for policy in [
                RoutingPolicy::RoundRobin,
                RoutingPolicy::LeastLoaded,
                RoutingPolicy::CacheAffinity,
                RoutingPolicy::HybridAffinity,
            ] {
                let router = Router::new(policy, 1);
                let fleet = fixed(&overloaded_node(), router, &trace, options, ELASTIC_SALT);
                assert_eq!(
                    format!("{fleet:?}"),
                    format!("{single:?}"),
                    "{policy:?}, {options:?}"
                );
            }
        }
    }

    #[test]
    fn holding_elastic_fleet_reports_one_region_slice_and_its_retries() {
        // A one-region run carries one slice, and it covers the whole
        // run; open-loop clients abandon every refusal on the spot, and
        // every offer reached a node.
        let trace = two_tenant_trace(79, 300);
        let plan = LifecyclePlan::new(2, 2, 2);
        let faults = FaultInjector::none();
        let report = elastic(
            &overloaded_node(),
            plan,
            &trace,
            &mut HoldAutoscaler,
            &faults,
        );

        assert!(report.rejected > 0, "token buckets must refuse");
        assert_eq!(report.regions.len(), 1);
        let region = report.region(0).expect("the one region");
        assert_eq!(region.routed, report.routed_per_node.iter().sum::<u64>());
        assert_eq!(region.completed, report.completed);
        assert_eq!(region.hit_rate.to_bits(), report.hit_rate().to_bits());
        assert_eq!(region.lost_at_mins, None);
        assert!(report.region(1).is_none());
        assert_eq!(
            report.retry.offers,
            report.routed_per_node.iter().sum::<u64>()
        );
        assert_eq!(report.retry.abandoned, report.rejected);
        assert_eq!((report.retry.reoffers, report.retry.redelivered), (0, 0));
    }

    #[test]
    fn fixed_fleet_and_two_region_run_agree() {
        // The cross-tier oracle: one overloaded configuration, one salt,
        // run as a fixed fleet of `NODES` nodes and as a two-region run
        // whose tenants all home to region 0 (even ids), with an empty
        // timeline and the fleet's open-loop clients. Region 1 idles.
        const NODES: usize = 3;
        let node = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 4)
            .cache_capacity(300)
            .tenancy(
                TenancyPolicy::weighted_fair(vec![
                    TenantShare::new(TenantId(2), 4.0),
                    TenantShare::new(TenantId(4), 1.0),
                ])
                .with_rate_limit(TenantId(4), 3.0, 2.0)
                .with_queue_budget(SimDuration::from_secs_f64(120.0)),
            )
            .build();
        let trace = TraceBuilder::diffusion_db(78)
            .requests(400)
            .tenants(vec![
                TenantMix::new(TenantId(2), QosClass::Interactive, 6.0),
                TenantMix::new(TenantId(4), QosClass::BestEffort, 16.0),
            ])
            .build();
        let policy = RoutingPolicy::CacheAffinity;
        let router = Router::new(policy, NODES);
        let options = RunOptions::default();
        let mut fleet = fixed(&node, router, &trace, options, ELASTIC_SALT);
        let plan = LifecyclePlan::new(2 * NODES, 2 * NODES, 2 * NODES);
        let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
        let mut regions = ElasticRun::new(
            &node,
            &plan,
            GeoRouter::new(2, SimDuration::from_secs_f64(0.2)),
            vec![Router::new(policy, NODES); 2],
            &trace,
            0,
            Clients::open_loop(),
            SimRng::seed_from(node.seed ^ ELASTIC_SALT),
            &mut scaler,
            &faults,
            None,
        )
        .execute()
        .into_elastic_report();

        assert!(regions.rejected > 0, "token buckets must refuse");
        assert!(regions.shed > 0, "the queue budget must shed");
        assert_eq!(regions.regions[1].routed, 0, "no tenant homes to region 1");
        assert_eq!(
            (fleet.completed, fleet.hits, fleet.misses),
            (regions.completed, regions.hits, regions.misses)
        );
        assert_eq!(
            (fleet.rejected, fleet.shed),
            (regions.rejected, regions.shed)
        );
        assert_eq!(fleet.routed_per_node, regions.routed_per_node[..NODES]);
        assert_eq!(
            format!("{:?}", fleet.nodes),
            format!("{:?}", &regions.nodes[..NODES]),
            "region 0's nodes serve as the fleet's do"
        );
        assert_eq!(
            latency_quantiles(&mut fleet.latency),
            latency_quantiles(&mut regions.latency)
        );
        assert_eq!(fleet.tenant_slices.len(), regions.tenant_slices.len());
        for (f, r) in fleet.tenant_slices.iter().zip(&regions.tenant_slices) {
            let counts = |s: &TenantSlice| {
                (
                    s.tenant,
                    s.qos,
                    s.completed,
                    s.hits,
                    s.misses,
                    s.rejected,
                    s.shed,
                )
            };
            assert_eq!(counts(f), counts(r));
            let (mut fl, mut rl) = (f.latency.clone(), r.latency.clone());
            assert_eq!(latency_quantiles(&mut fl), latency_quantiles(&mut rl));
        }
        assert_eq!(fleet.finished_at, regions.finished_at);
    }
}
