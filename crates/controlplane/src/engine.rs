//! The serving engine: the one discrete-event loop behind every tier.
//!
//! [`ElasticFleet`](crate::ElasticFleet), [`Fleet`](crate::Fleet) and
//! [`ServingSystem`](crate::ServingSystem) are thin entry points over
//! [`ElasticRun`]: per-node [`ServingNode`]s behind a [`Router`], one
//! cache shard per node, arrivals, worker completions and monitor ticks
//! interleaved on one virtual clock, and a control tick that asks an
//! [`Autoscaler`] whether to change the node count. A fixed fleet is an
//! elastic fleet that holds — [`HoldAutoscaler`](crate::HoldAutoscaler),
//! no faults, `min = initial = max` — and the single node is a fixed
//! fleet of one. Under a holding scaler the control tick changes no
//! serving state, and ties on the clock break in scheduling order, so
//! the extra ticks leave every other event where it was.
//!
//! Each entry point salts the run's RNG with its own constant, which
//! keeps every tier's results seed-for-seed stable.

use std::collections::BTreeMap;

use modm_core::config::{AdmissionPolicy, RunOptions};
use modm_core::events::{emit, Obs, SimEvent};
use modm_core::node::{render_completion, NodeInFlight, ServingNode};
use modm_core::report::TenantSlice;
use modm_core::scheduler::{route_against_cache, IncomingRequest, RouteKind};
use modm_diffusion::{QualityModel, Sampler};
use modm_embedding::{SemanticSpace, TextEncoder};
use modm_fleet::{FleetReport, NodeReport, Router, ShardedCache};
use modm_metrics::{LatencyReport, SloThresholds, ThroughputReport};
use modm_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use modm_workload::{Request, TenantId, Trace};

use crate::autoscaler::{Autoscaler, ScaleDecision, ScalerObservation};
use crate::elastic::ElasticFleetConfig;
use crate::fault::FaultInjector;
use crate::lifecycle::{NodeLifecycle, NodeState};
use crate::report::{ElasticReport, FleetEvent, FleetEventKind, WindowSample};

/// Closed-loop backlog depth per worker under saturation.
const SATURATION_BACKLOG_PER_WORKER: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Serving-phase request `idx` reaches the front-end.
    Arrival(usize),
    /// Crash re-delivery `idx` (into the redelivery buffer) re-routes.
    Redeliver(usize),
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
}

/// One run of the serving engine.
pub(crate) struct ElasticRun<'a, 'o> {
    config: &'a ElasticFleetConfig,
    scaler: &'a mut dyn Autoscaler,
    faults: &'a FaultInjector,
    /// The serving phase: the trace past its warmup, re-based to start at
    /// time zero.
    requests: &'a [Request],
    /// Closed-loop saturation: every request counts as arriving at time
    /// zero, whenever the loop admits it.
    saturate: bool,
    /// The next request the closed loop admits (`requests.len()` in an
    /// open loop, where every arrival is scheduled up front).
    next_admission: usize,
    encoder: TextEncoder,
    sampler: Sampler,
    rng: SimRng,
    router: Router,
    /// Per-node-id backlog, refreshed on each arrival for load-aware
    /// routers.
    loads: Vec<f64>,
    cache: ShardedCache,
    nodes: Vec<Option<ServingNode>>,
    lifecycle: Vec<NodeLifecycle>,
    /// Incarnation counter per node id; events from dead incarnations are
    /// dropped on arrival.
    epoch: Vec<u64>,
    events: EventQueue<Event>,
    /// Requests that outlived their node and await re-routing.
    redeliveries: Vec<Option<IncomingRequest>>,
    pending_redeliveries: usize,
    arrivals_pending: usize,
    // Fleet-wide metrics (completion-based, so every request counts once
    // even if a crash re-routed it).
    latency: LatencyReport,
    throughput: ThroughputReport,
    hits: u64,
    misses: u64,
    /// Refusals/sheds harvested from node incarnations as they tear down
    /// (nodes come and go; the counters must outlive them).
    rejected: u64,
    shed: u64,
    tenants: BTreeMap<TenantId, TenantSlice>,
    slo: SloThresholds,
    slo_bound_secs: f64,
    finished_at: SimTime,
    // Control window counters.
    win_arrivals: u64,
    win_completions: u64,
    win_hits: u64,
    win_violations: u64,
    // GPU-hour metering.
    gpu_since: Vec<Option<SimTime>>,
    gpu_secs: Vec<f64>,
    // Logs.
    log: Vec<FleetEvent>,
    windows: Vec<WindowSample>,
    obs: Obs<'o, 'o>,
}

impl<'a, 'o> ElasticRun<'a, 'o> {
    /// Sets up a run of `config` starting from `router`, whose RNG stream
    /// is salted by `salt`. `options.warmup` requests pre-fill the shards
    /// off-line; `options.saturate` closes the loop.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup > trace.len()`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: &'a ElasticFleetConfig,
        mut router: Router,
        trace: &'a Trace,
        options: RunOptions,
        salt: u64,
        scaler: &'a mut dyn Autoscaler,
        faults: &'a FaultInjector,
        obs: Obs<'o, 'o>,
    ) -> Self {
        let node_config = &config.node_config;
        let space = SemanticSpace::default();
        let encoder = TextEncoder::new(space.clone());
        let quality_model = QualityModel::new(space, node_config.seed, trace.dataset().fid_floor());
        let sampler = Sampler::new(quality_model);
        let mut rng = SimRng::seed_from(node_config.seed ^ salt);
        let mut cache = ShardedCache::new(config.max_nodes, node_config.cache_config());

        // Warm the shards off-line via the affinity placement map (not
        // `route`, which would count warmup traffic in the per-node routed
        // metrics — and, under LeastLoaded's uniform tie-break, pile every
        // warmup image onto node 0).
        for req in trace.iter().take(options.warmup) {
            let emb = encoder.encode(&req.prompt);
            let shard = router.shard_for(&emb);
            let img = sampler.generate_for(node_config.large_model, &emb, req.id, &mut rng);
            cache
                .shard_mut(shard)
                .insert_for(SimTime::ZERO, req.tenant, img);
        }
        let requests = &trace.requests()[options.warmup..];
        let base = requests.first().map_or(SimTime::ZERO, |r| r.arrival);

        let mut nodes: Vec<Option<ServingNode>> = (0..config.max_nodes).map(|_| None).collect();
        let mut lifecycle = Vec::with_capacity(config.max_nodes);
        let mut gpu_since = vec![None; config.max_nodes];
        for id in 0..config.max_nodes {
            if id < config.initial_nodes {
                nodes[id] = Some(ServingNode::new(node_config, id));
                lifecycle.push(NodeLifecycle::new(NodeState::Active, SimTime::ZERO));
                gpu_since[id] = Some(SimTime::ZERO);
            } else {
                lifecycle.push(NodeLifecycle::new(NodeState::Decommissioned, SimTime::ZERO));
            }
        }

        let mut events = EventQueue::with_capacity(requests.len() + 64);
        let next_admission = if options.saturate {
            let workers = config.initial_nodes * node_config.num_gpus;
            let initial = (workers * SATURATION_BACKLOG_PER_WORKER).min(requests.len());
            for i in 0..initial {
                events.schedule(SimTime::ZERO, Event::Arrival(i));
            }
            initial
        } else {
            for (i, r) in requests.iter().enumerate() {
                events.schedule(
                    SimTime::ZERO + r.arrival.saturating_since(base),
                    Event::Arrival(i),
                );
            }
            requests.len()
        };
        for id in 0..config.initial_nodes {
            events.schedule(
                SimTime::ZERO + node_config.monitor_period,
                Event::MonitorTick { node: id, epoch: 0 },
            );
        }
        events.schedule(SimTime::ZERO + config.control_period, Event::ControlTick);
        for (k, &at) in faults.crash_times().iter().enumerate() {
            events.schedule(at, Event::Crash(k));
        }

        let slo = SloThresholds::for_deployment(node_config.gpu, node_config.large_model);
        ElasticRun {
            config,
            scaler,
            faults,
            requests,
            saturate: options.saturate,
            next_admission,
            encoder,
            sampler,
            rng,
            router,
            loads: vec![0.0; config.max_nodes],
            cache,
            nodes,
            lifecycle,
            epoch: vec![0; config.max_nodes],
            events,
            redeliveries: Vec::new(),
            pending_redeliveries: 0,
            arrivals_pending: requests.len(),
            latency: LatencyReport::new(),
            throughput: ThroughputReport::new(),
            hits: 0,
            misses: 0,
            rejected: 0,
            shed: 0,
            tenants: BTreeMap::new(),
            slo_bound_secs: slo.bound_secs(config.slo_multiple),
            slo,
            finished_at: SimTime::ZERO,
            win_arrivals: 0,
            win_completions: 0,
            win_hits: 0,
            win_violations: 0,
            gpu_since,
            gpu_secs: vec![0.0; config.max_nodes],
            log: Vec::new(),
            windows: Vec::new(),
            obs,
        }
    }

    /// The shards, as the run left them.
    #[cfg(test)]
    pub(crate) fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Runs the event loop to exhaustion, then closes GPU metering and
    /// harvests the surviving nodes' overload counters.
    pub(crate) fn execute(mut self) -> Self {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Arrival(i) => {
                    let requests = self.requests;
                    let request = &requests[i];
                    // An open-loop arrival fires at its re-based time.
                    let arrival = if self.saturate { SimTime::ZERO } else { now };
                    let incoming = IncomingRequest {
                        request_id: request.id,
                        arrival,
                        tenant: request.tenant,
                        qos: request.qos,
                        prompt_embedding: self.encoder.encode(&request.prompt),
                    };
                    let node = self.route_to_node(now, incoming);
                    self.arrivals_pending -= 1;
                    self.dispatch(now, node);
                }
                Event::Redeliver(i) => {
                    let incoming = self.redeliveries[i].take().expect("redelivered once");
                    let node = self.route_to_node(now, incoming);
                    self.pending_redeliveries -= 1;
                    self.dispatch(now, node);
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
                    let period = self.config.node_config.monitor_period;
                    self.nodes[node].as_mut().unwrap().monitor_tick(now, period);
                    let busy = self.nodes[node].as_ref().unwrap().busy();
                    // Keep ticking while this node may still see work: any
                    // pending arrival could route here, or it is draining.
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
                        .schedule(now + self.config.warm_delay, Event::Warmed { node, epoch });
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
            }
        }
        let end = self.finished_at;
        for node in 0..self.config.max_nodes {
            self.end_gpu(node, end);
        }
        for node in self.nodes.iter().flatten() {
            Self::harvest_overload(&mut self.rejected, &mut self.shed, &mut self.tenants, node);
        }
        self
    }

    fn work_pending(&self) -> bool {
        self.arrivals_pending > 0 || self.pending_redeliveries > 0
    }

    /// Closed-loop saturation: schedules the next request's arrival at
    /// `at`. A no-op in an open loop, or once the trace is exhausted.
    fn admit_next(&mut self, at: SimTime) {
        if self.next_admission < self.requests.len() {
            self.events
                .schedule(at, Event::Arrival(self.next_admission));
            self.next_admission += 1;
        }
    }

    /// Routes one request (fresh or re-delivered) onto an active node and
    /// offers it there: the node's admission runs first, and only an
    /// admitted request decides hit/miss against that node's shard (a
    /// refused one never probes it). Returns the chosen node.
    fn route_to_node(&mut self, now: SimTime, incoming: IncomingRequest) -> usize {
        if self.router.needs_loads() {
            for (load, node) in self.loads.iter_mut().zip(&self.nodes) {
                *load = node.as_ref().map_or(0.0, ServingNode::load);
            }
        }
        let node_idx = self.router.route(&incoming.prompt_embedding, &self.loads);
        debug_assert!(
            self.lifecycle[node_idx].state().accepts_traffic(),
            "routed to node {node_idx} in state {:?}",
            self.lifecycle[node_idx].state()
        );
        let shard = self.cache.shard_mut(node_idx);
        let shift = self.config.node_config.threshold_shift;
        let outcome = self.nodes[node_idx]
            .as_mut()
            .expect("active node exists")
            .enqueue(
                now,
                incoming,
                |e| route_against_cache(shard, now, e, shift),
                self.obs.as_deref_mut(),
            );
        // The control window sees admitted work only: refused requests
        // are being deliberately turned away, so they must not drive the
        // autoscaler toward capacity the policy chose not to serve.
        if outcome.is_accepted() {
            self.win_arrivals += 1;
        }
        // Closed-loop saturation: a refused admission frees its backlog
        // slot (it will never complete); the replacement arrives after
        // the refusal's retry-after hint, like a backing-off client.
        if let Some(retry_after_secs) = outcome.retry_after_secs() {
            self.admit_next(now + SimDuration::from_secs_f64(retry_after_secs));
        }
        node_idx
    }

    /// Merges a node incarnation's refusal/shed counters into the
    /// fleet-level accounting. Must run exactly once per incarnation,
    /// right before its serving state is dropped (decommission, crash)
    /// or at the end of the run for nodes still alive.
    fn harvest_overload(
        rejected: &mut u64,
        shed: &mut u64,
        tenants: &mut BTreeMap<TenantId, TenantSlice>,
        node: &ServingNode,
    ) {
        *rejected += node.rejected();
        *shed += node.shed();
        for (tenant, qos, node_rejected, node_shed) in node.tenant_overload() {
            tenants
                .entry(tenant)
                .or_insert_with(|| TenantSlice::new(tenant, qos))
                .absorb_overload(node_rejected, node_shed);
        }
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
        self.latency.record(inflight.routed.arrival, now);
        self.throughput.record_completion(now);
        self.win_completions += 1;
        let slice = self
            .tenants
            .entry(inflight.routed.tenant)
            .or_insert_with(|| TenantSlice::new(inflight.routed.tenant, inflight.routed.qos));
        slice.qos = inflight.routed.qos;
        slice.completed += 1;
        slice.latency.record(inflight.routed.arrival, now);
        match inflight.routed.route {
            RouteKind::Hit { .. } => {
                self.hits += 1;
                self.win_hits += 1;
                slice.hits += 1;
            }
            RouteKind::Miss => {
                self.misses += 1;
                slice.misses += 1;
            }
        }
        if now.saturating_since(inflight.routed.arrival).as_secs_f64() > self.slo_bound_secs {
            self.win_violations += 1;
        }
        self.finished_at = self.finished_at.max(now);
        let admit = match self.config.node_config.admission {
            AdmissionPolicy::CacheAll => true,
            AdmissionPolicy::CacheLarge => image.is_full_generation(),
        };
        if admit {
            self.cache
                .shard_mut(node_idx)
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
        let shed_before = node.shed();
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
            self.obs.as_deref_mut(),
        );
        // Closed-loop saturation: like refusals, sheds complete nothing
        // — each one must release its backlog slot or the closed loop
        // drains (and, past the prime depth, stalls).
        for _ in shed_before..node.shed() {
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
        let obs = ScalerObservation {
            arrival_rate_per_min: self.win_arrivals as f64
                / self.config.control_period.as_mins_f64(),
            queue_depth_per_node: mean_queue,
            slo_violation_rate: if self.win_completions == 0 {
                0.0
            } else {
                self.win_violations as f64 / self.win_completions as f64
            },
            active_nodes: active.len(),
            min_nodes: self.config.min_nodes,
            max_nodes: self.config.max_nodes,
        };
        let decision = self.scaler.decide(&obs);
        self.windows.push(WindowSample {
            end: now,
            arrival_rate_per_min: obs.arrival_rate_per_min,
            completions: self.win_completions,
            hits: self.win_hits,
            slo_violations: self.win_violations,
            active_nodes: active.len(),
            mean_queue_depth: mean_queue,
            decision,
        });
        self.win_arrivals = 0;
        self.win_completions = 0;
        self.win_hits = 0;
        self.win_violations = 0;
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => self.scale_up(now, n),
            ScaleDecision::Down(n) => self.scale_down(now, n),
        }
        if self.work_pending() || self.any_node_busy() {
            self.events
                .schedule(now + self.config.control_period, Event::ControlTick);
        }
    }

    fn active_nodes(&self) -> Vec<usize> {
        (0..self.config.max_nodes)
            .filter(|&id| self.lifecycle[id].state() == NodeState::Active)
            .collect()
    }

    fn any_node_busy(&self) -> bool {
        self.nodes.iter().flatten().any(|n| n.busy())
    }

    fn scale_up(&mut self, now: SimTime, n: usize) {
        for _ in 0..n {
            // Committed capacity: everything on its way to (or at) Active.
            let committed = (0..self.config.max_nodes)
                .filter(|&id| {
                    matches!(
                        self.lifecycle[id].state(),
                        NodeState::Provisioning | NodeState::Warming | NodeState::Active
                    )
                })
                .count();
            if committed >= self.config.max_nodes {
                break;
            }
            // Lowest decommissioned id becomes the new node (failed nodes
            // recover on their own schedule).
            let Some(spare) = (0..self.config.max_nodes)
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
            now + self.config.provision_delay,
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
        self.nodes[node] = Some(ServingNode::new(&self.config.node_config, node));
        self.router.add_node(node);
        let prewarmed = self.cache.pull_routed(now, node, &mut self.router);
        self.events.schedule(
            now + self.config.node_config.monitor_period,
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
            if active.len() <= self.config.min_nodes {
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
            self.router.remove_node(victim);
            self.transition(victim, NodeState::Draining, now);
            // Cache handoff: the hottest entries follow their keyspace to
            // the ring successors (the ring no longer contains the victim,
            // so its affinity map is exactly the successor map).
            let resident = self.cache.shard(victim).len();
            let count = (resident as f64 * self.config.handoff_fraction).ceil() as usize;
            let handoff = self
                .cache
                .handoff_routed(now, victim, count, &mut self.router);
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
        if let Some(n) = self.nodes[node].as_ref() {
            Self::harvest_overload(&mut self.rejected, &mut self.shed, &mut self.tenants, n);
        }
        self.nodes[node] = None;
        // The cold tail the handoff left behind dies with the shard.
        drop(self.cache.shard_mut(node).drain_images());
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
        self.router.remove_node(victim);
        self.transition(victim, NodeState::Failed, now);
        self.epoch[victim] += 1;
        let mut node = self.nodes[victim].take().expect("crashing node existed");
        Self::harvest_overload(&mut self.rejected, &mut self.shed, &mut self.tenants, &node);
        let pending = node.drain_pending();
        let lost = self.cache.shard_mut(victim).drain_images().len();
        self.end_gpu(victim, now);
        let redelivered = pending.len();
        for routed in pending {
            let idx = self.redeliveries.len();
            self.redeliveries.push(Some(IncomingRequest {
                request_id: routed.request_id,
                arrival: routed.arrival,
                tenant: routed.tenant,
                qos: routed.qos,
                prompt_embedding: routed.prompt_embedding,
            }));
            self.pending_redeliveries += 1;
            self.events.schedule(now, Event::Redeliver(idx));
        }
        self.log.push(FleetEvent {
            at: now,
            kind: FleetEventKind::Crash {
                node: victim,
                lost_entries: lost,
                redelivered,
            },
        });
        emit(&mut self.obs, now, || SimEvent::Crash {
            node: victim,
            redelivered,
            lost_entries: lost,
        });
        self.events.schedule(
            now + self.faults.recovery_delay(),
            Event::Recover {
                node: victim,
                epoch: self.epoch[victim],
            },
        );
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

    /// The elastic view of an executed run: fleet-wide counters, GPU-hours,
    /// the control-plane log and the per-window series.
    pub(crate) fn into_elastic_report(self) -> ElasticReport {
        let gpu_hours =
            self.gpu_secs.iter().sum::<f64>() * self.config.node_config.num_gpus as f64 / 3600.0;
        ElasticReport {
            scaler: self.scaler.name(),
            completed: self.throughput.completed(),
            hits: self.hits,
            misses: self.misses,
            rejected: self.rejected,
            shed: self.shed,
            latency: self.latency,
            slo: self.slo,
            slo_multiple: self.config.slo_multiple,
            gpu_hours,
            events: self.log,
            windows: self.windows,
            routed_per_node: self.router.routed_per_node().to_vec(),
            tenant_slices: self.tenants.into_values().collect(),
            finished_at: self.finished_at,
        }
    }

    /// The fixed-fleet view of an executed run: one [`NodeReport`] per
    /// node id, the shard-cache summary and the fleet-wide aggregates.
    ///
    /// # Panics
    ///
    /// Panics if a node id has no serving state at the end of the run,
    /// which only a scale-down or a crash can cause.
    pub(crate) fn into_fleet_report(self) -> FleetReport {
        let finished_at = self.finished_at;
        let slo = self.slo;
        let routed = self.router.routed_per_node();
        let cache_summary = self.cache.summary();
        let mut cache = self.cache;
        let nodes: Vec<NodeReport> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| NodeReport {
                node: i,
                routed: routed[i],
                report: node.expect("a fixed fleet keeps every node").into_report(
                    finished_at,
                    slo,
                    cache.shard_mut(i).stats().clone(),
                ),
            })
            .collect();
        FleetReport {
            policy: self.router.policy(),
            nodes,
            latency: self.latency,
            throughput: self.throughput,
            cache: cache_summary,
            tenant_slices: self.tenants.into_values().collect(),
            finished_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use modm_cache::ImageCache;
    use modm_cluster::GpuKind;
    use modm_core::config::MoDMConfig;
    use modm_core::fairqueue::{TenancyPolicy, TenantShare};
    use modm_core::kselect::HIT_THRESHOLD;
    use modm_fleet::RoutingPolicy;
    use modm_workload::{QosClass, TenantMix, TraceBuilder};

    use super::*;
    use crate::autoscaler::HoldAutoscaler;
    use crate::elastic::{ElasticFleet, ELASTIC_SALT};
    use crate::fleet::Fleet;

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
        let config = ElasticFleetConfig::new(node, 1, 1, 1);
        let trace = TraceBuilder::diffusion_db(5).requests(40).build();
        let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
        let options = RunOptions {
            warmup: 30,
            saturate: false,
        };
        let router = Router::new(config.policy, 1);
        let mut run = ElasticRun::new(
            &config,
            router,
            &trace,
            options,
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
            .find(|e| run.cache.shard(0).peek(e, HIT_THRESHOLD).is_some())
            .expect("a retrievable warm image");
        let offer = |request_id| IncomingRequest {
            request_id,
            arrival: SimTime::ZERO,
            tenant: TenantId(2),
            qos: QosClass::Standard,
            prompt_embedding: embedding.clone(),
        };
        let node = |run: &ElasticRun| {
            let node = run.nodes[0].as_ref().expect("node 0 is active");
            (node.hits(), node.rejected())
        };

        run.route_to_node(SimTime::from_secs_f64(60.0), offer(1_000));
        assert_eq!(node(&run), (1, 0), "the admitted offer hits");
        let before = probe_state(run.cache.shard(0));
        run.route_to_node(SimTime::from_secs_f64(120.0), offer(1_001));
        assert_eq!(node(&run), (1, 1), "the second offer is refused");
        assert_eq!(probe_state(run.cache.shard(0)), before);
    }

    fn latency_quantiles(latency: &mut LatencyReport) -> [Option<f64>; 3] {
        [
            latency.quantile_secs(0.5),
            latency.quantile_secs(0.99),
            latency.quantile_secs(1.0),
        ]
    }

    #[test]
    fn fixed_fleet_and_holding_elastic_fleet_agree() {
        // The cross-view oracle: one static configuration, one salt, run
        // once through the fixed fleet's constructor (its router template,
        // the fleet view) and once through the elastic fleet's (a router
        // built from the policy, the elastic view).
        const NODES: usize = 3;
        let trace = TraceBuilder::diffusion_db(77)
            .requests(400)
            .tenants(vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
                TenantMix::new(TenantId(2), QosClass::BestEffort, 16.0),
            ])
            .build();
        let policy = RoutingPolicy::HybridAffinity;
        let fleet = Fleet::new(overloaded_node(), Router::new(policy, NODES)).serve(
            &trace,
            RunOptions::default(),
            ELASTIC_SALT,
            None,
        );
        let mut elastic = ElasticFleet::new(ElasticFleetConfig {
            policy,
            ..ElasticFleetConfig::new(overloaded_node(), NODES, NODES, NODES)
        })
        .run(&trace, &mut HoldAutoscaler);

        assert!(elastic.rejected > 0, "token buckets must refuse");
        assert!(elastic.shed > 0, "the queue budget must shed");
        assert!(elastic.events.is_empty(), "a holding fleet never scales");
        assert_eq!(fleet.completed(), elastic.completed);
        // A fleet report counts hits and misses as routed (shed work
        // included); the elastic report counts completions, as the
        // fleet's tenant slices do.
        let served =
            |kind: fn(&TenantSlice) -> u64| fleet.tenant_slices.iter().map(kind).sum::<u64>();
        assert_eq!(served(|s| s.hits), elastic.hits);
        assert_eq!(served(|s| s.misses), elastic.misses);
        assert_eq!(fleet.rejected(), elastic.rejected);
        assert_eq!(fleet.shed(), elastic.shed);
        let routed: Vec<u64> = fleet.nodes.iter().map(|n| n.routed).collect();
        assert_eq!(routed, elastic.routed_per_node);
        let mut fleet_latency = fleet.latency.clone();
        assert_eq!(
            latency_quantiles(&mut fleet_latency),
            latency_quantiles(&mut elastic.latency)
        );
        assert_eq!(fleet.tenant_slices.len(), elastic.tenant_slices.len());
        for (f, e) in fleet.tenant_slices.iter().zip(&elastic.tenant_slices) {
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
            assert_eq!(counts(f), counts(e));
            let (mut fl, mut el) = (f.latency.clone(), e.latency.clone());
            assert_eq!(latency_quantiles(&mut fl), latency_quantiles(&mut el));
        }
        assert_eq!(fleet.finished_at, elastic.finished_at);
        let gpus = NODES * overloaded_node().num_gpus;
        let expect = gpus as f64 * elastic.finished_at.as_secs_f64() / 3600.0;
        assert!(
            ((elastic.gpu_hours - expect) / expect).abs() < 1e-9,
            "{} GPU-h vs {expect}",
            elastic.gpu_hours
        );
    }
}
