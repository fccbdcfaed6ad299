//! The elastic fleet: a MoDM fleet whose node count is a control variable.
//!
//! [`ElasticFleet`] runs the same discrete-event simulation as
//! `modm_fleet::Fleet` — per-node [`ServingNode`]s behind a [`Router`],
//! one shard per node — but adds the control plane on top:
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

use std::collections::BTreeMap;
use std::fmt;

use modm_core::config::{AdmissionPolicy, MoDMConfig};
use modm_core::events::{emit, Obs, Observer, SimEvent};
use modm_core::node::{render_completion, NodeInFlight, ServingNode};
use modm_core::report::TenantSlice;
use modm_core::scheduler::{route_against_cache, RouteKind, RoutedRequest};
use modm_diffusion::{QualityModel, Sampler};
use modm_embedding::{Embedding, SemanticSpace, TextEncoder};
use modm_fleet::{Router, RoutingPolicy, ShardedCache};
use modm_metrics::{LatencyReport, SloThresholds};
use modm_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use modm_workload::{QosClass, Request, TenantId, Trace};

use crate::autoscaler::{Autoscaler, ScaleDecision, ScalerObservation};
use crate::fault::FaultInjector;
use crate::lifecycle::{NodeLifecycle, NodeState};
use crate::report::{ElasticReport, FleetEvent, FleetEventKind, WindowSample};

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
        scaler.reset();
        ElasticRun::new(&self.config, trace, scaler, faults, None).execute()
    }

    /// Serves `trace` under `scaler` and `faults` while streaming every
    /// [`SimEvent`] to `observer`: the
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
        scaler.reset();
        ElasticRun::new(&self.config, trace, scaler, faults, Some(observer)).execute()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Trace request `idx` reaches the front-end.
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

/// A request that outlived its node and awaits re-routing.
#[derive(Debug, Clone)]
struct Redelivery {
    request_id: u64,
    arrival: SimTime,
    tenant: TenantId,
    qos: QosClass,
    embedding: Embedding,
}

struct ElasticRun<'a> {
    config: &'a ElasticFleetConfig,
    scaler: &'a mut dyn Autoscaler,
    faults: &'a FaultInjector,
    requests: Vec<Request>,
    encoder: TextEncoder,
    sampler: Sampler,
    rng: SimRng,
    router: Router,
    cache: ShardedCache,
    nodes: Vec<Option<ServingNode>>,
    lifecycle: Vec<NodeLifecycle>,
    /// Incarnation counter per node id; events from dead incarnations are
    /// dropped on arrival.
    epoch: Vec<u64>,
    events: EventQueue<Event>,
    redeliveries: Vec<Option<Redelivery>>,
    pending_redeliveries: usize,
    arrivals_pending: usize,
    // Fleet-wide metrics (completion-based, so every request counts once
    // even if a crash re-routed it).
    latency: LatencyReport,
    completed: u64,
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
    obs: Obs<'a, 'a>,
}

impl<'a> ElasticRun<'a> {
    fn new(
        config: &'a ElasticFleetConfig,
        trace: &Trace,
        scaler: &'a mut dyn Autoscaler,
        faults: &'a FaultInjector,
        obs: Obs<'a, 'a>,
    ) -> Self {
        let node_config = &config.node_config;
        let space = SemanticSpace::default();
        let encoder = TextEncoder::new(space.clone());
        let quality_model = QualityModel::new(space, node_config.seed, trace.dataset().fid_floor());
        let sampler = Sampler::new(quality_model);
        let rng = SimRng::seed_from(node_config.seed ^ 0x454C_4153); // "ELAS"
        let router = Router::new(config.policy, config.initial_nodes);
        let cache = ShardedCache::new(config.max_nodes, node_config.cache_config());

        // Re-base arrivals to start at zero.
        let base = trace
            .requests()
            .first()
            .map_or(SimTime::ZERO, |r| r.arrival);
        let requests: Vec<Request> = trace
            .iter()
            .map(|r| r.rebased(SimTime::ZERO + r.arrival.saturating_since(base)))
            .collect();

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
        for (i, r) in requests.iter().enumerate() {
            events.schedule(r.arrival, Event::Arrival(i));
        }
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
        let arrivals_pending = requests.len();
        ElasticRun {
            config,
            scaler,
            faults,
            requests,
            encoder,
            sampler,
            rng,
            router,
            cache,
            nodes,
            lifecycle,
            epoch: vec![0; config.max_nodes],
            events,
            redeliveries: Vec::new(),
            pending_redeliveries: 0,
            arrivals_pending,
            latency: LatencyReport::new(),
            completed: 0,
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

    fn execute(mut self) -> ElasticReport {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Arrival(i) => {
                    let request = self.requests[i].clone();
                    let embedding = self.encoder.encode(&request.prompt);
                    let node = self.route_to_node(
                        now,
                        request.id,
                        request.arrival,
                        request.tenant,
                        request.qos,
                        &embedding,
                    );
                    self.arrivals_pending -= 1;
                    self.dispatch(now, node);
                }
                Event::Redeliver(i) => {
                    let r = self.redeliveries[i].take().expect("redelivered once");
                    let node = self.route_to_node(
                        now,
                        r.request_id,
                        r.arrival,
                        r.tenant,
                        r.qos,
                        &r.embedding,
                    );
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
        self.finish()
    }

    fn work_pending(&self) -> bool {
        self.arrivals_pending > 0 || self.pending_redeliveries > 0
    }

    /// Routes one request (fresh or re-delivered) onto an active node and
    /// into its queues, deciding hit/miss against that node's shard.
    fn route_to_node(
        &mut self,
        now: SimTime,
        request_id: u64,
        arrival: SimTime,
        tenant: TenantId,
        qos: QosClass,
        embedding: &Embedding,
    ) -> usize {
        let mut loads = vec![0.0; self.config.max_nodes];
        for (id, node) in self.nodes.iter().enumerate() {
            if let Some(n) = node {
                loads[id] = n.load();
            }
        }
        let node_idx = self.router.route(embedding, &loads);
        debug_assert!(
            self.lifecycle[node_idx].state().accepts_traffic(),
            "routed to node {node_idx} in state {:?}",
            self.lifecycle[node_idx].state()
        );
        let route = route_against_cache(
            self.cache.shard_mut(node_idx),
            now,
            embedding,
            self.config.node_config.threshold_shift,
        );
        let routed = RoutedRequest {
            request_id,
            arrival,
            tenant,
            qos,
            prompt_embedding: embedding.clone(),
            route,
        };
        let outcome = self.nodes[node_idx]
            .as_mut()
            .expect("active node exists")
            .enqueue(now, routed, self.obs.as_deref_mut());
        // The control window sees admitted work only: refused requests
        // are being deliberately turned away, so they must not drive the
        // autoscaler toward capacity the policy chose not to serve.
        if outcome.is_accepted() {
            self.win_arrivals += 1;
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
        self.completed += 1;
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
    }

    fn dispatch(&mut self, now: SimTime, node_idx: usize) {
        let Some(node) = self.nodes[node_idx].as_mut() else {
            return;
        };
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
            self.redeliveries.push(Some(Redelivery {
                request_id: routed.request_id,
                arrival: routed.arrival,
                tenant: routed.tenant,
                qos: routed.qos,
                embedding: routed.prompt_embedding,
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

    fn finish(mut self) -> ElasticReport {
        let end = self.finished_at;
        for node in 0..self.config.max_nodes {
            self.end_gpu(node, end);
        }
        for node in self.nodes.iter().flatten() {
            Self::harvest_overload(&mut self.rejected, &mut self.shed, &mut self.tenants, node);
        }
        let gpu_hours =
            self.gpu_secs.iter().sum::<f64>() * self.config.node_config.num_gpus as f64 / 3600.0;
        ElasticReport {
            scaler: self.scaler.name(),
            completed: self.completed,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::{HoldAutoscaler, ScheduledAutoscaler};
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
            let run = ElasticRun::new(&config, &trace, &mut scaler, &faults, None);
            for shard in 0..run.cache.num_shards() {
                assert_eq!(run.cache.shard(shard).index_backend(), backend);
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
