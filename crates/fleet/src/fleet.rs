//! The fleet: N MoDM serving nodes behind one router, simulated as a
//! single discrete-event system.
//!
//! Each node is a full MoDM deployment in miniature — its own GPU workers,
//! global monitor, hit/miss queues and cache shard — while arrivals,
//! routing and completions interleave on one shared virtual clock. The
//! per-node mechanics are [`modm_core::node::ServingNode`], the same
//! component `modm_core::ServingSystem`'s event loop runs, lifted to
//! `(node, event)` pairs, so fleet runs remain exactly deterministic under
//! a fixed seed.

use std::collections::BTreeMap;

use modm_core::config::{AdmissionPolicy, MoDMConfig};
use modm_core::events::{Obs, Observer};
use modm_core::node::{render_completion, NodeInFlight, ServingNode};
use modm_core::report::TenantSlice;
use modm_core::scheduler::{route_against_cache, RouteKind, RoutedRequest};
use modm_diffusion::{QualityModel, Sampler};
use modm_embedding::{SemanticSpace, TextEncoder};
use modm_metrics::{LatencyReport, SloThresholds, ThroughputReport};
use modm_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use modm_workload::{Request, TenantId, Trace};

use crate::report::{FleetReport, NodeReport};
use crate::router::Router;
use crate::shard::ShardedCache;

/// Options controlling a fleet run (mirrors `modm_core::RunOptions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetRunOptions {
    /// Leading trace requests used only to warm the shards (placed by the
    /// affinity map, generated off-line by the large model, excluded from
    /// all metrics including per-node routed counts).
    pub warmup: usize,
    /// Ignore arrival timestamps and keep every node saturated
    /// (closed-loop admission, as in the paper's max-throughput runs).
    pub saturate: bool,
}

/// Closed-loop backlog depth per worker under saturation.
const SATURATION_BACKLOG_PER_WORKER: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Request `idx` reaches the front-end router.
    Arrival(usize),
    /// Worker `worker` on `node` finishes its job (or model switch).
    WorkerFree { node: usize, worker: usize },
    /// Node-local global-monitor tick.
    MonitorTick(usize),
}

/// A simulated fleet of MoDM nodes behind a request router.
///
/// Every node runs `node_config` (so a `Fleet` over `router.nodes()` nodes
/// deploys `nodes * node_config.num_gpus` GPUs and shards
/// `nodes * node_config.cache_capacity` cache entries). Each
/// [`Fleet::run`] builds fresh state, so runs are independent and
/// deterministic.
///
/// # Example
///
/// ```
/// use modm_fleet::{Fleet, Router, RoutingPolicy};
/// use modm_core::MoDMConfig;
/// use modm_cluster::GpuKind;
/// use modm_workload::TraceBuilder;
///
/// let trace = TraceBuilder::diffusion_db(7).requests(120).rate_per_min(12.0).build();
/// let node = MoDMConfig::builder().gpus(GpuKind::Mi210, 4).cache_capacity(500).build();
/// let fleet = Fleet::new(node, Router::new(RoutingPolicy::CacheAffinity, 4));
/// let report = fleet.run(&trace);
/// assert_eq!(report.completed(), 120);
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    node_config: MoDMConfig,
    router: Router,
}

impl Fleet {
    /// Creates a fleet where every one of `router.nodes()` nodes runs
    /// `node_config`.
    pub fn new(node_config: MoDMConfig, router: Router) -> Self {
        Fleet {
            node_config,
            router,
        }
    }

    /// The per-node configuration.
    pub fn node_config(&self) -> &MoDMConfig {
        &self.node_config
    }

    /// The router template runs start from.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.router.nodes()
    }

    /// Total GPUs across the fleet.
    pub fn total_gpus(&self) -> usize {
        self.nodes() * self.node_config.num_gpus
    }

    /// Serves the trace with default options.
    pub fn run(&self, trace: &Trace) -> FleetReport {
        self.run_with(trace, FleetRunOptions::default())
    }

    /// Serves the trace with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub fn run_with(&self, trace: &Trace, options: FleetRunOptions) -> FleetReport {
        assert!(
            options.warmup < trace.len(),
            "warmup consumes the whole trace"
        );
        FleetRun::new(self, trace, options, None).execute()
    }

    /// Serves the trace while streaming every
    /// [`SimEvent`](modm_core::events::SimEvent) — admissions, per-shard
    /// cache decisions, dispatches and completions, tagged with the node
    /// that produced them — to `observer`. Identical results to
    /// [`Fleet::run_with`]: observation never perturbs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub fn run_observed(
        &self,
        trace: &Trace,
        options: FleetRunOptions,
        observer: &mut dyn Observer,
    ) -> FleetReport {
        assert!(
            options.warmup < trace.len(),
            "warmup consumes the whole trace"
        );
        FleetRun::new(self, trace, options, Some(observer)).execute()
    }
}

struct FleetRun<'a> {
    config: &'a MoDMConfig,
    router: Router,
    nodes: Vec<ServingNode>,
    cache: ShardedCache,
    requests: Vec<Request>,
    encoder: TextEncoder,
    sampler: Sampler,
    events: EventQueue<Event>,
    rng: SimRng,
    // Fleet-wide metrics.
    latency: LatencyReport,
    throughput: ThroughputReport,
    /// Fleet-level per-tenant accounting (completion-based, like the
    /// fleet-wide latency).
    tenants: BTreeMap<TenantId, TenantSlice>,
    finished_at: SimTime,
    arrivals_pending: usize,
    saturate: bool,
    next_admission: usize,
    obs: Obs<'a, 'a>,
}

impl<'a> FleetRun<'a> {
    fn new(fleet: &'a Fleet, trace: &Trace, options: FleetRunOptions, obs: Obs<'a, 'a>) -> Self {
        let config = &fleet.node_config;
        let n_nodes = fleet.nodes();
        let space = SemanticSpace::default();
        let encoder = TextEncoder::new(space.clone());
        let quality_model = QualityModel::new(space, config.seed, trace.dataset().fid_floor());
        let sampler = Sampler::new(quality_model);
        let mut rng = SimRng::seed_from(config.seed ^ 0x464C_5452); // "FLTR"
        let mut router = fleet.router.clone();
        let mut cache = ShardedCache::new(n_nodes, config.cache_config());

        // Warm the shards off-line via the affinity placement map (not
        // `route`, which would count warmup traffic in the per-node routed
        // metrics — and, under LeastLoaded's uniform tie-break, pile every
        // warmup image onto node 0).
        for req in trace.iter().take(options.warmup) {
            let emb = encoder.encode(&req.prompt);
            let shard = router.shard_for(&emb);
            let img = sampler.generate_for(config.large_model, &emb, req.id, &mut rng);
            cache
                .shard_mut(shard)
                .insert_for(SimTime::ZERO, req.tenant, img);
        }

        // Re-base the serving-phase arrivals to start at zero (or collapse
        // them entirely in saturation mode).
        let serving = &trace.requests()[options.warmup..];
        let base = serving.first().map_or(SimTime::ZERO, |r| r.arrival);
        let requests: Vec<Request> = serving
            .iter()
            .map(|r| {
                let arrival = if options.saturate {
                    SimTime::ZERO
                } else {
                    SimTime::ZERO + r.arrival.saturating_since(base)
                };
                r.rebased(arrival)
            })
            .collect();

        let nodes: Vec<ServingNode> = (0..n_nodes)
            .map(|id| ServingNode::new(config, id))
            .collect();
        let total_workers = n_nodes * config.num_gpus;

        let mut events = EventQueue::with_capacity(requests.len() + 64);
        let admitted = if options.saturate {
            let initial = (total_workers * SATURATION_BACKLOG_PER_WORKER).min(requests.len());
            for i in 0..initial {
                events.schedule(SimTime::ZERO, Event::Arrival(i));
            }
            initial
        } else {
            for (i, r) in requests.iter().enumerate() {
                events.schedule(r.arrival, Event::Arrival(i));
            }
            requests.len()
        };
        for node in 0..n_nodes {
            events.schedule(
                SimTime::ZERO + config.monitor_period,
                Event::MonitorTick(node),
            );
        }

        let arrivals_pending = requests.len();
        FleetRun {
            config,
            router,
            nodes,
            cache,
            requests,
            encoder,
            sampler,
            events,
            rng,
            latency: LatencyReport::new(),
            throughput: ThroughputReport::new(),
            tenants: BTreeMap::new(),
            finished_at: SimTime::ZERO,
            arrivals_pending,
            saturate: options.saturate,
            next_admission: admitted,
            obs,
        }
    }

    fn execute(mut self) -> FleetReport {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Arrival(i) => {
                    let node = self.on_arrival(now, i);
                    self.dispatch(now, node);
                }
                Event::WorkerFree { node, worker } => {
                    self.on_worker_free(now, node, worker);
                    self.dispatch(now, node);
                }
                Event::MonitorTick(node) => {
                    self.on_monitor_tick(now, node);
                    self.dispatch(now, node);
                }
            }
        }
        self.finish()
    }

    /// Routes one request through the front-end and into a node's queues;
    /// returns the chosen node.
    fn on_arrival(&mut self, now: SimTime, idx: usize) -> usize {
        let request = self.requests[idx].clone();
        let embedding = self.encoder.encode(&request.prompt);
        let loads: Vec<f64> = if self.router.needs_loads() {
            self.nodes.iter().map(ServingNode::load).collect()
        } else {
            Vec::new()
        };
        let node_idx = self.router.route(&embedding, &loads);

        // Node-local scheduling: consult the node's shard, pick k (the
        // same decision rule as the monolithic scheduler).
        let route = route_against_cache(
            self.cache.shard_mut(node_idx),
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
        let outcome = self.nodes[node_idx].enqueue(now, routed, self.obs.as_deref_mut());
        self.arrivals_pending -= 1;
        // Closed-loop saturation: a refused admission frees its backlog
        // slot (it will never complete); the replacement arrives after
        // the refusal's retry-after hint, like a backing-off client.
        if let Some(retry_after_secs) = outcome.retry_after_secs() {
            if self.saturate && self.next_admission < self.requests.len() {
                let retry = now + SimDuration::from_secs_f64(retry_after_secs);
                self.events
                    .schedule(retry, Event::Arrival(self.next_admission));
                self.next_admission += 1;
            }
        }
        node_idx
    }

    fn on_worker_free(&mut self, now: SimTime, node: usize, worker: usize) {
        if let Some(inflight) = self.nodes[node].take_finished(worker) {
            self.complete(now, node, inflight);
        }
    }

    fn on_monitor_tick(&mut self, now: SimTime, node_idx: usize) {
        self.nodes[node_idx].monitor_tick(now, self.config.monitor_period);
        // Keep ticking while this node may still see work: requests are
        // still arriving fleet-wide (any of them could route here) or the
        // node itself is draining.
        if self.arrivals_pending > 0 || self.nodes[node_idx].busy() {
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
        self.nodes[node_idx].record_completion(
            now,
            &inflight.routed,
            &image,
            self.obs.as_deref_mut(),
        );
        self.latency.record(inflight.routed.arrival, now);
        self.throughput.record_completion(now);
        let slice = self
            .tenants
            .entry(inflight.routed.tenant)
            .or_insert_with(|| TenantSlice::new(inflight.routed.tenant, inflight.routed.qos));
        slice.qos = inflight.routed.qos;
        slice.completed += 1;
        slice.latency.record(inflight.routed.arrival, now);
        match inflight.routed.route {
            RouteKind::Hit { .. } => slice.hits += 1,
            RouteKind::Miss => slice.misses += 1,
        }
        self.finished_at = self.finished_at.max(now);
        let admit = match self.config.admission {
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
        if self.saturate && self.next_admission < self.requests.len() {
            self.events
                .schedule(now, Event::Arrival(self.next_admission));
            self.next_admission += 1;
        }
    }

    /// Runs the shared per-node dispatch step for `node_idx`, wiring its
    /// completions back into the fleet's event queue.
    fn dispatch(&mut self, now: SimTime, node_idx: usize) {
        let shed_before = self.nodes[node_idx].shed();
        let events = &mut self.events;
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
            self.obs.as_deref_mut(),
        );
        // Closed-loop saturation: like refusals, sheds complete nothing
        // — each one must release its backlog slot or the closed loop
        // drains (and, past the prime depth, stalls).
        if self.saturate {
            for _ in shed_before..self.nodes[node_idx].shed() {
                if self.next_admission >= self.requests.len() {
                    break;
                }
                self.events
                    .schedule(now, Event::Arrival(self.next_admission));
                self.next_admission += 1;
            }
        }
    }

    fn finish(self) -> FleetReport {
        let slo = SloThresholds::for_deployment(self.config.gpu, self.config.large_model);
        let finished_at = self.finished_at;
        let routed = self.router.routed_per_node().to_vec();
        let cache_summary = self.cache.summary();
        let mut cache = self.cache;
        let policy = self.router.policy();
        let nodes: Vec<NodeReport> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| NodeReport {
                node: i,
                routed: routed[i],
                report: node.into_report(finished_at, slo, cache.shard_mut(i).stats().clone()),
            })
            .collect();
        // The fleet-level tenant slices are completion-based; refusals and
        // sheds never complete, so absorb them from the per-node reports.
        let mut tenants = self.tenants;
        for node in &nodes {
            for slice in &node.report.tenant_slices {
                if slice.rejected > 0 || slice.shed > 0 {
                    tenants
                        .entry(slice.tenant)
                        .or_insert_with(|| TenantSlice::new(slice.tenant, slice.qos))
                        .absorb_overload(slice.rejected, slice.shed);
                }
            }
        }
        FleetReport {
            policy,
            nodes,
            latency: self.latency,
            throughput: self.throughput,
            cache: cache_summary,
            tenant_slices: tenants.into_values().collect(),
            finished_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RoutingPolicy;
    use modm_cluster::GpuKind;
    use modm_workload::TraceBuilder;

    fn node_config(gpus: usize, cache: usize) -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, gpus)
            .cache_capacity(cache)
            .build()
    }

    fn fleet(policy: RoutingPolicy, nodes: usize) -> Fleet {
        Fleet::new(node_config(4, 500), Router::new(policy, nodes))
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let trace = TraceBuilder::diffusion_db(21)
            .requests(200)
            .rate_per_min(12.0)
            .build();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::CacheAffinity,
            RoutingPolicy::HybridAffinity,
        ] {
            let report = fleet(policy, 4).run(&trace);
            assert_eq!(report.completed(), 200, "{policy:?}");
            assert_eq!(report.hits() + report.misses(), 200, "{policy:?}");
            let per_node: u64 = report.nodes.iter().map(|n| n.report.completed()).sum();
            assert_eq!(per_node, 200, "{policy:?} node accounting");
            let routed: u64 = report.nodes.iter().map(|n| n.routed).sum();
            assert_eq!(routed, 200, "{policy:?} router accounting");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let trace = TraceBuilder::diffusion_db(22)
            .requests(150)
            .rate_per_min(12.0)
            .build();
        let a = fleet(RoutingPolicy::CacheAffinity, 4).run(&trace);
        let b = fleet(RoutingPolicy::CacheAffinity, 4).run(&trace);
        assert_eq!(a.hits(), b.hits());
        assert!((a.requests_per_minute() - b.requests_per_minute()).abs() < 1e-12);
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.routed, y.routed);
            assert_eq!(x.report.hits, y.report.hits);
        }
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let trace = TraceBuilder::diffusion_db(23)
            .requests(400)
            .rate_per_min(20.0)
            .build();
        let report = fleet(RoutingPolicy::RoundRobin, 4).run(&trace);
        assert!((report.load_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn least_loaded_balances_under_load() {
        let trace = TraceBuilder::diffusion_db(24)
            .requests(400)
            .rate_per_min(30.0)
            .build();
        let report = fleet(RoutingPolicy::LeastLoaded, 4).run(&trace);
        // Backlog-aware routing cannot be wildly imbalanced on a
        // homogeneous fleet.
        assert!(report.load_imbalance() < 1.5, "{}", report.load_imbalance());
    }

    #[test]
    fn affinity_beats_round_robin_hit_rate() {
        // The tentpole property, at small scale (the scaling study and the
        // integration test cover 8 nodes).
        let trace = TraceBuilder::diffusion_db(25)
            .requests(600)
            .rate_per_min(20.0)
            .build();
        let rr = fleet(RoutingPolicy::RoundRobin, 4).run(&trace);
        let ca = fleet(RoutingPolicy::CacheAffinity, 4).run(&trace);
        assert!(
            ca.hit_rate() > rr.hit_rate(),
            "affinity {} vs round-robin {}",
            ca.hit_rate(),
            rr.hit_rate()
        );
    }

    #[test]
    fn hybrid_affinity_keeps_affinity_hit_rate_with_less_skew() {
        // The ROADMAP item: at high node counts CacheAffinity trades hit
        // rate for load skew; the hybrid policy spills the primary shard's
        // overflow to its ring successor, cutting max/mean while keeping
        // most of the locality win.
        let trace = TraceBuilder::diffusion_db(31)
            .requests(1_200)
            .rate_per_min(40.0)
            .build();
        let ca = Fleet::new(
            node_config(2, 500),
            Router::new(RoutingPolicy::CacheAffinity, 8),
        )
        .run(&trace);
        let hy = Fleet::new(
            node_config(2, 500),
            Router::new(RoutingPolicy::HybridAffinity, 8),
        )
        .run(&trace);
        let rr = Fleet::new(
            node_config(2, 500),
            Router::new(RoutingPolicy::RoundRobin, 8),
        )
        .run(&trace);
        assert!(
            hy.load_imbalance() < ca.load_imbalance(),
            "hybrid skew {} must beat pure affinity {}",
            hy.load_imbalance(),
            ca.load_imbalance()
        );
        assert!(
            hy.hit_rate() > rr.hit_rate(),
            "hybrid keeps the locality win: {} vs round-robin {}",
            hy.hit_rate(),
            rr.hit_rate()
        );
    }

    #[test]
    fn single_node_fleet_matches_monolith_semantics() {
        // One node, any policy: everything routes to node 0 and the fleet
        // degenerates to a single MoDM system over the same shard size.
        let trace = TraceBuilder::diffusion_db(26)
            .requests(150)
            .rate_per_min(10.0)
            .build();
        let report = fleet(RoutingPolicy::CacheAffinity, 1).run(&trace);
        assert_eq!(report.completed(), 150);
        assert_eq!(report.nodes.len(), 1);
        assert_eq!(report.nodes[0].routed, 150);
        assert!(report.hit_rate() > 0.0);
    }

    #[test]
    fn warmup_excluded_and_saturation_compresses_time() {
        let trace = TraceBuilder::diffusion_db(27)
            .requests(260)
            .rate_per_min(2.0)
            .build();
        let report = fleet(RoutingPolicy::CacheAffinity, 4).run_with(
            &trace,
            FleetRunOptions {
                warmup: 60,
                saturate: true,
            },
        );
        assert_eq!(report.completed(), 200);
        // At 2 req/min the timed run would take 100 minutes; saturation
        // finishes far faster.
        assert!(report.finished_at.as_mins_f64() < 60.0);
    }

    #[test]
    fn warmup_not_counted_in_routing_metrics() {
        let trace = TraceBuilder::diffusion_db(29)
            .requests(260)
            .rate_per_min(10.0)
            .build();
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::CacheAffinity,
        ] {
            let report = fleet(policy, 4).run_with(
                &trace,
                FleetRunOptions {
                    warmup: 60,
                    saturate: false,
                },
            );
            assert_eq!(report.completed(), 200, "{policy:?}");
            let routed: u64 = report.nodes.iter().map(|n| n.routed).sum();
            assert_eq!(routed, 200, "{policy:?}: warmup leaked into routed counts");
        }
    }

    #[test]
    fn monitors_run_per_node() {
        let trace = TraceBuilder::diffusion_db(28)
            .requests(400)
            .rate_per_min(24.0)
            .build();
        let report = fleet(RoutingPolicy::RoundRobin, 4).run(&trace);
        assert!(
            report
                .nodes
                .iter()
                .all(|n| !n.report.allocation_series.is_empty()),
            "every node's monitor ticked"
        );
    }
}
