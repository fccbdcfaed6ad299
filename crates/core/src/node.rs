//! The per-node serving step, shared by every event loop that hosts a
//! MoDM node.
//!
//! The serving engine in `modm-controlplane` (behind the single node, the
//! fixed fleet and the elastic fleet) and the scenario loop advance a
//! node the same way: admit a request, decide hit/miss against the cache
//! and queue it, dispatch idle workers toward the monitor's desired
//! assignment, record completions, and tick the global monitor once per
//! period. Admission runs before the cache decision, so a refused request
//! never reaches the cache. [`ServingNode`] is that step extracted into
//! one component, so the loops cannot diverge.
//! The host loop keeps what genuinely differs per deployment: the event
//! queue, the cache a request is scheduled against, and fleet-wide
//! aggregation.

use std::collections::BTreeMap;

use modm_cluster::{ClusterEnergy, Worker};
use modm_diffusion::{GeneratedImage, ModelId, Sampler, K_CHOICES, TOTAL_STEPS};
use modm_embedding::Embedding;
use modm_metrics::{LatencyReport, QualityAggregator, SloThresholds, ThroughputReport};
use modm_simkit::{profile, SimDuration, SimRng, SimTime};
use modm_workload::TenantId;

use crate::admission::AdmissionControl;
use crate::config::{validate_tenancy, ConfigError, MoDMConfig};
use crate::events::{emit, Obs, SimEvent};
use crate::fairqueue::{FairQueue, FairnessCharge, TenancyPolicy};
use crate::monitor::{GlobalMonitor, WindowStats};
use crate::report::{
    AllocationSample, ServingReport, TenantSlice, Terminal, TerminalKind, TerminalLog,
};
use crate::scheduler::{IncomingRequest, RouteKind, RoutedRequest};

/// Which admission lane a dispatch pop draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Hit,
    Miss,
}

/// What [`ServingNode::enqueue`] did with an offered request.
///
/// A refusal carries the token bucket's retry-after hint so the host
/// loop can re-prime closed-loop clients at the moment the bucket can
/// next admit them, rather than immediately (which would be refused
/// again), and hands the request back for the client to re-offer.
#[derive(Debug, Clone)]
pub enum EnqueueOutcome {
    /// The request entered the node's queues.
    Accepted,
    /// The tenant's token bucket refused the request.
    Rejected {
        /// Virtual seconds until the bucket can next admit a request.
        retry_after_secs: f64,
        /// The refused request, untouched.
        request: IncomingRequest,
    },
}

/// A request a worker is currently generating or refining.
#[derive(Debug, Clone)]
pub struct NodeInFlight {
    /// The routed request being served.
    pub routed: RoutedRequest,
    /// The model the worker hosted when the job was assigned.
    pub model: ModelId,
}

/// One MoDM serving node: GPU workers, hit/miss queues, the node-local
/// global monitor, its refusal count and its quality metrics. Every
/// other count is the host's: the host logs each request's terminal
/// once (the node appends the sheds) and folds the node's views from
/// that log.
///
/// The host event loop owns time: it calls [`ServingNode::enqueue`] when a
/// request reaches the node, [`ServingNode::dispatch`] whenever the node
/// may have an idle worker, [`ServingNode::take_finished`] +
/// [`ServingNode::record_completion`] when a worker-free event fires, and
/// [`ServingNode::monitor_tick`] once per monitor period.
#[derive(Debug)]
pub struct ServingNode {
    /// Node id the host assigned (0 for single-node deployments); tags
    /// every event this node emits.
    id: usize,
    monitor: GlobalMonitor,
    desired: Vec<ModelId>,
    workers: Vec<Worker>,
    in_flight: Vec<Option<NodeInFlight>>,
    /// Admission queues under the configured tenancy discipline: plain
    /// FIFO by default, weighted-fair + strict-priority when the config
    /// opts in. One per lane (hit/miss), because worker dispatch prefers
    /// lanes by hosted model.
    hit_q: FairQueue<RoutedRequest>,
    miss_q: FairQueue<RoutedRequest>,
    /// Per-tenant token buckets checked before anything is queued
    /// (admits everything when no rate limits are configured).
    admission: AdmissionControl,
    /// What a queued request charges the fair queue's virtual clock.
    charge: FairnessCharge,
    /// Reference model for [`FairnessCharge::GpuCost`]: costs are
    /// `steps_for` against the deployment's large model, so a miss
    /// charges the full generation and a hit its `(T - k)/T` remainder.
    charge_model: ModelId,
    /// Queue-time shed budget (`None` never sheds).
    queue_budget: Option<SimDuration>,
    // Metrics.
    quality: QualityAggregator,
    /// Requests refused at admission.
    rejected: u64,
    allocation_series: Vec<AllocationSample>,
    /// Per-tenant refusals, keyed for deterministic report order.
    refusals: BTreeMap<TenantId, TenantSlice>,
    // Monitor window counters.
    win_arrivals: u64,
    win_hits: u64,
    win_misses: u64,
    win_k: [u64; K_CHOICES.len()],
}

impl ServingNode {
    /// Creates node `id` per `config`: every worker starts on the
    /// monitor's initial assignment (all-large; cold systems favor
    /// quality). `id` is the host's stable node identifier — 0 for
    /// single-node deployments — and tags every event the node emits.
    pub fn new(config: &MoDMConfig, id: usize) -> Self {
        let monitor = GlobalMonitor::new(config);
        let desired = monitor.assignment();
        let workers: Vec<Worker> = desired
            .iter()
            .enumerate()
            .map(|(i, m)| Worker::new(i, config.gpu, *m))
            .collect();
        let n = workers.len();
        ServingNode {
            id,
            monitor,
            desired,
            workers,
            in_flight: (0..n).map(|_| None).collect(),
            hit_q: FairQueue::new(&config.tenancy),
            miss_q: FairQueue::new(&config.tenancy),
            admission: AdmissionControl::new(&config.tenancy),
            charge: config.tenancy.charge,
            charge_model: config.large_model,
            queue_budget: config.tenancy.queue_budget,
            quality: QualityAggregator::new(),
            rejected: 0,
            allocation_series: Vec::new(),
            refusals: BTreeMap::new(),
            win_arrivals: 0,
            win_hits: 0,
            win_misses: 0,
            win_k: [0; K_CHOICES.len()],
        }
    }

    /// The host-assigned node id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Requests refused at admission so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Outstanding backlog: queued requests plus busy workers. The unit is
    /// "jobs", which is all a load-aware router needs to compare nodes of
    /// a homogeneous fleet.
    pub fn load(&self) -> f64 {
        (self.hit_q.len()
            + self.miss_q.len()
            + self.in_flight.iter().filter(|f| f.is_some()).count()) as f64
    }

    /// True while the node holds queued or in-flight work.
    pub fn busy(&self) -> bool {
        !self.hit_q.is_empty()
            || !self.miss_q.is_empty()
            || self.in_flight.iter().any(Option::is_some)
    }

    /// Applies a revised [`TenancyPolicy`] mid-run — the primitive behind
    /// tenant join/leave scenarios. The policy is validated first (against
    /// `cache_capacity`, the node's shard capacity), so an overcommitted or
    /// malformed policy returns `Err` and leaves the node untouched rather
    /// than panicking the event loop. Queued work keeps the virtual-time
    /// tags it was charged under; only *future* pushes, admissions, and
    /// queue-budget sheds see the new shares, rate limits, and budget. The
    /// queue discipline itself must not change mid-run.
    pub fn try_update_tenancy(
        &mut self,
        policy: &TenancyPolicy,
        cache_capacity: usize,
    ) -> Result<(), ConfigError> {
        validate_tenancy(policy, cache_capacity)?;
        self.hit_q.update_policy(policy);
        self.miss_q.update_policy(policy);
        self.admission.update_policy(policy);
        self.charge = policy.charge;
        self.queue_budget = policy.queue_budget;
        Ok(())
    }

    /// Offers a request to the node: admission first, then the cache
    /// decision, then the queue.
    ///
    /// When the request's tenant has a token bucket and it is empty, the
    /// request is refused: `decide` is never called, so a refused request
    /// never probes the cache (no lookup is counted and no entry's
    /// recency or hit count moves). [`SimEvent::Rejected`] is emitted
    /// (carrying the bucket's retry-after hint), the tenant's `rejected`
    /// counter advances, nothing is queued, and the method returns
    /// [`EnqueueOutcome::Rejected`] with the request (the host loop uses
    /// the hint to schedule the client's next move). Refused
    /// requests never touch the monitor's window counters — the monitor
    /// plans capacity for admitted work only.
    ///
    /// An admitted request emits [`SimEvent::Admitted`], is routed by
    /// `decide` (the host's cache decision on the prompt embedding,
    /// typically [`route_against_cache`](crate::route_against_cache) on
    /// this node's shard), emits [`SimEvent::CacheHit`] /
    /// [`SimEvent::CacheMiss`], updates the monitor window counters,
    /// and joins its lane's queue.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        request: IncomingRequest,
        decide: impl FnOnce(&Embedding) -> RouteKind,
        mut obs: Obs<'_, '_>,
    ) -> EnqueueOutcome {
        let (tenant, qos) = (request.tenant, request.qos);
        let admit = profile::timed(profile::Subsystem::Admission, || {
            self.admission.try_admit_or_retry(now, tenant)
        });
        if let Err(retry_after_secs) = admit {
            self.rejected += 1;
            let slice = self
                .refusals
                .entry(tenant)
                .or_insert_with(|| TenantSlice::new(tenant, qos));
            slice.qos = qos;
            slice.rejected += 1;
            emit(&mut obs, now, || SimEvent::Rejected {
                node: self.id,
                request_id: request.request_id,
                tenant,
                retry_after_secs,
            });
            return EnqueueOutcome::Rejected {
                retry_after_secs,
                request,
            };
        }
        let IncomingRequest {
            request_id,
            arrival,
            prompt_embedding,
            ..
        } = request;
        self.win_arrivals += 1;
        emit(&mut obs, now, || SimEvent::Admitted {
            node: self.id,
            request_id,
            tenant,
        });
        let route = decide(&prompt_embedding);
        let routed = RoutedRequest {
            request_id,
            arrival,
            tenant,
            qos,
            prompt_embedding,
            route,
        };
        let cost = match self.charge {
            FairnessCharge::PerRequest => 1.0,
            FairnessCharge::GpuCost => steps_for(&routed, self.charge_model) as f64,
        };
        match &routed.route {
            RouteKind::Hit { k, .. } => {
                self.win_hits += 1;
                self.win_k[k_slot(*k)] += 1;
                emit(&mut obs, now, || SimEvent::CacheHit {
                    node: self.id,
                    request_id,
                    tenant,
                    k: *k,
                });
                self.hit_q.push_weighted(now, tenant, qos, cost, routed);
            }
            RouteKind::Miss => {
                self.win_misses += 1;
                emit(&mut obs, now, || SimEvent::CacheMiss {
                    node: self.id,
                    request_id,
                    tenant,
                });
                self.miss_q.push_weighted(now, tenant, qos, cost, routed);
            }
        }
        EnqueueOutcome::Accepted
    }

    /// One global-monitor tick over the window that just ended: re-plans
    /// the worker assignment from the window's rate/hit/k observations and
    /// resets the window counters. Quiet windows (no traffic) leave the
    /// plan untouched, as in the paper's implementation.
    pub fn monitor_tick(&mut self, now: SimTime, period: SimDuration) {
        let total = self.win_hits + self.win_misses;
        if total > 0 {
            let period_mins = period.as_mins_f64();
            let mut k_rates = [0.0; K_CHOICES.len()];
            if self.win_hits > 0 {
                for (r, &c) in k_rates.iter_mut().zip(&self.win_k) {
                    *r = c as f64 / self.win_hits as f64;
                }
            }
            let stats = WindowStats {
                rate_per_min: self.win_arrivals as f64 / period_mins,
                hit_rate: self.win_hits as f64 / total as f64,
                k_rates,
            };
            self.desired = self.monitor.tick(&stats);
            self.allocation_series.push(AllocationSample {
                at: now,
                num_large: self.monitor.num_large(),
                small_model: self.monitor.small_model(),
            });
        }
        self.win_arrivals = 0;
        self.win_hits = 0;
        self.win_misses = 0;
        self.win_k = [0; K_CHOICES.len()];
    }

    /// The worker dispatch loop: re-host idle workers toward the monitor's
    /// desired assignment (paying the model-load latency), then hand out
    /// queued jobs — large workers prefer misses and help with hits rather
    /// than idling, small workers serve hits. Calls `schedule(done, w)`
    /// for every worker `w` that becomes busy until virtual time `done`;
    /// the host loop turns that into its worker-free event. Appends one
    /// shed [`Terminal`] to `terminals` per request shed on the way.
    /// Emits one [`SimEvent::Dispatched`] per job handed to a worker
    /// (model switches are not dispatches).
    pub fn dispatch(
        &mut self,
        now: SimTime,
        mut schedule: impl FnMut(SimTime, usize),
        terminals: &mut TerminalLog,
        mut obs: Obs<'_, '_>,
    ) {
        loop {
            let mut progress = false;
            for w in 0..self.workers.len() {
                if self.in_flight[w].is_some() || !self.workers[w].is_idle(now) {
                    continue;
                }
                let desired = self.desired[w];
                if self.workers[w].model() != desired {
                    self.workers[w].switch_model(now, desired);
                    schedule(self.workers[w].busy_until(), w);
                    progress = true;
                    continue;
                }
                let hosted = self.workers[w].model();
                let job = if hosted.spec().is_large() {
                    match self.pop_serveable(now, Lane::Miss, terminals, &mut obs) {
                        Some(job) => Some(job),
                        None => self.pop_serveable(now, Lane::Hit, terminals, &mut obs),
                    }
                } else {
                    self.pop_serveable(now, Lane::Hit, terminals, &mut obs)
                };
                let Some(routed) = job else { continue };
                let steps = steps_for(&routed, hosted);
                let done = self.workers[w].assign(now, hosted, steps);
                schedule(done, w);
                emit(&mut obs, now, || SimEvent::Dispatched {
                    node: self.id,
                    worker: w,
                    request_id: routed.request_id,
                    tenant: routed.tenant,
                    model: hosted,
                });
                self.in_flight[w] = Some(NodeInFlight {
                    routed,
                    model: hosted,
                });
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    /// Pops the next *serveable* job from `lane`, shedding any item whose
    /// queue wait already exceeds the configured budget: a request that
    /// waited past the budget is hopeless for its SLO, and serving it
    /// would only push every later request further out. Each shed emits
    /// [`SimEvent::ShedDeadline`] and appends its terminal to
    /// `terminals`; with no budget configured this is exactly a plain
    /// pop.
    fn pop_serveable(
        &mut self,
        now: SimTime,
        lane: Lane,
        terminals: &mut TerminalLog,
        obs: &mut Obs<'_, '_>,
    ) -> Option<RoutedRequest> {
        loop {
            let queue = match lane {
                Lane::Hit => &mut self.hit_q,
                Lane::Miss => &mut self.miss_q,
            };
            let (routed, enqueued_at) = queue.pop_entry(now)?;
            let budget = self.queue_budget;
            let (waited, expired) = profile::timed(profile::Subsystem::ShedSweep, || {
                let waited = now.saturating_since(enqueued_at);
                (waited, budget.is_some_and(|b| waited > b))
            });
            if expired {
                let shed = Terminal::routed(&routed, self.id, now, TerminalKind::Shed);
                terminals.push(routed.request_id, shed);
                emit(obs, now, || SimEvent::ShedDeadline {
                    node: self.id,
                    request_id: routed.request_id,
                    tenant: routed.tenant,
                    waited_secs: waited.as_secs_f64(),
                });
                continue;
            }
            return Some(routed);
        }
    }

    /// Removes and returns worker `w`'s finished job, if it was serving
    /// one (a worker-free event after a model switch carries no job).
    pub fn take_finished(&mut self, w: usize) -> Option<NodeInFlight> {
        self.in_flight[w].take()
    }

    /// Records a completed request's image into the node's quality
    /// metrics, emitting [`SimEvent::Completed`] to `obs`.
    pub fn record_completion(
        &mut self,
        now: SimTime,
        routed: &RoutedRequest,
        image: &GeneratedImage,
        mut obs: Obs<'_, '_>,
    ) {
        self.quality.record(&routed.prompt_embedding, image);
        emit(&mut obs, now, || SimEvent::Completed {
            node: self.id,
            request_id: routed.request_id,
            tenant: routed.tenant,
            latency_secs: now.saturating_since(routed.arrival).as_secs_f64(),
            hit: matches!(routed.route, RouteKind::Hit { .. }),
        });
    }

    /// Empties the node's queues and in-flight slots, returning every
    /// request that had been accepted but not completed — what a crashed
    /// node's front-end re-delivers to the survivors. Window counters are
    /// left as-is (the node's monitor is gone with the node).
    pub fn drain_pending(&mut self) -> Vec<RoutedRequest> {
        let mut pending = self.miss_q.drain_in_arrival_order();
        pending.extend(self.hit_q.drain_in_arrival_order());
        for slot in &mut self.in_flight {
            if let Some(inflight) = slot.take() {
                pending.push(inflight.routed);
            }
        }
        pending
    }

    /// Finalizes the node into its [`ServingReport`]. `finished_at` is the
    /// host loop's last-completion time (energy idles until then), and
    /// `cache_stats` are the statistics of whatever cache the host
    /// scheduled this node against. The report holds the node's refusals
    /// (and a tenant slice per refused tenant); every other count and
    /// view is left empty for the host to fold from its terminal log
    /// ([`fold_terminals`](crate::report::fold_terminals)).
    pub fn into_report(
        self,
        finished_at: SimTime,
        slo: SloThresholds,
        cache_stats: modm_cache::CacheStats,
    ) -> ServingReport {
        let energy = ClusterEnergy::aggregate(
            self.workers.iter().map(|w| (w.energy(), w.gpu())),
            SimTime::ZERO,
            finished_at,
        );
        ServingReport {
            latency: LatencyReport::new(),
            throughput: ThroughputReport::new(),
            quality: self.quality,
            energy,
            slo,
            cache_stats,
            hits: 0,
            misses: 0,
            rejected: self.rejected,
            shed: 0,
            k_histogram: [0; K_CHOICES.len()],
            allocation_series: self.allocation_series,
            tenant_slices: self.refusals.into_values().collect(),
            model_switches: self.workers.iter().map(Worker::switches).sum(),
            finished_at,
        }
    }
}

/// Denoising steps a job costs on `model`: full generation for misses, the
/// `(T - k)/T` remainder for hits (at least one step).
pub fn steps_for(routed: &RoutedRequest, model: ModelId) -> u32 {
    match &routed.route {
        RouteKind::Miss => model.spec().default_steps,
        RouteKind::Hit { k, .. } => {
            let frac = (TOTAL_STEPS - k) as f64 / TOTAL_STEPS as f64;
            ((model.spec().default_steps as f64 * frac).round() as u32).max(1)
        }
    }
}

/// Produces the finished image for a completed job: a full generation for
/// misses, a k-step refinement of the retrieved image for hits.
pub fn render_completion(
    sampler: &Sampler,
    routed: &RoutedRequest,
    model: ModelId,
    rng: &mut SimRng,
) -> GeneratedImage {
    match &routed.route {
        RouteKind::Miss => {
            sampler.generate_for(model, &routed.prompt_embedding, routed.request_id, rng)
        }
        RouteKind::Hit { retrieved, k } => sampler.refine_for(
            model,
            &retrieved.image,
            &routed.prompt_embedding,
            routed.request_id,
            *k,
            rng,
        ),
    }
}

fn k_slot(k: u32) -> usize {
    K_CHOICES
        .iter()
        .position(|&c| c == k)
        .expect("k from the discrete ladder")
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_cluster::GpuKind;
    use modm_embedding::{SemanticSpace, TextEncoder};

    fn config(gpus: usize) -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, gpus)
            .cache_capacity(100)
            .build()
    }

    fn request(id: u64, prompt: &str) -> IncomingRequest {
        let enc = TextEncoder::new(SemanticSpace::default());
        IncomingRequest {
            request_id: id,
            arrival: SimTime::ZERO,
            tenant: TenantId::DEFAULT,
            qos: modm_workload::QosClass::default(),
            prompt_embedding: enc.encode(prompt),
        }
    }

    /// The cache decision for a node without a cache: always a miss.
    fn miss(_: &Embedding) -> RouteKind {
        RouteKind::Miss
    }

    #[test]
    fn dispatch_assigns_idle_workers_and_schedules_completions() {
        let mut node = ServingNode::new(&config(2), 0);
        node.enqueue(
            SimTime::ZERO,
            request(0, "amber lighthouse storm"),
            miss,
            None,
        );
        node.enqueue(
            SimTime::ZERO,
            request(1, "cobalt orchard frost"),
            miss,
            None,
        );
        assert_eq!(node.load(), 2.0);
        let mut scheduled = Vec::new();
        let mut terminals = TerminalLog::default();
        node.dispatch(
            SimTime::ZERO,
            |done, w| scheduled.push((done, w)),
            &mut terminals,
            None,
        );
        assert_eq!(scheduled.len(), 2, "both workers took a job");
        assert!(node.busy());
        assert_eq!(node.load(), 2.0, "queued became in-flight");
        // Completing both empties the node.
        for (_, w) in scheduled {
            let inflight = node.take_finished(w).expect("had a job");
            assert!(matches!(inflight.routed.route, RouteKind::Miss));
        }
        assert!(!node.busy());
    }

    #[test]
    fn drain_pending_returns_queued_and_in_flight_work() {
        let mut node = ServingNode::new(&config(1), 0);
        for i in 0..3 {
            node.enqueue(SimTime::ZERO, request(i, "slate canyon dusk"), miss, None);
        }
        node.dispatch(SimTime::ZERO, |_, _| {}, &mut TerminalLog::default(), None);
        let pending = node.drain_pending();
        assert_eq!(pending.len(), 3, "1 in-flight + 2 queued");
        assert!(!node.busy());
        assert_eq!(node.load(), 0.0);
    }

    #[test]
    fn node_step_emits_typed_events() {
        use crate::events::Observer;

        #[derive(Default)]
        struct Kinds(Vec<&'static str>);
        impl Observer for Kinds {
            fn on_event(&mut self, _at: SimTime, event: &SimEvent) {
                assert_eq!(event.node(), 7, "events carry the node id");
                self.0.push(event.kind());
            }
        }

        let mut node = ServingNode::new(&config(1), 7);
        let mut obs = Kinds::default();
        node.enqueue(
            SimTime::ZERO,
            request(0, "opal tundra night"),
            miss,
            Some(&mut obs),
        );
        node.dispatch(
            SimTime::ZERO,
            |_, _| {},
            &mut TerminalLog::default(),
            Some(&mut obs),
        );
        assert_eq!(obs.0, vec!["admitted", "cache_miss", "dispatched"]);
    }

    #[test]
    fn try_update_tenancy_validates_then_swaps_admission() {
        use crate::fairqueue::TenantShare;

        let mut node = ServingNode::new(&config(1), 0);
        // Unlimited at birth: both offers are accepted.
        for i in 0..2 {
            let out = node.enqueue(SimTime::ZERO, request(i, "jade harbor rain"), miss, None);
            assert!(matches!(out, EnqueueOutcome::Accepted));
        }

        // An overcommitted reserve is refused and leaves the node as-is.
        let bad = TenancyPolicy::weighted_fair(vec![
            TenantShare::new(TenantId::DEFAULT, 1.0).with_cache_reserve(101)
        ]);
        let err = node.try_update_tenancy(&bad, 100).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::OvercommittedCacheReserves {
                reserved: 101,
                capacity: 100
            }
        ));
        let out = node.enqueue(SimTime::ZERO, request(2, "jade harbor rain"), miss, None);
        assert!(matches!(out, EnqueueOutcome::Accepted));

        // A valid revision installs the new rate limit immediately.
        let strict = TenancyPolicy::fifo().with_rate_limit(TenantId::DEFAULT, 60.0, 1.0);
        node.try_update_tenancy(&strict, 100).unwrap();
        let out = node.enqueue(SimTime::ZERO, request(3, "jade harbor rain"), miss, None);
        assert!(matches!(out, EnqueueOutcome::Accepted));
        let out = node.enqueue(SimTime::ZERO, request(4, "jade harbor rain"), miss, None);
        assert!(matches!(out, EnqueueOutcome::Rejected { .. }));
    }

    #[test]
    fn monitor_tick_resets_window_and_records_allocation() {
        let mut node = ServingNode::new(&config(4), 0);
        node.enqueue(SimTime::ZERO, request(0, "ivory comet meadow"), miss, None);
        node.monitor_tick(
            SimTime::from_secs_f64(60.0),
            SimDuration::from_secs_f64(60.0),
        );
        assert_eq!(node.allocation_series.len(), 1);
        // A quiet window leaves the plan untouched and records nothing.
        node.monitor_tick(
            SimTime::from_secs_f64(120.0),
            SimDuration::from_secs_f64(60.0),
        );
        assert_eq!(node.allocation_series.len(), 1);
    }
}
