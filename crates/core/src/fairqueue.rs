//! The admission queue of a multi-tenant serving node: weighted-fair
//! queuing within a QoS class, strict priority between classes, and an
//! aging escape hatch so lower classes cannot starve forever.
//!
//! A [`FairQueue`] replaces the plain FIFO hit/miss queues inside
//! [`crate::node::ServingNode`]. Its discipline is configured per
//! deployment through [`TenancyPolicy`]:
//!
//! * [`QueueDiscipline::Fifo`] — the legacy behavior: one global queue,
//!   pop order equals push order, tenant tags are carried but ignored.
//!   This is the default and is *exactly* tenant-neutral.
//! * [`QueueDiscipline::WeightedFair`] — per-tenant subqueues under
//!   virtual-time weighted fair queuing ([WFQ]): every queued item costs
//!   `1/weight` of virtual time, and pop picks the earliest virtual
//!   finish tag in the highest non-empty [`QosClass`]. Classes are
//!   strictly prioritized (`Interactive` before `Standard` before
//!   `BestEffort`), except that any item whose wait exceeds the policy's
//!   `aging_threshold` is served next regardless of class — bounded
//!   starvation for every tenant with positive weight.
//!
//! With a single tenant the WFQ discipline degenerates to exact FIFO
//! (one subqueue, monotone tags), which is what makes the tenancy-aware
//! path seed-for-seed identical to the legacy path on single-tenant
//! traces (`tests/deploy.rs`).
//!
//! [WFQ]: https://en.wikipedia.org/wiki/Weighted_fair_queueing

use std::collections::{BTreeMap, VecDeque};

use modm_simkit::{profile, SimDuration, SimTime};
use modm_workload::{QosClass, TenantId};

/// How a serving node orders admissions across tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueDiscipline {
    /// One global FIFO queue (the legacy, tenant-blind behavior).
    #[default]
    Fifo,
    /// Weighted-fair queuing within each QoS class, strict priority
    /// between classes, aging against starvation.
    WeightedFair,
}

/// What one queued request charges the WFQ virtual clock.
///
/// The fair queue's shares are defined over *charged cost*: a tenant's
/// service share is proportional to `weight / cost-per-item`. The charge
/// unit decides what the shares actually equalize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FairnessCharge {
    /// Every request costs one virtual unit — shares track *request
    /// counts* (the legacy behavior, and the default).
    #[default]
    PerRequest,
    /// Every request costs its [`steps_for`](crate::node::steps_for)
    /// denoising-step estimate — shares track *GPU time*, so a tenant
    /// whose requests are all cache misses (~2–10× the steps of a hit)
    /// no longer squeezes out tenants with cheap refinements.
    GpuCost,
}

/// One tenant's admission-rate contract: a token bucket refilled at
/// `rate_per_min`, holding at most `burst` tokens. A request is admitted
/// only if a whole token is available; otherwise it is refused up front
/// ([`SimEvent::Rejected`](crate::events::SimEvent::Rejected)) instead of
/// absorbed into an unbounded queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// The tenant the bucket meters.
    pub tenant: TenantId,
    /// Sustained admission rate, requests per minute (must be positive).
    pub rate_per_min: f64,
    /// Bucket depth: the largest burst admitted at once (must be >= 1).
    pub burst: f64,
}

impl RateLimit {
    /// A bucket admitting `rate_per_min` sustained with `burst` depth.
    pub fn new(tenant: TenantId, rate_per_min: f64, burst: f64) -> Self {
        RateLimit {
            tenant,
            rate_per_min,
            burst,
        }
    }
}

/// Bounds for the adaptive anti-starvation aging threshold.
///
/// With a *fixed* threshold the operator must pick one point on the
/// starvation-bound vs priority-fidelity trade-off (see the `tenancy`
/// experiment docs): tight thresholds degrade strict priority toward
/// global FIFO under sustained overload, loose ones starve the low
/// classes under transient bursts. Adaptive aging moves the threshold
/// with the observed backlog *above* the starved item's class: the
/// effective threshold is `min * (1 + higher-class backlog)`, clamped to
/// `[min, max]` — an empty high class rescues starved work after `min`,
/// a deep high-class backlog defends priority up to `max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingBounds {
    /// Threshold floor: the rescue latency when nothing outranks the
    /// starved item.
    pub min: SimDuration,
    /// Threshold ceiling: the hard starvation bound no backlog can
    /// extend.
    pub max: SimDuration,
}

/// One tenant's service share under [`QueueDiscipline::WeightedFair`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantShare {
    /// The tenant.
    pub tenant: TenantId,
    /// Relative WFQ weight within the tenant's QoS class (must be
    /// positive). Tenants absent from the policy weigh `1.0`.
    pub weight: f64,
    /// Cache entries reserved for the tenant on every cache (shard) the
    /// deployment schedules against: eviction never lets another tenant
    /// push this one below its reserve.
    pub cache_reserve: usize,
}

impl TenantShare {
    /// A share with `weight` and no cache reserve.
    pub fn new(tenant: TenantId, weight: f64) -> Self {
        TenantShare {
            tenant,
            weight,
            cache_reserve: 0,
        }
    }

    /// Sets the cache reserve (builder style).
    #[must_use]
    pub fn with_cache_reserve(mut self, reserve: usize) -> Self {
        self.cache_reserve = reserve;
        self
    }
}

/// Default aging threshold: a starved item older than this is served
/// ahead of higher classes (five virtual minutes).
const DEFAULT_AGING_SECS: f64 = 300.0;

/// The deployment-level tenancy policy: admission discipline, per-tenant
/// shares and the anti-starvation aging threshold. Part of
/// [`MoDMConfig`](crate::config::MoDMConfig), so every tier (single node,
/// fleet, elastic fleet) inherits it through the shared serving step.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyPolicy {
    /// Admission queue discipline.
    pub discipline: QueueDiscipline,
    /// Per-tenant shares (weights + cache reserves). Tenants not listed
    /// get weight `1.0` and no reserve.
    pub shares: Vec<TenantShare>,
    /// Once an item has waited this long, it is served before any
    /// higher-class item (bounded starvation under strict priority).
    /// When [`TenancyPolicy::aging_bounds`] is set, this fixed value is
    /// superseded by the adaptive threshold.
    pub aging_threshold: SimDuration,
    /// What a queued request charges the fair queue's virtual clock:
    /// one unit ([`FairnessCharge::PerRequest`], the default) or its
    /// GPU-step cost ([`FairnessCharge::GpuCost`]).
    pub charge: FairnessCharge,
    /// Per-tenant token buckets enforced at admission. Tenants not
    /// listed are never refused. Empty (the default) disables admission
    /// control entirely.
    pub rate_limits: Vec<RateLimit>,
    /// Adaptive aging bounds; `None` (the default) keeps the fixed
    /// [`TenancyPolicy::aging_threshold`].
    pub aging_bounds: Option<AgingBounds>,
    /// Queue-time budget: a request that has waited longer than this
    /// when a worker would pick it up is shed
    /// ([`SimEvent::ShedDeadline`](crate::events::SimEvent::ShedDeadline))
    /// instead of served — the work is already hopeless for its SLO and
    /// serving it would only push the backlog further out. `None` (the
    /// default) never sheds.
    pub queue_budget: Option<SimDuration>,
}

impl Default for TenancyPolicy {
    fn default() -> Self {
        TenancyPolicy::fifo()
    }
}

impl TenancyPolicy {
    /// The legacy single-tenant policy: global FIFO, no shares.
    pub fn fifo() -> Self {
        TenancyPolicy {
            discipline: QueueDiscipline::Fifo,
            shares: Vec::new(),
            aging_threshold: SimDuration::from_secs_f64(DEFAULT_AGING_SECS),
            charge: FairnessCharge::PerRequest,
            rate_limits: Vec::new(),
            aging_bounds: None,
            queue_budget: None,
        }
    }

    /// Weighted-fair admission with the given tenant shares.
    pub fn weighted_fair(shares: Vec<TenantShare>) -> Self {
        TenancyPolicy {
            shares,
            discipline: QueueDiscipline::WeightedFair,
            ..TenancyPolicy::fifo()
        }
    }

    /// Overrides the aging threshold (builder style).
    #[must_use]
    pub fn with_aging_threshold(mut self, threshold: SimDuration) -> Self {
        self.aging_threshold = threshold;
        self
    }

    /// Sets the fairness charge unit (builder style).
    #[must_use]
    pub fn with_charge(mut self, charge: FairnessCharge) -> Self {
        self.charge = charge;
        self
    }

    /// Adds a token-bucket admission limit for `tenant` (builder style).
    #[must_use]
    pub fn with_rate_limit(mut self, tenant: TenantId, rate_per_min: f64, burst: f64) -> Self {
        self.rate_limits
            .push(RateLimit::new(tenant, rate_per_min, burst));
        self
    }

    /// Enables adaptive aging between `min` and `max` (builder style).
    #[must_use]
    pub fn with_adaptive_aging(mut self, min: SimDuration, max: SimDuration) -> Self {
        self.aging_bounds = Some(AgingBounds { min, max });
        self
    }

    /// Sets the queue-time shed budget (builder style).
    #[must_use]
    pub fn with_queue_budget(mut self, budget: SimDuration) -> Self {
        self.queue_budget = Some(budget);
        self
    }

    /// The WFQ weight of `tenant` (1.0 when unlisted).
    pub fn weight_of(&self, tenant: TenantId) -> f64 {
        self.shares
            .iter()
            .find(|s| s.tenant == tenant)
            .map_or(1.0, |s| s.weight)
    }

    /// The per-cache reserve of every tenant with a non-zero reserve, in
    /// share order — what the serving layers hand to
    /// [`modm_cache::CacheConfig::with_reserves`].
    pub fn cache_reserves(&self) -> Vec<(TenantId, usize)> {
        self.shares
            .iter()
            .filter(|s| s.cache_reserve > 0)
            .map(|s| (s.tenant, s.cache_reserve))
            .collect()
    }
}

/// One queued item with its fairness bookkeeping.
#[derive(Debug, Clone)]
struct Entry<T> {
    item: T,
    tenant: TenantId,
    enqueued_at: SimTime,
    /// Global arrival sequence — FIFO order and deterministic tie-break.
    seq: u64,
    /// WFQ virtual finish tag (unused under FIFO).
    tag: f64,
}

/// One tenant's subqueue within a class.
#[derive(Debug, Clone)]
struct TenantQueue<T> {
    items: VecDeque<Entry<T>>,
    /// Virtual finish tag of the last item queued by this tenant.
    last_finish: f64,
}

impl<T> Default for TenantQueue<T> {
    fn default() -> Self {
        TenantQueue {
            items: VecDeque::new(),
            last_finish: 0.0,
        }
    }
}

/// One QoS class's scheduler state.
#[derive(Debug, Clone)]
struct ClassState<T> {
    /// WFQ virtual time: advances to the served tag on every pop.
    virtual_time: f64,
    tenants: BTreeMap<TenantId, TenantQueue<T>>,
    len: usize,
}

impl<T> Default for ClassState<T> {
    fn default() -> Self {
        ClassState {
            virtual_time: 0.0,
            tenants: BTreeMap::new(),
            len: 0,
        }
    }
}

/// The weighted-fair, strict-priority admission queue (see the module
/// docs for the discipline semantics).
///
/// # Example
///
/// ```
/// use modm_core::fairqueue::{FairQueue, TenancyPolicy, TenantShare};
/// use modm_simkit::SimTime;
/// use modm_workload::{QosClass, TenantId};
///
/// let policy = TenancyPolicy::weighted_fair(vec![
///     TenantShare::new(TenantId(1), 1.0),
///     TenantShare::new(TenantId(2), 3.0),
/// ]);
/// let mut q: FairQueue<&str> = FairQueue::new(&policy);
/// let now = SimTime::ZERO;
/// q.push(now, TenantId(1), QosClass::Standard, "a1");
/// q.push(now, TenantId(1), QosClass::Standard, "a2");
/// q.push(now, TenantId(2), QosClass::Standard, "b1");
/// q.push(now, TenantId(2), QosClass::Standard, "b2");
/// // Tenant 2 weighs 3x tenant 1, so it drains faster.
/// assert_eq!(q.pop(now), Some("b1"));
/// assert_eq!(q.pop(now), Some("b2"));
/// assert_eq!(q.pop(now), Some("a1"));
/// assert_eq!(q.pop(now), Some("a2"));
/// ```
#[derive(Debug, Clone)]
pub struct FairQueue<T> {
    discipline: QueueDiscipline,
    /// Weight per configured tenant (others weigh 1.0).
    weights: Vec<(TenantId, f64)>,
    aging: SimDuration,
    /// Adaptive aging bounds; `None` keeps the fixed threshold.
    aging_bounds: Option<AgingBounds>,
    /// FIFO storage (the `Fifo` discipline).
    fifo: VecDeque<Entry<T>>,
    /// WFQ storage, one scheduler per class (the `WeightedFair`
    /// discipline). Indexed by `QosClass::ALL` order, lowest first.
    classes: [ClassState<T>; QosClass::ALL.len()],
    len: usize,
    next_seq: u64,
}

fn class_slot(qos: QosClass) -> usize {
    QosClass::ALL
        .iter()
        .position(|&c| c == qos)
        .expect("class in ALL")
}

impl<T> FairQueue<T> {
    /// An empty queue under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if a configured share has a non-positive weight, or if the
    /// adaptive aging bounds are inverted or zero
    /// ([`MoDMConfig`](crate::config::MoDMConfig) validation reports the
    /// same invariants as typed errors first; this guards direct
    /// construction).
    pub fn new(policy: &TenancyPolicy) -> Self {
        for s in &policy.shares {
            assert!(
                s.weight > 0.0,
                "tenant {} weight must be positive",
                s.tenant
            );
        }
        if let Some(bounds) = policy.aging_bounds {
            assert!(
                !bounds.min.is_zero() && bounds.min <= bounds.max,
                "adaptive aging needs 0 < min <= max"
            );
        }
        FairQueue {
            discipline: policy.discipline,
            weights: policy.shares.iter().map(|s| (s.tenant, s.weight)).collect(),
            aging: policy.aging_threshold,
            aging_bounds: policy.aging_bounds,
            fifo: VecDeque::new(),
            classes: Default::default(),
            len: 0,
            next_seq: 0,
        }
    }

    /// The configured discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Re-points the queue at a new policy *mid-run*: weights, the aging
    /// threshold and the adaptive bounds are replaced in place; items
    /// already queued keep their virtual-time tags (they were charged
    /// under the old shares — rewriting history would break the virtual
    /// clock's monotonicity) and new pushes are charged under the new
    /// weights. The discipline itself is fixed at construction: a tenant
    /// join/leave changes shares, not the queueing model.
    ///
    /// The caller is expected to have validated `policy` first (see
    /// [`validate_tenancy`](crate::config::validate_tenancy)); like
    /// [`FairQueue::new`], this guards direct misuse with the same
    /// panics.
    ///
    /// # Panics
    ///
    /// Panics if a share has a non-positive weight, if the adaptive aging
    /// bounds are inverted or zero, or if `policy` switches the
    /// discipline.
    pub fn update_policy(&mut self, policy: &TenancyPolicy) {
        assert_eq!(
            policy.discipline, self.discipline,
            "cannot switch queue discipline mid-run"
        );
        for s in &policy.shares {
            assert!(
                s.weight > 0.0,
                "tenant {} weight must be positive",
                s.tenant
            );
        }
        if let Some(bounds) = policy.aging_bounds {
            assert!(
                !bounds.min.is_zero() && bounds.min <= bounds.max,
                "adaptive aging needs 0 < min <= max"
            );
        }
        self.weights = policy.shares.iter().map(|s| (s.tenant, s.weight)).collect();
        self.aging = policy.aging_threshold;
        self.aging_bounds = policy.aging_bounds;
    }

    /// Items queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items queued by `tenant`.
    pub fn tenant_len(&self, tenant: TenantId) -> usize {
        match self.discipline {
            QueueDiscipline::Fifo => self.fifo.iter().filter(|e| e.tenant == tenant).count(),
            QueueDiscipline::WeightedFair => self
                .classes
                .iter()
                .map(|c| c.tenants.get(&tenant).map_or(0, |tq| tq.items.len()))
                .sum(),
        }
    }

    fn weight_of(&self, tenant: TenantId) -> f64 {
        self.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(1.0, |(_, w)| *w)
    }

    /// Enqueues `item` for `tenant` under `qos` at virtual time `now`,
    /// charging one virtual unit (the [`FairnessCharge::PerRequest`]
    /// behavior).
    pub fn push(&mut self, now: SimTime, tenant: TenantId, qos: QosClass, item: T) {
        self.push_weighted(now, tenant, qos, 1.0, item);
    }

    /// Enqueues `item` charging `cost` virtual units against the tenant's
    /// weight — the [`FairnessCharge::GpuCost`] entry point, where `cost`
    /// is the item's [`steps_for`](crate::node::steps_for) estimate. With
    /// `cost = 1.0` this is exactly [`FairQueue::push`].
    ///
    /// # Panics
    ///
    /// Panics if `cost` is not positive.
    pub fn push_weighted(
        &mut self,
        now: SimTime,
        tenant: TenantId,
        qos: QosClass,
        cost: f64,
        item: T,
    ) {
        assert!(cost > 0.0, "charge cost must be positive");
        profile::timed(profile::Subsystem::FairQueue, || {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.len += 1;
            match self.discipline {
                QueueDiscipline::Fifo => {
                    self.fifo.push_back(Entry {
                        item,
                        tenant,
                        enqueued_at: now,
                        seq,
                        tag: 0.0,
                    });
                }
                QueueDiscipline::WeightedFair => {
                    let weight = self.weight_of(tenant);
                    let class = &mut self.classes[class_slot(qos)];
                    let tq = class.tenants.entry(tenant).or_default();
                    let start = class.virtual_time.max(tq.last_finish);
                    let tag = start + cost / weight;
                    tq.last_finish = tag;
                    tq.items.push_back(Entry {
                        item,
                        tenant,
                        enqueued_at: now,
                        seq,
                        tag,
                    });
                    class.len += 1;
                }
            }
        })
    }

    /// Dequeues the next item to serve at virtual time `now`.
    ///
    /// Work-conserving: returns `Some` whenever the queue is non-empty.
    pub fn pop(&mut self, now: SimTime) -> Option<T> {
        self.pop_entry(now).map(|(item, _)| item)
    }

    /// Like [`FairQueue::pop`], but also returns when the item was
    /// enqueued — what a shed-deadline check at dispatch time needs to
    /// decide whether the item's queue-time budget is already spent.
    pub fn pop_entry(&mut self, now: SimTime) -> Option<(T, SimTime)> {
        if self.len == 0 {
            return None;
        }
        profile::timed(profile::Subsystem::FairQueue, || {
            match self.discipline {
                QueueDiscipline::Fifo => {
                    let entry = self.fifo.pop_front()?;
                    self.len -= 1;
                    Some((entry.item, entry.enqueued_at))
                }
                QueueDiscipline::WeightedFair => {
                    let (slot, tenant) = self.select_wfq(now)?;
                    let class = &mut self.classes[slot];
                    let tq = class.tenants.get_mut(&tenant).expect("selected tenant");
                    let entry = tq.items.pop_front().expect("selected non-empty");
                    if tq.items.is_empty() {
                        // Dropping the subqueue also forgets `last_finish`,
                        // which is correct: an idle tenant must not bank
                        // virtual-time credit, and restarts at the class
                        // virtual time.
                        class.tenants.remove(&tenant);
                    }
                    class.virtual_time = class.virtual_time.max(entry.tag);
                    class.len -= 1;
                    self.len -= 1;
                    Some((entry.item, entry.enqueued_at))
                }
            }
        })
    }

    /// The aging threshold applied to a starved candidate in class `slot`
    /// right now: the fixed threshold, or — under adaptive aging — the
    /// backlog-scaled threshold `min * (1 + items queued in higher
    /// classes)`, clamped to the configured `[min, max]`. An empty high
    /// class rescues quickly; a deep one defends priority, but never past
    /// `max`.
    fn aging_threshold_for(&self, slot: usize) -> SimDuration {
        let Some(AgingBounds { min, max }) = self.aging_bounds else {
            return self.aging;
        };
        let higher: usize = self.classes[slot + 1..].iter().map(|c| c.len).sum();
        let scaled = min.as_secs_f64() * (1.0 + higher as f64);
        SimDuration::from_secs_f64(scaled.clamp(min.as_secs_f64(), max.as_secs_f64()))
    }

    /// Picks `(class slot, tenant)` of the next WFQ victim: the starved
    /// item escape first, then the highest non-empty class's earliest
    /// finish tag (ties by arrival sequence).
    fn select_wfq(&self, now: SimTime) -> Option<(usize, TenantId)> {
        // Aging escape: among *all* queued heads, the oldest one that has
        // waited past the threshold is served regardless of class.
        let mut starved: Option<(SimTime, u64, usize, TenantId)> = None;
        for (slot, class) in self.classes.iter().enumerate() {
            let threshold = self.aging_threshold_for(slot);
            for (&tenant, tq) in &class.tenants {
                let head = tq.items.front().expect("subqueues are non-empty");
                if now.saturating_since(head.enqueued_at) >= threshold {
                    let key = (head.enqueued_at, head.seq, slot, tenant);
                    if starved.is_none_or(|best| (key.0, key.1) < (best.0, best.1)) {
                        starved = Some(key);
                    }
                }
            }
        }
        if let Some((_, _, slot, tenant)) = starved {
            return Some((slot, tenant));
        }
        // Strict priority: highest non-empty class wins.
        for slot in (0..self.classes.len()).rev() {
            let class = &self.classes[slot];
            if class.len == 0 {
                continue;
            }
            let (&tenant, _) = class
                .tenants
                .iter()
                .filter(|(_, tq)| !tq.items.is_empty())
                .min_by(|(_, a), (_, b)| {
                    let ha = a.items.front().expect("non-empty");
                    let hb = b.items.front().expect("non-empty");
                    ha.tag
                        .partial_cmp(&hb.tag)
                        .expect("finite tags")
                        .then(ha.seq.cmp(&hb.seq))
                })?;
            return Some((slot, tenant));
        }
        None
    }

    /// Empties the queue, returning every item in global arrival order —
    /// what a crashed node re-delivers. Fairness bookkeeping is reset.
    pub fn drain_in_arrival_order(&mut self) -> Vec<T> {
        let mut entries: Vec<Entry<T>> = self.fifo.drain(..).collect();
        for class in &mut self.classes {
            for (_, mut tq) in std::mem::take(&mut class.tenants) {
                entries.extend(tq.items.drain(..));
            }
            class.len = 0;
            class.virtual_time = 0.0;
        }
        entries.sort_by_key(|e| e.seq);
        self.len = 0;
        entries.into_iter().map(|e| e.item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wfq(shares: Vec<TenantShare>) -> FairQueue<u64> {
        FairQueue::new(&TenancyPolicy::weighted_fair(shares))
    }

    #[test]
    fn fifo_discipline_ignores_tenants() {
        let mut q: FairQueue<u64> = FairQueue::new(&TenancyPolicy::fifo());
        let now = SimTime::ZERO;
        q.push(now, TenantId(2), QosClass::Interactive, 0);
        q.push(now, TenantId(1), QosClass::BestEffort, 1);
        q.push(now, TenantId(3), QosClass::Standard, 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(now), Some(0));
        assert_eq!(q.pop(now), Some(1));
        assert_eq!(q.pop(now), Some(2));
        assert_eq!(q.pop(now), None);
    }

    #[test]
    fn single_tenant_wfq_is_fifo() {
        let mut q = wfq(vec![TenantShare::new(TenantId(1), 2.0)]);
        let now = SimTime::ZERO;
        for i in 0..20 {
            q.push(now, TenantId(1), QosClass::Standard, i);
        }
        for i in 0..20 {
            assert_eq!(q.pop(now), Some(i));
        }
    }

    #[test]
    fn strict_priority_between_classes() {
        let mut q = wfq(vec![]);
        let now = SimTime::ZERO;
        q.push(now, TenantId(1), QosClass::BestEffort, 0);
        q.push(now, TenantId(2), QosClass::Standard, 1);
        q.push(now, TenantId(3), QosClass::Interactive, 2);
        q.push(now, TenantId(3), QosClass::Interactive, 3);
        assert_eq!(q.pop(now), Some(2));
        assert_eq!(q.pop(now), Some(3));
        assert_eq!(q.pop(now), Some(1));
        assert_eq!(q.pop(now), Some(0));
    }

    #[test]
    fn weights_shape_the_drain_order() {
        // Weight 3 vs 1: over any prefix the heavy tenant gets ~3x the
        // service.
        let mut q = wfq(vec![
            TenantShare::new(TenantId(1), 1.0),
            TenantShare::new(TenantId(2), 3.0),
        ]);
        let now = SimTime::ZERO;
        for i in 0..40 {
            q.push(now, TenantId(1), QosClass::Standard, i);
            q.push(now, TenantId(2), QosClass::Standard, 100 + i);
        }
        let mut heavy = 0;
        for _ in 0..16 {
            if q.pop(now).expect("queued") >= 100 {
                heavy += 1;
            }
        }
        assert_eq!(heavy, 12, "3:1 split over the first 16 pops");
    }

    #[test]
    fn aging_rescues_starved_low_class_items() {
        let policy = TenancyPolicy::weighted_fair(vec![])
            .with_aging_threshold(SimDuration::from_secs_f64(10.0));
        let mut q: FairQueue<u64> = FairQueue::new(&policy);
        q.push(SimTime::ZERO, TenantId(1), QosClass::BestEffort, 0);
        // A continuous interactive stream would starve it under pure
        // strict priority...
        q.push(
            SimTime::from_secs_f64(1.0),
            TenantId(2),
            QosClass::Interactive,
            1,
        );
        assert_eq!(q.pop(SimTime::from_secs_f64(2.0)), Some(1));
        q.push(
            SimTime::from_secs_f64(3.0),
            TenantId(2),
            QosClass::Interactive,
            2,
        );
        // ...but once the best-effort item has waited past the threshold,
        // it jumps ahead of fresher interactive work.
        assert_eq!(q.pop(SimTime::from_secs_f64(12.0)), Some(0));
        assert_eq!(q.pop(SimTime::from_secs_f64(12.0)), Some(2));
    }

    #[test]
    fn idle_tenant_banks_no_credit() {
        let mut q = wfq(vec![]);
        let now = SimTime::ZERO;
        // Tenant 1 drains 10 items while tenant 2 is idle.
        for i in 0..10 {
            q.push(now, TenantId(1), QosClass::Standard, i);
        }
        for _ in 0..10 {
            q.pop(now);
        }
        // Tenant 2 arriving now does not get 10 items of catch-up; the
        // two alternate (equal weights).
        for i in 0..4 {
            q.push(now, TenantId(1), QosClass::Standard, 20 + i);
            q.push(now, TenantId(2), QosClass::Standard, 40 + i);
        }
        let mut t2_in_first_four = 0;
        for _ in 0..4 {
            if q.pop(now).expect("queued") >= 40 {
                t2_in_first_four += 1;
            }
        }
        assert_eq!(t2_in_first_four, 2, "equal weights alternate");
    }

    #[test]
    fn drain_returns_arrival_order_across_classes() {
        let mut q = wfq(vec![]);
        let now = SimTime::ZERO;
        q.push(now, TenantId(1), QosClass::BestEffort, 0);
        q.push(now, TenantId(2), QosClass::Interactive, 1);
        q.push(now, TenantId(1), QosClass::Standard, 2);
        assert_eq!(q.drain_in_arrival_order(), vec![0, 1, 2]);
        assert!(q.is_empty());
        // The queue still works after a drain.
        q.push(now, TenantId(9), QosClass::Standard, 7);
        assert_eq!(q.pop(now), Some(7));
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn non_positive_weights_rejected() {
        let _ = wfq(vec![TenantShare::new(TenantId(1), 0.0)]);
    }

    #[test]
    fn update_policy_recharges_new_pushes_only() {
        let mut q = wfq(vec![
            TenantShare::new(TenantId(1), 1.0),
            TenantShare::new(TenantId(2), 1.0),
        ]);
        let now = SimTime::ZERO;
        for i in 0..4 {
            q.push(now, TenantId(1), QosClass::Standard, i);
            q.push(now, TenantId(2), QosClass::Standard, 100 + i);
        }
        // Mid-run, tenant 2's weight jumps to 4x.
        q.update_policy(&TenancyPolicy::weighted_fair(vec![
            TenantShare::new(TenantId(1), 1.0),
            TenantShare::new(TenantId(2), 4.0),
        ]));
        // Queued items keep their old tags (equal weights alternate)...
        let mut heavy = 0;
        for _ in 0..4 {
            if q.pop(now).expect("queued") >= 100 {
                heavy += 1;
            }
        }
        assert_eq!(heavy, 2, "pre-update items drain under old tags");
        // ...and new pushes are charged at the new 4:1 weights.
        for _ in 0..4 {
            q.pop(now);
        }
        assert!(q.is_empty());
        for i in 0..10 {
            q.push(now, TenantId(1), QosClass::Standard, i);
            q.push(now, TenantId(2), QosClass::Standard, 100 + i);
        }
        let mut heavy = 0;
        for _ in 0..10 {
            if q.pop(now).expect("queued") >= 100 {
                heavy += 1;
            }
        }
        assert_eq!(heavy, 8, "4:1 split over the first 10 pops");
    }

    #[test]
    #[should_panic(expected = "cannot switch queue discipline")]
    fn update_policy_rejects_discipline_switch() {
        let mut q = wfq(vec![]);
        q.update_policy(&TenancyPolicy::fifo());
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn update_policy_rejects_non_positive_weight() {
        let mut q = wfq(vec![TenantShare::new(TenantId(1), 1.0)]);
        q.update_policy(&TenancyPolicy::weighted_fair(vec![TenantShare::new(
            TenantId(1),
            -2.0,
        )]));
    }

    #[test]
    #[should_panic(expected = "adaptive aging needs")]
    fn inverted_aging_bounds_rejected_at_construction() {
        let policy = TenancyPolicy::weighted_fair(vec![]).with_adaptive_aging(
            SimDuration::from_secs_f64(60.0),
            SimDuration::from_secs_f64(30.0),
        );
        let _: FairQueue<u64> = FairQueue::new(&policy);
    }

    #[test]
    fn gpu_cost_charge_shifts_shares_toward_cheap_work() {
        // Equal weights, but tenant 1's items cost 10 units and tenant
        // 2's cost 1: under cost charging, tenant 2 drains ~10 items per
        // tenant-1 item.
        let mut q = wfq(vec![]);
        let now = SimTime::ZERO;
        for i in 0..10 {
            q.push_weighted(now, TenantId(1), QosClass::Standard, 10.0, i);
            q.push_weighted(now, TenantId(2), QosClass::Standard, 1.0, 100 + i);
        }
        let mut cheap = 0;
        for _ in 0..11 {
            if q.pop(now).expect("queued") >= 100 {
                cheap += 1;
            }
        }
        assert_eq!(cheap, 10, "cost-charged shares favor cheap items 10:1");
    }

    #[test]
    fn unit_cost_push_weighted_matches_push() {
        let mut a = wfq(vec![TenantShare::new(TenantId(1), 3.0)]);
        let mut b = wfq(vec![TenantShare::new(TenantId(1), 3.0)]);
        let now = SimTime::ZERO;
        for i in 0..12 {
            let t = TenantId(1 + (i % 2) as u16);
            a.push(now, t, QosClass::Standard, i);
            b.push_weighted(now, t, QosClass::Standard, 1.0, i);
        }
        for _ in 0..12 {
            assert_eq!(a.pop(now), b.pop(now));
        }
    }

    #[test]
    fn pop_entry_reports_enqueue_time() {
        let mut q: FairQueue<u64> = FairQueue::new(&TenancyPolicy::fifo());
        q.push(
            SimTime::from_secs_f64(3.0),
            TenantId(1),
            QosClass::Standard,
            7,
        );
        let (item, at) = q.pop_entry(SimTime::from_secs_f64(9.0)).expect("queued");
        assert_eq!(item, 7);
        assert_eq!(at, SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn adaptive_aging_scales_with_higher_class_backlog() {
        let min = SimDuration::from_secs_f64(10.0);
        let max = SimDuration::from_secs_f64(40.0);
        let policy = TenancyPolicy::weighted_fair(vec![]).with_adaptive_aging(min, max);
        let mut q: FairQueue<u64> = FairQueue::new(&policy);
        // One best-effort item, then a 2-deep interactive backlog: the
        // effective threshold is min * (1 + 2) = 30 s.
        q.push(SimTime::ZERO, TenantId(1), QosClass::BestEffort, 0);
        q.push(
            SimTime::from_secs_f64(1.0),
            TenantId(2),
            QosClass::Interactive,
            1,
        );
        q.push(
            SimTime::from_secs_f64(1.0),
            TenantId(2),
            QosClass::Interactive,
            2,
        );
        // At 12 s the fixed-min threshold would already rescue item 0,
        // but the backlog-scaled one (30 s) has not elapsed.
        assert_eq!(q.pop(SimTime::from_secs_f64(12.0)), Some(1));
        q.push(
            SimTime::from_secs_f64(12.0),
            TenantId(2),
            QosClass::Interactive,
            3,
        );
        // At 31 s item 0 has aged past 30 s and jumps the queue.
        assert_eq!(q.pop(SimTime::from_secs_f64(31.0)), Some(0));
        assert_eq!(q.pop(SimTime::from_secs_f64(31.0)), Some(2));
    }

    #[test]
    fn adaptive_aging_never_exceeds_max() {
        let min = SimDuration::from_secs_f64(5.0);
        let max = SimDuration::from_secs_f64(20.0);
        let policy = TenancyPolicy::weighted_fair(vec![]).with_adaptive_aging(min, max);
        let mut q: FairQueue<u64> = FairQueue::new(&policy);
        q.push(SimTime::ZERO, TenantId(1), QosClass::BestEffort, 0);
        // A 100-deep interactive backlog would scale the threshold to
        // 505 s unclamped; max caps it at 20 s.
        for i in 0..100 {
            q.push(
                SimTime::from_secs_f64(1.0),
                TenantId(2),
                QosClass::Interactive,
                1 + i,
            );
        }
        assert_eq!(
            q.pop(SimTime::from_secs_f64(21.0)),
            Some(0),
            "max bounds starvation regardless of backlog"
        );
    }
}
