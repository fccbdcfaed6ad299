//! The outcome of a serving run: every number the paper's figures need.
//!
//! A run logs each request's terminal once, as a [`Terminal`] (served,
//! shed or abandoned); every count, latency, throughput and tenant view
//! of its reports is folded from that log when the run ends
//! ([`fold_terminals`]).

use std::collections::{BTreeMap, HashSet};

use modm_cache::CacheStats;
use modm_cluster::ClusterEnergy;
use modm_diffusion::{ModelId, K_CHOICES};
use modm_metrics::{LatencyReport, QualityAggregator, SloThresholds, ThroughputReport};
use modm_simkit::SimTime;
use modm_workload::{QosClass, TenantId};

use crate::scheduler::{RouteKind, RoutedRequest};

/// One observation of the monitor's allocation over time (Fig 10's regime
/// annotations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Number of workers hosting the large model.
    pub num_large: usize,
    /// The small model selected at that time.
    pub small_model: ModelId,
}

/// One tenant's slice of a serving run: who it is, what class it ran
/// under, and its own completion / cache / latency accounting. Every
/// report layer (node, fleet, elastic fleet) carries a sorted
/// `tenant_slices` vector; single-tenant runs carry exactly one slice for
/// [`TenantId::DEFAULT`].
#[derive(Debug, Clone, Default)]
pub struct TenantSlice {
    /// The tenant.
    pub tenant: TenantId,
    /// The QoS class its requests carried (the last seen, if mixed).
    pub qos: QosClass,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Its requests served from cache.
    pub hits: u64,
    /// Its requests requiring full generation.
    pub misses: u64,
    /// Its requests refused at admission by its token bucket.
    pub rejected: u64,
    /// Its requests shed at dispatch after exceeding the queue-time
    /// budget.
    pub shed: u64,
    /// Its end-to-end latency distribution.
    pub latency: LatencyReport,
}

impl TenantSlice {
    /// An empty slice for `tenant` under `qos`.
    pub fn new(tenant: TenantId, qos: QosClass) -> Self {
        TenantSlice {
            tenant,
            qos,
            ..TenantSlice::default()
        }
    }

    /// The tenant's cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of the tenant's requests meeting the SLO at `multiple` ×
    /// the large-model latency.
    pub fn slo_attainment(&self, slo: &SloThresholds, multiple: f64) -> f64 {
        1.0 - self.latency.slo_violation_rate(slo, multiple)
    }

    /// The tenant's P99 end-to-end latency, seconds.
    pub fn p99_secs(&mut self) -> Option<f64> {
        self.latency.p99_secs()
    }

    /// Requests the tenant offered: completed plus refused plus shed.
    pub fn offered(&self) -> u64 {
        self.completed + self.rejected + self.shed
    }

    /// The tenant's goodput at `multiple` × the SLO reference:
    /// completions that met the SLO (rejected and shed work scores
    /// zero).
    pub fn goodput(&self, slo: &SloThresholds, multiple: f64) -> u64 {
        self.latency.goodput(slo, multiple)
    }

    /// Counts one terminal: a served request's completion, latency and
    /// cache decision, a shed, or an abandonment.
    fn record(&mut self, t: &Terminal) {
        self.qos = t.qos;
        match t.outcome.kind() {
            TerminalKind::Served => {
                self.completed += 1;
                self.latency.record(t.arrival, t.at);
                self.hits += u64::from(t.outcome.is_hit());
                self.misses += u64::from(!t.outcome.is_hit());
            }
            TerminalKind::Shed => self.shed += 1,
            TerminalKind::Abandoned => self.rejected += 1,
        }
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// A worker served it.
    Served,
    /// Its node shed it at dispatch, past the queue-time budget.
    Shed,
    /// Its client gave up after a refusal at admission.
    Abandoned,
}

/// A terminal's kind and cache decision in one byte: the kind above bit
/// 3, and in bits 0–2 a miss (0), a hit at [`K_CHOICES`] slot `d - 1`
/// (`1..=6`) or a hit whose k is off that ladder (7). An abandoned
/// request was never decided and reads as a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome(u8);

impl Outcome {
    /// An abandoned request's outcome.
    pub const ABANDONED: Outcome = Outcome((TerminalKind::Abandoned as u8) << 3);

    /// A decided request's outcome: `hit_k` is the steps a hit skips.
    pub fn new(kind: TerminalKind, hit_k: Option<u32>) -> Outcome {
        let slot = |k| {
            K_CHOICES
                .iter()
                .position(|&c| c == k)
                .map_or(7, |s| s as u8 + 1)
        };
        Outcome((kind as u8) << 3 | hit_k.map_or(0, slot))
    }

    /// How the request ended.
    pub fn kind(self) -> TerminalKind {
        use TerminalKind::*;
        [Served, Shed, Abandoned][usize::from(self.0 >> 3)]
    }

    /// Whether the request was decided as a cache hit.
    pub fn is_hit(self) -> bool {
        self.0 & 7 != 0
    }

    /// A hit's [`K_CHOICES`] slot (`None` for a miss or an off-ladder k).
    pub fn k_slot(self) -> Option<usize> {
        let slot = usize::from(self.0 & 7).checked_sub(1);
        slot.filter(|&s| s < K_CHOICES.len())
    }
}

/// One request's terminal, as its run logged it: what every count,
/// latency, throughput and tenant view is folded from (24 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Terminal {
    /// First arrival (client retries and crash redeliveries keep it).
    pub arrival: SimTime,
    /// When it was served, shed or abandoned.
    pub at: SimTime,
    /// The node that served, shed or last refused it.
    pub node: u32,
    /// Its tenant.
    pub tenant: TenantId,
    /// Its QoS class.
    pub qos: QosClass,
    /// How it ended, and its cache decision.
    pub outcome: Outcome,
}

impl Terminal {
    /// The terminal of a routed request `node` served or shed at `at`.
    pub fn routed(routed: &RoutedRequest, node: usize, at: SimTime, kind: TerminalKind) -> Self {
        let hit_k = match routed.route {
            RouteKind::Hit { k, .. } => Some(k),
            RouteKind::Miss => None,
        };
        Terminal {
            arrival: routed.arrival,
            at,
            node: node as u32,
            tenant: routed.tenant,
            qos: routed.qos,
            outcome: Outcome::new(kind, hit_k),
        }
    }
}

/// A run's terminal log: one [`Terminal`] per request, in the order the
/// requests ended (it derefs to the records). Debug builds also keep the
/// logged request ids in a side set: a second terminal for one id
/// panics, and [`TerminalLog::assert_covers`] checks that every expected
/// id logged one.
#[derive(Debug, Default)]
pub struct TerminalLog {
    records: Vec<Terminal>,
    ids: HashSet<u64>,
}

impl std::ops::Deref for TerminalLog {
    type Target = [Terminal];

    fn deref(&self) -> &[Terminal] {
        &self.records
    }
}

impl TerminalLog {
    /// An empty log with room for `capacity` terminals.
    pub fn with_capacity(capacity: usize) -> Self {
        let records = Vec::with_capacity(capacity);
        TerminalLog {
            records,
            ids: HashSet::new(),
        }
    }

    /// Logs request `request_id`'s terminal; debug builds panic if it
    /// already logged one.
    pub fn push(&mut self, request_id: u64, terminal: Terminal) {
        let fresh = !cfg!(debug_assertions) || self.ids.insert(request_id);
        assert!(fresh, "request {request_id} logged a second terminal");
        self.records.push(terminal);
    }

    /// When the last served request completed.
    pub fn finished_at(&self) -> SimTime {
        let served = |t: &&Terminal| t.outcome.kind() == TerminalKind::Served;
        self.iter()
            .rev()
            .find(served)
            .map_or(SimTime::ZERO, |t| t.at)
    }

    /// Debug builds: panics unless every id in `ids` logged a terminal.
    pub fn assert_covers(&self, ids: impl IntoIterator<Item = u64>) {
        if cfg!(debug_assertions) {
            for id in ids {
                assert!(self.ids.contains(&id), "request {id} logged no terminal");
            }
        }
    }
}

/// The fleet-wide views of a run's terminal log.
#[derive(Debug, Clone, Default)]
pub struct FleetViews {
    /// Every completion's end-to-end latency.
    pub latency: LatencyReport,
    /// Per-tenant slices, each counting its tenant's terminals.
    pub tenants: BTreeMap<TenantId, TenantSlice>,
    /// `(completed, hits)` per node id: the caller sizes it, one entry per
    /// node.
    pub nodes: Vec<(u64, u64)>,
}

/// Folds a run's terminal log in one pass, in logging order, so every
/// view sees its samples in the order the requests ended: into `fleet`
/// when given, and into `nodes[t.node]` when `nodes` holds one report per
/// node id. A node folds the requests it served or shed (its refusals
/// are its own count), and counts each one's cache decision.
pub fn fold_terminals(
    log: &[Terminal],
    mut fleet: Option<&mut FleetViews>,
    nodes: &mut [ServingReport],
) {
    for t in log {
        let (kind, hit) = (t.outcome.kind(), t.outcome.is_hit());
        if let Some(fleet) = fleet.as_deref_mut() {
            let slice = fleet.tenants.entry(t.tenant);
            slice
                .or_insert_with(|| TenantSlice::new(t.tenant, t.qos))
                .record(t);
            if kind == TerminalKind::Served {
                fleet.latency.record(t.arrival, t.at);
                let tally = &mut fleet.nodes[t.node as usize];
                tally.0 += 1;
                tally.1 += u64::from(hit);
            }
        }
        let report = match nodes.get_mut(t.node as usize) {
            Some(report) if kind != TerminalKind::Abandoned => report,
            _ => continue,
        };
        let slices = &mut report.tenant_slices;
        let at = slices.binary_search_by_key(&t.tenant, |s| s.tenant);
        let at = at.unwrap_or_else(|at| {
            slices.insert(at, TenantSlice::new(t.tenant, t.qos));
            at
        });
        slices[at].record(t);
        report.hits += u64::from(hit);
        report.misses += u64::from(!hit);
        if let Some(slot) = t.outcome.k_slot() {
            report.k_histogram[slot] += 1;
        }
        if kind == TerminalKind::Served {
            report.latency.record(t.arrival, t.at);
            report.throughput.record_completion(t.at);
        } else {
            report.shed += 1;
            slices[at].hits += u64::from(hit);
            slices[at].misses += u64::from(!hit);
        }
    }
}

/// Everything measured on one serving node during a run: each node's
/// share of an engine run, and a baseline's whole run.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Per-request end-to-end latencies.
    pub latency: LatencyReport,
    /// Completion counts and rates.
    pub throughput: ThroughputReport,
    /// Quality metrics over all served images.
    pub quality: QualityAggregator,
    /// Cluster energy over the run.
    pub energy: ClusterEnergy,
    /// SLO reference for this deployment.
    pub slo: SloThresholds,
    /// Cache statistics (hit ages feed Fig 15).
    pub cache_stats: CacheStats,
    /// Scheduler-level cache hits: the node's served and shed requests
    /// decided as hits, folded from its terminals. A node that served
    /// the whole run served or shed every request it admitted, so this
    /// equals the hits decided at admission.
    pub hits: u64,
    /// Scheduler-level cache misses, folded like [`ServingReport::hits`].
    pub misses: u64,
    /// Requests refused at admission by tenant token buckets (the
    /// node's own count: a retried refusal is not a terminal).
    pub rejected: u64,
    /// Requests shed at dispatch after exceeding the queue-time budget.
    pub shed: u64,
    /// Hits per k value, in [`K_CHOICES`] order, folded like
    /// [`ServingReport::hits`].
    pub k_histogram: [u64; K_CHOICES.len()],
    /// Monitor allocation over time.
    pub allocation_series: Vec<AllocationSample>,
    /// Per-tenant slices, sorted by tenant id (hits and misses
    /// scheduler-level, like [`ServingReport::hits`]).
    pub tenant_slices: Vec<TenantSlice>,
    /// Total model switches across workers.
    pub model_switches: u64,
    /// Virtual time of the last completion.
    pub finished_at: SimTime,
}

impl ServingReport {
    /// Total requests served.
    pub fn completed(&self) -> u64 {
        self.throughput.completed()
    }

    /// Scheduler-level cache hit rate over the serving phase.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Sustained throughput in requests/minute.
    pub fn requests_per_minute(&self) -> f64 {
        self.throughput.requests_per_minute()
    }

    /// P99 end-to-end latency in seconds.
    pub fn p99_secs(&mut self) -> Option<f64> {
        self.latency.p99_secs()
    }

    /// SLO violation rate at `multiple` x the large-model latency.
    pub fn slo_violation_rate(&self, multiple: f64) -> f64 {
        self.latency.slo_violation_rate(&self.slo, multiple)
    }

    /// Goodput at `multiple` x the large-model latency: completions that
    /// met the SLO. Refused and shed requests never complete and so
    /// score zero.
    pub fn goodput(&self, multiple: f64) -> u64 {
        self.latency.goodput(&self.slo, multiple)
    }

    /// Mean denoising steps skipped per hit.
    pub fn mean_k(&self) -> f64 {
        let total: u64 = self.k_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .k_histogram
            .iter()
            .zip(K_CHOICES)
            .map(|(&c, k)| c as f64 * k as f64)
            .sum();
        weighted / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_cluster::GpuKind;

    fn empty_report() -> ServingReport {
        ServingReport {
            latency: LatencyReport::new(),
            throughput: ThroughputReport::new(),
            quality: QualityAggregator::new(),
            energy: ClusterEnergy {
                total_joules: 0.0,
                busy_joules: 0.0,
                utilization: 0.0,
            },
            slo: SloThresholds::for_deployment(GpuKind::Mi210, ModelId::Sd35Large),
            cache_stats: CacheStats::new(),
            hits: 0,
            misses: 0,
            rejected: 0,
            shed: 0,
            k_histogram: [0; K_CHOICES.len()],
            allocation_series: Vec::new(),
            tenant_slices: Vec::new(),
            model_switches: 0,
            finished_at: SimTime::ZERO,
        }
    }

    #[test]
    fn hit_rate_and_k_stats() {
        let mut r = empty_report();
        r.hits = 3;
        r.misses = 1;
        r.k_histogram = [1, 0, 0, 0, 0, 2]; // one k=5, two k=30
        assert_eq!(r.hit_rate(), 0.75);
        assert!((r.mean_k() - (5.0 + 60.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_terminal_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Terminal>(), 24);
    }

    #[test]
    fn outcome_packs_kind_and_decision_in_one_byte() {
        for kind in [TerminalKind::Served, TerminalKind::Shed] {
            let miss = Outcome::new(kind, None);
            assert_eq!(
                (miss.kind(), miss.is_hit(), miss.k_slot()),
                (kind, false, None)
            );
            for (slot, k) in K_CHOICES.into_iter().enumerate() {
                let hit = Outcome::new(kind, Some(k));
                assert_eq!(
                    (hit.kind(), hit.is_hit(), hit.k_slot()),
                    (kind, true, Some(slot))
                );
            }
            let off = Outcome::new(kind, Some(50));
            assert_eq!((off.kind(), off.is_hit(), off.k_slot()), (kind, true, None));
        }
        let gone = Outcome::ABANDONED;
        assert_eq!(gone.kind(), TerminalKind::Abandoned);
        assert!(!gone.is_hit());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "request 7 logged a second terminal")]
    fn a_second_terminal_for_one_id_panics() {
        let shed = Terminal {
            arrival: SimTime::ZERO,
            at: SimTime::ZERO,
            node: 0,
            tenant: TenantId::DEFAULT,
            qos: QosClass::default(),
            outcome: Outcome::new(TerminalKind::Shed, None),
        };
        let mut log = TerminalLog::default();
        log.push(7, shed);
        log.assert_covers([7]);
        log.push(7, shed);
    }

    #[test]
    fn empty_report_is_safe() {
        let mut r = empty_report();
        assert_eq!(r.completed(), 0);
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.mean_k(), 0.0);
        assert!(r.p99_secs().is_none());
        assert_eq!(r.slo_violation_rate(2.0), 0.0);
    }
}
