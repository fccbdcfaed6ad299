//! The outcome of a serving run: every number the paper's figures need.
//!
//! A run logs each completion once, as a [`Completion`]; the latency,
//! throughput and tenant views of its reports are folded from that log
//! when the run ends ([`fold_completions`]).

use std::collections::BTreeMap;

use modm_cache::CacheStats;
use modm_cluster::ClusterEnergy;
use modm_diffusion::{ModelId, K_CHOICES};
use modm_metrics::{LatencyReport, QualityAggregator, SloThresholds, ThroughputReport};
use modm_simkit::SimTime;
use modm_workload::{QosClass, TenantId};

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

    /// Merges another slice's overload counters into this one (what the
    /// fleet-level aggregations use to absorb per-node refusals and
    /// sheds, which never reach the completion path).
    pub fn absorb_overload(&mut self, rejected: u64, shed: u64) {
        self.rejected += rejected;
        self.shed += shed;
    }
}

/// One completed request, as its run logged it: what every latency,
/// throughput and tenant view is folded from (24 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// First arrival (client retries and crash redeliveries keep it).
    pub arrival: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// The node that served it.
    pub node: u32,
    /// Its tenant.
    pub tenant: TenantId,
    /// Its QoS class.
    pub qos: QosClass,
    /// Whether it was served from cache.
    pub hit: bool,
}

/// The fleet-wide views of a run's completion log.
#[derive(Debug, Clone, Default)]
pub struct FleetViews {
    /// Every completion's end-to-end latency.
    pub latency: LatencyReport,
    /// Per-tenant slices: the fold adds `completed`, `hits`, `misses` and
    /// `latency` and sets `qos` to the last completion's class.
    pub tenants: BTreeMap<TenantId, TenantSlice>,
    /// `(completed, hits)` per node id: the caller sizes it, one entry per
    /// node.
    pub nodes: Vec<(u64, u64)>,
}

/// Folds a run's completion log in one pass, in completion order, so
/// every view sees its samples in the order they completed: into `fleet`
/// when given, and into `nodes[c.node]` (latency, throughput and the
/// tenant slice's `completed` and `latency`) when `nodes` holds one
/// report per node id.
pub fn fold_completions(
    log: &[Completion],
    mut fleet: Option<&mut FleetViews>,
    nodes: &mut [ServingReport],
) {
    for c in log {
        if let Some(fleet) = fleet.as_deref_mut() {
            fleet.latency.record(c.arrival, c.finished);
            let slice = fleet
                .tenants
                .entry(c.tenant)
                .or_insert_with(|| TenantSlice::new(c.tenant, c.qos));
            slice.qos = c.qos;
            slice.completed += 1;
            slice.latency.record(c.arrival, c.finished);
            if c.hit {
                slice.hits += 1;
            } else {
                slice.misses += 1;
            }
            let tally = &mut fleet.nodes[c.node as usize];
            tally.0 += 1;
            tally.1 += u64::from(c.hit);
        }
        if let Some(report) = nodes.get_mut(c.node as usize) {
            report.latency.record(c.arrival, c.finished);
            report.throughput.record_completion(c.finished);
            let slices = &mut report.tenant_slices;
            let at = slices
                .binary_search_by_key(&c.tenant, |s| s.tenant)
                .expect("a node holds a slice for every tenant it admitted");
            slices[at].completed += 1;
            slices[at].latency.record(c.arrival, c.finished);
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
    /// Scheduler-level cache hits: requests decided as hits when they
    /// were admitted, shed work included.
    pub hits: u64,
    /// Scheduler-level cache misses: requests decided as misses when
    /// they were admitted, shed work included.
    pub misses: u64,
    /// Requests refused at admission by tenant token buckets.
    pub rejected: u64,
    /// Requests shed at dispatch after exceeding the queue-time budget.
    pub shed: u64,
    /// Hits per k value, in [`K_CHOICES`] order.
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
    fn empty_report_is_safe() {
        let mut r = empty_report();
        assert_eq!(r.completed(), 0);
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.mean_k(), 0.0);
        assert!(r.p99_secs().is_none());
        assert_eq!(r.slo_violation_rate(2.0), 0.0);
    }
}
