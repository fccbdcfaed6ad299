//! Fleet-level results: per-node [`ServingReport`]s plus the aggregate
//! latency/throughput/SLO/hit-rate view a fleet operator reads.

use modm_core::report::{ServingReport, TenantSlice};
use modm_metrics::{LatencyReport, ThroughputReport};
use modm_simkit::SimTime;

use crate::router::RoutingPolicy;
use crate::shard::ShardSummary;

/// One node's slice of a fleet run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Requests the router sent to this node.
    pub routed: u64,
    /// The node's full serving report (its `cache_stats` are the node's
    /// shard statistics).
    pub report: ServingReport,
}

/// Everything measured during a fixed-fleet run
/// (`modm_controlplane::Fleet`, and the single node as a fleet of one).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The routing policy the run used.
    pub policy: RoutingPolicy,
    /// Per-node reports, in node order.
    pub nodes: Vec<NodeReport>,
    /// Fleet-wide end-to-end latencies (every request, regardless of node).
    pub latency: LatencyReport,
    /// Fleet-wide completion accounting.
    pub throughput: ThroughputReport,
    /// Aggregated shard-cache counters.
    pub cache: ShardSummary,
    /// Fleet-level per-tenant slices, sorted by tenant id
    /// (completion-based, like [`FleetReport::latency`]).
    pub tenant_slices: Vec<TenantSlice>,
    /// Virtual time of the last completion anywhere in the fleet.
    pub finished_at: SimTime,
}

impl FleetReport {
    /// Total requests served across the fleet.
    pub fn completed(&self) -> u64 {
        self.throughput.completed()
    }

    /// Total scheduler-level cache hits.
    pub fn hits(&self) -> u64 {
        self.nodes.iter().map(|n| n.report.hits).sum()
    }

    /// Total scheduler-level cache misses.
    pub fn misses(&self) -> u64 {
        self.nodes.iter().map(|n| n.report.misses).sum()
    }

    /// Total requests refused at admission across the fleet.
    pub fn rejected(&self) -> u64 {
        self.nodes.iter().map(|n| n.report.rejected).sum()
    }

    /// Total requests shed past the queue-time budget across the fleet.
    pub fn shed(&self) -> u64 {
        self.nodes.iter().map(|n| n.report.shed).sum()
    }

    /// Fleet-wide goodput at `multiple` x the large-model latency:
    /// completions that met the SLO (refused and shed work scores zero).
    ///
    /// # Panics
    ///
    /// Panics if the fleet has no nodes.
    pub fn goodput(&self, multiple: f64) -> u64 {
        let slo = self.nodes.first().expect("fleet has nodes").report.slo;
        self.latency.goodput(&slo, multiple)
    }

    /// Aggregate cache hit rate over the serving phase.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Sustained fleet throughput in requests/minute.
    pub fn requests_per_minute(&self) -> f64 {
        self.throughput.requests_per_minute()
    }

    /// Fleet-wide P99 end-to-end latency in seconds.
    pub fn p99_secs(&mut self) -> Option<f64> {
        self.latency.p99_secs()
    }

    /// Fleet-wide SLO violation rate at `multiple` x the large-model
    /// latency (all nodes share one deployment, hence one SLO reference).
    ///
    /// # Panics
    ///
    /// Panics if the fleet has no nodes.
    pub fn slo_violation_rate(&self, multiple: f64) -> f64 {
        let slo = self.nodes.first().expect("fleet has nodes").report.slo;
        self.latency.slo_violation_rate(&slo, multiple)
    }

    /// Max-over-mean of per-node routed request counts (1.0 = perfectly
    /// balanced front-end).
    pub fn load_imbalance(&self) -> f64 {
        let total: u64 = self.nodes.iter().map(|n| n.routed).sum();
        if total == 0 || self.nodes.is_empty() {
            return 0.0;
        }
        let max = self
            .nodes
            .iter()
            .map(|n| n.routed)
            .max()
            .expect("non-empty") as f64;
        max / (total as f64 / self.nodes.len() as f64)
    }

    /// Total energy across every node's workers, joules.
    pub fn total_energy_joules(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.report.energy.total_joules)
            .sum()
    }

    /// Mean denoising steps skipped per hit, fleet-wide.
    pub fn mean_k(&self) -> f64 {
        let mut hist = [0u64; modm_diffusion::K_CHOICES.len()];
        for n in &self.nodes {
            for (slot, &c) in hist.iter_mut().zip(&n.report.k_histogram) {
                *slot += c;
            }
        }
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = hist
            .iter()
            .zip(modm_diffusion::K_CHOICES)
            .map(|(&c, k)| c as f64 * k as f64)
            .sum();
        weighted / total as f64
    }
}
