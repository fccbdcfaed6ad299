//! What an engine run measured: fleet-wide serving metrics, GPU-hours,
//! the control-plane event log, the per-window time series, retry
//! accounting, one slice per region and one serving report per node.

use modm_core::report::{ServingReport, TenantSlice};
use modm_fleet::{HandoffReport, ShardSummary};
use modm_metrics::{LatencyReport, SloThresholds};
use modm_simkit::SimTime;

use crate::autoscaler::ScaleDecision;

/// One control-plane action, timestamped in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEventKind {
    /// Scale-up started: the node began provisioning.
    ScaleUp {
        /// The node id.
        node: usize,
    },
    /// The node finished warming and joined the active set.
    NodeActive {
        /// The node id.
        node: usize,
        /// Cache entries migrated in to pre-warm the shard (the entries
        /// whose keyspace slice the node inherited).
        prewarmed: usize,
    },
    /// Scale-down started: the node left the active set and handed its
    /// hottest cache entries to its ring successors.
    ScaleDown {
        /// The node id.
        node: usize,
        /// What the cache handoff moved.
        handoff: HandoffReport,
    },
    /// The draining node finished its backlog and released its GPUs.
    Decommissioned {
        /// The node id.
        node: usize,
    },
    /// The node crashed: backlog re-delivered, cache shard lost.
    Crash {
        /// The node id.
        node: usize,
        /// Cache entries destroyed with the shard.
        lost_entries: usize,
        /// Queued + in-flight requests re-routed to survivors.
        redelivered: usize,
    },
    /// A crashed node began re-provisioning.
    RecoveryStarted {
        /// The node id.
        node: usize,
    },
}

/// A timestamped control-plane event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: FleetEventKind,
}

/// One control window's summary (the autoscaler's input, kept for the
/// record, plus what it decided).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Window end time.
    pub end: SimTime,
    /// Arrivals (including crash re-deliveries) per minute in the window.
    pub arrival_rate_per_min: f64,
    /// Completions in the window.
    pub completions: u64,
    /// Completions that had been cache hits.
    pub hits: u64,
    /// Completions that violated the SLO.
    pub slo_violations: u64,
    /// Nodes accepting traffic at the window edge.
    pub active_nodes: usize,
    /// Mean outstanding backlog per active node at the window edge.
    pub mean_queue_depth: f64,
    /// What the autoscaler decided at this window.
    pub decision: ScaleDecision,
}

impl WindowSample {
    /// Completion-based hit rate of the window (zero when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.hits as f64 / self.completions as f64
        }
    }
}

/// Closed-loop retry accounting over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RetryStats {
    /// Total offers made to the serving fleet, including re-offers. One
    /// trace request that is rejected twice and then completes counts
    /// three offers.
    pub offers: u64,
    /// Offers that were retries of previously rejected requests.
    pub reoffers: u64,
    /// Trace requests whose clients gave up after exhausting their retry
    /// budget (open-loop clients give up on the first refusal) — the
    /// only terminal besides completion and shedding.
    pub abandoned: u64,
    /// Requests re-offered after their node or region was lost (counted
    /// once per redelivered request, not per attempt).
    pub redelivered: u64,
}

impl RetryStats {
    /// Offer amplification: offers per unique first offer. `1.0` means no
    /// request was ever re-offered; a retry storm pushes this well above
    /// one.
    pub fn amplification(&self) -> f64 {
        let first = self.offers - self.reoffers;
        if first == 0 {
            return 0.0;
        }
        self.offers as f64 / first as f64
    }
}

/// One region's slice of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSlice {
    /// The region (index into the run's topology).
    pub region: usize,
    /// Offers routed into the region (before any loss).
    pub routed: u64,
    /// Requests the region completed.
    pub completed: u64,
    /// The region's cache hit rate over its completions.
    pub hit_rate: f64,
    /// When the region was lost, in virtual minutes (`None` if it
    /// survived the run).
    pub lost_at_mins: Option<f64>,
}

/// One node's slice of a run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node id.
    pub node: usize,
    /// Requests the router sent to this node.
    pub routed: u64,
    /// The node's serving report over the whole run. Its hit and miss
    /// counts are scheduler-level (folded from the requests it served or
    /// shed, which for a whole-run node are every request it admitted),
    /// and its `cache_stats` are the node's shard statistics.
    pub report: ServingReport,
}

/// Everything measured during an engine run, on every tier: a
/// [`crate::ServingSystem`], [`crate::Fleet`] or [`crate::ElasticFleet`]
/// run, or a multi-region [`crate::run_regions`] run.
///
/// The fleet-wide counters (`completed`, `hits`, `misses`, `rejected`,
/// `shed` and the tenant slices) are folded from the run's terminal log,
/// so each request counts once, at its terminal: a hit or a miss is
/// counted when the request completes.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Name of the autoscaling policy that drove the run.
    pub scaler: &'static str,
    /// Requests served (every trace request completes exactly once, even
    /// across crashes).
    pub completed: u64,
    /// Completions that were cache hits.
    pub hits: u64,
    /// Completions that were cache misses.
    pub misses: u64,
    /// Requests refused at admission by tenant token buckets and then
    /// abandoned by their clients (unique requests, not per-offer
    /// refusals — see [`RetryStats::reoffers`] for those).
    pub rejected: u64,
    /// Requests shed at dispatch after exceeding the queue-time budget.
    pub shed: u64,
    /// Fleet-wide end-to-end latencies, measured from the original
    /// arrival (crash re-deliveries and client retries keep it, so
    /// failures and backoff show up in the tail).
    pub latency: LatencyReport,
    /// The deployment's SLO reference.
    pub slo: SloThresholds,
    /// The SLO multiple the run was judged against.
    pub slo_multiple: f64,
    /// GPU-hours consumed: per-node occupancy (provisioning through
    /// draining, crash or region loss) × GPUs per node.
    pub gpu_hours: f64,
    /// The control-plane event log, in time order.
    pub events: Vec<FleetEvent>,
    /// Per-control-window series.
    pub windows: Vec<WindowSample>,
    /// Requests routed per node id (global ids across regions).
    pub routed_per_node: Vec<u64>,
    /// Closed-loop retry accounting.
    pub retry: RetryStats,
    /// Per-region slices, in region order (one for single-region runs).
    pub regions: Vec<RegionSlice>,
    /// One report per node, in id order, when every node served from time
    /// zero to the end of the run (every node of a fixed fleet); empty
    /// when nodes came and went.
    pub nodes: Vec<NodeReport>,
    /// Shard-cache counters, summed over every region's shards.
    pub cache: ShardSummary,
    /// Fleet-level per-tenant slices, sorted by tenant id
    /// (completion-based, like [`ElasticReport::latency`]).
    pub tenant_slices: Vec<TenantSlice>,
    /// Virtual time of the last completion.
    pub finished_at: SimTime,
}

impl ElasticReport {
    /// Completion-based cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.hits as f64 / self.completed as f64
        }
    }

    /// Fraction of requests meeting the SLO at the run's multiple.
    pub fn slo_attainment(&self) -> f64 {
        1.0 - self
            .latency
            .slo_violation_rate(&self.slo, self.slo_multiple)
    }

    /// Goodput at `multiple` x the large-model latency: completions
    /// that met that SLO (refused and shed work scores zero). Pass
    /// [`ElasticReport::slo_multiple`] to judge at the run's own
    /// multiple.
    pub fn goodput(&self, multiple: f64) -> u64 {
        self.latency.goodput(&self.slo, multiple)
    }

    /// Sustained throughput over the run, requests/minute.
    pub fn requests_per_minute(&self) -> f64 {
        let mins = self.finished_at.as_mins_f64();
        if mins <= 0.0 {
            0.0
        } else {
            self.completed as f64 / mins
        }
    }

    /// Max-over-mean of the per-node routed counts over every node id
    /// (1.0 = a perfectly balanced front end; zero before any offer).
    pub fn load_imbalance(&self) -> f64 {
        let total: u64 = self.routed_per_node.iter().sum();
        let Some(&max) = self.routed_per_node.iter().max() else {
            return 0.0;
        };
        if total == 0 {
            return 0.0;
        }
        max as f64 / (total as f64 / self.routed_per_node.len() as f64)
    }

    /// Mean active node count over the control windows.
    pub fn mean_active_nodes(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows
            .iter()
            .map(|w| w.active_nodes as f64)
            .sum::<f64>()
            / self.windows.len() as f64
    }

    /// Largest active node count any window saw.
    pub fn peak_active_nodes(&self) -> usize {
        self.windows
            .iter()
            .map(|w| w.active_nodes)
            .max()
            .unwrap_or(0)
    }

    /// The slice for `region`, if the topology has it.
    pub fn region(&self, region: usize) -> Option<&RegionSlice> {
        self.regions.iter().find(|r| r.region == region)
    }

    /// The first event matching `pred`, if any.
    pub fn find_event(&self, mut pred: impl FnMut(&FleetEventKind) -> bool) -> Option<&FleetEvent> {
        self.events.iter().find(|e| pred(&e.kind))
    }

    /// Completion-weighted hit rates over the `span` control windows
    /// ending at-or-before `at` and the `span` windows after it — the
    /// before/after probe for scale-down and crash events. (Scale events
    /// fire at a window edge, after that window's sample closes, so the
    /// boundary window's traffic is pre-event and belongs to the "before"
    /// side.) `None` until both sides have at least one completion.
    pub fn hit_rate_around(&self, at: SimTime, span: usize) -> Option<(f64, f64)> {
        let split = self.windows.partition_point(|w| w.end <= at);
        let agg = |ws: &[WindowSample]| {
            let hits: u64 = ws.iter().map(|w| w.hits).sum();
            let total: u64 = ws.iter().map(|w| w.completions).sum();
            (total > 0).then(|| hits as f64 / total as f64)
        };
        let before = agg(&self.windows[split.saturating_sub(span)..split])?;
        let after = agg(&self.windows[split..(split + span).min(self.windows.len())])?;
        Some((before, after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_counts_reoffers() {
        let calm = RetryStats {
            offers: 100,
            ..RetryStats::default()
        };
        assert_eq!(calm.amplification(), 1.0);
        let storm = RetryStats {
            offers: 300,
            reoffers: 200,
            abandoned: 40,
            redelivered: 0,
        };
        assert_eq!(storm.amplification(), 3.0);
        assert_eq!(RetryStats::default().amplification(), 0.0);
    }
}
