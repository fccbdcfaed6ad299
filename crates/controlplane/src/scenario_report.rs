//! The outcome of an adversarial-scenario run.
//!
//! A scenario run is a closed loop: rejected requests come *back* (with
//! backoff), tenants join and leave mid-run, and a whole region can
//! disappear. The flat per-tier reports cannot express that, so scenario
//! runs produce their own [`ScenarioReport`] — the familiar
//! latency/throughput/SLO/tenant surface plus two new axes:
//! [`RetryStats`] (offer amplification, re-offers, abandonments,
//! redeliveries) and per-region [`RegionSlice`]s. The serving engine
//! builds it from its final state, as it builds the fleet and elastic
//! reports; `modm-deploy` re-exports it and wraps it in its run outcome.

use modm_core::report::TenantSlice;
use modm_metrics::{LatencyReport, SloThresholds, ThroughputReport};
use modm_simkit::SimTime;

/// Closed-loop retry accounting over a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RetryStats {
    /// Total offers made to the serving fleet, including re-offers. One
    /// trace request that is rejected twice and then completes counts
    /// three offers.
    pub offers: u64,
    /// Offers that were retries of previously rejected requests.
    pub reoffers: u64,
    /// Trace requests whose clients gave up after exhausting their retry
    /// budget — the closed loop's only terminal besides completion and
    /// shedding.
    pub abandoned: u64,
    /// Requests re-offered to a surviving region after their region was
    /// lost (counted once per redelivered request, not per attempt).
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

/// One region's slice of a scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSlice {
    /// The region (index into the scenario's topology).
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

/// Everything measured during a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Per-completion end-to-end latencies, measured from the *original*
    /// arrival (a retried request's wait includes its backoff).
    pub latency: LatencyReport,
    /// Completion counts and rates.
    pub throughput: ThroughputReport,
    /// SLO reference for the deployment.
    pub slo: SloThresholds,
    /// Requests served from cache.
    pub hits: u64,
    /// Requests requiring full generation.
    pub misses: u64,
    /// Trace requests abandoned after exhausting their retry budget
    /// (unique requests, not per-offer refusals — see
    /// [`RetryStats::reoffers`] for those).
    pub rejected: u64,
    /// Requests shed at dispatch past the queue-time budget.
    pub shed: u64,
    /// Closed-loop retry accounting.
    pub retry: RetryStats,
    /// Per-region slices, in region order.
    pub regions: Vec<RegionSlice>,
    /// Per-tenant slices, sorted by tenant id.
    pub tenant_slices: Vec<TenantSlice>,
    /// Offers routed to each node (global node ids across regions).
    pub routed_per_node: Vec<u64>,
    /// GPU-hours consumed across both regions (lost regions stop
    /// billing at the loss instant).
    pub gpu_hours: f64,
    /// Virtual time of the last completion.
    pub finished_at: SimTime,
}

impl ScenarioReport {
    /// Total requests served.
    pub fn completed(&self) -> u64 {
        self.throughput.completed()
    }

    /// Cache hit rate over the run.
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

    /// SLO violation rate at `multiple` × the large-model latency.
    pub fn slo_violation_rate(&self, multiple: f64) -> f64 {
        self.latency.slo_violation_rate(&self.slo, multiple)
    }

    /// Goodput at `multiple` × the large-model latency: completions that
    /// met the SLO. Abandoned and shed requests never complete and score
    /// zero — which is what separates a converging retry policy from a
    /// storm.
    pub fn goodput(&self, multiple: f64) -> u64 {
        self.latency.goodput(&self.slo, multiple)
    }

    /// The slice for `region`, if the topology has it.
    pub fn region(&self, region: usize) -> Option<&RegionSlice> {
        self.regions.iter().find(|r| r.region == region)
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
