//! The [`TelemetryObserver`]: one observer that feeds every telemetry
//! pillar from the typed event stream.
//!
//! Attach it to any tier through the existing observer plumbing
//! (`run_observed` / `DeployOptions`) and it maintains, in one pass:
//!
//! * the metrics [`Registry`] — counters and latency histograms
//!   keyed by `(metric, tenant, node)`;
//! * the [`SeriesBank`] — windowed time series of completions,
//!   rejections, sheds, goodput, hits/misses and queue depth;
//! * the [`SpanTracker`] — per-request stage timing folded into a
//!   per-tenant latency breakdown;
//! * the [`AlertEngine`] — multi-window SLO burn-rate rules over the
//!   terminal sample stream;
//! * per-tenant cumulative SLO attainment, with the first time each
//!   tenant fell through the target (what burn-rate alerts must beat).
//!
//! The observer is deliberately pull-free: it never touches the
//! simulation, so an observed run is bit-identical to an unobserved one
//! (the deploy-layer equivalence tests pin this for observers in
//! general, and `tests/telemetry.rs` re-checks it for this one).

use std::collections::BTreeMap;

use modm_core::events::{Observer, SimEvent};
use modm_simkit::{SimDuration, SimTime};
use modm_workload::TenantId;

use crate::alerts::{Alert, AlertEngine, BurnRateRule};
use crate::registry::{Key, Registry};
use crate::series::SeriesBank;
use crate::spans::SpanTracker;

/// Stable metric names, Prometheus-style.
pub mod metric {
    /// Requests admitted into a node's queues.
    pub const ADMITTED: &str = "modm_requests_admitted_total";
    /// Requests refused at admission.
    pub const REJECTED: &str = "modm_requests_rejected_total";
    /// Requests shed past their queue-time budget.
    pub const SHED: &str = "modm_requests_shed_total";
    /// Requests handed to a worker.
    pub const DISPATCHED: &str = "modm_requests_dispatched_total";
    /// Requests completed.
    pub const COMPLETED: &str = "modm_requests_completed_total";
    /// Completions that met the SLO latency bound.
    pub const GOODPUT: &str = "modm_requests_goodput_total";
    /// Completions that violated the SLO latency bound.
    pub const SLO_VIOLATIONS: &str = "modm_slo_violations_total";
    /// Scheduler-level cache hits.
    pub const CACHE_HITS: &str = "modm_cache_hits_total";
    /// Scheduler-level cache misses.
    pub const CACHE_MISSES: &str = "modm_cache_misses_total";
    /// End-to-end request latency, seconds (histogram).
    pub const LATENCY: &str = "modm_request_latency_seconds";
    /// Retry-after hints carried on refusals, seconds (histogram).
    pub const RETRY_AFTER: &str = "modm_retry_after_seconds";
    /// Queued-but-not-dispatched requests (windowed gauge series).
    pub const QUEUE_DEPTH: &str = "modm_queue_depth";
    /// Control plane: scale-up decisions.
    pub const SCALE_UPS: &str = "modm_scale_ups_total";
    /// Control plane: nodes activated.
    pub const NODES_ACTIVATED: &str = "modm_nodes_activated_total";
    /// Control plane: scale-down decisions.
    pub const SCALE_DOWNS: &str = "modm_scale_downs_total";
    /// Control plane: nodes decommissioned.
    pub const DECOMMISSIONS: &str = "modm_nodes_decommissioned_total";
    /// Control plane: node crashes.
    pub const CRASHES: &str = "modm_node_crashes_total";
    /// Control plane: crash recoveries started.
    pub const RECOVERIES: &str = "modm_node_recoveries_total";
}

/// Completions a tenant must have before its cumulative attainment is
/// allowed to register a drop (guards the first-sample noise where one
/// slow request reads as 0% attainment).
pub const ATTAINMENT_MIN_SAMPLES: u64 = 10;

/// Configuration for a [`TelemetryObserver`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window width of every time series (default 60 s).
    pub window: SimDuration,
    /// SLO latency bound, seconds: completions above it are violations
    /// and burn-rate fuel. Defaults to `f64::INFINITY` (nothing ever
    /// violates, alerts never fire) — set it via
    /// [`TelemetryConfig::new`] for SLO-aware runs.
    pub slo_bound_secs: f64,
    /// SLO attainment target in `(0, 1)`; `1 - target` is the error
    /// budget burn rates are measured against (default 0.9).
    pub slo_target: f64,
    /// Burn-rate rules (default: one `slo-burn` rule, 60 s fast window,
    /// 300 s slow window, 2x threshold).
    pub rules: Vec<BurnRateRule>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: SimDuration::from_secs_f64(60.0),
            slo_bound_secs: f64::INFINITY,
            slo_target: 0.9,
            rules: vec![BurnRateRule::new(
                "slo-burn",
                SimDuration::from_secs_f64(60.0),
                SimDuration::from_secs_f64(300.0),
            )],
        }
    }
}

impl TelemetryConfig {
    /// The default configuration with an SLO latency bound.
    pub fn new(slo_bound_secs: f64) -> Self {
        TelemetryConfig {
            slo_bound_secs,
            ..TelemetryConfig::default()
        }
    }

    /// Overrides the attainment target.
    pub fn with_slo_target(mut self, slo_target: f64) -> Self {
        self.slo_target = slo_target;
        self
    }

    /// Replaces the burn-rate rule set.
    pub fn with_rules(mut self, rules: Vec<BurnRateRule>) -> Self {
        self.rules = rules;
        self
    }
}

/// One tenant's cumulative attainment state.
#[derive(Debug, Clone, Copy, Default)]
struct Attainment {
    good: u64,
    total: u64,
    first_below: Option<SimTime>,
}

/// The all-pillars telemetry observer. See the module docs.
#[derive(Debug, Clone)]
pub struct TelemetryObserver {
    config: TelemetryConfig,
    registry: Registry,
    series: SeriesBank,
    spans: SpanTracker,
    alerts: AlertEngine,
    /// Per-node queued-not-dispatched depth (reset on crash: the
    /// backlog is re-delivered and re-admitted elsewhere), dense by
    /// node id, with the fleet-wide total maintained incrementally so
    /// the per-event depth sample is O(1).
    depth: Vec<u64>,
    depth_total: u64,
    attainment: BTreeMap<TenantId, Attainment>,
}

impl Default for TelemetryObserver {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl TelemetryObserver {
    /// An observer with the given configuration.
    pub fn new(config: TelemetryConfig) -> Self {
        let alerts = AlertEngine::new(config.slo_target, config.rules.clone());
        let series = SeriesBank::new(config.window);
        TelemetryObserver {
            config,
            registry: Registry::new(),
            series,
            spans: SpanTracker::new(),
            alerts,
            depth: Vec::new(),
            depth_total: 0,
            attainment: BTreeMap::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The windowed series bank.
    pub fn series(&self) -> &SeriesBank {
        &self.series
    }

    /// The request-span tracker and its per-tenant breakdown.
    pub fn spans(&self) -> &SpanTracker {
        &self.spans
    }

    /// Every burn-rate alert fired, in time order.
    pub fn alerts(&self) -> &[Alert] {
        self.alerts.alerts()
    }

    /// The first burn-rate alert, if any fired.
    pub fn first_alert(&self) -> Option<&Alert> {
        self.alerts.first_alert()
    }

    /// The first burn-rate alert's virtual time in seconds, if any
    /// fired — the scalar form downstream snapshots (e.g.
    /// `modm-trace`'s run-diff) fold into their reports.
    pub fn first_alert_secs(&self) -> Option<f64> {
        self.first_alert().map(|a| a.at.as_secs_f64())
    }

    /// The first virtual time `tenant`'s *cumulative* SLO attainment
    /// fell below the configured target (after at least
    /// [`ATTAINMENT_MIN_SAMPLES`] completions), if it ever did — the
    /// collapse moment a burn-rate alert is supposed to precede.
    pub fn attainment_first_below(&self, tenant: TenantId) -> Option<SimTime> {
        self.attainment.get(&tenant).and_then(|a| a.first_below)
    }

    /// `tenant`'s cumulative attainment so far (1.0 before any
    /// completion).
    pub fn attainment(&self, tenant: TenantId) -> f64 {
        match self.attainment.get(&tenant) {
            Some(a) if a.total > 0 => a.good as f64 / a.total as f64,
            _ => 1.0,
        }
    }

    /// Per-window cache hit rate, from the hit/miss series (0 for
    /// windows without lookups).
    pub fn hit_rate_windows(&self) -> Vec<f64> {
        let hits = self.series.window_sums(metric::CACHE_HITS, None);
        let misses = self.series.window_sums(metric::CACHE_MISSES, None);
        let len = hits.len().max(misses.len());
        (0..len)
            .map(|i| {
                let h = hits.get(i).copied().unwrap_or(0.0);
                let m = misses.get(i).copied().unwrap_or(0.0);
                if h + m == 0.0 {
                    0.0
                } else {
                    h / (h + m)
                }
            })
            .collect()
    }

    fn total_depth(&self) -> u64 {
        self.depth_total
    }

    fn depth_slot(&mut self, node: usize) -> &mut u64 {
        if node >= self.depth.len() {
            self.depth.resize(node + 1, 0);
        }
        &mut self.depth[node]
    }

    fn record_depth(&mut self, at: SimTime) {
        let depth = self.total_depth() as f64;
        self.series.record(at, metric::QUEUE_DEPTH, None, depth);
    }

    fn record_terminal_sample(&mut self, at: SimTime, bad: bool) {
        self.alerts.record(at, bad);
    }
}

impl Observer for TelemetryObserver {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        match *event {
            SimEvent::Admitted {
                node,
                request_id,
                tenant,
            } => {
                self.registry
                    .inc(Key::new(metric::ADMITTED, Some(tenant), Some(node)), 1);
                self.series.record(at, metric::ADMITTED, Some(tenant), 1.0);
                *self.depth_slot(node) += 1;
                self.depth_total += 1;
                self.record_depth(at);
                self.spans.admitted(at, request_id, tenant);
            }
            SimEvent::Rejected {
                node,
                request_id,
                tenant,
                retry_after_secs,
            } => {
                self.registry
                    .inc(Key::new(metric::REJECTED, Some(tenant), Some(node)), 1);
                self.series.record(at, metric::REJECTED, Some(tenant), 1.0);
                self.registry.observe(
                    Key::new(metric::RETRY_AFTER, Some(tenant), None),
                    retry_after_secs,
                );
                self.spans.rejected(request_id, tenant);
                self.record_terminal_sample(at, true);
            }
            SimEvent::ShedDeadline {
                node,
                request_id,
                tenant,
                waited_secs,
            } => {
                self.registry
                    .inc(Key::new(metric::SHED, Some(tenant), Some(node)), 1);
                self.series.record(at, metric::SHED, Some(tenant), 1.0);
                let d = self.depth_slot(node);
                if *d > 0 {
                    *d -= 1;
                    self.depth_total -= 1;
                }
                self.record_depth(at);
                self.spans.shed(request_id, tenant, waited_secs);
                self.record_terminal_sample(at, true);
            }
            SimEvent::CacheHit {
                node,
                request_id,
                tenant,
                k: _,
            } => {
                self.registry
                    .inc(Key::new(metric::CACHE_HITS, Some(tenant), Some(node)), 1);
                self.series
                    .record(at, metric::CACHE_HITS, Some(tenant), 1.0);
                self.spans.cache_decision(request_id, true);
            }
            SimEvent::CacheMiss {
                node,
                request_id,
                tenant,
            } => {
                self.registry
                    .inc(Key::new(metric::CACHE_MISSES, Some(tenant), Some(node)), 1);
                self.series
                    .record(at, metric::CACHE_MISSES, Some(tenant), 1.0);
                self.spans.cache_decision(request_id, false);
            }
            SimEvent::Dispatched {
                node,
                worker: _,
                request_id,
                tenant,
                model: _,
            } => {
                self.registry
                    .inc(Key::new(metric::DISPATCHED, Some(tenant), Some(node)), 1);
                let d = self.depth_slot(node);
                if *d > 0 {
                    *d -= 1;
                    self.depth_total -= 1;
                }
                self.record_depth(at);
                self.spans.dispatched(at, request_id);
            }
            SimEvent::Completed {
                node,
                request_id,
                tenant,
                latency_secs,
                hit: _,
            } => {
                self.registry
                    .inc(Key::new(metric::COMPLETED, Some(tenant), Some(node)), 1);
                self.series.record(at, metric::COMPLETED, Some(tenant), 1.0);
                self.registry.observe(
                    Key::new(metric::LATENCY, Some(tenant), Some(node)),
                    latency_secs,
                );
                let good = latency_secs <= self.config.slo_bound_secs;
                if good {
                    self.registry
                        .inc(Key::new(metric::GOODPUT, Some(tenant), Some(node)), 1);
                    self.series.record(at, metric::GOODPUT, Some(tenant), 1.0);
                } else {
                    self.registry.inc(
                        Key::new(metric::SLO_VIOLATIONS, Some(tenant), Some(node)),
                        1,
                    );
                    self.series
                        .record(at, metric::SLO_VIOLATIONS, Some(tenant), 1.0);
                }
                let slot = self.attainment.entry(tenant).or_default();
                slot.total += 1;
                if good {
                    slot.good += 1;
                }
                if slot.first_below.is_none()
                    && slot.total >= ATTAINMENT_MIN_SAMPLES
                    && (slot.good as f64 / slot.total as f64) < self.config.slo_target
                {
                    slot.first_below = Some(at);
                }
                self.spans.completed(at, request_id, tenant);
                self.record_terminal_sample(at, !good);
            }
            SimEvent::ScaleUp { node } => {
                self.registry
                    .inc(Key::new(metric::SCALE_UPS, None, Some(node)), 1);
            }
            SimEvent::NodeActive { node, .. } => {
                self.registry
                    .inc(Key::new(metric::NODES_ACTIVATED, None, Some(node)), 1);
            }
            SimEvent::ScaleDown { node } => {
                self.registry
                    .inc(Key::new(metric::SCALE_DOWNS, None, Some(node)), 1);
            }
            SimEvent::Decommissioned { node } => {
                self.registry
                    .inc(Key::new(metric::DECOMMISSIONS, None, Some(node)), 1);
            }
            SimEvent::Crash { node, .. } => {
                self.registry
                    .inc(Key::new(metric::CRASHES, None, Some(node)), 1);
                // The crashed node's backlog is re-delivered and will be
                // re-admitted (and re-counted) on survivors.
                let d = self.depth_slot(node);
                let was = *d;
                *d = 0;
                self.depth_total -= was;
                self.record_depth(at);
            }
            SimEvent::RecoveryStarted { node } => {
                self.registry
                    .inc(Key::new(metric::RECOVERIES, None, Some(node)), 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn drive_request(
        obs: &mut TelemetryObserver,
        id: u64,
        tenant: TenantId,
        start: f64,
        dispatch: f64,
        done: f64,
        hit: bool,
    ) {
        obs.on_event(
            t(start),
            &SimEvent::Admitted {
                node: 0,
                request_id: id,
                tenant,
            },
        );
        let decision = if hit {
            SimEvent::CacheHit {
                node: 0,
                request_id: id,
                tenant,
                k: 20,
            }
        } else {
            SimEvent::CacheMiss {
                node: 0,
                request_id: id,
                tenant,
            }
        };
        obs.on_event(t(start), &decision);
        obs.on_event(
            t(dispatch),
            &SimEvent::Dispatched {
                node: 0,
                worker: 0,
                request_id: id,
                tenant,
                model: modm_diffusion::ModelId::Sd35Large,
            },
        );
        obs.on_event(
            t(done),
            &SimEvent::Completed {
                node: 0,
                request_id: id,
                tenant,
                latency_secs: done - start,
                hit,
            },
        );
    }

    #[test]
    fn pillars_agree_on_a_small_stream() {
        let tenant = TenantId(1);
        let mut obs = TelemetryObserver::new(TelemetryConfig::new(100.0));
        drive_request(&mut obs, 1, tenant, 0.0, 5.0, 50.0, true);
        drive_request(&mut obs, 2, tenant, 10.0, 20.0, 200.0, false);
        // Registry.
        let completed = Key::new(metric::COMPLETED, Some(tenant), Some(0));
        assert_eq!(obs.registry().counter(&completed), 2);
        assert_eq!(obs.registry().counter_sum(metric::GOODPUT, None, None), 1);
        assert_eq!(
            obs.registry()
                .counter_sum(metric::SLO_VIOLATIONS, None, None),
            1
        );
        // Series total equals the counter.
        assert_eq!(obs.series().total(metric::COMPLETED, Some(tenant)), 2.0);
        // Spans: queue + service = total, hits counted.
        let b = obs.spans().by_tenant()[&tenant];
        assert_eq!(b.completed, 2);
        assert_eq!(b.hits, 1);
        assert!((b.queue_secs - 15.0).abs() < 1e-9);
        assert!((b.total_secs - (50.0 + 190.0)).abs() < 1e-9);
        // Attainment: 1 good of 2 = 0.5, but below the sample gate.
        assert_eq!(obs.attainment(tenant), 0.5);
        assert_eq!(obs.attainment_first_below(tenant), None);
        assert_eq!(obs.hit_rate_windows()[0], 0.5);
    }

    #[test]
    fn rejections_feed_spans_alerts_and_retry_histogram() {
        let tenant = TenantId(2);
        let mut obs = TelemetryObserver::default();
        for i in 0..12 {
            obs.on_event(
                t(i as f64),
                &SimEvent::Rejected {
                    node: 0,
                    request_id: i,
                    tenant,
                    retry_after_secs: 7.5,
                },
            );
        }
        assert_eq!(obs.registry().counter_sum(metric::REJECTED, None, None), 12);
        assert_eq!(obs.spans().by_tenant()[&tenant].rejected, 12);
        let retry = obs
            .registry()
            .histogram(&Key::new(metric::RETRY_AFTER, Some(tenant), None))
            .unwrap();
        assert_eq!(retry.count(), 12);
        assert!((retry.mean() - 7.5).abs() < 1e-9);
        // 12 all-bad samples in both windows: the default rule fires.
        assert_eq!(obs.alerts().len(), 1);
    }

    #[test]
    fn attainment_drop_is_gated_then_recorded() {
        let tenant = TenantId(1);
        let mut obs = TelemetryObserver::new(TelemetryConfig::new(10.0));
        // 9 good completions, then a run of bad ones.
        for i in 0..9 {
            drive_request(
                &mut obs,
                i,
                tenant,
                i as f64,
                i as f64 + 1.0,
                i as f64 + 5.0,
                false,
            );
        }
        assert_eq!(obs.attainment_first_below(tenant), None);
        let mut first_below = None;
        for i in 9..20 {
            let start = i as f64 * 10.0;
            drive_request(&mut obs, i, tenant, start, start + 1.0, start + 50.0, false);
            if first_below.is_none() {
                first_below = obs.attainment_first_below(tenant);
            }
        }
        // 9 good + 2 bad = 11 samples, 0.818 < 0.9: the drop lands on
        // the 11th completion (the 10-sample gate passed at the 10th).
        let expected = t(10.0 * 10.0 + 50.0);
        assert_eq!(obs.attainment_first_below(tenant), Some(expected));
        assert_eq!(first_below, Some(expected));
    }

    #[test]
    fn queue_depth_resets_on_crash() {
        let mut obs = TelemetryObserver::default();
        for i in 0..4 {
            obs.on_event(
                t(1.0),
                &SimEvent::Admitted {
                    node: 2,
                    request_id: i,
                    tenant: TenantId::DEFAULT,
                },
            );
        }
        assert_eq!(obs.total_depth(), 4);
        obs.on_event(
            t(2.0),
            &SimEvent::Crash {
                node: 2,
                redelivered: 4,
                lost_entries: 10,
            },
        );
        assert_eq!(obs.total_depth(), 0);
        assert_eq!(
            obs.registry()
                .counter(&Key::new(metric::CRASHES, None, Some(2))),
            1
        );
    }
}
