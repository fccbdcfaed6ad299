//! Ready-made observers for the typed event stream: latency histograms,
//! event-log capture, and CSV/JSON trace export.
//!
//! All three implement [`Observer`] and can be attached to any tier via
//! [`ServingBackend::run_observed`](crate::ServingBackend::run_observed).
//! They are deliberately allocation-light: `on_event` runs inside the
//! simulation's hot loop, and the export observers render their output
//! only when asked.

use modm_core::events::{Observer, SimEvent};
use modm_simkit::{Json, SimTime};

/// Streams completion latencies into a fixed-width histogram.
///
/// The histogram answers quantile queries without storing per-request
/// samples, so it stays O(buckets) regardless of trace length — the
/// shape a production latency recorder takes.
///
/// # Example
///
/// ```
/// use modm_deploy::{Deployment, LatencyHistogramObserver, DeployOptions, ServingBackend};
/// use modm_core::MoDMConfig;
/// use modm_cluster::GpuKind;
/// use modm_workload::TraceBuilder;
///
/// let trace = TraceBuilder::diffusion_db(11).requests(80).rate_per_min(10.0).build();
/// let cfg = MoDMConfig::builder().gpus(GpuKind::Mi210, 8).cache_capacity(500).build();
/// let mut hist = LatencyHistogramObserver::new(5.0, 400);
/// Deployment::single(cfg).run_observed(&trace, DeployOptions::default(), &mut hist);
/// assert_eq!(hist.count(), 80);
/// assert!(hist.quantile(0.99).unwrap() >= hist.quantile(0.5).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogramObserver {
    bucket_secs: f64,
    /// `buckets[i]` counts latencies in `[i*w, (i+1)*w)`; the last bucket
    /// absorbs overflow.
    buckets: Vec<u64>,
    count: u64,
    sum_secs: f64,
    max_secs: f64,
}

impl LatencyHistogramObserver {
    /// A histogram of `num_buckets` buckets, each `bucket_secs` wide.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_secs` is not positive or `num_buckets` is zero.
    pub fn new(bucket_secs: f64, num_buckets: usize) -> Self {
        assert!(bucket_secs > 0.0, "bucket width must be positive");
        assert!(num_buckets > 0, "need at least one bucket");
        LatencyHistogramObserver {
            bucket_secs,
            buckets: vec![0; num_buckets],
            count: 0,
            sum_secs: 0.0,
            max_secs: 0.0,
        }
    }

    /// Completions recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, seconds (zero before any completion).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_secs / self.count as f64
        }
    }

    /// Largest latency seen, seconds.
    pub fn max_secs(&self) -> f64 {
        self.max_secs
    }

    /// The latency quantile `q` in `[0, 1]`, resolved to its bucket's
    /// upper edge (`None` before any completion). The overflow bucket
    /// reports the observed maximum.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i == self.buckets.len() - 1 {
                    self.max_secs
                } else {
                    (i + 1) as f64 * self.bucket_secs
                });
            }
        }
        Some(self.max_secs)
    }
}

impl Observer for LatencyHistogramObserver {
    fn on_event(&mut self, _at: SimTime, event: &SimEvent) {
        if let SimEvent::Completed { latency_secs, .. } = *event {
            let slot = ((latency_secs / self.bucket_secs) as usize).min(self.buckets.len() - 1);
            self.buckets[slot] += 1;
            self.count += 1;
            self.sum_secs += latency_secs;
            self.max_secs = self.max_secs.max(latency_secs);
        }
    }
}

/// Captures the full event stream, timestamped, in arrival order.
///
/// Useful for assertions ("a crash fired before the first scale-down")
/// and for post-run analysis. By default memory grows with the event
/// count (as does [`TraceExportObserver`], which captures the same
/// stream); for long saturated runs either bound the log with
/// [`EventLogObserver::with_capacity`] — a ring buffer keeping only the
/// most recent events — or prefer [`LatencyHistogramObserver`], which
/// stays O(buckets).
#[derive(Debug, Clone, Default)]
pub struct EventLogObserver {
    events: Vec<(SimTime, SimEvent)>,
    /// When set, only the most recent `capacity` events are retained.
    capacity: Option<usize>,
}

impl EventLogObserver {
    /// An empty, unbounded log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log that retains only the most recent `capacity`
    /// events — a ring buffer for long saturated runs where the tail of
    /// the stream is what matters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs a positive capacity");
        EventLogObserver {
            events: Vec::new(),
            capacity: Some(capacity),
        }
    }

    /// Events captured so far, in virtual-time order (the most recent
    /// `capacity` when bounded).
    pub fn events(&self) -> &[(SimTime, SimEvent)] {
        // The ring trims lazily (amortised O(1) pushes), so the backing
        // vec may briefly hold up to `2 * capacity - 1` events; expose
        // exactly the retained window.
        match self.capacity {
            Some(cap) if self.events.len() > cap => &self.events[self.events.len() - cap..],
            _ => &self.events,
        }
    }

    /// Number of events retained.
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events().is_empty()
    }

    /// Number of retained events matching `pred`.
    pub fn count(&self, mut pred: impl FnMut(&SimEvent) -> bool) -> usize {
        self.events().iter().filter(|(_, e)| pred(e)).count()
    }

    /// The first retained event matching `pred`, with its timestamp.
    pub fn find(&self, mut pred: impl FnMut(&SimEvent) -> bool) -> Option<&(SimTime, SimEvent)> {
        self.events().iter().find(|(_, e)| pred(e))
    }

    /// Retained events tallied per [`SimEvent::kind`] — the shape
    /// exporters (e.g. `modm-trace`'s Perfetto `otherData`) carry, so
    /// an independent log can cross-check an export's counts.
    pub fn kind_counts(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for (_, event) in self.events() {
            *counts.entry(event.kind()).or_insert(0) += 1;
        }
        counts
    }
}

impl Observer for EventLogObserver {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.events.push((at, *event));
        // Amortised O(1): let the buffer run to twice the cap, then
        // slide the newest `capacity` events to the front in one move.
        if let Some(cap) = self.capacity {
            if self.events.len() >= cap * 2 {
                self.events.drain(..self.events.len() - cap);
            }
        }
    }
}

/// Renders a captured event stream as CSV with a header row. Columns:
/// `at_secs,event,node,request,tenant,worker,model,k,latency_secs,hit,count,lost,retry_after`
/// (`tenant` is the request's tenant id for request-scoped events,
/// `count` carries the kind-specific tally — prewarmed entries for
/// activations, redelivered requests for crashes — `lost` the cache
/// entries a crash destroyed, and `retry_after` a `rejected` event's
/// back-off hint in seconds; a `shed_deadline` event reports its queue
/// wait in the `latency_secs` column). Fields a kind does not define
/// render empty.
pub fn events_to_csv(events: &[(SimTime, SimEvent)]) -> String {
    let mut out = String::from(
        "at_secs,event,node,request,tenant,worker,model,k,latency_secs,hit,count,lost,retry_after\n",
    );
    for (at, event) in events {
        let at = at.as_secs_f64();
        let kind = event.kind();
        let node = event.node();
        let req = event
            .request_id()
            .map(|r| r.to_string())
            .unwrap_or_default();
        let tenant = event.tenant().map(|t| t.0.to_string()).unwrap_or_default();
        let (worker, model, k, latency, hit, count, lost) = match *event {
            SimEvent::Dispatched { worker, model, .. } => (
                worker.to_string(),
                model.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
            SimEvent::CacheHit { k, .. } => (
                String::new(),
                String::new(),
                k.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
            SimEvent::Completed {
                latency_secs, hit, ..
            } => (
                String::new(),
                String::new(),
                String::new(),
                format!("{latency_secs}"),
                (hit as u8).to_string(),
                String::new(),
                String::new(),
            ),
            SimEvent::ShedDeadline { waited_secs, .. } => (
                String::new(),
                String::new(),
                String::new(),
                format!("{waited_secs}"),
                String::new(),
                String::new(),
                String::new(),
            ),
            SimEvent::NodeActive { prewarmed, .. } => (
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                prewarmed.to_string(),
                String::new(),
            ),
            SimEvent::Crash {
                redelivered,
                lost_entries,
                ..
            } => (
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                redelivered.to_string(),
                lost_entries.to_string(),
            ),
            _ => Default::default(),
        };
        let retry_after = match *event {
            SimEvent::Rejected {
                retry_after_secs, ..
            } => format!("{retry_after_secs}"),
            _ => String::new(),
        };
        out.push_str(&format!(
            "{at},{kind},{node},{req},{tenant},{worker},{model},{k},{latency},{hit},{count},{lost},{retry_after}\n"
        ));
    }
    out
}

/// Renders a captured event stream as JSON Lines (one object per
/// event), with kind-specific fields included only where defined.
pub fn events_to_json(events: &[(SimTime, SimEvent)]) -> String {
    let mut out = String::new();
    for (at, event) in events {
        let mut fields: Vec<(&str, Json)> = vec![
            ("at_secs", at.as_secs_f64().into()),
            ("event", event.kind().into()),
            ("node", event.node().into()),
        ];
        if let Some(req) = event.request_id() {
            fields.push(("request", req.into()));
        }
        if let Some(tenant) = event.tenant() {
            fields.push(("tenant", tenant.0.into()));
        }
        match *event {
            SimEvent::Dispatched { worker, model, .. } => {
                fields.push(("worker", worker.into()));
                fields.push(("model", model.to_string().into()));
            }
            SimEvent::CacheHit { k, .. } => fields.push(("k", k.into())),
            SimEvent::Rejected {
                retry_after_secs, ..
            } => fields.push(("retry_after_secs", retry_after_secs.into())),
            SimEvent::Completed {
                latency_secs, hit, ..
            } => {
                fields.push(("latency_secs", latency_secs.into()));
                fields.push(("hit", hit.into()));
            }
            SimEvent::ShedDeadline { waited_secs, .. } => {
                fields.push(("waited_secs", waited_secs.into()));
            }
            SimEvent::NodeActive { prewarmed, .. } => fields.push(("prewarmed", prewarmed.into())),
            SimEvent::Crash {
                redelivered,
                lost_entries,
                ..
            } => {
                fields.push(("redelivered", redelivered.into()));
                fields.push(("lost_entries", lost_entries.into()));
            }
            _ => {}
        }
        out.push_str(&Json::obj(fields).render());
        out.push('\n');
    }
    out
}

/// Exports the event stream as CSV or JSON lines for offline analysis.
///
/// A thin wrapper over [`EventLogObserver`] — capture is shared, only
/// rendering differs, and [`events_to_csv`] / [`events_to_json`] are
/// public so an existing [`EventLogObserver::events`] capture can be
/// exported the same way. Memory grows with the event count.
#[derive(Debug, Clone, Default)]
pub struct TraceExportObserver {
    log: EventLogObserver,
}

impl TraceExportObserver {
    /// An empty exporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows captured.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Renders the stream as CSV (see [`events_to_csv`]).
    pub fn to_csv(&self) -> String {
        events_to_csv(self.log.events())
    }

    /// Renders the stream as JSON Lines (see [`events_to_json`]).
    pub fn to_json(&self) -> String {
        events_to_json(self.log.events())
    }

    /// Writes [`TraceExportObserver::to_csv`]'s output to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_csv(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Writes [`TraceExportObserver::to_json`]'s output to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl Observer for TraceExportObserver {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.log.on_event(at, event);
    }
}

/// Fans one event stream out to several observers, in order.
#[derive(Default)]
pub struct MultiObserver<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> MultiObserver<'a> {
    /// An empty fan-out.
    pub fn new() -> Self {
        MultiObserver {
            observers: Vec::new(),
        }
    }

    /// Adds an observer to the fan-out (builder style).
    #[must_use]
    pub fn with(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }
}

impl Observer for MultiObserver<'_> {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        for obs in &mut self.observers {
            obs.on_event(at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(latency_secs: f64) -> SimEvent {
        SimEvent::Completed {
            node: 0,
            request_id: 1,
            tenant: modm_workload::TenantId(3),
            latency_secs,
            hit: false,
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let mut h = LatencyHistogramObserver::new(1.0, 10);
        for latency in [0.5, 1.5, 2.5, 3.5, 100.0] {
            h.on_event(SimTime::ZERO, &completed(latency));
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean_secs() - 21.6).abs() < 1e-9);
        assert_eq!(h.quantile(0.2), Some(1.0), "first sample's bucket edge");
        assert_eq!(h.quantile(1.0), Some(100.0), "overflow reports the max");
        assert_eq!(h.max_secs(), 100.0);
    }

    #[test]
    fn histogram_ignores_non_completions() {
        let mut h = LatencyHistogramObserver::new(1.0, 4);
        h.on_event(SimTime::ZERO, &SimEvent::ScaleUp { node: 2 });
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn event_log_captures_and_queries() {
        let mut log = EventLogObserver::new();
        log.on_event(
            SimTime::ZERO,
            &SimEvent::Admitted {
                node: 1,
                request_id: 4,
                tenant: modm_workload::TenantId::DEFAULT,
            },
        );
        log.on_event(SimTime::ZERO, &completed(2.0));
        assert_eq!(log.len(), 2);
        assert_eq!(log.count(|e| matches!(e, SimEvent::Completed { .. })), 1);
        assert_eq!(
            log.find(|e| matches!(e, SimEvent::Admitted { .. }))
                .map(|(_, e)| e.node()),
            Some(1)
        );
    }

    /// Parses every line of a JSON Lines export as one object.
    fn json_rows(json: &str) -> Vec<Json> {
        json.lines()
            .map(|line| {
                let row = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                assert!(row.as_obj().is_some(), "not an object: {line}");
                row
            })
            .collect()
    }

    #[test]
    fn export_renders_csv_and_json() {
        let mut exp = TraceExportObserver::new();
        exp.on_event(
            SimTime::from_secs_f64(1.5),
            &SimEvent::CacheHit {
                node: 2,
                request_id: 9,
                tenant: modm_workload::TenantId(7),
                k: 20,
            },
        );
        exp.on_event(SimTime::from_secs_f64(3.0), &completed(1.5));
        let csv = exp.to_csv();
        assert!(csv.starts_with("at_secs,event,node,request,tenant"));
        assert!(csv.contains("1.5,cache_hit,2,9,7,,,20,,,,,"));
        let json = exp.to_json();
        assert!(json.contains("\"event\": \"cache_hit\""));
        assert!(json.contains("\"tenant\": 7"));
        assert!(json.contains("\"k\": 20"));
        assert!(json.contains("\"latency_secs\": 1.5"));
        let rows = json_rows(&json);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("k").and_then(Json::as_f64), Some(20.0));
        assert_eq!(rows[1].get("hit"), Some(&Json::Bool(false)));
    }

    #[test]
    fn export_renders_overload_events() {
        let mut exp = TraceExportObserver::new();
        exp.on_event(
            SimTime::from_secs_f64(4.0),
            &SimEvent::Rejected {
                node: 1,
                request_id: 3,
                tenant: modm_workload::TenantId(2),
                retry_after_secs: 12.5,
            },
        );
        exp.on_event(
            SimTime::from_secs_f64(8.0),
            &SimEvent::ShedDeadline {
                node: 1,
                request_id: 5,
                tenant: modm_workload::TenantId(2),
                waited_secs: 480.5,
            },
        );
        let csv = exp.to_csv();
        assert!(csv.contains("4,rejected,1,3,2,,,,,,,,12.5"));
        assert!(csv.contains("8,shed_deadline,1,5,2,,,,480.5,,,,"));
        let json = exp.to_json();
        assert!(json.contains("\"event\": \"rejected\""));
        assert!(json.contains("\"retry_after_secs\": 12.5"));
        assert!(json.contains("\"event\": \"shed_deadline\""));
        assert!(json.contains("\"waited_secs\": 480.5"));
        assert_eq!(json_rows(&json).len(), 2);
    }

    #[test]
    fn csv_and_json_agree_on_crash_payload() {
        let crash = SimEvent::Crash {
            node: 3,
            redelivered: 5,
            lost_entries: 41,
        };
        let mut exp = TraceExportObserver::new();
        exp.on_event(SimTime::from_secs_f64(9.0), &crash);
        assert!(exp.to_csv().contains("9,crash,3,,,,,,,,5,41,"));
        assert!(exp
            .to_json()
            .contains("\"redelivered\": 5, \"lost_entries\": 41"));
        // A raw EventLogObserver capture exports identically.
        let mut log = EventLogObserver::new();
        log.on_event(SimTime::from_secs_f64(9.0), &crash);
        assert_eq!(events_to_csv(log.events()), exp.to_csv());
        assert_eq!(events_to_json(log.events()), exp.to_json());
        assert_eq!(json_rows(&exp.to_json()).len(), 1);
    }

    #[test]
    fn bounded_log_keeps_only_the_most_recent_events() {
        let mut log = EventLogObserver::with_capacity(3);
        for i in 0..10 {
            log.on_event(SimTime::from_secs_f64(i as f64), &completed(i as f64));
        }
        assert_eq!(log.len(), 3);
        let times: Vec<f64> = log
            .events()
            .iter()
            .map(|(at, _)| at.as_secs_f64())
            .collect();
        assert_eq!(times, vec![7.0, 8.0, 9.0], "tail of the stream, in order");
        assert_eq!(log.count(|e| matches!(e, SimEvent::Completed { .. })), 3);
        // An unbounded log over the same stream keeps everything.
        let mut full = EventLogObserver::new();
        for i in 0..10 {
            full.on_event(SimTime::from_secs_f64(i as f64), &completed(i as f64));
        }
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut log = EventLogObserver::new();
        let mut hist = LatencyHistogramObserver::new(1.0, 4);
        let mut multi = MultiObserver::new().with(&mut log).with(&mut hist);
        multi.on_event(SimTime::ZERO, &completed(0.5));
        drop(multi);
        assert_eq!(log.len(), 1);
        assert_eq!(hist.count(), 1);
    }
}
