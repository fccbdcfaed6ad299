//! Exposition formats: Prometheus text and a JSON snapshot.
//!
//! Both renderers iterate the registry's ordered maps, so output is
//! byte-deterministic for a fixed run — the `telemetry` experiment's
//! snapshots diff cleanly. Histograms render summary-style (count, sum,
//! p50/p90/p99 quantiles) rather than as cumulative buckets: the
//! quantiles are what every consumer of this repo actually plots. The
//! JSON snapshot is a `modm_simkit::Json` tree with a fixed section
//! order, rendered like every other JSON document in the workspace.

use std::fmt::Write as _;

use modm_simkit::profile::ProfileReport;
use modm_simkit::Json;

use crate::observer::TelemetryObserver;
use crate::registry::Key;

const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Renders a Prometheus sample value: integral values keep a `.0`,
/// others print their shortest round-trip form.
fn fmt_f64(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

impl TelemetryObserver {
    /// The registry in Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_metric = "";
        for (key, value) in self.registry().counters() {
            if key.metric != last_metric {
                let _ = writeln!(out, "# TYPE {} counter", key.metric);
                last_metric = key.metric;
            }
            let _ = writeln!(out, "{} {}", key.prometheus(), value);
        }
        last_metric = "";
        for (key, hist) in self.registry().histograms() {
            if key.metric != last_metric {
                let _ = writeln!(out, "# TYPE {} summary", key.metric);
                last_metric = key.metric;
            }
            let mut labels = Vec::new();
            if let Some(t) = key.tenant {
                labels.push(format!("tenant=\"{}\"", t.0));
            }
            if let Some(n) = key.node {
                labels.push(format!("node=\"{n}\""));
            }
            for (q, qs) in QUANTILES {
                let mut qlabels = labels.clone();
                qlabels.push(format!("quantile=\"{qs}\""));
                let _ = writeln!(
                    out,
                    "{}{{{}}} {}",
                    key.metric,
                    qlabels.join(","),
                    fmt_f64(hist.quantile(q))
                );
            }
            let suffix = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", labels.join(","))
            };
            let _ = writeln!(out, "{}_sum{} {}", key.metric, suffix, fmt_f64(hist.sum()));
            let _ = writeln!(out, "{}_count{} {}", key.metric, suffix, hist.count());
        }
        out
    }

    /// A JSON snapshot of every pillar: counters, histogram summaries,
    /// windowed series, the per-tenant span breakdown and fired alerts.
    pub fn json_snapshot(&self) -> String {
        self.json_snapshot_inner(None)
    }

    /// Like [`TelemetryObserver::json_snapshot`], with the DES
    /// self-profiling table appended.
    pub fn json_snapshot_with_profile(&self, profile: &ProfileReport) -> String {
        self.json_snapshot_inner(Some(profile))
    }

    fn json_snapshot_inner(&self, profile: Option<&ProfileReport>) -> String {
        // Keys render their Prometheus labels with `'` in place of `"`.
        let key = |k: Key| k.prometheus().replace('"', "'");
        let counters = self.registry().counters().map(|(k, v)| (key(k), v.into()));
        let histograms = self.registry().histograms().map(|(k, h)| {
            let summary = Json::obj([
                ("count", h.count().into()),
                ("sum", h.sum().into()),
                ("p50", h.quantile(0.5).into()),
                ("p99", h.quantile(0.99).into()),
                ("max", h.max().into()),
            ]);
            (key(k), summary)
        });
        let series = self.series().keys().map(|k| {
            let sums = self.series().window_sums(k.metric, k.tenant);
            let label = match k.tenant {
                Some(t) => format!("{}{{tenant='{}'}}", k.metric, t.0),
                None => k.metric.to_string(),
            };
            (label, Json::Arr(sums.into_iter().map(Json::from).collect()))
        });
        let spans = self.spans().by_tenant().iter().map(|(tenant, b)| {
            let breakdown = Json::obj([
                ("completed", b.completed.into()),
                ("rejected", b.rejected.into()),
                ("shed", b.shed.into()),
                ("queue_secs", b.queue_secs.into()),
                ("service_secs", b.service_secs.into()),
                ("hits", b.hits.into()),
            ]);
            (tenant.0.to_string(), breakdown)
        });
        let alerts = self.alerts().iter().map(|a| {
            Json::obj([
                ("at_secs", a.at.as_secs_f64().into()),
                ("rule", a.rule.as_str().into()),
                ("fast_burn", a.fast_burn.into()),
                ("slow_burn", a.slow_burn.into()),
            ])
        });
        let mut doc = vec![
            ("counters", Json::obj(counters)),
            ("histograms", Json::obj(histograms)),
            ("series", Json::obj(series)),
            ("spans", Json::obj(spans)),
            ("alerts", Json::Arr(alerts.collect())),
        ];
        if let Some(report) = profile {
            let rows = report.rows().into_iter().map(|(sub, calls, nanos)| {
                let row = Json::obj([("calls", calls.into()), ("total_ns", nanos.into())]);
                (sub.label(), row)
            });
            doc.push(("profile", Json::obj(rows)));
        }
        Json::obj(doc).render() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use modm_core::events::{Observer as _, SimEvent};
    use modm_simkit::{Json, SimTime};
    use modm_workload::TenantId;

    use crate::observer::{metric, TelemetryConfig, TelemetryObserver};

    fn observed() -> TelemetryObserver {
        let mut obs = TelemetryObserver::new(TelemetryConfig::new(100.0));
        obs.on_event(
            SimTime::from_secs_f64(1.0),
            &SimEvent::Admitted {
                node: 0,
                request_id: 1,
                tenant: TenantId(1),
            },
        );
        obs.on_event(
            SimTime::from_secs_f64(9.0),
            &SimEvent::Completed {
                node: 0,
                request_id: 1,
                tenant: TenantId(1),
                latency_secs: 8.0,
                hit: false,
            },
        );
        obs
    }

    #[test]
    fn prometheus_text_renders_counters_and_summaries() {
        let text = observed().prometheus_text();
        assert!(text.contains("# TYPE modm_requests_completed_total counter"));
        assert!(text.contains("modm_requests_completed_total{tenant=\"1\",node=\"0\"} 1"));
        assert!(text.contains("# TYPE modm_request_latency_seconds summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("modm_request_latency_seconds_count{tenant=\"1\",node=\"0\"} 1"));
    }

    #[test]
    fn json_snapshot_is_stable_and_complete() {
        let obs = observed();
        let a = obs.json_snapshot();
        let b = obs.json_snapshot();
        assert_eq!(a, b, "deterministic rendering");
        let doc = Json::parse(&a).expect("one JSON document");
        let sections: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            sections,
            ["counters", "histograms", "series", "spans", "alerts"]
        );
        assert!(a.contains(metric::COMPLETED));
        // With a profile appended.
        let profiler = modm_simkit::Profiler::start();
        let with = obs.json_snapshot_with_profile(&profiler.report());
        let profile = Json::parse(&with).unwrap().get("profile").cloned();
        assert!(profile.is_some_and(|p| p.get("event_heap").is_some()));
    }
}
