//! The traced run's observer: per-request simulated spans (admitted →
//! dispatched → completed) keyed by request id, a count of each event
//! kind, and the per-worker model sequence, written to a file at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use modm_deploy::{Observer, SimEvent};
use modm_diffusion::ModelId;
use modm_simkit::SimTime;

use crate::stats::{percentile, Percentile};

/// One request's simulated span. Times are virtual seconds; a crash
/// re-delivery re-admits and re-dispatches the same id, so the admission
/// and dispatch kept are the last ones before the terminal.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    tenant: u16,
    node: usize,
    admitted: Option<f64>,
    dispatched: Option<f64>,
    terminal: Option<(f64, &'static str)>,
    /// Times the id entered a node's queues (more than one after a crash
    /// re-delivery).
    admissions: u32,
}

/// Records spans and event counts from the event stream.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
    /// Last model each `(node, worker)` served a job on.
    last_model: BTreeMap<(usize, usize), ModelId>,
    model_switches: u64,
    k_sum: u64,
}

impl SpanRecorder {
    fn span(&mut self, id: u64) -> &mut Span {
        let i = usize::try_from(id).expect("request id fits in memory");
        if i >= self.spans.len() {
            self.spans.resize(i + 1, Span::default());
        }
        &mut self.spans[i]
    }

    /// Events of `kind` (a [`SimEvent::kind`] name) seen.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Distinct request ids that reached admission control (admitted or
    /// refused): each was encoded once on arrival.
    pub fn arrivals(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.admissions > 0 || s.terminal.is_some_and(|t| t.1 == "rejected"))
            .count() as u64
    }

    /// Queue wait (last admission → dispatch) of every dispatched
    /// request, at quantile `q`.
    pub fn wait(&self, q: f64) -> Option<Percentile> {
        let mut waits: Vec<f64> = self
            .spans
            .iter()
            .filter_map(|s| Some(s.dispatched? - s.admitted?))
            .collect();
        percentile(&mut waits, q)
    }

    /// Service time (dispatch → completion) of every completed request,
    /// at quantile `q`.
    pub fn service(&self, q: f64) -> Option<Percentile> {
        let mut service: Vec<f64> = self
            .spans
            .iter()
            .filter_map(|s| match s.terminal {
                Some((end, "completed")) => Some(end - s.dispatched?),
                _ => None,
            })
            .collect();
        percentile(&mut service, q)
    }

    /// Mean denoising steps skipped per cache hit.
    pub fn mean_k(&self) -> f64 {
        let hits = self.count("cache_hit");
        if hits == 0 {
            0.0
        } else {
            self.k_sum as f64 / hits as f64
        }
    }

    /// Jobs that ran on a different model than the same worker's
    /// previous job.
    pub fn model_switches(&self) -> u64 {
        self.model_switches
    }

    /// Writes the counters (as `# name value` lines) followed by one
    /// tab-separated span per request that reached a terminal.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (kind, n) in &self.counts {
            writeln!(out, "# {kind} {n}")?;
        }
        writeln!(out, "# model_switches {}", self.model_switches)?;
        writeln!(
            out,
            "request_id\ttenant\tnode\tadmissions\tadmitted_s\tdispatched_s\tend_s\tterminal"
        )?;
        let secs = |t: Option<f64>| t.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let Some((end, terminal)) = s.terminal else {
                continue;
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}\t{end}\t{terminal}",
                s.tenant,
                s.node,
                s.admissions,
                secs(s.admitted),
                secs(s.dispatched),
            )?;
        }
        out.flush()
    }
}

impl Observer for SpanRecorder {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        *self.counts.entry(event.kind()).or_insert(0) += 1;
        let now = at.as_secs_f64();
        match *event {
            SimEvent::Admitted {
                node,
                request_id,
                tenant,
            } => {
                let span = self.span(request_id);
                span.tenant = tenant.0;
                span.node = node;
                span.admitted = Some(now);
                span.dispatched = None;
                span.admissions += 1;
            }
            SimEvent::CacheHit { k, .. } => self.k_sum += u64::from(k),
            SimEvent::Dispatched {
                node,
                worker,
                request_id,
                model,
                ..
            } => {
                self.span(request_id).dispatched = Some(now);
                if let Some(prev) = self.last_model.insert((node, worker), model) {
                    if prev != model {
                        self.model_switches += 1;
                    }
                }
            }
            SimEvent::Completed {
                request_id, node, ..
            }
            | SimEvent::ShedDeadline {
                request_id, node, ..
            }
            | SimEvent::Rejected {
                request_id, node, ..
            } => {
                let kind = event.kind();
                let span = self.span(request_id);
                span.node = node;
                if let Some(tenant) = event.tenant() {
                    span.tenant = tenant.0;
                }
                span.terminal = Some((now, kind));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_workload::TenantId;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn spans_measure_wait_and_service() {
        let mut rec = SpanRecorder::default();
        let tenant = TenantId(1);
        rec.on_event(
            at(1.0),
            &SimEvent::Admitted {
                node: 0,
                request_id: 0,
                tenant,
            },
        );
        rec.on_event(
            at(4.0),
            &SimEvent::Dispatched {
                node: 0,
                worker: 0,
                request_id: 0,
                tenant,
                model: ModelId::Sd35Large,
            },
        );
        rec.on_event(
            at(10.0),
            &SimEvent::Completed {
                node: 0,
                request_id: 0,
                tenant,
                latency_secs: 9.0,
                hit: false,
            },
        );
        rec.on_event(
            at(2.0),
            &SimEvent::Rejected {
                node: 0,
                request_id: 1,
                tenant,
                retry_after_secs: 1.0,
            },
        );
        assert_eq!(
            rec.wait(0.5).unwrap(),
            Percentile {
                value: 3.0,
                samples: 1
            }
        );
        assert_eq!(
            rec.service(0.5).unwrap(),
            Percentile {
                value: 6.0,
                samples: 1
            }
        );
        assert_eq!(rec.count("completed"), 1);
        assert_eq!(rec.count("rejected"), 1);
        assert_eq!(rec.arrivals(), 2, "admitted and refused ids both arrived");
    }

    #[test]
    fn model_switches_count_changes_per_worker() {
        let mut rec = SpanRecorder::default();
        let tenant = TenantId(1);
        for (id, model) in [
            (0, ModelId::Sd35Large),
            (1, ModelId::Sdxl),
            (2, ModelId::Sdxl),
        ] {
            rec.on_event(
                at(0.0),
                &SimEvent::Dispatched {
                    node: 0,
                    worker: 0,
                    request_id: id,
                    tenant,
                    model,
                },
            );
        }
        assert_eq!(rec.model_switches(), 1);
    }
}
