//! The unified result layer: one accessor surface over the serving
//! engine's report, so cross-tier comparison tables are generic code.
//!
//! Every tier runs on one engine, and every run reports an
//! [`ElasticReport`]. A [`RunOutcome`] holds that report with the tier
//! that ran and the deployment's size, and answers the questions every
//! experiment asks — completions, hit rate, throughput, tail latency, SLO
//! attainment, GPU-hours, per-node breakdown — identically across tiers.
//! [`RunOutcome::summary`] flattens those answers into a plain
//! [`Summary`] value that derives `PartialEq`, which is what the
//! cross-tier equivalence tests compare and what the generic table
//! printers render.

use modm_controlplane::{ElasticReport, TierKind};
use modm_core::report::{ServingReport, TenantSlice};
use modm_metrics::SloThresholds;
use modm_simkit::{Json, SimTime};
use modm_workload::{QosClass, TenantId};

/// One node's slice of an outcome, where the tier tracks it.
///
/// Single and fleet tiers report full per-node serving detail; elastic
/// and scenario runs only keep per-node routing counts (their nodes come
/// and go, and the serving state dies with each incarnation), so the
/// detail fields are optional.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSlice {
    /// Stable node id.
    pub node: usize,
    /// Requests the front-end routed to this node.
    pub routed: u64,
    /// Requests the node completed (`None` for elastic tiers).
    pub completed: Option<u64>,
    /// The node's scheduler-level cache hit rate (`None` for elastic
    /// tiers).
    pub hit_rate: Option<f64>,
}

/// What a deployment run produced: the engine's report behind one
/// accessor surface.
///
/// Tier-specific detail stays reachable through [`RunOutcome::as_single`]
/// / [`RunOutcome::as_fleet`] / [`RunOutcome::as_elastic`], so porting an
/// experiment to the unified API never loses information.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Boxed: the report carries every node's `ServingReport`, and
    /// outcomes move through generic experiment code by value.
    report: Box<ElasticReport>,
    /// The tier that ran.
    tier: TierKind,
    /// Nodes the deployment ran (peak active count for elastic tiers).
    nodes: usize,
    /// Total GPUs across those nodes.
    total_gpus: usize,
}

impl RunOutcome {
    /// Wraps the engine's report of a `tier` run whose nodes carry
    /// `gpus_per_node` GPUs each. The node count is the peak active set
    /// for the elastic tier and every routed node (every region's, for
    /// the scenario tier) otherwise.
    pub fn new(tier: TierKind, report: ElasticReport, gpus_per_node: usize) -> Self {
        let nodes = match tier {
            TierKind::Elastic => report.peak_active_nodes(),
            _ => report.routed_per_node.len(),
        };
        RunOutcome {
            report: Box::new(report),
            tier,
            nodes,
            total_gpus: nodes * gpus_per_node,
        }
    }

    /// Which tier produced this outcome.
    pub fn tier(&self) -> TierKind {
        self.tier
    }

    /// Nodes the deployment ran (peak active count for elastic tiers).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total GPUs across those nodes.
    pub fn total_gpus(&self) -> usize {
        self.total_gpus
    }

    /// Requests served.
    pub fn completed(&self) -> u64 {
        self.report.completed
    }

    /// Completions served from cache.
    pub fn hits(&self) -> u64 {
        self.report.hits
    }

    /// Completions that required full generation.
    pub fn misses(&self) -> u64 {
        self.report.misses
    }

    /// Requests refused at admission by tenant token buckets (zero
    /// unless the deployment configured rate limits).
    pub fn rejected(&self) -> u64 {
        self.report.rejected
    }

    /// Requests shed at dispatch after exceeding the queue-time budget
    /// (zero unless the deployment configured one).
    pub fn shed(&self) -> u64 {
        self.report.shed
    }

    /// Requests offered to the deployment: completed plus refused plus
    /// shed.
    pub fn offered(&self) -> u64 {
        self.completed() + self.rejected() + self.shed()
    }

    /// Goodput at `multiple` × the large-model latency: completions
    /// that met the SLO. Refused and shed work never completes and so
    /// scores zero — which is exactly why refusing hopeless work early
    /// can *raise* this number under overload.
    pub fn goodput(&self, multiple: f64) -> u64 {
        self.report.goodput(multiple)
    }

    /// Cache hit rate over the completions.
    pub fn hit_rate(&self) -> f64 {
        self.report.hit_rate()
    }

    /// Sustained throughput, requests/minute.
    pub fn requests_per_minute(&self) -> f64 {
        self.report.requests_per_minute()
    }

    /// P99 end-to-end latency, seconds (`None` before any completion).
    pub fn p99_secs(&mut self) -> Option<f64> {
        self.report.latency.p99_secs()
    }

    /// Fraction of requests meeting the SLO at `multiple` × the
    /// large-model latency.
    pub fn slo_attainment(&self, multiple: f64) -> f64 {
        1.0 - self
            .report
            .latency
            .slo_violation_rate(&self.report.slo, multiple)
    }

    /// GPU-hours the run consumed, metered per node from provisioning to
    /// release, crash or region loss (a static tier's nodes run from
    /// time zero to the last completion).
    pub fn gpu_hours(&self) -> f64 {
        self.report.gpu_hours
    }

    /// Virtual time of the last completion.
    pub fn finished_at(&self) -> SimTime {
        self.report.finished_at
    }

    /// Per-tenant slices, sorted by tenant id — identical shape across
    /// tiers. Single-tenant runs report exactly one slice for the default
    /// tenant.
    pub fn tenant_slices(&self) -> &[TenantSlice] {
        &self.report.tenant_slices
    }

    /// The deployment's SLO reference (shared by every node — fleets are
    /// homogeneous).
    pub fn slo_thresholds(&self) -> SloThresholds {
        self.report.slo
    }

    /// Max-over-mean of per-node routed counts, for the fleet tier
    /// (`None` for the others).
    pub fn load_imbalance(&self) -> Option<f64> {
        (self.tier == TierKind::Fleet).then(|| self.report.load_imbalance())
    }

    /// Per-node breakdown, in node order. Single-node deployments report
    /// one slice; elastic and scenario tiers report routing counts only
    /// (see [`NodeSlice`]).
    pub fn per_node(&self) -> Vec<NodeSlice> {
        // A static tier's nodes all serve to the end of the run, so their
        // reports cover the whole deployment.
        if matches!(self.tier, TierKind::Single | TierKind::Fleet) {
            return self
                .report
                .nodes
                .iter()
                .map(|n| NodeSlice {
                    node: n.node,
                    routed: n.routed,
                    completed: Some(n.report.completed()),
                    hit_rate: Some(n.report.hit_rate()),
                })
                .collect();
        }
        self.report
            .routed_per_node
            .iter()
            .enumerate()
            .map(|(node, &routed)| NodeSlice {
                node,
                routed,
                completed: None,
                hit_rate: None,
            })
            .collect()
    }

    /// The node's report, if this is a single-tier outcome.
    pub fn as_single(&self) -> Option<&ServingReport> {
        (self.tier == TierKind::Single).then(|| &self.report.nodes[0].report)
    }

    /// The engine's report, if this is a fleet-tier outcome.
    pub fn as_fleet(&self) -> Option<&ElasticReport> {
        (self.tier == TierKind::Fleet).then_some(&*self.report)
    }

    /// The engine's report, if this is an elastic- or scenario-tier
    /// outcome.
    pub fn as_elastic(&self) -> Option<&ElasticReport> {
        matches!(self.tier, TierKind::Elastic | TierKind::Scenario).then_some(&*self.report)
    }

    /// Flattens the outcome into a comparable [`Summary`], judging SLO
    /// attainment (overall and per tenant) at `slo_multiple` × the
    /// large-model latency.
    pub fn summary(&mut self, slo_multiple: f64) -> Summary {
        Summary {
            tier: self.tier(),
            nodes: self.nodes,
            total_gpus: self.total_gpus,
            completed: self.completed(),
            hits: self.hits(),
            misses: self.misses(),
            rejected: self.rejected(),
            shed: self.shed(),
            goodput: self.goodput(slo_multiple),
            hit_rate: self.hit_rate(),
            requests_per_minute: self.requests_per_minute(),
            p99_secs: self.p99_secs(),
            slo_multiple,
            slo_attainment: self.slo_attainment(slo_multiple),
            gpu_hours: self.gpu_hours(),
            finished_mins: self.finished_at().as_mins_f64(),
            tenants: tenant_rows(self.tenant_slices(), &self.slo_thresholds(), slo_multiple),
        }
    }
}

/// One [`TenantSummary`] per slice, judged at `slo_multiple` × `slo`.
fn tenant_rows(
    slices: &[TenantSlice],
    slo: &SloThresholds,
    slo_multiple: f64,
) -> Vec<TenantSummary> {
    slices
        .iter()
        .map(|slice| {
            let mut slice = slice.clone();
            TenantSummary {
                tenant: slice.tenant,
                qos: slice.qos,
                completed: slice.completed,
                hits: slice.hits,
                misses: slice.misses,
                rejected: slice.rejected,
                shed: slice.shed,
                goodput: slice.goodput(slo, slo_multiple),
                hit_rate: slice.hit_rate(),
                p99_secs: slice.p99_secs(),
                slo_attainment: slice.slo_attainment(slo, slo_multiple),
            }
        })
        .collect()
}

/// One tenant's row of a [`Summary`]: its completion, cache and SLO
/// accounting, flattened for comparison and rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant.
    pub tenant: TenantId,
    /// The QoS class its requests ran under.
    pub qos: QosClass,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Its requests served from cache.
    pub hits: u64,
    /// Its requests requiring full generation.
    pub misses: u64,
    /// Its requests refused at admission by its token bucket.
    pub rejected: u64,
    /// Its requests shed past the queue-time budget.
    pub shed: u64,
    /// Its completions that met the summary's SLO.
    pub goodput: u64,
    /// Its cache hit rate.
    pub hit_rate: f64,
    /// Its P99 end-to-end latency, seconds.
    pub p99_secs: Option<f64>,
    /// Fraction of its requests meeting the summary's SLO.
    pub slo_attainment: f64,
}

impl TenantSummary {
    /// Requests the tenant offered: completed plus refused plus shed.
    pub fn offered(&self) -> u64 {
        self.completed + self.rejected + self.shed
    }
}

/// The flattened, tier-agnostic view of a run — every column a
/// cross-tier comparison table needs, in one `PartialEq` value.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Which tier produced the run.
    pub tier: TierKind,
    /// Nodes the deployment ran (peak active count for elastic tiers).
    pub nodes: usize,
    /// Total GPUs across those nodes.
    pub total_gpus: usize,
    /// Requests served.
    pub completed: u64,
    /// Requests served from cache.
    pub hits: u64,
    /// Requests requiring full generation.
    pub misses: u64,
    /// Requests refused at admission (zero without rate limits).
    pub rejected: u64,
    /// Requests shed past the queue-time budget (zero without one).
    pub shed: u64,
    /// Completions that met the SLO — the overload control plane's
    /// success metric.
    pub goodput: u64,
    /// Cache hit rate.
    pub hit_rate: f64,
    /// Sustained throughput, requests/minute.
    pub requests_per_minute: f64,
    /// P99 end-to-end latency, seconds (`None` before any completion).
    pub p99_secs: Option<f64>,
    /// The SLO multiple the attainment was judged at.
    pub slo_multiple: f64,
    /// Fraction of requests meeting that SLO.
    pub slo_attainment: f64,
    /// GPU-hours consumed.
    pub gpu_hours: f64,
    /// Virtual run length, minutes.
    pub finished_mins: f64,
    /// Per-tenant rows, sorted by tenant id (single-tenant runs carry one
    /// row for the default tenant).
    pub tenants: Vec<TenantSummary>,
}

impl Summary {
    /// Summarizes one node's [`ServingReport`] from a loop of its own
    /// (the paper's baselines), judging SLO attainment at `slo_multiple`
    /// × the large-model latency. The counters are the node's
    /// scheduler-level ones; GPU-hours are `total_gpus` busy from time
    /// zero to the last completion.
    pub fn from_node_report(
        mut report: ServingReport,
        total_gpus: usize,
        slo_multiple: f64,
    ) -> Summary {
        Summary {
            tier: TierKind::Single,
            nodes: 1,
            total_gpus,
            completed: report.completed(),
            hits: report.hits,
            misses: report.misses,
            rejected: report.rejected,
            shed: report.shed,
            goodput: report.goodput(slo_multiple),
            hit_rate: report.hit_rate(),
            requests_per_minute: report.requests_per_minute(),
            p99_secs: report.p99_secs(),
            slo_multiple,
            slo_attainment: 1.0 - report.slo_violation_rate(slo_multiple),
            gpu_hours: total_gpus as f64 * report.finished_at.as_secs_f64() / 3600.0,
            finished_mins: report.finished_at.as_mins_f64(),
            tenants: tenant_rows(&report.tenant_slices, &report.slo, slo_multiple),
        }
    }

    /// Renders the summary as one stable JSON object (field order fixed,
    /// floats via Rust's shortest round-trip formatting) — the byte-exact
    /// form the golden-run regression snapshots pin. The label is
    /// JSON-escaped, control characters included.
    ///
    /// The overload columns (`rejected`, `shed`, `goodput`) render only
    /// when the run actually refused or shed work, so runs without
    /// overload control — including every pre-existing golden snapshot —
    /// keep their exact historical byte shape.
    pub fn to_json(&self, label: &str) -> String {
        let overloaded = self.rejected > 0 || self.shed > 0;
        let overload = |rejected: u64, shed: u64, goodput: u64| -> Vec<(&str, Json)> {
            if !overloaded {
                return Vec::new();
            }
            let columns = [("rejected", rejected), ("shed", shed), ("goodput", goodput)];
            Vec::from(columns.map(|(key, n)| (key, n.into())))
        };
        let tenants = self.tenants.iter().map(|t| {
            let head = [
                ("tenant", t.tenant.0.into()),
                ("qos", t.qos.name().into()),
                ("completed", t.completed.into()),
                ("hits", t.hits.into()),
                ("misses", t.misses.into()),
            ];
            let tail = [
                ("hit_rate", t.hit_rate.into()),
                ("p99_secs", t.p99_secs.into()),
                ("slo_attainment", t.slo_attainment.into()),
            ];
            Json::obj(
                head.into_iter()
                    .chain(overload(t.rejected, t.shed, t.goodput))
                    .chain(tail),
            )
        });
        let head = [
            ("label", label.into()),
            ("tier", self.tier.name().into()),
            ("nodes", self.nodes.into()),
            ("total_gpus", self.total_gpus.into()),
            ("completed", self.completed.into()),
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
        ];
        let tail = [
            ("hit_rate", self.hit_rate.into()),
            ("requests_per_minute", self.requests_per_minute.into()),
            ("p99_secs", self.p99_secs.into()),
            ("slo_multiple", self.slo_multiple.into()),
            ("slo_attainment", self.slo_attainment.into()),
            ("gpu_hours", self.gpu_hours.into()),
            ("finished_mins", self.finished_mins.into()),
            ("tenants", Json::Arr(tenants.collect())),
        ];
        let overload = overload(self.rejected, self.shed, self.goodput);
        Json::obj(head.into_iter().chain(overload).chain(tail)).render()
    }

    /// Header row matching [`Summary::row`], for generic tables.
    pub fn table_header() -> String {
        format!(
            "{:<24} {:>8} {:>6} {:>7} {:>9} {:>8} {:>8} {:>9}",
            "deployment", "tier", "req", "hit", "req/min", "p99(s)", "slo", "gpu-hrs"
        )
    }

    /// One table row labeled `label`, aligned with
    /// [`Summary::table_header`].
    pub fn row(&self, label: &str) -> String {
        format!(
            "{:<24} {:>8} {:>6} {:>7.3} {:>9.2} {:>8.1} {:>8.3} {:>9.2}",
            label,
            self.tier.name(),
            self.completed,
            self.hit_rate,
            self.requests_per_minute,
            self.p99_secs.unwrap_or(f64::NAN),
            self.slo_attainment,
            self.gpu_hours,
        )
    }

    /// Header row matching [`Summary::tenant_rows`], for per-tenant
    /// tables.
    pub fn tenant_table_header() -> String {
        format!(
            "{:<24} {:>6} {:>13} {:>6} {:>7} {:>8} {:>8}",
            "deployment", "tenant", "qos", "req", "hit", "p99(s)", "slo"
        )
    }

    /// Header row matching [`Summary::overload_rows`], for the
    /// overload-accounting tables (offered vs completed, refusals,
    /// sheds, goodput).
    pub fn overload_table_header() -> String {
        format!(
            "{:<24} {:>6} {:>13} {:>8} {:>6} {:>8} {:>6} {:>8} {:>8}",
            "deployment", "tenant", "qos", "offered", "req", "rejected", "shed", "goodput", "slo"
        )
    }

    /// One aligned overload-accounting row per tenant, labeled `label`.
    pub fn overload_rows(&self, label: &str) -> Vec<String> {
        self.tenants
            .iter()
            .map(|t| {
                format!(
                    "{:<24} {:>6} {:>13} {:>8} {:>6} {:>8} {:>6} {:>8} {:>8.3}",
                    label,
                    t.tenant.to_string(),
                    t.qos.name(),
                    t.offered(),
                    t.completed,
                    t.rejected,
                    t.shed,
                    t.goodput,
                    t.slo_attainment,
                )
            })
            .collect()
    }

    /// One aligned row per tenant, labeled `label`.
    pub fn tenant_rows(&self, label: &str) -> Vec<String> {
        self.tenants
            .iter()
            .map(|t| {
                format!(
                    "{:<24} {:>6} {:>13} {:>6} {:>7.3} {:>8.1} {:>8.3}",
                    label,
                    t.tenant.to_string(),
                    t.qos.name(),
                    t.completed,
                    t.hit_rate,
                    t.p99_secs.unwrap_or(f64::NAN),
                    t.slo_attainment,
                )
            })
            .collect()
    }
}

/// Renders labeled summaries as JSON Lines (one [`Summary::to_json`]
/// object per line) — the format the golden-run snapshots under
/// `tests/golden/` are stored in.
pub fn summaries_to_json(rows: &[(String, Summary)]) -> String {
    let mut out = String::new();
    for (label, summary) in rows {
        out.push_str(&summary.to_json(label));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> Summary {
        Summary {
            tier: TierKind::Fleet,
            nodes: 2,
            total_gpus: 4,
            completed: 10,
            hits: 6,
            misses: 4,
            rejected: 0,
            shed: 0,
            goodput: 10,
            hit_rate: 0.6,
            requests_per_minute: 5.0,
            p99_secs: None,
            slo_multiple: 2.0,
            slo_attainment: 1.0,
            gpu_hours: 1.5,
            finished_mins: 12.0,
            tenants: vec![TenantSummary {
                tenant: TenantId(1),
                qos: QosClass::Interactive,
                completed: 10,
                hits: 6,
                misses: 4,
                rejected: 0,
                shed: 0,
                goodput: 10,
                hit_rate: 0.6,
                p99_secs: Some(3.5),
                slo_attainment: 1.0,
            }],
        }
    }

    #[test]
    fn to_json_escapes_labels() {
        let json = summary().to_json("8\" \\ fleet");
        assert!(json.contains("\"label\": \"8\\\" \\\\ fleet\""));
        assert!(json.contains("\"p99_secs\": null"));
        assert!(json.contains("\"tenants\": [{\"tenant\": 1"));
        // Control characters are escaped too, so the line stays one
        // valid JSON document and the label reads back unchanged.
        let label = "a\nb\u{1}";
        let json = summary().to_json(label);
        assert!(
            json.chars().all(|c| c >= ' '),
            "raw control character: {json:?}"
        );
        let doc = Json::parse(&json).expect("one valid JSON document");
        assert_eq!(doc.get("label").and_then(Json::as_str), Some(label));
    }

    #[test]
    fn to_json_overload_columns_render_only_under_overload() {
        // No refusals, no sheds: the historical byte shape, no overload
        // columns anywhere (this is what keeps the pre-overload golden
        // snapshots byte-identical).
        let calm = summary().to_json("calm");
        assert!(!calm.contains("rejected"));
        assert!(!calm.contains("goodput"));
        // Any refused or shed work switches the columns on, in the
        // summary and in every tenant row.
        let mut s = summary();
        s.rejected = 3;
        s.goodput = 8;
        s.tenants[0].rejected = 3;
        s.tenants[0].goodput = 8;
        let hot = s.to_json("hot");
        assert!(hot.contains("\"rejected\": 3, \"shed\": 0, \"goodput\": 8, \"hit_rate\""));
        assert!(
            hot.contains("\"misses\": 4, \"rejected\": 3"),
            "tenant rows carry the columns too: {hot}"
        );
    }

    #[test]
    fn overload_rows_align_with_their_header() {
        let s = summary();
        let header = Summary::overload_table_header();
        let rows = s.overload_rows("demo");
        assert_eq!(rows.len(), 1);
        assert!(header.contains("goodput") && header.contains("rejected"));
        assert!(rows[0].starts_with("demo"));
        assert!(rows[0].contains("interactive"));
    }
}
