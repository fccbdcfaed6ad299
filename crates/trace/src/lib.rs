//! # modm-trace — causal request tracing and diagnosis
//!
//! `modm-telemetry` answers *how much*; this crate answers *why*. A
//! [`TraceObserver`] plugs into `Deployment::run_observed` on any tier
//! and assembles every request's events into a causal [`SpanTree`] —
//! admit → cache decision → queue wait → dispatch → service →
//! terminal, with reject/shed terminals and crash-redelivery chains
//! stitched across nodes by request id — under bounded-memory tail
//! sampling (full trees only for the slowest-k per tenant plus a
//! deterministic 1-in-N head sample; everything else folds into
//! aggregates).
//!
//! On top of the trees:
//!
//! * **Critical-path attribution** ([`CriticalPathReport`]): for each
//!   tenant/QoS class, the exact decomposition of latency into queue,
//!   service, cache-miss regeneration penalty, redelivery and retry
//!   back-off — summed over every completed span and at the P50/P99
//!   quantiles.
//! * **Perfetto export** ([`perfetto_json`]): the run as a Chrome
//!   Trace Event Format document — nodes as processes, workers as
//!   threads, scale/crash events as instants — openable in
//!   `chrome://tracing` or `ui.perfetto.dev`, and readable back with
//!   `modm_simkit::Json::parse`.
//! * **Run-diff diagnosis** ([`diagnose`]): compare two snapshots and
//!   get regressions localized to (tenant, phase, node), ranked by
//!   SLO-weighted P99 impact.
//!
//! Tracing is an observer, not a participant: an observed run's
//! summary is bit-identical to the unobserved run's (`tests/trace.rs`
//! pins this on all three tiers).

pub mod diff;
pub mod observer;
pub mod perfetto;
pub mod report;
pub mod span;

pub use diff::{diagnose, Finding, NodePhaseRow, RunDiff, RunSnapshot};
pub use observer::{PhaseAttribution, TraceConfig, TraceObserver};
pub use perfetto::perfetto_json;
pub use report::{CriticalPathReport, TenantCriticalPath};
pub use span::{miss_penalty_frac, Attempt, CacheRoute, Phase, SpanTree, Terminal, PHASES};
