//! Observability for the MoDM serving stack: metrics, spans, alerts and
//! DES self-profiling.
//!
//! The serving tiers narrate their runs through the typed
//! `modm_core::events` stream; this crate turns that stream into the
//! telemetry loop a production serving system lives on, in four pillars:
//!
//! 1. **Metrics registry** ([`Registry`]) — counters and log-linear
//!    latency histograms keyed by `(metric, tenant, node)`,
//!    with sim-time **windowed series** ([`SeriesBank`]) so queue depth,
//!    goodput and hit rate are plottable series rather than end-of-run
//!    scalars.
//! 2. **Request spans** ([`SpanTracker`]) — per-request stage timing
//!    (admitted → queued → dispatched → service → terminal) assembled
//!    from tagged events into a per-tenant latency breakdown.
//! 3. **SLO burn-rate alerts** ([`AlertEngine`], [`BurnRateRule`]) —
//!    multi-window burn-rate rules over the SLO-violation stream that
//!    emit typed [`Alert`]s while an overload is *developing*, before
//!    cumulative attainment collapses.
//! 4. **DES self-profiling** — re-exported from
//!    [`modm_simkit::profile`]: a [`Profiler`] handle that wall-clocks
//!    the event heap, fair queue, image cache and router (zero-cost
//!    when off), rendered into the same exports.
//!
//! Everything is consumed through one [`TelemetryObserver`] attached via
//! the existing observer plumbing, and exported as Prometheus text
//! ([`TelemetryObserver::prometheus_text`]) or a JSON snapshot
//! ([`TelemetryObserver::json_snapshot`]).
//!
//! # Example
//!
//! ```
//! use modm_core::events::{Observer as _, SimEvent};
//! use modm_simkit::SimTime;
//! use modm_telemetry::{metric, TelemetryConfig, TelemetryObserver};
//! use modm_workload::TenantId;
//!
//! // 120 s SLO bound; defaults: 60 s windows, 0.9 target, one
//! // fast/slow burn-rate rule.
//! let mut telemetry = TelemetryObserver::new(TelemetryConfig::new(120.0));
//! // (A real run attaches the observer via `run_observed`; here we
//! // feed one event by hand.)
//! telemetry.on_event(SimTime::from_secs_f64(30.0), &SimEvent::Completed {
//!     node: 0,
//!     request_id: 1,
//!     tenant: TenantId(1),
//!     latency_secs: 45.0,
//!     hit: true,
//! });
//! assert_eq!(telemetry.registry().counter_sum(metric::COMPLETED, None, None), 1);
//! assert_eq!(telemetry.series().total(metric::GOODPUT, None), 1.0);
//! assert!(telemetry.alerts().is_empty());
//! ```

pub mod alerts;
pub mod observer;
pub mod registry;
pub mod series;
pub mod spans;

mod export;

pub use alerts::{Alert, AlertEngine, BurnRateRule};
pub use observer::{metric, TelemetryConfig, TelemetryObserver, ATTAINMENT_MIN_SAMPLES};
pub use registry::{Key, LogLinearHistogram, Registry};
pub use series::{SeriesBank, SeriesKey};
pub use spans::{SpanTracker, StageBreakdown};

// The profiling pillar lives in the simulation substrate (its hooks are
// inside the hot structures); re-export it so telemetry consumers have
// one front door.
pub use modm_simkit::profile::{timed, ProfileReport, Profiler, Subsystem};
