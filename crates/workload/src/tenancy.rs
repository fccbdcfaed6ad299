//! The multi-tenant vocabulary: who a request belongs to and what service
//! class it bought.
//!
//! Real MoDM-style serving fronts many tenants with different SLOs: an
//! interactive product surface, internal batch pipelines, a free tier.
//! Every [`crate::Request`] is tagged with a [`TenantId`] and a
//! [`QosClass`]; the serving layers read the tags to enforce admission
//! fairness (weighted-fair queues with strict priority between classes)
//! and per-tenant cache reserves, and to report per-tenant SLO attainment.
//!
//! Single-tenant workloads use [`TenantId::DEFAULT`] and
//! [`QosClass::Standard`] everywhere, and every serving path is
//! tenant-neutral for them: a default-tagged trace reproduces the
//! pre-tenancy results seed for seed.

use std::fmt;

/// A tenant: the billing/isolation boundary a request belongs to.
///
/// Plain `u16` newtype — tenancy metadata (weights, QoS class, cache
/// reserve) lives in the serving configuration, not on the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The implicit tenant of single-tenant workloads.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The service class a request is admitted under.
///
/// Classes are strictly ordered (`BestEffort < Standard < Interactive`):
/// under the weighted-fair admission queue, a higher class is always
/// served before a lower one (subject to the queue's anti-starvation
/// aging), and tenants *within* a class share capacity in proportion to
/// their configured weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum QosClass {
    /// Lowest class: free tiers, background backfill.
    BestEffort,
    /// The default class for paying, latency-tolerant traffic.
    #[default]
    Standard,
    /// Highest class: user-facing traffic with a tight SLO.
    Interactive,
}

impl QosClass {
    /// Every class, lowest to highest.
    pub const ALL: [QosClass; 3] = [
        QosClass::BestEffort,
        QosClass::Standard,
        QosClass::Interactive,
    ];

    /// Short stable name (used by event exporters and tables).
    pub fn name(self) -> &'static str {
        match self {
            QosClass::BestEffort => "best-effort",
            QosClass::Standard => "standard",
            QosClass::Interactive => "interactive",
        }
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One tenant's slice of a multi-tenant trace: its identity, class and
/// independent Poisson arrival rate (see
/// [`TraceBuilder::tenants`](crate::TraceBuilder::tenants)).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    /// The tenant the slice belongs to.
    pub tenant: TenantId,
    /// The QoS class stamped on every request of the slice.
    pub qos: QosClass,
    /// The slice's own constant Poisson rate, requests per minute.
    /// Ignored when [`TenantMix::schedule`] is set.
    pub rate_per_min: f64,
    /// A time-varying rate overriding `rate_per_min` — how a scenario
    /// gives one tenant a flash crowd while the others stay constant.
    pub schedule: Option<crate::RateSchedule>,
    /// The slice's active window `(start, end)` in minutes: arrivals are
    /// generated inside it only. `None` spans the whole trace. This is
    /// how tenant join (late start) and leave (early end) are expressed
    /// at the workload layer.
    pub window_mins: Option<(f64, f64)>,
}

impl TenantMix {
    /// A tenant slice arriving at `rate_per_min` under `qos`.
    pub fn new(tenant: TenantId, qos: QosClass, rate_per_min: f64) -> Self {
        TenantMix {
            tenant,
            qos,
            rate_per_min,
            schedule: None,
            window_mins: None,
        }
    }

    /// Restricts arrivals to `[start_mins, end_mins)` (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= start_mins < end_mins`.
    #[must_use]
    pub fn with_window(mut self, start_mins: f64, end_mins: f64) -> Self {
        assert!(
            start_mins >= 0.0 && start_mins < end_mins,
            "need 0 <= start < end, got [{start_mins}, {end_mins})"
        );
        self.window_mins = Some((start_mins, end_mins));
        self
    }

    /// The slice's arrival schedule: the explicit one if set, else the
    /// constant `rate_per_min`.
    pub fn effective_schedule(&self) -> crate::RateSchedule {
        self.schedule
            .clone()
            .unwrap_or(crate::RateSchedule::Constant(self.rate_per_min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_strictly_ordered() {
        assert!(QosClass::BestEffort < QosClass::Standard);
        assert!(QosClass::Standard < QosClass::Interactive);
        assert_eq!(QosClass::default(), QosClass::Standard);
        assert_eq!(QosClass::Interactive.name(), "interactive");
        assert_eq!(QosClass::ALL.len(), 3);
    }

    #[test]
    fn tenant_display_and_default() {
        assert_eq!(TenantId::DEFAULT, TenantId(0));
        assert_eq!(TenantId(7).to_string(), "t7");
        assert!(TenantId(1) < TenantId(2));
    }
}
