//! Sim-time windowed series: every key metric as a plottable series.
//!
//! The registry's counters answer "how much, in total"; the series bank
//! answers "when". Each series accumulates into fixed-width windows of
//! virtual time (configurable, 60 s by default) on top of
//! [`modm_simkit::TimeSeries`], keyed by `(metric, tenant)` — so queue
//! depth, goodput, hit rate and rejection rate become per-tenant
//! time series instead of single end-of-run numbers.

use modm_simkit::{SimDuration, SimTime, TimeSeries};
use modm_workload::TenantId;

/// A series instance: metric name plus optional tenant slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name.
    pub metric: &'static str,
    /// Tenant slice (`None` is the all-tenants series).
    pub tenant: Option<TenantId>,
}

/// One metric's series: the all-tenants series plus per-tenant slices.
///
/// Metric names are `&'static str` constants, so the bank finds a
/// bucket by pointer comparison first (contents only on a pointer
/// miss) over a handful of entries — cheaper on the per-event hot path
/// than a string-keyed map descent, while reads still present the old
/// sorted `(metric, tenant)` key order. Tenant slices live in a
/// tenant-sorted `Vec` probed by binary search for the same reason.
#[derive(Debug, Clone)]
struct MetricSeries {
    metric: &'static str,
    global: Option<TimeSeries>,
    by_tenant: Vec<(TenantId, TimeSeries)>,
}

/// Windowed series for every recorded metric.
#[derive(Debug, Clone)]
pub struct SeriesBank {
    window: SimDuration,
    /// Per-metric buckets in first-recorded order; every read that
    /// exposes keys sorts, so iteration order is unchanged.
    metrics: Vec<MetricSeries>,
}

impl SeriesBank {
    /// An empty bank with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        SeriesBank {
            window,
            metrics: Vec::new(),
        }
    }

    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    fn bucket(&self, metric: &str) -> Option<&MetricSeries> {
        self.metrics
            .iter()
            .find(|m| std::ptr::eq(m.metric, metric) || m.metric == metric)
    }

    fn bucket_mut(&mut self, metric: &'static str) -> &mut MetricSeries {
        let at = self
            .metrics
            .iter()
            .position(|m| std::ptr::eq(m.metric, metric) || m.metric == metric);
        match at {
            Some(i) => &mut self.metrics[i],
            None => {
                self.metrics.push(MetricSeries {
                    metric,
                    global: None,
                    by_tenant: Vec::new(),
                });
                self.metrics.last_mut().expect("just pushed")
            }
        }
    }

    /// Records `value` into `(metric, tenant)` at `at`, and into the
    /// metric's all-tenants series when `tenant` is `Some`.
    pub fn record(
        &mut self,
        at: SimTime,
        metric: &'static str,
        tenant: Option<TenantId>,
        value: f64,
    ) {
        let window = self.window;
        let bucket = self.bucket_mut(metric);
        if let Some(t) = tenant {
            let i = match bucket.by_tenant.binary_search_by_key(&t, |&(k, _)| k) {
                Ok(i) => i,
                Err(i) => {
                    bucket.by_tenant.insert(i, (t, TimeSeries::new(window)));
                    i
                }
            };
            bucket.by_tenant[i].1.record(at, value);
        }
        bucket
            .global
            .get_or_insert_with(|| TimeSeries::new(window))
            .record(at, value);
    }

    /// The series at `(metric, tenant)`, if anything was recorded.
    pub fn series(&self, metric: &'static str, tenant: Option<TenantId>) -> Option<&TimeSeries> {
        let bucket = self.bucket(metric)?;
        match tenant {
            Some(t) => bucket
                .by_tenant
                .binary_search_by_key(&t, |&(k, _)| k)
                .ok()
                .map(|i| &bucket.by_tenant[i].1),
            None => bucket.global.as_ref(),
        }
    }

    /// Per-window sums of `(metric, tenant)` (empty when never recorded).
    pub fn window_sums(&self, metric: &'static str, tenant: Option<TenantId>) -> Vec<f64> {
        self.series(metric, tenant)
            .map(TimeSeries::window_sums)
            .unwrap_or_default()
    }

    /// Total over all windows of `(metric, tenant)` — the quantity the
    /// consistency tests compare against end-of-run summary counters.
    pub fn total(&self, metric: &'static str, tenant: Option<TenantId>) -> f64 {
        self.window_sums(metric, tenant).iter().sum()
    }

    /// Every series key recorded so far, in sorted `(metric, tenant)`
    /// order (the all-tenants `None` slice sorts before tenant slices,
    /// exactly as the old map-keyed layout iterated).
    pub fn keys(&self) -> impl Iterator<Item = SeriesKey> {
        let mut keys: Vec<SeriesKey> = self
            .metrics
            .iter()
            .flat_map(|m| {
                m.global
                    .iter()
                    .map(|_| SeriesKey {
                        metric: m.metric,
                        tenant: None,
                    })
                    .chain(m.by_tenant.iter().map(|&(t, _)| SeriesKey {
                        metric: m.metric,
                        tenant: Some(t),
                    }))
            })
            .collect();
        keys.sort();
        keys.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn bank() -> SeriesBank {
        SeriesBank::new(SimDuration::from_secs_f64(60.0))
    }

    #[test]
    fn tenant_records_roll_up_into_the_global_series() {
        let mut b = bank();
        b.record(t(10.0), "completed", Some(TenantId(1)), 1.0);
        b.record(t(70.0), "completed", Some(TenantId(2)), 1.0);
        b.record(t(80.0), "completed", Some(TenantId(1)), 1.0);
        assert_eq!(
            b.window_sums("completed", Some(TenantId(1))),
            vec![1.0, 1.0]
        );
        assert_eq!(b.window_sums("completed", None), vec![1.0, 2.0]);
        assert_eq!(b.total("completed", None), 3.0);
        assert_eq!(b.total("completed", Some(TenantId(2))), 1.0);
        assert!(b.series("other", None).is_none());
    }
}
