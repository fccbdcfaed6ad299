//! The metrics registry: counters and log-linear histograms
//! keyed by `(metric, tenant, node)`.
//!
//! Every read that exposes keys returns them in key order, so iteration
//! — and therefore every export format — is deterministic. Metric names follow the
//! Prometheus convention (`modm_requests_completed_total`), and the two
//! optional label dimensions mirror how the serving stack slices every
//! report: per tenant and per node.

use modm_workload::TenantId;

/// A metric instance: the metric name plus its label set.
///
/// `tenant`/`node` are optional so the same registry holds both sliced
/// series (`completed{tenant="1",node="0"}`) and unsliced ones
/// (`crashes{node="3"}`, or fully global ones).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Prometheus-style metric name.
    pub metric: &'static str,
    /// The tenant label, when the metric is tenant-scoped.
    pub tenant: Option<TenantId>,
    /// The node label, when the metric is node-scoped.
    pub node: Option<usize>,
}

impl Key {
    /// A fully-labelled key.
    pub fn new(metric: &'static str, tenant: Option<TenantId>, node: Option<usize>) -> Self {
        Key {
            metric,
            tenant,
            node,
        }
    }

    /// A label-free (global) key.
    pub fn global(metric: &'static str) -> Self {
        Key::new(metric, None, None)
    }

    /// Renders the key in Prometheus exposition form.
    pub fn prometheus(&self) -> String {
        let mut labels = Vec::new();
        if let Some(t) = self.tenant {
            labels.push(format!("tenant=\"{}\"", t.0));
        }
        if let Some(n) = self.node {
            labels.push(format!("node=\"{n}\""));
        }
        if labels.is_empty() {
            self.metric.to_string()
        } else {
            format!("{}{{{}}}", self.metric, labels.join(","))
        }
    }
}

/// A log-linear histogram of non-negative values.
///
/// Values are bucketed by octave (powers of two) with
/// [`SUB_BUCKETS`](LogLinearHistogram::SUB_BUCKETS) linear sub-buckets
/// per octave — the classic HDR-style layout: relative error is bounded
/// (~1/8 here) at every scale and the bucket count stays small. Values
/// below one second/unit land in a single underflow bucket, which is
/// fine for latencies measured in tens of seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogLinearHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl LogLinearHistogram {
    /// Linear sub-buckets per octave.
    pub const SUB_BUCKETS: usize = 8;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        let octave = value.log2().floor() as usize;
        let lower = (1u64 << octave.min(62)) as f64;
        let sub = (((value / lower) - 1.0) * Self::SUB_BUCKETS as f64) as usize;
        1 + octave * Self::SUB_BUCKETS + sub.min(Self::SUB_BUCKETS - 1)
    }

    /// Lower edge of bucket `b` (its reported representative value).
    fn bucket_lower(b: usize) -> f64 {
        if b == 0 {
            return 0.0;
        }
        let b = b - 1;
        let octave = b / Self::SUB_BUCKETS;
        let sub = b % Self::SUB_BUCKETS;
        let lower = (1u64 << octave.min(62)) as f64;
        lower * (1.0 + sub as f64 / Self::SUB_BUCKETS as f64)
    }

    /// Records one observation (negative values clamp to zero).
    pub fn record(&mut self, value: f64) {
        let value = value.max(0.0);
        let b = Self::bucket_of(value);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The quantile `q` in `[0, 1]`, resolved to its bucket's lower
    /// edge (exact max for `q = 1`). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lower(b);
            }
        }
        self.max
    }
}

/// One metric's instances of a kind, keyed by `(tenant, node)`.
///
/// Metric names are `&'static str` constants, so the registry finds a
/// metric's bucket by pointer comparison first (contents only on a
/// pointer miss) over a handful of buckets — cheaper on the per-event
/// hot path than descending a string-keyed map — while every read that
/// exposes keys sorts, preserving the old deterministic key order.
/// Label slots live in a key-sorted `Vec` probed by binary search:
/// the handful of `(tenant, node)` pairs per metric fit one cache line
/// where a `BTreeMap` would chase node pointers per event.
type Label = (Option<TenantId>, Option<usize>);

#[derive(Debug, Clone)]
struct MetricBucket<V> {
    metric: &'static str,
    by_label: Vec<(Label, V)>,
}

impl<V: Default> MetricBucket<V> {
    fn slot(&self, label: Label) -> Option<&V> {
        self.by_label
            .binary_search_by(|(k, _)| k.cmp(&label))
            .ok()
            .map(|i| &self.by_label[i].1)
    }

    fn slot_mut(&mut self, label: Label) -> &mut V {
        let i = match self.by_label.binary_search_by(|(k, _)| k.cmp(&label)) {
            Ok(i) => i,
            Err(i) => {
                self.by_label.insert(i, (label, V::default()));
                i
            }
        };
        &mut self.by_label[i].1
    }
}

fn bucket_of<'a, V>(buckets: &'a [MetricBucket<V>], metric: &str) -> Option<&'a MetricBucket<V>> {
    buckets
        .iter()
        .find(|b| std::ptr::eq(b.metric, metric) || b.metric == metric)
}

fn bucket_of_mut<'a, V>(
    buckets: &'a mut Vec<MetricBucket<V>>,
    metric: &'static str,
) -> &'a mut MetricBucket<V> {
    let at = buckets
        .iter()
        .position(|b| std::ptr::eq(b.metric, metric) || b.metric == metric);
    match at {
        Some(i) => &mut buckets[i],
        None => {
            buckets.push(MetricBucket {
                metric,
                by_label: Vec::new(),
            });
            buckets.last_mut().expect("just pushed")
        }
    }
}

/// Flattens buckets into `(Key, &V)` pairs in full `Key` order. The
/// inner slot vectors are `(tenant, node)`-sorted already, so sorting
/// bucket references by metric name yields exactly the old map
/// iteration.
fn sorted_entries<V>(buckets: &[MetricBucket<V>]) -> impl Iterator<Item = (Key, &V)> {
    let mut refs: Vec<&MetricBucket<V>> = buckets.iter().collect();
    refs.sort_by_key(|b| b.metric);
    refs.into_iter().flat_map(|b| {
        b.by_label
            .iter()
            .map(|&((tenant, node), ref v)| (Key::new(b.metric, tenant, node), v))
    })
}

/// The registry: one ordered map per metric kind.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<MetricBucket<u64>>,
    histograms: Vec<MetricBucket<LogLinearHistogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter at `key`.
    pub fn inc(&mut self, key: Key, delta: u64) {
        *bucket_of_mut(&mut self.counters, key.metric).slot_mut((key.tenant, key.node)) += delta;
    }

    /// Records `value` into the histogram at `key`.
    pub fn observe(&mut self, key: Key, value: f64) {
        bucket_of_mut(&mut self.histograms, key.metric)
            .slot_mut((key.tenant, key.node))
            .record(value);
    }

    /// The counter at `key` (0 when never incremented).
    pub fn counter(&self, key: &Key) -> u64 {
        bucket_of(&self.counters, key.metric)
            .and_then(|b| b.slot((key.tenant, key.node)))
            .copied()
            .unwrap_or(0)
    }

    /// Sums every counter instance of `metric` whose labels match the
    /// given filters (`None` matches any value of that label).
    pub fn counter_sum(&self, metric: &str, tenant: Option<TenantId>, node: Option<usize>) -> u64 {
        bucket_of(&self.counters, metric)
            .map(|b| {
                b.by_label
                    .iter()
                    .filter(|&&((kt, kn), _)| {
                        tenant.is_none_or(|t| kt == Some(t)) && node.is_none_or(|n| kn == Some(n))
                    })
                    .map(|&(_, v)| v)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// The histogram at `key`, if any value was observed.
    #[cfg(test)]
    pub(crate) fn histogram(&self, key: &Key) -> Option<&LogLinearHistogram> {
        bucket_of(&self.histograms, key.metric).and_then(|b| b.slot((key.tenant, key.node)))
    }

    /// All counters, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        sorted_entries(&self.counters).map(|(k, &v)| (k, v))
    }

    /// All histograms, in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (Key, &LogLinearHistogram)> {
        sorted_entries(&self.histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_key() {
        let mut r = Registry::new();
        let a = Key::new("m", Some(TenantId(1)), Some(0));
        let b = Key::new("m", Some(TenantId(2)), Some(0));
        r.inc(a.clone(), 2);
        r.inc(a.clone(), 3);
        r.inc(b.clone(), 1);
        assert_eq!(r.counter(&a), 5);
        assert_eq!(r.counter(&b), 1);
        assert_eq!(r.counter_sum("m", None, None), 6);
        assert_eq!(r.counter_sum("m", Some(TenantId(1)), None), 5);
        assert_eq!(r.counter_sum("m", None, Some(1)), 0);
    }

    #[test]
    fn key_renders_prometheus_labels() {
        assert_eq!(Key::global("up").prometheus(), "up");
        assert_eq!(
            Key::new("m", Some(TenantId(3)), Some(1)).prometheus(),
            "m{tenant=\"3\",node=\"1\"}"
        );
        assert_eq!(Key::new("m", None, Some(2)).prometheus(), "m{node=\"2\"}");
    }

    #[test]
    fn histogram_quantiles_are_bucket_accurate() {
        let mut h = LogLinearHistogram::new();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000.0);
        let p50 = h.quantile(0.5);
        // Log-linear relative error is bounded by one sub-bucket (1/8).
        assert!((p50 - 500.0).abs() / 500.0 < 0.125, "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990.0).abs() / 990.0 < 0.125, "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000.0);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn sub_second_values_share_the_underflow_bucket() {
        let mut h = LogLinearHistogram::new();
        h.record(0.1);
        h.record(0.9);
        h.record(-1.0); // clamps to zero
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.5), 0.0, "underflow bucket reports 0");
    }
}
