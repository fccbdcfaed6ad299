//! Small, dependency-free helpers the benchmark's reporting rests on:
//! percentiles with their sample count, the run digest, the per-tenant
//! conservation check, metric-name validation and JSON rendering.

use std::collections::BTreeMap;

use modm_deploy::Summary;
use modm_workload::{TenantId, Trace};

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The interpolated value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// The `q`-quantile (`0 <= q <= 1`) of `values` by linear interpolation
/// between closest ranks, or `None` when `values` is empty. Sorts
/// `values` in place.
pub fn percentile(values: &mut [f64], q: f64) -> Option<Percentile> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = q * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let value = values[lo] + (values[hi] - values[lo]) * (rank - lo as f64);
    Some(Percentile {
        value,
        samples: values.len(),
    })
}

/// The median of `values` (0 when empty: callers guarantee samples).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    percentile(&mut sorted, 0.5).map_or(0.0, |p| p.value)
}

/// FNV-1a over `bytes`: a stable 64-bit fingerprint of a run's
/// `Summary::to_json`, so repetitions can be compared for bit-for-bit
/// equality without keeping every summary.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Number of distinct values in `digests`.
pub fn distinct(digests: &[u64]) -> usize {
    let mut sorted = digests.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Requests each tenant offered in the serving phase: the trace's
/// requests after the first `warmup` (which only warm the cache).
pub fn offered_per_tenant(trace: &Trace, warmup: usize) -> BTreeMap<TenantId, u64> {
    let mut offered = BTreeMap::new();
    for r in &trace.requests()[warmup..] {
        *offered.entry(r.tenant).or_insert(0) += 1;
    }
    offered
}

/// Checks that every offered request reached exactly one terminal:
/// per tenant, and in total, offered = completed + refused + shed.
/// Returns the number of requests that did not (0 when conserved) and
/// one message per violated tenant.
pub fn conservation(offered: &BTreeMap<TenantId, u64>, summary: &Summary) -> (u64, Vec<String>) {
    let mut lost = 0;
    let mut errors = Vec::new();
    let mut tenants: BTreeMap<TenantId, u64> = BTreeMap::new();
    for t in &summary.tenants {
        tenants.insert(t.tenant, t.completed + t.rejected + t.shed);
    }
    let keys: std::collections::BTreeSet<TenantId> =
        offered.keys().chain(tenants.keys()).copied().collect();
    for tenant in keys {
        let want = offered.get(&tenant).copied().unwrap_or(0);
        let got = tenants.get(&tenant).copied().unwrap_or(0);
        if want != got {
            lost += want.abs_diff(got);
            errors.push(format!(
                "tenant {tenant}: offered {want} != completed + refused + shed {got}"
            ));
        }
    }
    let total: u64 = offered.values().sum();
    let terminal = summary.completed + summary.rejected + summary.shed;
    if total != terminal {
        errors.push(format!(
            "total: offered {total} != completed + refused + shed {terminal}"
        ));
        lost = lost.max(total.abs_diff(terminal));
    }
    (lost, errors)
}

/// True when `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Renders the benchmark's result line: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`. Values print with
/// Rust's shortest round-trip formatting, so every measured digit is kept.
///
/// # Panics
///
/// Panics on a non-finite value or an illegal name: both are bugs in the
/// benchmark, never in the measured program.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(
                valid_metric_name(m.name),
                "illegal metric name {:?}",
                m.name
            );
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_deploy::{TenantSummary, TierKind};
    use modm_workload::{QosClass, TraceBuilder};

    #[test]
    fn percentile_interpolates_and_counts_samples() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        let p50 = percentile(&mut v, 0.5).unwrap();
        assert_eq!(p50.value, 2.5);
        assert_eq!(p50.samples, 4);
        assert_eq!(percentile(&mut v, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&mut v, 1.0).unwrap().value, 4.0);
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&mut hundred, 0.99).unwrap();
        assert!((p99.value - 99.01).abs() < 1e-9);
        assert_eq!(p99.samples, 100);
        assert!(percentile(&mut [], 0.5).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest(b"{\"completed\": 1}"), digest(b"{\"completed\": 2}"));
        assert_eq!(distinct(&[7, 7, 7]), 1);
        assert_eq!(distinct(&[7, 8, 7]), 2);
    }

    fn summary(rows: &[(u16, u64, u64, u64)]) -> Summary {
        let tenants: Vec<TenantSummary> = rows
            .iter()
            .map(|&(id, completed, rejected, shed)| TenantSummary {
                tenant: TenantId(id),
                qos: QosClass::Standard,
                completed,
                hits: 0,
                misses: completed,
                rejected,
                shed,
                goodput: completed,
                hit_rate: 0.0,
                p99_secs: None,
                slo_attainment: 1.0,
            })
            .collect();
        Summary {
            tier: TierKind::Single,
            nodes: 1,
            total_gpus: 1,
            completed: tenants.iter().map(|t| t.completed).sum(),
            hits: 0,
            misses: 0,
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            shed: tenants.iter().map(|t| t.shed).sum(),
            goodput: 0,
            hit_rate: 0.0,
            requests_per_minute: 0.0,
            p99_secs: None,
            slo_multiple: 2.0,
            slo_attainment: 1.0,
            gpu_hours: 0.0,
            finished_mins: 0.0,
            tenants,
        }
    }

    #[test]
    fn conservation_accepts_exact_accounting_and_flags_losses() {
        let offered: BTreeMap<TenantId, u64> = [(TenantId(1), 10), (TenantId(2), 5)].into();
        let (lost, errors) = conservation(&offered, &summary(&[(1, 6, 3, 1), (2, 5, 0, 0)]));
        assert_eq!((lost, errors.len()), (0, 0));
        let (lost, errors) = conservation(&offered, &summary(&[(1, 6, 3, 0), (2, 5, 0, 0)]));
        assert_eq!(lost, 1);
        assert_eq!(errors.len(), 2, "tenant row and total: {errors:?}");
        let (lost, _) = conservation(&offered, &summary(&[(1, 10, 0, 0)]));
        assert_eq!(lost, 5, "a tenant missing from the summary lost everything");
    }

    #[test]
    fn offered_excludes_warmup() {
        let trace = TraceBuilder::diffusion_db(1).requests(50).build();
        let offered = offered_per_tenant(&trace, 10);
        assert_eq!(offered.values().sum::<u64>(), 40);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "sim_req_per_s",
            "cache.op_ns",
            "host.allocs_per_req",
            "p99-x",
            "9a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let json = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.125,
            }],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }
}
