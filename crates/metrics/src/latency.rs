//! End-to-end latency, tail percentiles and SLO compliance.
//!
//! The paper's SLO thresholds are defined relative to the large model's
//! single-inference latency on the deployed hardware: a request violates
//! the "2x SLO" when its end-to-end latency (queueing + generation) exceeds
//! twice that reference (Figs 12–13), and P99 latency is reported in Fig 16.

use modm_cluster::GpuKind;
use modm_diffusion::ModelId;
use modm_simkit::{Percentiles, SimTime};

/// The latency thresholds used for SLO accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloThresholds {
    /// Reference latency: one full large-model inference, seconds.
    pub reference_secs: f64,
}

impl SloThresholds {
    /// Builds thresholds from the deployed GPU kind and large model.
    pub fn for_deployment(gpu: GpuKind, large_model: ModelId) -> Self {
        let spec = large_model.spec();
        SloThresholds {
            reference_secs: gpu.step_secs(large_model) * spec.default_steps as f64,
        }
    }

    /// The latency bound for an SLO of `multiple` x the reference.
    ///
    /// # Panics
    ///
    /// Panics if `multiple` is not positive.
    pub fn bound_secs(&self, multiple: f64) -> f64 {
        assert!(multiple > 0.0, "SLO multiple must be positive");
        self.reference_secs * multiple
    }
}

/// Accumulates per-request latencies and reports tails and SLO violations.
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    latencies: Percentiles,
}

impl LatencyReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request's end-to-end latency.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `completed < arrival`.
    pub fn record(&mut self, arrival: SimTime, completed: SimTime) {
        self.latencies.record((completed - arrival).as_secs_f64());
    }

    /// Number of requests recorded.
    pub fn count(&self) -> usize {
        self.latencies.count()
    }

    /// Every recorded latency in seconds, in recording order until a
    /// quantile query sorts them.
    pub fn samples_secs(&self) -> &[f64] {
        self.latencies.samples()
    }

    /// Mean latency in seconds.
    pub fn mean_secs(&self) -> f64 {
        self.latencies.mean()
    }

    /// The 99th-percentile latency in seconds (`None` when empty).
    pub fn p99_secs(&mut self) -> Option<f64> {
        self.latencies.p99()
    }

    /// Arbitrary quantile in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_secs(&mut self, q: f64) -> Option<f64> {
        self.latencies.quantile(q)
    }

    /// Fraction of requests whose latency exceeded `multiple` x the SLO
    /// reference — the y-axis of Figs 12–13.
    pub fn slo_violation_rate(&self, slo: &SloThresholds, multiple: f64) -> f64 {
        self.latencies.fraction_above(slo.bound_secs(multiple))
    }

    /// Exact number of recorded requests whose latency exceeded
    /// `multiple` x the SLO reference.
    pub fn slo_violations(&self, slo: &SloThresholds, multiple: f64) -> u64 {
        self.latencies.count_above(slo.bound_secs(multiple)) as u64
    }

    /// Goodput: recorded completions that met the SLO at `multiple` x
    /// the reference — the overload control plane's success metric
    /// (late work and refused work both score zero).
    pub fn goodput(&self, slo: &SloThresholds, multiple: f64) -> u64 {
        self.count() as u64 - self.slo_violations(slo, multiple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_track_deployment() {
        let a40 = SloThresholds::for_deployment(GpuKind::A40, ModelId::Sd35Large);
        assert!((a40.reference_secs - 48.0).abs() < 1e-6);
        let mi = SloThresholds::for_deployment(GpuKind::Mi210, ModelId::Sd35Large);
        assert!((mi.reference_secs - 96.0).abs() < 1e-6);
        assert!((mi.bound_secs(2.0) - 192.0).abs() < 1e-6);
    }

    #[test]
    fn violation_rates() {
        let slo = SloThresholds {
            reference_secs: 50.0,
        };
        let mut rep = LatencyReport::new();
        // Latencies: 40, 90, 120, 250 s. 2x bound = 100 s -> 2 over.
        for (a, c) in [(0.0, 40.0), (0.0, 90.0), (0.0, 120.0), (0.0, 250.0)] {
            rep.record(SimTime::from_secs_f64(a), SimTime::from_secs_f64(c));
        }
        assert_eq!(rep.slo_violation_rate(&slo, 2.0), 0.5);
        assert_eq!(rep.slo_violation_rate(&slo, 4.0), 0.25);
        assert_eq!(rep.slo_violations(&slo, 2.0), 2);
        assert_eq!(rep.goodput(&slo, 2.0), 2);
        assert_eq!(rep.goodput(&slo, 4.0), 3);
        assert_eq!(rep.count(), 4);
        assert!((rep.mean_secs() - 125.0).abs() < 1e-9);
    }

    #[test]
    fn p99_matches_tail() {
        let mut rep = LatencyReport::new();
        for i in 1..=100 {
            rep.record(SimTime::ZERO, SimTime::from_secs_f64(i as f64));
        }
        assert!((rep.p99_secs().unwrap() - 99.01).abs() < 0.05);
    }

    #[test]
    fn empty_report() {
        let mut rep = LatencyReport::new();
        assert_eq!(rep.count(), 0);
        assert!(rep.p99_secs().is_none());
        let slo = SloThresholds {
            reference_secs: 10.0,
        };
        assert_eq!(rep.slo_violation_rate(&slo, 2.0), 0.0);
    }
}
