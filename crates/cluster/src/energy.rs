//! Energy accounting in the style of Zeus (the toolkit the paper uses for
//! its Fig 18 energy comparison): joules = busy seconds x model power +
//! idle seconds x idle power.

use modm_simkit::{SimDuration, SimTime};

use crate::gpu::GpuKind;

/// Per-worker energy meter.
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    busy_joules: f64,
    busy_secs: f64,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval at the given power draw.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative.
    pub fn record_busy(&mut self, duration: SimDuration, watts: f64) {
        assert!(watts >= 0.0, "negative power");
        self.busy_joules += duration.as_secs_f64() * watts;
        self.busy_secs += duration.as_secs_f64();
    }

    /// Joules consumed while busy.
    pub fn busy_joules(&self) -> f64 {
        self.busy_joules
    }

    /// Seconds spent busy.
    pub fn busy_secs(&self) -> f64 {
        self.busy_secs
    }

    /// Total joules over a span of `span` wall-clock time on `gpu`,
    /// including idle draw for the non-busy remainder.
    pub fn total_joules(&self, span: SimDuration, gpu: GpuKind) -> f64 {
        let idle_secs = (span.as_secs_f64() - self.busy_secs).max(0.0);
        self.busy_joules + idle_secs * gpu.idle_watts()
    }
}

/// Cluster-level energy summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterEnergy {
    /// Total joules including idle draw.
    pub total_joules: f64,
    /// Joules consumed while denoising.
    pub busy_joules: f64,
    /// Mean GPU utilization in `[0, 1]`.
    pub utilization: f64,
}

impl ClusterEnergy {
    /// Aggregates worker meters over the simulation span `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty.
    pub fn aggregate<'a>(
        meters: impl Iterator<Item = (&'a EnergyMeter, GpuKind)>,
        start: SimTime,
        end: SimTime,
    ) -> ClusterEnergy {
        let span = end.saturating_since(start);
        let mut total = 0.0;
        let mut busy = 0.0;
        let mut busy_secs = 0.0;
        let mut n = 0usize;
        for (m, gpu) in meters {
            total += m.total_joules(span, gpu);
            busy += m.busy_joules();
            busy_secs += m.busy_secs();
            n += 1;
        }
        assert!(n > 0, "no workers to aggregate");
        let denom = span.as_secs_f64() * n as f64;
        ClusterEnergy {
            total_joules: total,
            busy_joules: busy,
            utilization: if denom > 0.0 { busy_secs / denom } else { 0.0 },
        }
    }

    /// Energy per request in joules.
    ///
    /// # Panics
    ///
    /// Panics if `requests == 0`.
    pub fn joules_per_request(&self, requests: u64) -> f64 {
        assert!(requests > 0, "no requests served");
        self.total_joules / requests as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_and_idle_accounting() {
        let mut m = EnergyMeter::new();
        m.record_busy(SimDuration::from_secs_f64(10.0), 300.0);
        assert_eq!(m.busy_joules(), 3_000.0);
        // 20 s span on an A40: 10 s busy + 10 s idle at 60 W.
        let total = m.total_joules(SimDuration::from_secs_f64(20.0), GpuKind::A40);
        assert_eq!(total, 3_000.0 + 600.0);
    }

    #[test]
    fn aggregate_and_savings() {
        let mut a = EnergyMeter::new();
        a.record_busy(SimDuration::from_secs_f64(50.0), 300.0);
        let mut b = EnergyMeter::new();
        b.record_busy(SimDuration::from_secs_f64(100.0), 300.0);
        let span_end = SimTime::from_secs_f64(100.0);
        let high = ClusterEnergy::aggregate(
            [(&b, GpuKind::A40), (&b, GpuKind::A40)].into_iter(),
            SimTime::ZERO,
            span_end,
        );
        let low = ClusterEnergy::aggregate(
            [(&a, GpuKind::A40), (&a, GpuKind::A40)].into_iter(),
            SimTime::ZERO,
            span_end,
        );
        assert!(low.total_joules < high.total_joules);
        assert!((high.utilization - 1.0).abs() < 1e-9);
        assert!((low.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn joules_per_request() {
        let e = ClusterEnergy {
            total_joules: 1_000.0,
            busy_joules: 800.0,
            utilization: 0.8,
        };
        assert_eq!(e.joules_per_request(10), 100.0);
    }
}
