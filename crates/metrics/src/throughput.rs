//! Throughput accounting: completions over time.

use modm_simkit::{SimDuration, SimTime, TimeSeries};

/// Tracks completions for maximum-throughput and time-series reporting.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    completed: u64,
    last_completion: Option<SimTime>,
    series: TimeSeries,
}

impl Default for ThroughputReport {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputReport {
    /// Creates a report with 1-minute series windows (the paper's unit).
    pub fn new() -> Self {
        ThroughputReport {
            completed: 0,
            last_completion: None,
            series: TimeSeries::new(SimDuration::from_mins_f64(1.0)),
        }
    }

    /// Records a completed request.
    pub fn record_completion(&mut self, at: SimTime) {
        self.completed += 1;
        self.last_completion = Some(self.last_completion.map_or(at, |t| t.max(at)));
        self.series.record(at, 1.0);
    }

    /// Total completions.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Sustained requests/minute over the span from time zero to the last
    /// completion (the paper's maximum-throughput measure keeps the system
    /// saturated, so the busy span is the full span).
    pub fn requests_per_minute(&self) -> f64 {
        match self.last_completion {
            None => 0.0,
            Some(end) => {
                let mins = end.as_mins_f64();
                if mins <= 0.0 {
                    0.0
                } else {
                    self.completed as f64 / mins
                }
            }
        }
    }

    /// Per-window completion rates (requests/minute), for Figs 10 and 17.
    pub fn per_minute_series(&self) -> Vec<f64> {
        self.series.rates_per_minute()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_over_span() {
        let mut r = ThroughputReport::new();
        for i in 1..=20 {
            r.record_completion(SimTime::from_secs_f64(i as f64 * 30.0));
        }
        // 20 completions over 10 minutes.
        assert!((r.requests_per_minute() - 2.0).abs() < 1e-9);
        assert_eq!(r.completed(), 20);
    }

    #[test]
    fn series_buckets() {
        let mut r = ThroughputReport::new();
        r.record_completion(SimTime::from_secs_f64(10.0));
        r.record_completion(SimTime::from_secs_f64(50.0));
        r.record_completion(SimTime::from_secs_f64(70.0));
        assert_eq!(r.per_minute_series(), vec![2.0, 1.0]);
    }

    #[test]
    fn empty_report_zero_rate() {
        let r = ThroughputReport::new();
        assert_eq!(r.requests_per_minute(), 0.0);
    }
}
