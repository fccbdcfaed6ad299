//! Time-bucketed series recorder.
//!
//! Figures 10 and 17 of the paper plot throughput over wall-clock minutes;
//! [`TimeSeries`] accumulates per-window counts/values against the virtual
//! clock so the experiment harness can print the same series.

use crate::time::{SimDuration, SimTime};

/// Accumulates events into fixed-width windows of virtual time.
///
/// # Example
///
/// ```
/// use modm_simkit::{TimeSeries, SimTime, SimDuration};
/// let mut ts = TimeSeries::new(SimDuration::from_secs_f64(60.0));
/// ts.record(SimTime::from_secs_f64(10.0), 1.0);
/// ts.record(SimTime::from_secs_f64(30.0), 1.0);
/// ts.record(SimTime::from_secs_f64(70.0), 1.0);
/// assert_eq!(ts.window_sums(), vec![2.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window: SimDuration,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        TimeSeries {
            window,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn bucket(&self, at: SimTime) -> usize {
        (at.as_micros() / self.window.as_micros()) as usize
    }

    /// Records `value` at virtual time `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let b = self.bucket(at);
        if b >= self.sums.len() {
            self.sums.resize(b + 1, 0.0);
            self.counts.resize(b + 1, 0);
        }
        self.sums[b] += value;
        self.counts[b] += 1;
    }

    /// Window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Sum of recorded values in each window.
    pub fn window_sums(&self) -> Vec<f64> {
        self.sums.clone()
    }

    /// Event rate per window expressed per minute, the unit the paper plots.
    pub fn rates_per_minute(&self) -> Vec<f64> {
        let mins = self.window.as_mins_f64();
        self.counts.iter().map(|&c| c as f64 / mins).collect()
    }

    /// The number of windows touched so far.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_their_windows() {
        let mut ts = TimeSeries::new(SimDuration::from_secs_f64(10.0));
        ts.record(SimTime::from_secs_f64(0.0), 2.0);
        ts.record(SimTime::from_secs_f64(9.999), 3.0);
        ts.record(SimTime::from_secs_f64(10.0), 5.0);
        assert_eq!(ts.window_sums(), vec![5.0, 5.0]);
    }

    #[test]
    fn rates_per_minute_scale_with_window() {
        let mut ts = TimeSeries::new(SimDuration::from_mins_f64(0.5));
        for i in 0..6 {
            ts.record(SimTime::from_secs_f64(i as f64 * 5.0), 1.0);
        }
        // 6 events in the first 30s window -> 12/min.
        assert_eq!(ts.rates_per_minute()[0], 12.0);
    }
}
