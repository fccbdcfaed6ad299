//! Multi-window SLO burn-rate alerting.
//!
//! The classic SRE construction: an SLO leaves an *error budget*
//! (`1 - target`), and the alert condition is on how fast recent
//! traffic is burning it. The burn rate over a window is
//! `bad_fraction / error_budget` — a burn rate of 1 spends exactly the
//! budget, 2 spends it twice as fast. One window is not enough: a short
//! window alone is noisy (one bad request in a quiet minute pages), a
//! long window alone is slow to clear. So a rule pairs a **fast** and a
//! **slow** window and fires only when *both* exceed the threshold:
//! the slow window proves the burn is sustained, the fast window proves
//! it is still happening.
//!
//! The engine consumes the run's SLO-violation sample stream (one
//! good/bad sample per terminal request: a completion past its latency
//! bound, a rejection, or a shed is *bad*) and emits typed [`Alert`]
//! records. An alert fires once per breach: the rule re-arms only after
//! its fast window drops back under the threshold, so a sustained
//! overload produces one alert with its onset time — which is what the
//! acceptance test compares against the moment cumulative attainment
//! actually falls through the target.

use std::collections::VecDeque;
use std::fmt;

use modm_simkit::{SimDuration, SimTime};

/// One multi-window burn-rate rule.
#[derive(Debug, Clone)]
pub struct BurnRateRule {
    /// Rule name, carried on every alert it emits.
    pub name: String,
    /// The fast ("is it still happening") window.
    pub fast: SimDuration,
    /// The slow ("is it sustained") window.
    pub slow: SimDuration,
    /// Fire when both windows' burn rates reach this multiple of the
    /// error budget.
    pub burn_threshold: f64,
    /// Minimum samples required in the fast window before the rule may
    /// fire (guards cold starts, where one bad sample is a 100% rate).
    pub min_samples: u64,
}

impl BurnRateRule {
    /// A rule with the conventional defaults: fire when the error
    /// budget burns at ≥ 2× over both a fast and a slow window, with at
    /// least 10 fast-window samples.
    ///
    /// # Panics
    ///
    /// Panics if `fast` is not shorter than `slow`, either window is
    /// zero, or the threshold is not positive.
    pub fn new(name: impl Into<String>, fast: SimDuration, slow: SimDuration) -> Self {
        let rule = BurnRateRule {
            name: name.into(),
            fast,
            slow,
            burn_threshold: 2.0,
            min_samples: 10,
        };
        rule.validate();
        rule
    }

    fn validate(&self) {
        assert!(!self.fast.is_zero(), "fast window must be positive");
        assert!(
            self.fast < self.slow,
            "fast window must be shorter than slow"
        );
        assert!(self.burn_threshold > 0.0, "burn threshold must be positive");
    }
}

/// A fired burn-rate alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Virtual time the rule's condition first held.
    pub at: SimTime,
    /// The rule that fired.
    pub rule: String,
    /// Burn rate over the fast window at `at`.
    pub fast_burn: f64,
    /// Burn rate over the slow window at `at`.
    pub slow_burn: f64,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:8.1}s] {}: fast burn {:.1}x, slow burn {:.1}x",
            self.at.as_secs_f64(),
            self.rule,
            self.fast_burn,
            self.slow_burn
        )
    }
}

/// Per-rule arming state and rolling window counters.
///
/// Each window is tracked incrementally: a start pointer (an *absolute*
/// sample index, stable across deque pruning) plus running total/bad
/// counts. Recording a sample advances the pointers past anything that
/// aged out, so evaluation is O(1) amortised per sample instead of
/// rescanning the window — the telemetry observer sits on the DES hot
/// path and this is its only super-constant ingredient.
#[derive(Debug, Clone)]
struct RuleState {
    rule: BurnRateRule,
    firing: bool,
    fast_start: u64,
    fast_total: u64,
    fast_bad: u64,
    slow_start: u64,
    slow_total: u64,
    slow_bad: u64,
}

/// Evaluates burn-rate rules over a good/bad sample stream.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    /// Error budget: `1 - slo_target`.
    budget: f64,
    rules: Vec<RuleState>,
    /// Recent samples `(at, bad)`, pruned to the longest slow window.
    samples: VecDeque<(SimTime, bool)>,
    /// Absolute index of `samples[0]` (pruning never disturbs the
    /// rules' start pointers).
    base: u64,
    horizon: SimDuration,
    alerts: Vec<Alert>,
}

impl AlertEngine {
    /// An engine for an SLO attainment target (e.g. `0.9` leaves a 10%
    /// error budget) and a set of rules.
    ///
    /// # Panics
    ///
    /// Panics if `slo_target` is not in `(0, 1)`.
    pub fn new(slo_target: f64, rules: Vec<BurnRateRule>) -> Self {
        assert!(
            slo_target > 0.0 && slo_target < 1.0,
            "target must be in (0, 1)"
        );
        let horizon = rules
            .iter()
            .map(|r| r.slow)
            .max()
            .unwrap_or(SimDuration::from_secs_f64(1.0));
        AlertEngine {
            budget: 1.0 - slo_target,
            rules: rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    firing: false,
                    fast_start: 0,
                    fast_total: 0,
                    fast_bad: 0,
                    slow_start: 0,
                    slow_total: 0,
                    slow_bad: 0,
                })
                .collect(),
            samples: VecDeque::new(),
            base: 0,
            horizon,
            alerts: Vec::new(),
        }
    }

    /// Feeds one terminal sample (`bad` = SLO violation) at `at` and
    /// evaluates every rule.
    pub fn record(&mut self, at: SimTime, bad: bool) {
        self.samples.push_back((at, bad));
        let samples = &self.samples;
        let base = self.base;
        let budget = self.budget;
        for state in &mut self.rules {
            state.fast_total += 1;
            state.slow_total += 1;
            if bad {
                state.fast_bad += 1;
                state.slow_bad += 1;
            }
            advance(
                samples,
                base,
                at,
                state.rule.fast,
                &mut state.fast_start,
                &mut state.fast_total,
                &mut state.fast_bad,
            );
            advance(
                samples,
                base,
                at,
                state.rule.slow,
                &mut state.slow_start,
                &mut state.slow_total,
                &mut state.slow_bad,
            );
            let fast_burn = burn(state.fast_bad, state.fast_total, budget);
            let slow_burn = burn(state.slow_bad, state.slow_total, budget);
            let hot = state.fast_total >= state.rule.min_samples
                && fast_burn >= state.rule.burn_threshold
                && slow_burn >= state.rule.burn_threshold;
            if hot && !state.firing {
                state.firing = true;
                self.alerts.push(Alert {
                    at,
                    rule: state.rule.name.clone(),
                    fast_burn,
                    slow_burn,
                });
            } else if !hot && state.firing && fast_burn < state.rule.burn_threshold {
                // Re-arm once the fast window cools off.
                state.firing = false;
            }
        }
        // Samples older than the longest slow window sit behind every
        // rule's start pointer — safe to drop.
        while let Some(&(t, _)) = self.samples.front() {
            if at.saturating_since(t) > self.horizon {
                self.samples.pop_front();
                self.base += 1;
            } else {
                break;
            }
        }
    }

    /// Every alert fired so far, in time order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The first alert, if any rule ever fired.
    pub fn first_alert(&self) -> Option<&Alert> {
        self.alerts.first()
    }
}

/// Slides one window's start pointer past samples older than `window`,
/// keeping the running counts in step.
fn advance(
    samples: &VecDeque<(SimTime, bool)>,
    base: u64,
    at: SimTime,
    window: SimDuration,
    start: &mut u64,
    total: &mut u64,
    bad: &mut u64,
) {
    let end = base + samples.len() as u64;
    while *start < end {
        let (t, b) = samples[(*start - base) as usize];
        if at.saturating_since(t) > window {
            *total -= 1;
            if b {
                *bad -= 1;
            }
            *start += 1;
        } else {
            break;
        }
    }
}

/// Burn rate: bad fraction over the window as a multiple of the budget.
fn burn(bad: u64, total: u64, budget: f64) -> f64 {
    if total == 0 {
        0.0
    } else {
        (bad as f64 / total as f64) / budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn engine() -> AlertEngine {
        AlertEngine::new(
            0.9,
            vec![BurnRateRule::new(
                "slo-burn",
                SimDuration::from_secs_f64(60.0),
                SimDuration::from_secs_f64(300.0),
            )],
        )
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let mut e = engine();
        for i in 0..500 {
            e.record(t(i as f64), false);
        }
        assert!(e.alerts().is_empty());
    }

    #[test]
    fn sustained_burn_fires_once_with_onset_time() {
        let mut e = engine();
        // 5 minutes of healthy traffic, then a hard burn.
        for i in 0..300 {
            e.record(t(i as f64), false);
        }
        for i in 300..600 {
            e.record(t(i as f64), true);
        }
        assert_eq!(e.alerts().len(), 1, "one breach, one alert");
        let alert = e.first_alert().unwrap();
        // Slow window is the gate: 300 s at 100% bad mixed into the
        // 300 s window needs ≥ 20% bad overall (2x the 10% budget).
        assert!(alert.at >= t(300.0) && alert.at <= t(400.0), "{alert}");
        assert!(alert.fast_burn >= 2.0 && alert.slow_burn >= 2.0);
    }

    #[test]
    fn single_bad_sample_is_gated_by_min_samples() {
        let mut e = engine();
        e.record(t(10.0), true);
        assert!(e.alerts().is_empty(), "1 bad sample < min_samples");
    }

    #[test]
    fn rule_rearms_after_recovery() {
        let mut e = AlertEngine::new(
            0.9,
            vec![BurnRateRule {
                min_samples: 5,
                ..BurnRateRule::new(
                    "r",
                    SimDuration::from_secs_f64(30.0),
                    SimDuration::from_secs_f64(60.0),
                )
            }],
        );
        for i in 0..100 {
            e.record(t(i as f64), true);
        }
        // Long cool-down: the fast window empties of bad samples.
        for i in 0..200 {
            e.record(t(200.0 + i as f64), false);
        }
        // Second breach.
        for i in 0..100 {
            e.record(t(500.0 + i as f64), true);
        }
        assert_eq!(e.alerts().len(), 2, "re-armed after recovery");
        assert!(e.alerts()[1].at > e.alerts()[0].at);
    }

    #[test]
    #[should_panic(expected = "fast window must be shorter")]
    fn inverted_windows_rejected() {
        let _ = BurnRateRule::new(
            "bad",
            SimDuration::from_secs_f64(300.0),
            SimDuration::from_secs_f64(60.0),
        );
    }
}
