//! The client population: who offers the trace's requests to the serving
//! engine, and what a refused request does next.
//!
//! Open-loop replay offers every request once, at its arrival, and a
//! refusal is final — fine for measuring steady-state capacity, wrong for
//! studying overload: real clients *retry*, and the retry policy decides
//! whether a transient burst decays or amplifies into a retry storm. A
//! [`RetryPolicy`] models one client population's behaviour: whether it
//! honors the server's `retry_after` hint (the token-bucket refill
//! estimate carried by
//! [`SimEvent::Rejected`](modm_core::events::SimEvent::Rejected)), how
//! its exponential backoff grows, and when it gives up. The open loop is
//! the population with a zero budget.

use modm_simkit::{SimDuration, SimRng};

/// How a client population reacts to admission rejections.
///
/// Two canonical populations anchor the retry-storm study:
/// [`RetryPolicy::honoring`] (waits out the server's hint, capped
/// exponential backoff, jittered) and [`RetryPolicy::naive`] (immediate
/// constant-interval hammering). The serving engine schedules a
/// re-offer [`RetryPolicy::delay`] after each rejection until the
/// attempt budget runs out, at which point the request is abandoned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Whether retries wait at least the server's `retry_after` hint.
    /// Honoring clients spread their re-offers over the token-bucket
    /// refill; ignoring it is what turns rejection bursts into storms.
    pub honor_retry_after: bool,
    /// First-retry backoff; doubles every further attempt.
    pub base_backoff: SimDuration,
    /// Ceiling on the exponential backoff.
    pub cap: SimDuration,
    /// Retries before the client abandons the request (0 disables
    /// retries entirely — every rejection is final).
    pub max_attempts: u32,
    /// Multiplicative jitter: each delay is stretched by a uniform
    /// factor in `[1, 1 + jitter]`, decorrelating synchronized retries.
    pub jitter: f64,
}

impl RetryPolicy {
    /// A well-behaved population: honors `retry_after`, backs off
    /// exponentially from 2 s up to 120 s, jitters by up to 10%, gives
    /// up after 8 retries.
    pub fn honoring() -> Self {
        RetryPolicy {
            honor_retry_after: true,
            base_backoff: SimDuration::from_secs_f64(2.0),
            cap: SimDuration::from_secs_f64(120.0),
            max_attempts: 8,
            jitter: 0.1,
        }
    }

    /// An adversarial population: ignores the server's hint and re-offers
    /// every 0.5 s, un-jittered, until its 8 retries are burnt. Under a
    /// saturated admission bucket this burns the whole budget inside the
    /// overload window — the canonical retry storm.
    pub fn naive() -> Self {
        RetryPolicy {
            honor_retry_after: false,
            base_backoff: SimDuration::from_secs_f64(0.5),
            cap: SimDuration::from_secs_f64(0.5),
            max_attempts: 8,
            jitter: 0.0,
        }
    }

    /// The wait before retry number `attempt` (1-based), given the
    /// server's `retry_after_secs` hint — or `None` when the attempt
    /// budget is exhausted and the client abandons the request.
    pub fn delay(
        &self,
        attempt: u32,
        retry_after_secs: f64,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        if attempt > self.max_attempts {
            return None;
        }
        let exp = attempt.saturating_sub(1).min(20);
        let backoff = (self.base_backoff.as_secs_f64() * f64::powi(2.0, exp as i32))
            .min(self.cap.as_secs_f64());
        let mut secs = if self.honor_retry_after {
            backoff.max(retry_after_secs)
        } else {
            backoff
        };
        if self.jitter > 0.0 {
            secs *= 1.0 + rng.uniform_in(0.0, self.jitter);
        }
        Some(SimDuration::from_secs_f64(secs))
    }
}

/// The engine's client population.
pub(crate) enum Clients {
    /// Closed-loop saturation: a backlog of a few requests per worker,
    /// all counted as arriving at time zero. Each completion or shed
    /// admits the request at `next`, and each refusal abandons its
    /// request and admits the next one after the refusal's hint.
    Saturated { next: usize },
    /// Each request is offered at its re-based arrival; a refused one
    /// re-offers under `policy`, its jitter drawn from `jitter`.
    Retrying { policy: RetryPolicy, jitter: SimRng },
}

impl Clients {
    /// The open loop: retrying clients with a zero budget, so every
    /// refusal is final.
    pub(crate) fn open_loop() -> Self {
        Clients::Retrying {
            policy: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::naive()
            },
            // Never drawn: a zero budget abandons before any jitter.
            jitter: SimRng::seed_from(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(7)
    }

    #[test]
    fn honoring_waits_out_the_hint_and_doubles() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::honoring()
        };
        let mut r = rng();
        // Hint dominates while it exceeds the backoff.
        assert_eq!(
            p.delay(1, 30.0, &mut r),
            Some(SimDuration::from_secs_f64(30.0))
        );
        // Backoff dominates once it outgrows the hint: 2 * 2^3 = 16.
        assert_eq!(
            p.delay(4, 1.0, &mut r),
            Some(SimDuration::from_secs_f64(16.0))
        );
        // The cap holds at deep attempts.
        assert_eq!(
            p.delay(8, 1.0, &mut r),
            Some(SimDuration::from_secs_f64(120.0))
        );
    }

    #[test]
    fn naive_ignores_the_hint() {
        let p = RetryPolicy::naive();
        let mut r = rng();
        assert_eq!(
            p.delay(1, 45.0, &mut r),
            Some(SimDuration::from_secs_f64(0.5)),
            "the hint is ignored"
        );
        assert_eq!(
            p.delay(8, 45.0, &mut r),
            Some(SimDuration::from_secs_f64(0.5))
        );
    }

    #[test]
    fn budget_exhaustion_abandons() {
        let p = RetryPolicy::honoring();
        let mut r = rng();
        assert!(p.delay(8, 0.0, &mut r).is_some());
        assert_eq!(p.delay(9, 0.0, &mut r), None);
        let none = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::honoring()
        };
        assert_eq!(
            none.delay(1, 0.0, &mut r),
            None,
            "zero budget never retries"
        );
    }

    #[test]
    fn jitter_stretches_within_bounds_deterministically() {
        let p = RetryPolicy::honoring();
        let d1 = p.delay(1, 10.0, &mut rng()).unwrap().as_secs_f64();
        let d2 = p.delay(1, 10.0, &mut rng()).unwrap().as_secs_f64();
        assert_eq!(d1, d2, "same seed, same jitter");
        assert!((10.0..=11.0).contains(&d1), "{d1}");
    }
}
