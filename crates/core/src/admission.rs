//! Token-bucket admission control: the front door of the overload
//! control plane.
//!
//! PR 4's fair queue decides *who is served first* once work is
//! accepted; under sustained overload that is not enough — the queues
//! absorb everything, backlogs grow without bound, and every tenant's
//! tail latency collapses together. [`AdmissionControl`] closes the gap:
//! each tenant with a configured [`RateLimit`] gets a token bucket
//! (refilled continuously at `rate_per_min`, capped at `burst`), and a
//! request is admitted only if a whole token is available *at its
//! arrival time*. Refused requests end
//! [`SimEvent::Rejected`](crate::events::SimEvent::Rejected) — an
//! explicit, immediate signal the client can back off on, instead of an
//! unbounded queue that fails everyone late.
//!
//! The check lives in the shared per-node serving step
//! ([`crate::node::ServingNode::enqueue`]), so refusal happens exactly
//! once and every tier — single node, fleet, elastic fleet — inherits
//! it. Tenants without a configured limit are never refused, which is
//! what keeps the default path (no `rate_limits`) behaviorally identical
//! to the pre-admission-control system.

use modm_simkit::SimTime;
use modm_workload::TenantId;

use crate::fairqueue::{RateLimit, TenancyPolicy};

/// One tenant's token bucket, refilled continuously in virtual time.
///
/// The bucket starts full (`burst` tokens), refills at `rate_per_min /
/// 60` tokens per virtual second, and admits a request by spending one
/// whole token. Determinism is exact: refill is computed from the
/// elapsed virtual time, never from wall clocks.
///
/// # Example
///
/// ```
/// use modm_core::admission::TokenBucket;
/// use modm_simkit::SimTime;
///
/// // 60 req/min sustained, bursts of 2.
/// let mut bucket = TokenBucket::new(60.0, 2.0);
/// let t0 = SimTime::ZERO;
/// assert!(bucket.try_admit(t0));
/// assert!(bucket.try_admit(t0));
/// assert!(!bucket.try_admit(t0), "burst spent");
/// // One second refills one token at 1 req/sec.
/// assert!(bucket.try_admit(SimTime::from_secs_f64(1.0)));
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    refilled_at: SimTime,
}

impl TokenBucket {
    /// A full bucket admitting `rate_per_min` sustained, `burst` at once.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_min` is not positive or `burst < 1`.
    pub fn new(rate_per_min: f64, burst: f64) -> Self {
        assert!(rate_per_min > 0.0, "rate must be positive");
        assert!(burst >= 1.0, "burst must admit at least one request");
        TokenBucket {
            rate_per_sec: rate_per_min / 60.0,
            burst,
            tokens: burst,
            refilled_at: SimTime::ZERO,
        }
    }

    /// Builds the bucket from a policy-level [`RateLimit`].
    pub fn from_limit(limit: &RateLimit) -> Self {
        TokenBucket::new(limit.rate_per_min, limit.burst)
    }

    /// Tokens currently available at `now` (after refill).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Spends one token if available; `false` refuses the request.
    ///
    /// `now` must not move backwards between calls (virtual time is
    /// monotone in every host loop; an out-of-order call simply refills
    /// nothing).
    pub fn try_admit(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Virtual seconds until a whole token will be available at the
    /// bucket's refill rate (0 when one is already available at `now`).
    ///
    /// This is the **retry-after hint** a refusal carries on
    /// [`SimEvent::Rejected`](crate::events::SimEvent::Rejected): a
    /// closed-loop client that backs off by exactly this long arrives
    /// when the bucket can next admit it, instead of hammering the node
    /// with retries that are guaranteed to be refused.
    pub fn retry_after_secs(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        if self.tokens >= 1.0 {
            0.0
        } else {
            (1.0 - self.tokens) / self.rate_per_sec
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.refilled_at).as_secs_f64();
        if elapsed > 0.0 {
            self.tokens = (self.tokens + elapsed * self.rate_per_sec).min(self.burst);
            self.refilled_at = now;
        }
    }
}

/// The per-node admission controller: one [`TokenBucket`] per tenant
/// with a configured [`RateLimit`], built from the deployment's
/// [`TenancyPolicy`]. Tenants without a limit are always admitted.
#[derive(Debug, Clone, Default)]
pub struct AdmissionControl {
    buckets: Vec<(TenantId, TokenBucket)>,
}

impl AdmissionControl {
    /// Builds the controller from the policy's rate limits (empty limits
    /// produce a controller that admits everything).
    ///
    /// # Panics
    ///
    /// Panics if a configured limit has a non-positive rate or a burst
    /// below one ([`MoDMConfig`](crate::config::MoDMConfig) validation
    /// reports the same invariants as typed errors first).
    pub fn new(policy: &TenancyPolicy) -> Self {
        AdmissionControl {
            buckets: policy
                .rate_limits
                .iter()
                .map(|l| (l.tenant, TokenBucket::from_limit(l)))
                .collect(),
        }
    }

    /// Rebuilds the controller for a new policy *mid-run*, preserving
    /// token state wherever it can: a tenant whose [`RateLimit`] is
    /// unchanged keeps its bucket (spent tokens stay spent — a policy
    /// refresh is not an amnesty), a tenant whose limit changed or who
    /// just joined gets a fresh full bucket, and tenants dropped from the
    /// policy lose theirs.
    pub fn update_policy(&mut self, policy: &TenancyPolicy) {
        let mut next: Vec<(TenantId, TokenBucket)> = Vec::with_capacity(policy.rate_limits.len());
        for limit in &policy.rate_limits {
            let kept = self.buckets.iter().position(|(t, b)| {
                *t == limit.tenant
                    && b.rate_per_sec == limit.rate_per_min / 60.0
                    && b.burst == limit.burst
            });
            match kept {
                Some(i) => next.push(self.buckets.swap_remove(i)),
                None => next.push((limit.tenant, TokenBucket::from_limit(limit))),
            }
        }
        self.buckets = next;
    }

    /// Admits or refuses `tenant`'s request arriving at `now`.
    pub fn try_admit(&mut self, now: SimTime, tenant: TenantId) -> bool {
        self.try_admit_or_retry(now, tenant).is_ok()
    }

    /// Admits `tenant`'s request, or refuses it with the bucket's
    /// retry-after hint in virtual seconds (see
    /// [`TokenBucket::retry_after_secs`]).
    pub fn try_admit_or_retry(&mut self, now: SimTime, tenant: TenantId) -> Result<(), f64> {
        match self.buckets.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, bucket)) => {
                if bucket.try_admit(now) {
                    Ok(())
                } else {
                    Err(bucket.retry_after_secs(now))
                }
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_rate_and_burst() {
        // 30 req/min = 0.5 req/sec, burst 3.
        let mut b = TokenBucket::new(30.0, 3.0);
        let t = SimTime::ZERO;
        assert!(b.try_admit(t) && b.try_admit(t) && b.try_admit(t));
        assert!(!b.try_admit(t), "burst exhausted");
        // 2 s refills one token.
        assert!(b.try_admit(SimTime::from_secs_f64(2.0)));
        assert!(!b.try_admit(SimTime::from_secs_f64(2.0)));
        // A long idle period refills to the burst cap, never beyond.
        assert!((b.available(SimTime::from_secs_f64(1_000.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn under_rate_traffic_is_never_refused() {
        let mut b = TokenBucket::new(60.0, 1.0);
        for i in 0..100 {
            // Exactly at the sustained rate: one request per second.
            assert!(b.try_admit(SimTime::from_secs_f64(i as f64)), "req {i}");
        }
    }

    #[test]
    fn controller_limits_only_configured_tenants() {
        let policy = TenancyPolicy::fifo().with_rate_limit(TenantId(1), 60.0, 1.0);
        let mut ac = AdmissionControl::new(&policy);
        let t = SimTime::ZERO;
        assert!(ac.try_admit(t, TenantId(1)));
        assert!(!ac.try_admit(t, TenantId(1)), "tenant 1 over its burst");
        for _ in 0..50 {
            assert!(ac.try_admit(t, TenantId(2)), "unlimited tenant");
        }
    }

    #[test]
    fn retry_after_tracks_the_refill_rate() {
        // 30 req/min = 0.5 tokens/sec: an empty bucket is 2 s from a
        // whole token.
        let mut b = TokenBucket::new(30.0, 1.0);
        let t = SimTime::ZERO;
        assert_eq!(b.retry_after_secs(t), 0.0, "full bucket needs no wait");
        assert!(b.try_admit(t));
        assert!((b.retry_after_secs(t) - 2.0).abs() < 1e-9);
        // Half the refill later, half the wait remains.
        assert!((b.retry_after_secs(SimTime::from_secs_f64(1.0)) - 1.0).abs() < 1e-9);
        // Backing off by exactly the hint succeeds.
        assert!(b.try_admit(SimTime::from_secs_f64(2.0)));
    }

    #[test]
    fn controller_refusals_carry_the_hint() {
        let policy = TenancyPolicy::fifo().with_rate_limit(TenantId(1), 60.0, 1.0);
        let mut ac = AdmissionControl::new(&policy);
        let t = SimTime::ZERO;
        assert_eq!(ac.try_admit_or_retry(t, TenantId(1)), Ok(()));
        let hint = ac.try_admit_or_retry(t, TenantId(1)).unwrap_err();
        assert!(
            (hint - 1.0).abs() < 1e-9,
            "60/min refills in 1 s, got {hint}"
        );
        assert_eq!(ac.try_admit_or_retry(t, TenantId(2)), Ok(()), "unlimited");
    }

    #[test]
    fn update_policy_preserves_unchanged_buckets() {
        let policy = TenancyPolicy::fifo()
            .with_rate_limit(TenantId(1), 60.0, 2.0)
            .with_rate_limit(TenantId(2), 30.0, 1.0);
        let mut ac = AdmissionControl::new(&policy);
        let t = SimTime::ZERO;
        // Spend tenant 1's whole burst.
        assert!(ac.try_admit(t, TenantId(1)) && ac.try_admit(t, TenantId(1)));
        assert!(!ac.try_admit(t, TenantId(1)));

        // Join tenant 3, drop tenant 2, leave tenant 1 unchanged.
        let next = TenancyPolicy::fifo()
            .with_rate_limit(TenantId(1), 60.0, 2.0)
            .with_rate_limit(TenantId(3), 60.0, 1.0);
        ac.update_policy(&next);
        assert!(!ac.try_admit(t, TenantId(1)), "spent tokens stay spent");
        assert!(ac.try_admit(t, TenantId(2)), "dropped tenant is unlimited");
        assert!(ac.try_admit(t, TenantId(3)) && !ac.try_admit(t, TenantId(3)));

        // Changing tenant 1's limit issues a fresh full bucket.
        ac.update_policy(&TenancyPolicy::fifo().with_rate_limit(TenantId(1), 60.0, 1.0));
        assert!(ac.try_admit(t, TenantId(1)), "new limit, fresh bucket");
    }

    #[test]
    fn empty_policy_admits_everything() {
        let mut ac = AdmissionControl::new(&TenancyPolicy::fifo());
        assert!(ac.try_admit(SimTime::ZERO, TenantId(9)));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn non_positive_rate_rejected() {
        let _ = TokenBucket::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "burst must admit")]
    fn sub_one_burst_rejected() {
        let _ = TokenBucket::new(10.0, 0.5);
    }
}
