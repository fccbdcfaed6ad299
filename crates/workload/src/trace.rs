//! Traces: ordered request sequences with arrival timestamps.

use modm_simkit::SimRng;

use crate::arrivals::RateSchedule;
use crate::prompts::{PromptFactory, PromptFactoryConfig};
use crate::request::Request;
use crate::tenancy::{TenantId, TenantMix};

/// Which dataset a trace emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Production-like trace with session/temporal locality (DiffusionDB).
    DiffusionDb,
    /// Curated trace without temporal structure (MJHQ-30k).
    Mjhq,
}

impl DatasetKind {
    /// The dataset-dependent same-model FID floor (Table 2: 6.29 vs 5.16).
    pub fn fid_floor(self) -> f64 {
        match self {
            DatasetKind::DiffusionDb => 6.29,
            DatasetKind::Mjhq => 5.16,
        }
    }

    /// Paper-facing name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::DiffusionDb => "DiffusionDB",
            DatasetKind::Mjhq => "MJHQ-30k",
        }
    }
}

/// An immutable, time-ordered request trace.
#[derive(Debug, Clone)]
pub struct Trace {
    dataset: DatasetKind,
    requests: Vec<Request>,
}

impl Trace {
    /// Wraps explicit requests (must be time-ordered).
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not non-decreasing.
    pub fn from_requests(dataset: DatasetKind, requests: Vec<Request>) -> Self {
        assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "trace must be time-ordered"
        );
        Trace { dataset, requests }
    }

    /// The dataset this trace emulates.
    pub fn dataset(&self) -> DatasetKind {
        self.dataset
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Slice access.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests belonging to `tenant`.
    pub fn tenant_len(&self, tenant: TenantId) -> usize {
        self.requests.iter().filter(|r| r.tenant == tenant).count()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Builder for synthetic traces.
///
/// # Example
///
/// ```
/// use modm_workload::{TraceBuilder, RateSchedule};
/// let t = TraceBuilder::mjhq(1)
///     .requests(100)
///     .rate_schedule(RateSchedule::Constant(8.0))
///     .build();
/// assert_eq!(t.len(), 100);
/// ```
#[derive(Debug)]
pub struct TraceBuilder {
    dataset: DatasetKind,
    seed: u64,
    n: usize,
    schedule: RateSchedule,
    prompt_config: PromptFactoryConfig,
    tenants: Vec<TenantMix>,
}

impl TraceBuilder {
    /// Starts a DiffusionDB-like trace.
    pub fn diffusion_db(seed: u64) -> Self {
        TraceBuilder {
            dataset: DatasetKind::DiffusionDb,
            seed,
            n: 1_000,
            schedule: RateSchedule::Constant(10.0),
            prompt_config: PromptFactoryConfig::diffusion_db(),
            tenants: Vec::new(),
        }
    }

    /// Starts an MJHQ-like trace.
    pub fn mjhq(seed: u64) -> Self {
        TraceBuilder {
            dataset: DatasetKind::Mjhq,
            seed,
            n: 1_000,
            schedule: RateSchedule::Constant(10.0),
            prompt_config: PromptFactoryConfig::mjhq(),
            tenants: Vec::new(),
        }
    }

    /// Number of requests to generate.
    pub fn requests(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Constant Poisson rate, requests per minute.
    pub fn rate_per_min(mut self, rate: f64) -> Self {
        self.schedule = RateSchedule::Constant(rate);
        self
    }

    /// Arbitrary rate schedule.
    pub fn rate_schedule(mut self, schedule: RateSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Overrides the prompt-locality configuration.
    pub fn prompt_config(mut self, config: PromptFactoryConfig) -> Self {
        self.prompt_config = config;
        self
    }

    /// Makes the trace multi-tenant: each [`TenantMix`] contributes an
    /// independent Poisson request stream at its own rate (with its own
    /// prompt sessions, so tenants have disjoint semantic locality), and
    /// the streams are merged by arrival time. The total request count
    /// stays `requests(n)`, split across tenants in proportion to their
    /// rates, so every tenant's stream spans the same virtual duration.
    ///
    /// With an empty mix (the default) the builder produces the
    /// single-tenant trace it always has — byte-identical per seed.
    pub fn tenants(mut self, mix: Vec<TenantMix>) -> Self {
        self.tenants = mix;
        self
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if zero requests were requested, or if a tenant mix has a
    /// non-positive rate or duplicate tenant ids.
    pub fn build(self) -> Trace {
        assert!(self.n > 0, "trace needs at least one request");
        if !self.tenants.is_empty() {
            return self.build_multi_tenant();
        }
        let mut root = SimRng::seed_from(self.seed);
        let mut prompt_rng = root.fork(1);
        let mut arrival_rng = root.fork(2);
        let mut factory = PromptFactory::new(self.prompt_config, prompt_rng.fork(0));
        let arrivals = self.schedule.sample_arrivals(self.n, &mut arrival_rng);
        let requests = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, at)| Request::new(i as u64, factory.next_prompt(), at))
            .collect();
        Trace {
            dataset: self.dataset,
            requests,
        }
    }

    /// Splits `n` across the mix in proportion to each tenant's rate
    /// (largest-remainder rounding, every tenant gets at least one).
    fn tenant_counts(n: usize, mix: &[TenantMix]) -> Vec<usize> {
        assert!(
            n >= mix.len(),
            "trace needs at least one request per tenant: {n} requests for {} tenants",
            mix.len()
        );
        let total_rate: f64 = mix.iter().map(|m| m.rate_per_min).sum();
        let mut counts: Vec<usize> = mix
            .iter()
            .map(|m| ((n as f64 * m.rate_per_min / total_rate).floor() as usize).max(1))
            .collect();
        // Distribute the rounding remainder by largest fractional part
        // (ties by index), deterministically. With `n >= mix.len()` the
        // downward pass always finds a count above the floor of 1, so
        // both passes terminate.
        let mut assigned: usize = counts.iter().sum();
        let mut order: Vec<usize> = (0..mix.len()).collect();
        order.sort_by(|&a, &b| {
            let frac = |i: usize| {
                let exact = n as f64 * mix[i].rate_per_min / total_rate;
                exact - exact.floor()
            };
            frac(b)
                .partial_cmp(&frac(a))
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut i = 0;
        while assigned < n {
            counts[order[i % order.len()]] += 1;
            assigned += 1;
            i += 1;
        }
        while assigned > n {
            let idx = order[i % order.len()];
            if counts[idx] > 1 {
                counts[idx] -= 1;
                assigned -= 1;
            }
            i += 1;
        }
        counts
    }

    /// Generates a multi-tenant trace spanning exactly `horizon_mins`
    /// virtual minutes — the duration-driven counterpart of
    /// [`TraceBuilder::build`], for scenario scripts whose actions fire at
    /// wall-clock offsets. Each [`TenantMix`] contributes every arrival its
    /// [`TenantMix::effective_schedule`] produces inside the horizon
    /// (clipped to its [`TenantMix::with_window`], if any); `requests(n)`
    /// is ignored. The streams merge by arrival time exactly as in
    /// [`TraceBuilder::tenants`], with the same per-tenant RNG forks: a
    /// tenant's prompts and Poisson clock do not depend on the other
    /// tenants in the mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty, the horizon is non-positive, a tenant
    /// repeats, a rate is non-positive, or the horizon produces zero
    /// arrivals.
    pub fn build_over(self, horizon_mins: f64) -> Trace {
        assert!(horizon_mins > 0.0, "horizon must be positive");
        assert!(
            !self.tenants.is_empty(),
            "build_over needs a tenant mix (use tenants(..))"
        );
        self.validate_mix();
        let horizon = modm_simkit::SimDuration::from_mins_f64(horizon_mins);
        let mut root = SimRng::seed_from(self.seed);
        let mut prompt_rng = root.fork(1);
        let mut arrival_rng = root.fork(2);

        let mut merged: Vec<(modm_simkit::SimTime, usize, usize, String)> = Vec::new();
        for (i, mix) in self.tenants.iter().enumerate() {
            let mut factory =
                PromptFactory::new(self.prompt_config.clone(), prompt_rng.fork(i as u64));
            let mut tenant_arrivals = arrival_rng.fork(i as u64);
            let arrivals = mix
                .effective_schedule()
                .sample_arrivals_until(horizon, &mut tenant_arrivals);
            let (start, end) = mix.window_mins.unwrap_or((0.0, f64::INFINITY));
            for (k, at) in arrivals.into_iter().enumerate() {
                let mins = at.as_mins_f64();
                if mins >= start && mins < end {
                    merged.push((at, i, k, factory.next_prompt()));
                }
            }
        }
        assert!(!merged.is_empty(), "horizon produced zero arrivals");
        merged.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let requests = merged
            .into_iter()
            .enumerate()
            .map(|(id, (at, i, _, prompt))| {
                let mix = &self.tenants[i];
                Request::for_tenant(id as u64, prompt, at, mix.tenant, mix.qos)
            })
            .collect();
        Trace {
            dataset: self.dataset,
            requests,
        }
    }

    fn validate_mix(&self) {
        for m in &self.tenants {
            assert!(
                m.schedule.is_some() || m.rate_per_min > 0.0,
                "tenant {} rate must be positive",
                m.tenant
            );
        }
        let mut seen: Vec<TenantId> = self.tenants.iter().map(|m| m.tenant).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), self.tenants.len(), "duplicate tenant in mix");
    }

    fn build_multi_tenant(self) -> Trace {
        for m in &self.tenants {
            assert!(
                m.rate_per_min > 0.0,
                "tenant {} rate must be positive",
                m.tenant
            );
        }
        let mut seen: Vec<TenantId> = self.tenants.iter().map(|m| m.tenant).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), self.tenants.len(), "duplicate tenant in mix");

        let counts = Self::tenant_counts(self.n, &self.tenants);
        let mut root = SimRng::seed_from(self.seed);
        let mut prompt_rng = root.fork(1);
        let mut arrival_rng = root.fork(2);

        // Each tenant generates its own stream — own sessions, own Poisson
        // clock — from deterministic forks, then the streams merge by
        // arrival time (ties by tenant id, then stream order).
        let mut merged: Vec<(modm_simkit::SimTime, usize, usize, String)> = Vec::new();
        for (i, (mix, &count)) in self.tenants.iter().zip(&counts).enumerate() {
            let mut factory =
                PromptFactory::new(self.prompt_config.clone(), prompt_rng.fork(i as u64));
            let mut tenant_arrivals = arrival_rng.fork(i as u64);
            let arrivals = RateSchedule::Constant(mix.rate_per_min)
                .sample_arrivals(count, &mut tenant_arrivals);
            for (k, at) in arrivals.into_iter().enumerate() {
                merged.push((at, i, k, factory.next_prompt()));
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let requests = merged
            .into_iter()
            .enumerate()
            .map(|(id, (at, i, _, prompt))| {
                let mix = &self.tenants[i];
                Request::for_tenant(id as u64, prompt, at, mix.tenant, mix.qos)
            })
            .collect();
        Trace {
            dataset: self.dataset,
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_ordered_unique_ids() {
        let t = TraceBuilder::diffusion_db(5).requests(300).build();
        assert_eq!(t.len(), 300);
        for (i, r) in t.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        assert!(t
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TraceBuilder::diffusion_db(1).requests(50).build();
        let b = TraceBuilder::diffusion_db(1).requests(50).build();
        let c = TraceBuilder::diffusion_db(2).requests(50).build();
        assert_eq!(a.requests(), b.requests());
        assert_ne!(a.requests(), c.requests());
    }

    #[test]
    fn dataset_metadata() {
        assert_eq!(
            TraceBuilder::mjhq(1).requests(10).build().dataset(),
            DatasetKind::Mjhq
        );
        assert_eq!(DatasetKind::DiffusionDb.fid_floor(), 6.29);
        assert_eq!(DatasetKind::Mjhq.name(), "MJHQ-30k");
    }

    #[test]
    fn multi_tenant_mix_splits_by_rate_and_tags_requests() {
        use crate::tenancy::QosClass;
        let t = TraceBuilder::diffusion_db(5)
            .requests(400)
            .tenants(vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 2.0),
                TenantMix::new(TenantId(2), QosClass::BestEffort, 6.0),
            ])
            .build();
        assert_eq!(t.len(), 400);
        let n1 = t.tenant_len(TenantId(1));
        let n2 = t.tenant_len(TenantId(2));
        assert_eq!(n1 + n2, 400);
        // Proportional to rates (2 : 6).
        assert_eq!(n1, 100);
        assert_eq!(n2, 300);
        // Tags are consistent per tenant, ids are trace-ordered, arrivals
        // sorted.
        for (i, r) in t.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            match r.tenant {
                TenantId(1) => assert_eq!(r.qos, QosClass::Interactive),
                TenantId(2) => assert_eq!(r.qos, QosClass::BestEffort),
                other => panic!("unexpected tenant {other}"),
            }
        }
        assert!(t
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn multi_tenant_build_is_deterministic_and_seed_sensitive() {
        use crate::tenancy::QosClass;
        let build = |seed| {
            TraceBuilder::diffusion_db(seed)
                .requests(120)
                .tenants(vec![
                    TenantMix::new(TenantId(1), QosClass::Interactive, 3.0),
                    TenantMix::new(TenantId(2), QosClass::Standard, 9.0),
                ])
                .build()
        };
        assert_eq!(build(8).requests(), build(8).requests());
        assert_ne!(build(8).requests(), build(9).requests());
    }

    #[test]
    fn empty_mix_is_single_tenant_and_unchanged() {
        let plain = TraceBuilder::diffusion_db(4).requests(60).build();
        let tagged = TraceBuilder::diffusion_db(4)
            .requests(60)
            .tenants(vec![])
            .build();
        assert_eq!(plain.requests(), tagged.requests());
        assert!(plain.iter().all(|r| r.tenant == TenantId::DEFAULT));
    }

    #[test]
    fn tiny_multi_tenant_trace_gets_one_request_per_tenant() {
        use crate::tenancy::QosClass;
        let t = TraceBuilder::diffusion_db(1)
            .requests(3)
            .tenants(vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 1.0),
                TenantMix::new(TenantId(2), QosClass::Standard, 50.0),
                TenantMix::new(TenantId(3), QosClass::BestEffort, 1.0),
            ])
            .build();
        assert_eq!(t.len(), 3);
        for tenant in [TenantId(1), TenantId(2), TenantId(3)] {
            assert_eq!(t.tenant_len(tenant), 1);
        }
    }

    #[test]
    fn build_over_spans_horizon_and_honors_windows() {
        use crate::tenancy::QosClass;
        use crate::RateSchedule;
        let t = TraceBuilder::diffusion_db(11)
            .tenants(vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
                TenantMix::new(TenantId(2), QosClass::Standard, 6.0).with_window(30.0, 60.0),
                TenantMix {
                    schedule: Some(RateSchedule::spike(6.0, 8.0, 20.0, 10.0)),
                    ..TenantMix::new(TenantId(3), QosClass::BestEffort, 1.0)
                },
            ])
            .build_over(90.0);
        assert!(t
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        assert!(t.iter().all(|r| r.arrival.as_mins_f64() < 90.0));
        // Tenant 2 only exists inside its window.
        let t2: Vec<f64> = t
            .iter()
            .filter(|r| r.tenant == TenantId(2))
            .map(|r| r.arrival.as_mins_f64())
            .collect();
        assert!(!t2.is_empty());
        assert!(t2.iter().all(|m| (30.0..60.0).contains(m)));
        // Tenant 3's spike window is ~8x busier than its steady state.
        let t3_in = t
            .iter()
            .filter(|r| r.tenant == TenantId(3) && (20.0..30.0).contains(&r.arrival.as_mins_f64()))
            .count();
        let t3_out = t
            .iter()
            .filter(|r| r.tenant == TenantId(3) && (40.0..50.0).contains(&r.arrival.as_mins_f64()))
            .count();
        assert!(
            t3_in > 3 * t3_out.max(1),
            "spike {t3_in} vs steady {t3_out}"
        );
        // Deterministic per seed.
        let again = TraceBuilder::diffusion_db(11)
            .tenants(vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 6.0),
                TenantMix::new(TenantId(2), QosClass::Standard, 6.0).with_window(30.0, 60.0),
                TenantMix {
                    schedule: Some(RateSchedule::spike(6.0, 8.0, 20.0, 10.0)),
                    ..TenantMix::new(TenantId(3), QosClass::BestEffort, 1.0)
                },
            ])
            .build_over(90.0);
        assert_eq!(t.requests(), again.requests());
    }

    #[test]
    #[should_panic(expected = "at least one request per tenant")]
    fn fewer_requests_than_tenants_rejected() {
        use crate::tenancy::QosClass;
        let _ = TraceBuilder::diffusion_db(1)
            .requests(2)
            .tenants(vec![
                TenantMix::new(TenantId(1), QosClass::Interactive, 1.0),
                TenantMix::new(TenantId(2), QosClass::Standard, 2.0),
                TenantMix::new(TenantId(3), QosClass::BestEffort, 3.0),
            ])
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate tenant")]
    fn duplicate_tenants_rejected() {
        use crate::tenancy::QosClass;
        let _ = TraceBuilder::diffusion_db(1)
            .requests(10)
            .tenants(vec![
                TenantMix::new(TenantId(1), QosClass::Standard, 1.0),
                TenantMix::new(TenantId(1), QosClass::BestEffort, 2.0),
            ])
            .build();
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_requests_rejected() {
        use modm_simkit::SimTime;
        let reqs = vec![
            Request::new(0, "a", SimTime::from_secs_f64(5.0)),
            Request::new(1, "b", SimTime::from_secs_f64(1.0)),
        ];
        let _ = Trace::from_requests(DatasetKind::Mjhq, reqs);
    }
}
