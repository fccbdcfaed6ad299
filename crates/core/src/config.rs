//! MoDM system configuration.

use std::fmt;

use modm_cache::{CacheConfig, MaintenancePolicy};
use modm_cluster::GpuKind;
use modm_diffusion::ModelId;
use modm_embedding::IndexPolicy;
use modm_simkit::SimDuration;
use modm_workload::TenantId;

use crate::fairqueue::TenancyPolicy;

/// Why a [`MoDMConfigBuilder`] rejected its configuration.
///
/// Returned by [`MoDMConfigBuilder::try_build`]; the panicking
/// [`MoDMConfigBuilder::build`] formats the same messages.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `num_gpus` was zero.
    NoGpus,
    /// The small-model escalation ladder was empty.
    NoSmallModels,
    /// `cache_capacity` was zero.
    ZeroCacheCapacity,
    /// The configured large model is not actually a large model.
    NotALargeModel(ModelId),
    /// The large model also appears in the small-model ladder.
    LargeModelInSmallLadder(ModelId),
    /// `threshold_shift` was negative.
    NegativeThresholdShift(f64),
    /// `monitor_period` was zero.
    ZeroMonitorPeriod,
    /// A tenancy share had a non-positive weight.
    NonPositiveTenantWeight(TenantId),
    /// The same tenant appeared twice in the tenancy shares.
    DuplicateTenantShare(TenantId),
    /// The tenants' cache reserves together exceed the cache capacity.
    OvercommittedCacheReserves {
        /// Sum of configured reserves.
        reserved: usize,
        /// Configured cache capacity.
        capacity: usize,
    },
    /// A token-bucket rate limit had a non-positive rate.
    NonPositiveRateLimit(TenantId),
    /// A token-bucket rate limit had a burst below one request.
    SubUnitBurst(TenantId),
    /// The same tenant appeared twice in the rate limits.
    DuplicateRateLimit(TenantId),
    /// The adaptive aging bounds were inverted or non-positive.
    BadAgingBounds,
    /// The queue-time shed budget was zero.
    ZeroQueueBudget,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoGpus => write!(f, "need at least one GPU"),
            ConfigError::NoSmallModels => write!(f, "need at least one small model"),
            ConfigError::ZeroCacheCapacity => write!(f, "cache capacity must be positive"),
            ConfigError::NotALargeModel(m) => write!(f, "{m} is not a large model"),
            ConfigError::LargeModelInSmallLadder(m) => {
                write!(f, "large model {m} cannot also be a small model")
            }
            ConfigError::NegativeThresholdShift(v) => {
                write!(f, "threshold shift must be >= 0, got {v}")
            }
            ConfigError::ZeroMonitorPeriod => write!(f, "monitor period must be positive"),
            ConfigError::NonPositiveTenantWeight(t) => {
                write!(f, "tenant {t} needs a positive weight")
            }
            ConfigError::DuplicateTenantShare(t) => {
                write!(f, "tenant {t} appears twice in the tenancy shares")
            }
            ConfigError::OvercommittedCacheReserves { reserved, capacity } => {
                write!(
                    f,
                    "tenant cache reserves ({reserved}) exceed cache capacity ({capacity})"
                )
            }
            ConfigError::NonPositiveRateLimit(t) => {
                write!(f, "tenant {t} needs a positive admission rate")
            }
            ConfigError::SubUnitBurst(t) => {
                write!(f, "tenant {t}'s burst must admit at least one request")
            }
            ConfigError::DuplicateRateLimit(t) => {
                write!(f, "tenant {t} appears twice in the rate limits")
            }
            ConfigError::BadAgingBounds => {
                write!(f, "adaptive aging needs 0 < min <= max")
            }
            ConfigError::ZeroQueueBudget => {
                write!(f, "queue-time shed budget must be positive")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates a [`TenancyPolicy`] against a cache capacity, reporting the
/// first violated invariant as a typed [`ConfigError`].
///
/// [`MoDMConfigBuilder::try_build`] runs this at construction; the
/// scenario engine runs the same checks again before every *mid-run*
/// policy mutation (tenant join/leave), so a rejected weight or an
/// overcommitted reserve set surfaces as a declined transition instead of
/// unwinding the DES.
///
/// # Errors
///
/// Returns an error on a non-positive or duplicate tenant share, reserves
/// exceeding `cache_capacity`, a non-positive / sub-unit-burst / duplicate
/// rate limit, inverted aging bounds, or a zero queue budget.
pub fn validate_tenancy(policy: &TenancyPolicy, cache_capacity: usize) -> Result<(), ConfigError> {
    let mut seen: Vec<TenantId> = Vec::new();
    for share in &policy.shares {
        if share.weight <= 0.0 {
            return Err(ConfigError::NonPositiveTenantWeight(share.tenant));
        }
        if seen.contains(&share.tenant) {
            return Err(ConfigError::DuplicateTenantShare(share.tenant));
        }
        seen.push(share.tenant);
    }
    let reserved: usize = policy.shares.iter().map(|s| s.cache_reserve).sum();
    if reserved > cache_capacity {
        return Err(ConfigError::OvercommittedCacheReserves {
            reserved,
            capacity: cache_capacity,
        });
    }
    let mut limited: Vec<TenantId> = Vec::new();
    for limit in &policy.rate_limits {
        if limit.rate_per_min <= 0.0 {
            return Err(ConfigError::NonPositiveRateLimit(limit.tenant));
        }
        if limit.burst < 1.0 {
            return Err(ConfigError::SubUnitBurst(limit.tenant));
        }
        if limited.contains(&limit.tenant) {
            return Err(ConfigError::DuplicateRateLimit(limit.tenant));
        }
        limited.push(limit.tenant);
    }
    if let Some(bounds) = policy.aging_bounds {
        if bounds.min.is_zero() || bounds.min > bounds.max {
            return Err(ConfigError::BadAgingBounds);
        }
    }
    if policy.queue_budget.is_some_and(|b| b.is_zero()) {
        return Err(ConfigError::ZeroQueueBudget);
    }
    Ok(())
}

/// Which images enter the cache (paper §5.4 / Fig 9's two configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdmissionPolicy {
    /// Cache every generated image, from both small and large models — the
    /// paper's final choice ("MoDM cache-all").
    #[default]
    CacheAll,
    /// Cache only full generations by the large model ("MoDM cache-large").
    CacheLarge,
}

/// The global monitor's operating mode (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServingMode {
    /// Maximize throughput: all hits go to the small model.
    #[default]
    ThroughputOptimized,
    /// Meet the request rate while keeping as many large workers as
    /// possible (hits may be refined by large workers).
    QualityOptimized,
}

/// Full configuration of a [`crate::ServingSystem`].
#[derive(Debug, Clone, PartialEq)]
pub struct MoDMConfig {
    /// GPU kind of every worker (the paper's clusters are homogeneous).
    pub gpu: GpuKind,
    /// Number of GPU workers.
    pub num_gpus: usize,
    /// The large (full-quality) model.
    pub large_model: ModelId,
    /// Small-model escalation ladder, cheapest-last (Fig 10 switches from
    /// SDXL to SANA under extreme load).
    pub small_models: Vec<ModelId>,
    /// Image-cache capacity.
    pub cache_capacity: usize,
    /// Cache eviction policy.
    pub cache_policy: MaintenancePolicy,
    /// Cache admission policy.
    pub admission: AdmissionPolicy,
    /// Monitor operating mode.
    pub mode: ServingMode,
    /// Extra tightening of the hit-threshold ladder (Fig 14's
    /// "threshold + 0.01" ablation); usually 0.
    pub threshold_shift: f64,
    /// Global monitor period.
    pub monitor_period: SimDuration,
    /// RNG seed for generation noise.
    pub seed: u64,
    /// Multi-tenant admission and cache-reserve policy. The default
    /// ([`TenancyPolicy::fifo`]) is the legacy single-queue behavior and
    /// is exactly tenant-neutral.
    pub tenancy: TenancyPolicy,
    /// Similarity-index backend for every cache built from this config
    /// (through [`MoDMConfig::cache_config`], on every tier) and, where a
    /// tier wires it into its `RoutingConfig`, the affinity leader probe.
    /// The default is [`IndexPolicy::Exact`], the bit-identical flat scan;
    /// [`IndexPolicy::Approx`] opts into the f32 probes.
    pub index_policy: IndexPolicy,
}

impl MoDMConfig {
    /// Starts a builder with the paper's defaults: 16x MI210, SD3.5-Large,
    /// SDXL -> SANA escalation, 10k FIFO cache-all, throughput-optimized.
    pub fn builder() -> MoDMConfigBuilder {
        MoDMConfigBuilder::default()
    }

    /// The cache every tier builds from this config: capacity,
    /// maintenance policy, tenant reserves and index policy. One node's
    /// cache on the single-node tier, one shard per node on the fleet,
    /// elastic and scenario tiers.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig::with_policy(self.cache_capacity, self.cache_policy)
            .with_reserves(self.tenancy.cache_reserves())
            .with_index_policy(self.index_policy)
    }

    /// The cheapest configured small model.
    pub fn smallest_model(&self) -> ModelId {
        *self.small_models.last().expect("validated non-empty")
    }
}

/// Builder for [`MoDMConfig`].
#[derive(Debug, Clone)]
pub struct MoDMConfigBuilder {
    config: MoDMConfig,
}

impl Default for MoDMConfigBuilder {
    fn default() -> Self {
        MoDMConfigBuilder {
            config: MoDMConfig {
                gpu: GpuKind::Mi210,
                num_gpus: 16,
                large_model: ModelId::Sd35Large,
                small_models: vec![ModelId::Sdxl, ModelId::Sana],
                cache_capacity: 10_000,
                cache_policy: MaintenancePolicy::Fifo,
                admission: AdmissionPolicy::CacheAll,
                mode: ServingMode::ThroughputOptimized,
                threshold_shift: 0.0,
                monitor_period: SimDuration::from_secs_f64(60.0),
                seed: 0xD1FF,
                tenancy: TenancyPolicy::fifo(),
                index_policy: IndexPolicy::Exact,
            },
        }
    }
}

impl MoDMConfigBuilder {
    /// Sets the GPU kind and count.
    pub fn gpus(mut self, gpu: GpuKind, n: usize) -> Self {
        self.config.gpu = gpu;
        self.config.num_gpus = n;
        self
    }

    /// Sets the large model.
    pub fn large_model(mut self, model: ModelId) -> Self {
        self.config.large_model = model;
        self
    }

    /// Sets the small-model escalation ladder (first entry preferred).
    pub fn small_models(mut self, models: Vec<ModelId>) -> Self {
        self.config.small_models = models;
        self
    }

    /// Sets a single small model (no escalation).
    pub fn small_model(self, model: ModelId) -> Self {
        self.small_models(vec![model])
    }

    /// Sets the cache capacity.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Sets the cache eviction policy.
    pub fn cache_policy(mut self, policy: MaintenancePolicy) -> Self {
        self.config.cache_policy = policy;
        self
    }

    /// Sets the cache admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.config.admission = admission;
        self
    }

    /// Sets the serving mode.
    pub fn mode(mut self, mode: ServingMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Shifts the hit-threshold ladder upward by `delta` (tightening).
    pub fn threshold_shift(mut self, delta: f64) -> Self {
        self.config.threshold_shift = delta;
        self
    }

    /// Sets the monitor period.
    pub fn monitor_period(mut self, period: SimDuration) -> Self {
        self.config.monitor_period = period;
        self
    }

    /// Sets the generation-noise seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the multi-tenant admission / cache-reserve policy.
    pub fn tenancy(mut self, policy: TenancyPolicy) -> Self {
        self.config.tenancy = policy;
        self
    }

    /// Sets the similarity-index backend policy.
    pub fn index_policy(mut self, policy: IndexPolicy) -> Self {
        self.config.index_policy = policy;
        self
    }

    /// Validates and produces the config, reporting the first violated
    /// invariant as a typed [`ConfigError`].
    ///
    /// # Errors
    ///
    /// Returns an error if there are no GPUs, no small models, a zero
    /// cache, a large model in the small ladder, a non-large "large
    /// model", a negative threshold shift, or a zero monitor period.
    pub fn try_build(self) -> Result<MoDMConfig, ConfigError> {
        let c = &self.config;
        if c.num_gpus == 0 {
            return Err(ConfigError::NoGpus);
        }
        if c.small_models.is_empty() {
            return Err(ConfigError::NoSmallModels);
        }
        if c.cache_capacity == 0 {
            return Err(ConfigError::ZeroCacheCapacity);
        }
        if !c.large_model.spec().is_large() {
            return Err(ConfigError::NotALargeModel(c.large_model));
        }
        if c.small_models.contains(&c.large_model) {
            return Err(ConfigError::LargeModelInSmallLadder(c.large_model));
        }
        if c.threshold_shift < 0.0 {
            return Err(ConfigError::NegativeThresholdShift(c.threshold_shift));
        }
        if c.monitor_period.is_zero() {
            return Err(ConfigError::ZeroMonitorPeriod);
        }
        validate_tenancy(&c.tenancy, c.cache_capacity)?;
        Ok(self.config)
    }

    /// Validates and produces the config.
    ///
    /// # Panics
    ///
    /// Panics on the same invariants [`MoDMConfigBuilder::try_build`]
    /// reports as errors.
    pub fn build(self) -> MoDMConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = MoDMConfig::builder().build();
        assert_eq!(c.gpu, GpuKind::Mi210);
        assert_eq!(c.num_gpus, 16);
        assert_eq!(c.large_model, ModelId::Sd35Large);
        assert_eq!(c.small_models, vec![ModelId::Sdxl, ModelId::Sana]);
        assert_eq!(c.cache_capacity, 10_000);
        assert_eq!(c.mode, ServingMode::ThroughputOptimized);
        assert_eq!(c.smallest_model(), ModelId::Sana);
    }

    #[test]
    fn builder_round_trips() {
        let c = MoDMConfig::builder()
            .gpus(GpuKind::A40, 4)
            .large_model(ModelId::Flux)
            .small_model(ModelId::Sd35Turbo)
            .cache_capacity(5_000)
            .admission(AdmissionPolicy::CacheLarge)
            .mode(ServingMode::QualityOptimized)
            .threshold_shift(0.01)
            .seed(7)
            .build();
        assert_eq!(c.num_gpus, 4);
        assert_eq!(c.large_model, ModelId::Flux);
        assert_eq!(c.small_models, vec![ModelId::Sd35Turbo]);
        assert_eq!(c.admission, AdmissionPolicy::CacheLarge);
        assert_eq!(c.mode, ServingMode::QualityOptimized);
    }

    #[test]
    #[should_panic(expected = "not a large model")]
    fn small_model_as_large_rejected() {
        let _ = MoDMConfig::builder().large_model(ModelId::Sana).build();
    }

    #[test]
    #[should_panic(expected = "need at least one GPU")]
    fn zero_gpus_rejected() {
        let _ = MoDMConfig::builder().gpus(GpuKind::A40, 0).build();
    }

    #[test]
    fn try_build_reports_typed_errors() {
        assert_eq!(
            MoDMConfig::builder().gpus(GpuKind::A40, 0).try_build(),
            Err(ConfigError::NoGpus)
        );
        assert_eq!(
            MoDMConfig::builder().small_models(vec![]).try_build(),
            Err(ConfigError::NoSmallModels)
        );
        assert_eq!(
            MoDMConfig::builder().cache_capacity(0).try_build(),
            Err(ConfigError::ZeroCacheCapacity)
        );
        assert_eq!(
            MoDMConfig::builder().large_model(ModelId::Sana).try_build(),
            Err(ConfigError::NotALargeModel(ModelId::Sana))
        );
        assert_eq!(
            MoDMConfig::builder()
                .small_models(vec![ModelId::Sdxl, ModelId::Sd35Large])
                .try_build(),
            Err(ConfigError::LargeModelInSmallLadder(ModelId::Sd35Large))
        );
        assert_eq!(
            MoDMConfig::builder().threshold_shift(-0.5).try_build(),
            Err(ConfigError::NegativeThresholdShift(-0.5))
        );
        assert_eq!(
            MoDMConfig::builder()
                .monitor_period(SimDuration::from_secs_f64(0.0))
                .try_build(),
            Err(ConfigError::ZeroMonitorPeriod)
        );
        assert!(MoDMConfig::builder().try_build().is_ok());
    }

    #[test]
    fn tenancy_shares_validated() {
        use crate::fairqueue::TenantShare;
        assert_eq!(
            MoDMConfig::builder()
                .tenancy(TenancyPolicy::weighted_fair(vec![TenantShare::new(
                    TenantId(1),
                    -1.0
                )]))
                .try_build(),
            Err(ConfigError::NonPositiveTenantWeight(TenantId(1)))
        );
        assert_eq!(
            MoDMConfig::builder()
                .tenancy(TenancyPolicy::weighted_fair(vec![
                    TenantShare::new(TenantId(2), 1.0),
                    TenantShare::new(TenantId(2), 2.0),
                ]))
                .try_build(),
            Err(ConfigError::DuplicateTenantShare(TenantId(2)))
        );
        assert_eq!(
            MoDMConfig::builder()
                .cache_capacity(10)
                .tenancy(TenancyPolicy::weighted_fair(vec![
                    TenantShare::new(TenantId(1), 1.0).with_cache_reserve(6),
                    TenantShare::new(TenantId(2), 1.0).with_cache_reserve(5),
                ]))
                .try_build(),
            Err(ConfigError::OvercommittedCacheReserves {
                reserved: 11,
                capacity: 10
            })
        );
        assert!(MoDMConfig::builder()
            .tenancy(TenancyPolicy::weighted_fair(vec![
                TenantShare::new(TenantId(1), 4.0).with_cache_reserve(100),
                TenantShare::new(TenantId(2), 1.0),
            ]))
            .try_build()
            .is_ok());
    }

    #[test]
    fn overload_policy_validated() {
        use modm_simkit::SimDuration;
        assert_eq!(
            MoDMConfig::builder()
                .tenancy(TenancyPolicy::fifo().with_rate_limit(TenantId(1), 0.0, 2.0))
                .try_build(),
            Err(ConfigError::NonPositiveRateLimit(TenantId(1)))
        );
        assert_eq!(
            MoDMConfig::builder()
                .tenancy(TenancyPolicy::fifo().with_rate_limit(TenantId(1), 5.0, 0.9))
                .try_build(),
            Err(ConfigError::SubUnitBurst(TenantId(1)))
        );
        assert_eq!(
            MoDMConfig::builder()
                .tenancy(
                    TenancyPolicy::fifo()
                        .with_rate_limit(TenantId(1), 5.0, 2.0)
                        .with_rate_limit(TenantId(1), 6.0, 2.0)
                )
                .try_build(),
            Err(ConfigError::DuplicateRateLimit(TenantId(1)))
        );
        assert_eq!(
            MoDMConfig::builder()
                .tenancy(TenancyPolicy::fifo().with_adaptive_aging(
                    SimDuration::from_secs_f64(60.0),
                    SimDuration::from_secs_f64(30.0),
                ))
                .try_build(),
            Err(ConfigError::BadAgingBounds)
        );
        assert_eq!(
            MoDMConfig::builder()
                .tenancy(TenancyPolicy::fifo().with_queue_budget(SimDuration::ZERO))
                .try_build(),
            Err(ConfigError::ZeroQueueBudget)
        );
        assert!(MoDMConfig::builder()
            .tenancy(
                TenancyPolicy::fifo()
                    .with_rate_limit(TenantId(1), 12.0, 4.0)
                    .with_adaptive_aging(
                        SimDuration::from_secs_f64(30.0),
                        SimDuration::from_secs_f64(600.0),
                    )
                    .with_queue_budget(SimDuration::from_secs_f64(400.0))
            )
            .try_build()
            .is_ok());
    }

    #[test]
    fn config_error_messages_are_stable() {
        // `build()` panics with these exact messages; downstream tests pin
        // substrings of them.
        assert_eq!(ConfigError::NoGpus.to_string(), "need at least one GPU");
        assert!(ConfigError::NotALargeModel(ModelId::Sana)
            .to_string()
            .contains("not a large model"));
    }
}
