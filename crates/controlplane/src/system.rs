//! The single-node MoDM serving system — the paper's deployment: one
//! scheduler, one global monitor, one pool of GPU workers and one image
//! cache.
//!
//! It runs as a fleet of one. Behind a one-node router every request
//! reaches node 0, whose shard is the whole cache, so the serving
//! engine's loop (arrivals, worker completions, monitor ticks) over a
//! one-node [`Fleet`] is exactly the single-node loop. Workers are never preempted; the monitor's
//! re-allocation takes effect as workers become idle, paying the
//! model-load latency on switches — the same dynamics that make Fig 10's
//! regime transitions gradual rather than instantaneous.

use modm_core::config::{MoDMConfig, RunOptions};
use modm_core::events::Observer;
use modm_core::report::ServingReport;
use modm_fleet::{Router, RoutingPolicy};
use modm_workload::Trace;

use crate::fleet::Fleet;
use crate::report::ElasticReport;

/// RNG salt of single-node runs ("RUN"). The fleet and elastic tiers
/// salt their runs differently; keeping each is what keeps each tier's
/// results seed-for-seed stable.
const SINGLE_SALT: u64 = 0x52_554E;

/// The MoDM serving system on one node.
///
/// Construct once from a [`MoDMConfig`]; each [`ServingSystem::run`]
/// builds fresh state (cache, workers, RNG) so runs are independent and
/// deterministic.
///
/// # Example
///
/// ```
/// use modm_controlplane::ServingSystem;
/// use modm_core::MoDMConfig;
/// use modm_cluster::GpuKind;
/// use modm_workload::TraceBuilder;
///
/// let trace = TraceBuilder::diffusion_db(42).requests(60).rate_per_min(12.0).build();
/// let config = MoDMConfig::builder()
///     .gpus(GpuKind::Mi210, 8)
///     .cache_capacity(500)
///     .build();
/// let report = ServingSystem::new(config).run(&trace);
/// assert_eq!(report.completed(), 60);
/// assert!(report.hit_rate() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ServingSystem {
    fleet: Fleet,
}

impl ServingSystem {
    /// Creates a system with the given configuration.
    pub fn new(config: MoDMConfig) -> Self {
        ServingSystem {
            fleet: Fleet::new(config, Router::new(RoutingPolicy::RoundRobin, 1)),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MoDMConfig {
        self.fleet.node_config()
    }

    /// Serves the trace with default options.
    pub fn run(&self, trace: &Trace) -> ServingReport {
        self.run_with(trace, RunOptions::default())
    }

    /// Serves the trace with explicit options, unobserved.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub fn run_with(&self, trace: &Trace, options: RunOptions) -> ServingReport {
        self.run_observed(trace, options, None)
    }

    /// Serves the trace while streaming every
    /// [`SimEvent`](modm_core::events::SimEvent) (admissions, cache
    /// decisions, dispatches, completions) to `observer`, if one is
    /// attached. Observation never perturbs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub fn run_observed(
        &self,
        trace: &Trace,
        options: RunOptions,
        observer: Option<&mut dyn Observer>,
    ) -> ServingReport {
        let mut report = self.run_engine(trace, options, observer);
        report.nodes.pop().expect("a fleet of one").report
    }

    /// Serves the trace like [`ServingSystem::run_observed`] and returns
    /// the engine's whole report: counters taken as each request reaches
    /// its terminal, GPU-hours metered on the node, and the node's
    /// [`ServingReport`] as `nodes[0].report`.
    ///
    /// # Panics
    ///
    /// Panics if `options.warmup >= trace.len()`.
    pub fn run_engine(
        &self,
        trace: &Trace,
        options: RunOptions,
        observer: Option<&mut dyn Observer>,
    ) -> ElasticReport {
        self.fleet.serve(trace, options, SINGLE_SALT, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_cluster::GpuKind;
    use modm_core::config::{AdmissionPolicy, ServingMode};
    use modm_workload::TraceBuilder;

    fn small_system(n_gpus: usize) -> ServingSystem {
        ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, n_gpus)
                .cache_capacity(2_000)
                .build(),
        )
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let trace = TraceBuilder::diffusion_db(1)
            .requests(80)
            .rate_per_min(10.0)
            .build();
        let report = small_system(8).run(&trace);
        assert_eq!(report.completed(), 80);
        assert_eq!(report.hits + report.misses, 80);
    }

    #[test]
    fn the_node_report_holds_the_engine_latencies_in_order() {
        // Both views are folded from one terminal log; a node of one
        // sees every completion, in the order they completed.
        let trace = TraceBuilder::diffusion_db(6)
            .requests(120)
            .rate_per_min(30.0)
            .build();
        let report = small_system(2).run_engine(&trace, RunOptions::default(), None);
        let bits = |samples: &[f64]| samples.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let node = &report.nodes[0].report;
        assert_eq!(
            bits(node.latency.samples_secs()),
            bits(report.latency.samples_secs())
        );
        assert_eq!(node.latency.count(), 120);
        assert_eq!(node.throughput.completed(), 120);
    }

    #[test]
    fn deterministic_under_seed() {
        let trace = TraceBuilder::diffusion_db(2)
            .requests(60)
            .rate_per_min(10.0)
            .build();
        let a = small_system(8).run(&trace);
        let b = small_system(8).run(&trace);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.k_histogram, b.k_histogram);
        assert!((a.requests_per_minute() - b.requests_per_minute()).abs() < 1e-12);
        assert!((a.quality.mean_clip() - b.quality.mean_clip()).abs() < 1e-12);
    }

    #[test]
    fn session_locality_produces_hits() {
        let trace = TraceBuilder::diffusion_db(3)
            .requests(400)
            .rate_per_min(10.0)
            .build();
        let report = small_system(16).run(&trace);
        assert!(
            report.hit_rate() > 0.4,
            "DiffusionDB-like locality should hit often: {}",
            report.hit_rate()
        );
    }

    #[test]
    fn warmup_requests_excluded_from_metrics() {
        let trace = TraceBuilder::diffusion_db(4)
            .requests(100)
            .rate_per_min(10.0)
            .build();
        let report = small_system(8).run_with(
            &trace,
            RunOptions {
                warmup: 40,
                saturate: false,
            },
        );
        assert_eq!(report.completed(), 60);
    }

    #[test]
    fn saturation_mode_measures_max_throughput() {
        let trace = TraceBuilder::diffusion_db(5)
            .requests(150)
            .rate_per_min(1.0)
            .build();
        let report = small_system(16).run_with(&trace, RunOptions::saturated(0));
        // At 1 req/min the timed run would take 150 minutes; saturation
        // finishes far faster than that.
        assert!(report.finished_at.as_mins_f64() < 60.0);
        assert!(report.requests_per_minute() > 5.0);
    }

    #[test]
    fn low_load_meets_slo() {
        let trace = TraceBuilder::diffusion_db(6)
            .requests(120)
            .rate_per_min(4.0)
            .build();
        let report = small_system(16).run(&trace);
        assert!(
            report.slo_violation_rate(2.0) < 0.1,
            "rate = {}",
            report.slo_violation_rate(2.0)
        );
    }

    #[test]
    fn overload_violates_slo() {
        let trace = TraceBuilder::diffusion_db(7)
            .requests(250)
            .rate_per_min(40.0)
            .build();
        // Tiny cluster: 2 GPUs cannot sustain 40 req/min.
        let report = small_system(2).run(&trace);
        assert!(
            report.slo_violation_rate(2.0) > 0.5,
            "rate = {}",
            report.slo_violation_rate(2.0)
        );
    }

    #[test]
    fn saturation_with_queue_budget_sheds_but_never_stalls() {
        // Regression: a shed completes nothing, so under closed-loop
        // saturation it must release its backlog slot like a refusal
        // does — otherwise the loop drains below its prime depth and the
        // run never terminates. A tight budget forces sheds on every
        // queued (non-immediate) pickup; the run must still end with
        // every request accounted for.
        use modm_core::fairqueue::TenancyPolicy;
        let trace = TraceBuilder::diffusion_db(11)
            .requests(60)
            .rate_per_min(10.0)
            .build();
        let report = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 2)
                .cache_capacity(500)
                .tenancy(
                    TenancyPolicy::fifo()
                        .with_queue_budget(modm_simkit::SimDuration::from_secs_f64(1.0)),
                )
                .build(),
        )
        .run_with(&trace, RunOptions::saturated(0));
        assert!(report.shed > 0, "the tight budget must shed");
        assert_eq!(
            report.completed() + report.shed,
            60,
            "every request either completes or sheds"
        );
    }

    #[test]
    fn quality_mode_keeps_more_large_workers() {
        let trace = TraceBuilder::diffusion_db(8)
            .requests(300)
            .rate_per_min(6.0)
            .build();
        let quality = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 16)
                .cache_capacity(2_000)
                .mode(ServingMode::QualityOptimized)
                .build(),
        )
        .run(&trace);
        let throughput = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 16)
                .cache_capacity(2_000)
                .mode(ServingMode::ThroughputOptimized)
                .build(),
        )
        .run(&trace);
        let mean_large = |r: &ServingReport| {
            if r.allocation_series.is_empty() {
                return 16.0;
            }
            r.allocation_series
                .iter()
                .map(|s| s.num_large as f64)
                .sum::<f64>()
                / r.allocation_series.len() as f64
        };
        assert!(
            mean_large(&quality) >= mean_large(&throughput),
            "{} vs {}",
            mean_large(&quality),
            mean_large(&throughput)
        );
    }

    #[test]
    fn s3fifo_policy_selectable_from_config() {
        use modm_cache::MaintenancePolicy;
        let trace = TraceBuilder::diffusion_db(10)
            .requests(150)
            .rate_per_min(10.0)
            .build();
        let report = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 8)
                .cache_capacity(60) // small enough to exercise eviction
                .cache_policy(MaintenancePolicy::S3Fifo)
                .build(),
        )
        .run(&trace);
        assert_eq!(report.completed(), 150);
        assert!(report.cache_stats.evictions() > 0, "S3-FIFO must evict");
        assert!(report.hit_rate() > 0.0, "locality still produces hits");
    }

    #[test]
    fn cache_large_admission_caches_only_full_generations() {
        let trace = TraceBuilder::diffusion_db(9)
            .requests(200)
            .rate_per_min(10.0)
            .build();
        let all = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 8)
                .cache_capacity(5_000)
                .admission(AdmissionPolicy::CacheAll)
                .build(),
        )
        .run(&trace);
        let large_only = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 8)
                .cache_capacity(5_000)
                .admission(AdmissionPolicy::CacheLarge)
                .build(),
        )
        .run(&trace);
        // Cache-all inserts every completion; cache-large only misses.
        assert!(all.cache_stats.insertions() > large_only.cache_stats.insertions());
    }

    #[test]
    fn threshold_shift_tightens_hits() {
        // The config's shift must reach the serving decision: raising
        // every rung of the ladder by 0.08 puts even identical prompts
        // (similarity ~0.29) below the hit threshold.
        let trace = TraceBuilder::diffusion_db(3)
            .requests(200)
            .rate_per_min(10.0)
            .build();
        let config = |shift: f64| {
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 16)
                .cache_capacity(2_000)
                .threshold_shift(shift)
                .build()
        };
        let base = ServingSystem::new(config(0.0)).run(&trace);
        let shifted = ServingSystem::new(config(0.08)).run(&trace);
        assert!(base.hits > 0, "locality must hit without a shift");
        assert!(
            shifted.hits < base.hits,
            "{} vs {}",
            shifted.hits,
            base.hits
        );
        assert_eq!(shifted.completed(), base.completed());
    }

    #[test]
    fn single_and_fleet_reject_whole_trace_warmup_alike() {
        // One loop, one input check: a warmup that leaves nothing to
        // serve panics with the same message on both static tiers.
        let trace = TraceBuilder::diffusion_db(12)
            .requests(20)
            .rate_per_min(10.0)
            .build();
        let options = RunOptions::saturated(trace.len());
        let message = |run: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("warmup == trace.len() must panic");
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .expect("a string panic payload")
        };
        let single = message(&|| {
            small_system(4).run_with(&trace, options);
        });
        let fleet = message(&|| {
            Fleet::new(
                small_system(4).config().clone(),
                Router::new(RoutingPolicy::CacheAffinity, 2),
            )
            .run_with(&trace, options);
        });
        assert_eq!(single, "warmup consumes the whole trace");
        assert_eq!(fleet, single);
    }
}
