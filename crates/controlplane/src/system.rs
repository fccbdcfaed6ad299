//! Behaviour tests of the single-node tier: the paper's deployment (one
//! scheduler, one global monitor, one pool of GPU workers and one image
//! cache), served by [`run_tier`](crate::run_tier) as a fixed fleet of
//! one.

#[cfg(test)]
mod tests {
    use modm_cluster::GpuKind;
    use modm_core::config::{AdmissionPolicy, MoDMConfig, RunOptions, ServingMode};
    use modm_core::report::ServingReport;
    use modm_fleet::{Router, RoutingPolicy};
    use modm_workload::{Trace, TraceBuilder};

    use crate::tier::tests::{fleet, single};

    fn small_system(n_gpus: usize) -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, n_gpus)
            .cache_capacity(2_000)
            .build()
    }

    /// The single tier's node report.
    fn run_with(config: &MoDMConfig, trace: &Trace, options: RunOptions) -> ServingReport {
        let mut report = single(config, trace, options);
        report.nodes.pop().expect("a fleet of one").report
    }

    fn run(config: &MoDMConfig, trace: &Trace) -> ServingReport {
        run_with(config, trace, RunOptions::default())
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let trace = TraceBuilder::diffusion_db(1)
            .requests(80)
            .rate_per_min(10.0)
            .build();
        let report = run(&small_system(8), &trace);
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
        let report = single(&small_system(2), &trace, RunOptions::default());
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
        let a = run(&small_system(8), &trace);
        let b = run(&small_system(8), &trace);
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
        let report = run(&small_system(16), &trace);
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
        let report = run_with(
            &small_system(8),
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
        let report = run_with(&small_system(16), &trace, RunOptions::saturated(0));
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
        let report = run(&small_system(16), &trace);
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
        let report = run(&small_system(2), &trace);
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
        let config = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 2)
            .cache_capacity(500)
            .tenancy(
                TenancyPolicy::fifo()
                    .with_queue_budget(modm_simkit::SimDuration::from_secs_f64(1.0)),
            )
            .build();
        let report = run_with(&config, &trace, RunOptions::saturated(0));
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
        let quality = run(
            &MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 16)
                .cache_capacity(2_000)
                .mode(ServingMode::QualityOptimized)
                .build(),
            &trace,
        );
        let throughput = run(
            &MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 16)
                .cache_capacity(2_000)
                .mode(ServingMode::ThroughputOptimized)
                .build(),
            &trace,
        );
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
        let report = run(
            &MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 8)
                .cache_capacity(60) // small enough to exercise eviction
                .cache_policy(MaintenancePolicy::S3Fifo)
                .build(),
            &trace,
        );
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
        let all = run(
            &MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 8)
                .cache_capacity(5_000)
                .admission(AdmissionPolicy::CacheAll)
                .build(),
            &trace,
        );
        let large_only = run(
            &MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 8)
                .cache_capacity(5_000)
                .admission(AdmissionPolicy::CacheLarge)
                .build(),
            &trace,
        );
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
        let base = run(&config(0.0), &trace);
        let shifted = run(&config(0.08), &trace);
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
            run_with(&small_system(4), &trace, options);
        });
        let router = Router::new(RoutingPolicy::CacheAffinity, 2);
        let fixed = message(&|| {
            fleet(&small_system(4), router.clone(), &trace, options);
        });
        assert_eq!(single, "warmup consumes the whole trace");
        assert_eq!(fixed, single);
    }
}
