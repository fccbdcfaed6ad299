//! Behaviour tests of the elastic tier: a MoDM fleet whose node count is
//! a control variable, served by [`run_tier`](crate::run_tier) with the
//! control plane switched on (scale-up through the cold start, drains
//! with cache handoff, seeded crashes and recovery) and GPU-hours
//! metered per node.

#[cfg(test)]
mod tests {
    use modm_cluster::GpuKind;
    use modm_core::config::MoDMConfig;
    use modm_fleet::Router;
    use modm_workload::{Trace, TraceBuilder};

    use crate::autoscaler::{Autoscaler, HoldAutoscaler, ScaleDecision, ScheduledAutoscaler};
    use crate::client::Clients;
    use crate::engine::ElasticRun;
    use crate::fault::FaultInjector;
    use crate::report::{ElasticReport, FleetEventKind};
    use crate::tier::tests::elastic;
    use crate::tier::{LifecyclePlan, ELASTIC_SALT};

    fn node_config() -> MoDMConfig {
        MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 2)
            .cache_capacity(500)
            .build()
    }

    /// A fault-free elastic fleet of 2-GPU nodes between `min` and `max`
    /// nodes, starting at `initial`, under `scaler`.
    fn run(
        (initial, min, max): (usize, usize, usize),
        trace: &Trace,
        scaler: &mut dyn Autoscaler,
    ) -> ElasticReport {
        let plan = LifecyclePlan::new(initial, min, max);
        elastic(&node_config(), plan, trace, scaler, &FaultInjector::none())
    }

    #[test]
    fn shards_follow_the_node_config_index_policy() {
        // Every shard is built from `MoDMConfig::cache_config`, so the
        // node config's index policy reaches the elastic tier's caches;
        // the default stays on the exact flat scan.
        let trace = TraceBuilder::diffusion_db(43)
            .requests(60)
            .rate_per_min(12.0)
            .build();
        let approx = MoDMConfig {
            index_policy: modm_core::IndexPolicy::Approx,
            ..node_config()
        };
        for (node, backend) in [(node_config(), "flat"), (approx, "inverted")] {
            let plan = LifecyclePlan::new(2, 1, 4);
            let (mut scaler, faults) = (HoldAutoscaler, FaultInjector::none());
            let router = Router::new(plan.policy, plan.initial_nodes);
            let run = ElasticRun::one_region(
                &node,
                &plan,
                router,
                &trace,
                0,
                Clients::open_loop(),
                ELASTIC_SALT,
                &mut scaler,
                &faults,
                None,
            );
            for shard in 0..run.cache().num_shards() {
                assert_eq!(run.cache().shard(shard).index_backend(), backend);
            }
            let report = elastic(&node, plan, &trace, &mut HoldAutoscaler, &faults);
            assert_eq!(report.completed, 60, "{backend} shards serve everything");
        }
    }

    #[test]
    fn static_run_serves_everything_and_meters_gpu_hours() {
        let trace = TraceBuilder::diffusion_db(41)
            .requests(200)
            .rate_per_min(12.0)
            .build();
        let report = run((4, 4, 4), &trace, &mut HoldAutoscaler);
        assert_eq!(report.completed, 200);
        assert_eq!(report.hits + report.misses, 200);
        assert!(report.events.is_empty(), "static fleet never scales");
        // 4 nodes x 2 GPUs over the whole run.
        let expect = 4.0 * 2.0 * report.finished_at.as_secs_f64() / 3600.0;
        assert!((report.gpu_hours - expect).abs() < 1e-9);
    }

    #[test]
    fn scheduled_scale_up_and_down_walks_the_lifecycle() {
        let trace = TraceBuilder::diffusion_db(42)
            .requests(500)
            .rate_per_min(16.0)
            .build();
        let mut plan = ScheduledAutoscaler::new(vec![
            ScaleDecision::Up(2),
            ScaleDecision::Hold,
            ScaleDecision::Hold,
            ScaleDecision::Down(1),
        ]);
        let report = run((4, 2, 8), &trace, &mut plan);
        assert_eq!(report.completed, 500, "scaling never loses a request");
        let ups = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::ScaleUp { .. }))
            .count();
        let actives = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::NodeActive { .. }))
            .count();
        let downs = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::ScaleDown { .. }))
            .count();
        let decom = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::Decommissioned { .. }))
            .count();
        assert_eq!(ups, 2);
        assert_eq!(actives, 2, "both provisioned nodes reached Active");
        assert_eq!(downs, 1);
        assert_eq!(decom, 1, "the drained node released its GPUs");
        assert_eq!(report.peak_active_nodes(), 6);
        // Cold start is real: activation lags the scale-up decision by the
        // provision + warm delays.
        let up_at = report
            .find_event(|k| matches!(k, FleetEventKind::ScaleUp { .. }))
            .unwrap()
            .at;
        let active_at = report
            .find_event(|k| matches!(k, FleetEventKind::NodeActive { .. }))
            .unwrap()
            .at;
        assert!(
            (active_at.saturating_since(up_at).as_secs_f64() - 75.0).abs() < 1e-6,
            "45s provisioning + 30s warming"
        );
    }

    #[test]
    fn elastic_runs_are_deterministic() {
        let trace = TraceBuilder::diffusion_db(43)
            .requests(400)
            .rate_per_min(14.0)
            .build();
        let scripted = || {
            let mut plan = ScheduledAutoscaler::new(vec![
                ScaleDecision::Up(1),
                ScaleDecision::Hold,
                ScaleDecision::Down(1),
            ]);
            run((3, 2, 6), &trace, &mut plan)
        };
        let a = scripted();
        let b = scripted();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.routed_per_node, b.routed_per_node);
        assert_eq!(a.events.len(), b.events.len());
        assert!((a.gpu_hours - b.gpu_hours).abs() < 1e-12);
        for (x, y) in a.windows.iter().zip(&b.windows) {
            assert_eq!(x.completions, y.completions);
            assert_eq!(x.decision, y.decision);
        }
    }

    #[test]
    fn draining_node_finishes_backlog_but_gets_nothing_new() {
        // Run with a scripted drain; the debug_assert in route_to_node
        // (active-only routing) plus exact completion conservation proves
        // the draining node served its backlog and nothing else.
        let trace = TraceBuilder::diffusion_db(44)
            .requests(600)
            .rate_per_min(25.0)
            .build();
        let mut plan = ScheduledAutoscaler::new(vec![
            ScaleDecision::Hold,
            ScaleDecision::Down(1),
            ScaleDecision::Down(1),
        ]);
        let report = run((5, 2, 5), &trace, &mut plan);
        assert_eq!(report.completed, 600);
        let drains = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, FleetEventKind::ScaleDown { .. }))
            .count();
        assert_eq!(drains, 2);
        // Handoffs preserved capacity invariants (successor shards admit
        // through their normal insert path): every routed request was
        // still served exactly once after the drains.
        assert_eq!(report.hits + report.misses, 600);
    }

    #[test]
    fn crash_redelivers_backlog_and_recovery_rejoins() {
        let trace = TraceBuilder::diffusion_db(45)
            .requests(700)
            .rate_per_min(20.0)
            .build();
        let faults = FaultInjector::seeded(5, 8.0, 1, 4.0);
        let report = elastic(
            &node_config(),
            LifecyclePlan::new(4, 2, 6),
            &trace,
            &mut HoldAutoscaler,
            &faults,
        );
        assert_eq!(report.completed, 700, "crashed work is re-served");
        let crash = report
            .find_event(|k| matches!(k, FleetEventKind::Crash { .. }))
            .expect("a crash fired");
        let FleetEventKind::Crash { lost_entries, .. } = crash.kind else {
            unreachable!()
        };
        assert!(lost_entries > 0, "the shard died with the node");
        assert!(
            report
                .find_event(|k| matches!(k, FleetEventKind::RecoveryStarted { .. }))
                .is_some(),
            "recovery began"
        );
        assert!(
            report
                .find_event(|k| matches!(k, FleetEventKind::NodeActive { .. }))
                .is_some(),
            "the recovered node rejoined the active set"
        );
    }
}
