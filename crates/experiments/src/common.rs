//! Shared builders for the experiment harness, on the unified
//! `modm-deploy` API.
//!
//! Experiments construct [`Deployment`]s and compare [`Summary`] values;
//! a module that needs the node's own report reads it through
//! `RunOutcome::as_single`.

use modm_baselines::{NirvanaSystem, PineconeSystem, VanillaSystem};
use modm_cluster::GpuKind;
use modm_core::{MoDMConfig, RunOptions};
use modm_deploy::{Deployment, ServingBackend, Summary};
use modm_diffusion::ModelId;
use modm_workload::{Trace, TraceBuilder};

/// The paper's default cluster for throughput studies: 16x AMD MI210.
pub const CLUSTER: (GpuKind, usize) = (GpuKind::Mi210, 16);

/// Default cache capacity for throughput experiments (paper: 10k images).
pub const CACHE: usize = 10_000;

/// Standard throughput-study trace sizes: 3k warm-up + 6k measured (the
/// paper uses 10k + 10k; ratios are stable at this scale).
pub const WARMUP: usize = 3_000;
/// Measured requests after the warm-up.
pub const SERVED: usize = 6_000;

/// Saturated-run options with the standard warm-up, for the baselines
/// and MoDM deployments alike.
pub fn saturated() -> RunOptions {
    RunOptions::saturated(WARMUP)
}

/// The standard DiffusionDB-like trace for throughput studies.
pub fn db_trace(seed: u64) -> Trace {
    TraceBuilder::diffusion_db(seed)
        .requests(WARMUP + SERVED)
        .rate_per_min(10.0)
        .build()
}

/// The standard MJHQ-like trace.
pub fn mjhq_trace(seed: u64) -> Trace {
    TraceBuilder::mjhq(seed)
        .requests(WARMUP + SERVED)
        .rate_per_min(10.0)
        .build()
}

/// The standard-cluster MoDM config with one small model.
pub fn modm_config(large: ModelId, small: ModelId, cache: usize) -> MoDMConfig {
    MoDMConfig::builder()
        .gpus(CLUSTER.0, CLUSTER.1)
        .large_model(large)
        .small_model(small)
        .cache_capacity(cache)
        .build()
}

/// A single-node MoDM deployment in the standard cluster.
pub fn modm_deployment(large: ModelId, small: ModelId, cache: usize) -> Deployment {
    Deployment::single(modm_config(large, small, cache))
}

/// Runs the five Fig 7/8 systems on a trace, returning `(label, summary)`
/// pairs with Vanilla first.
///
/// The baselines run through their own engine and land in a [`Summary`]
/// through [`Summary::from_node_report`]; the MoDM variants run through
/// [`Deployment::single`]. Both sides share the [`Summary`] shape, which
/// is what makes the fig7 tables generic over system kind.
pub fn run_fig7_suite(trace: &Trace, large: ModelId) -> Vec<(String, Summary)> {
    let opts = saturated();
    let floor = trace.dataset().fid_floor();
    let (gpu, n) = CLUSTER;
    let summarize = |report| Summary::from_node_report(report, n, 2.0);
    let mut out = Vec::new();
    out.push((
        "Vanilla".to_string(),
        summarize(VanillaSystem::with_fid_floor(large, gpu, n, floor).run_with(trace, opts)),
    ));
    out.push((
        "NIRVANA".to_string(),
        summarize(NirvanaSystem::with_fid_floor(large, gpu, n, CACHE, floor).run_with(trace, opts)),
    ));
    out.push((
        "Pinecone".to_string(),
        summarize(
            PineconeSystem::with_fid_floor(large, gpu, n, CACHE, floor).run_with(trace, opts),
        ),
    ));
    for small in [ModelId::Sdxl, ModelId::Sana] {
        let label = format!(
            "MoDM-{}",
            if small == ModelId::Sdxl {
                "SDXL"
            } else {
                "SANA"
            }
        );
        let mut outcome = modm_deployment(large, small, CACHE).run_with(trace, opts);
        out.push((label, outcome.summary(2.0)));
    }
    out
}

/// Pretty-prints a one-line header for an experiment section.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
