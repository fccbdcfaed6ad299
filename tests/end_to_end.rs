//! End-to-end integration tests spanning the whole workspace: the paper's
//! qualitative claims must hold on full serving runs.

use modm::baselines::{NirvanaSystem, PineconeSystem, VanillaSystem};
use modm::cluster::GpuKind;
use modm::core::{MoDMConfig, RunOptions};
use modm::deploy::{Deployment, ServingBackend};
use modm::diffusion::ModelId;
use modm::workload::{RateSchedule, TraceBuilder};

const GPU: GpuKind = GpuKind::Mi210;
const N: usize = 16;
const CACHE: usize = 4_000;

fn opts() -> RunOptions {
    RunOptions::saturated(800)
}

fn trace(seed: u64) -> modm::workload::Trace {
    TraceBuilder::diffusion_db(seed)
        .requests(2_800)
        .rate_per_min(10.0)
        .build()
}

#[test]
fn throughput_ordering_matches_fig7() {
    let t = trace(1);
    let v = VanillaSystem::new(ModelId::Sd35Large, GPU, N).run_with(&t, opts());
    let ni = NirvanaSystem::new(ModelId::Sd35Large, GPU, N, CACHE).run_with(&t, opts());
    let config = MoDMConfig::builder()
        .gpus(GPU, N)
        .small_model(ModelId::Sdxl)
        .cache_capacity(CACHE)
        .build();
    let modm_sdxl = Deployment::single(config).run_with(&t, opts());
    let modm_sdxl = modm_sdxl.as_single().expect("single tier");
    let config = MoDMConfig::builder()
        .gpus(GPU, N)
        .small_model(ModelId::Sana)
        .cache_capacity(CACHE)
        .build();
    let modm_sana = Deployment::single(config).run_with(&t, opts());
    let modm_sana = modm_sana.as_single().expect("single tier");

    let (rv, rn, rx, rs) = (
        v.requests_per_minute(),
        ni.requests_per_minute(),
        modm_sdxl.requests_per_minute(),
        modm_sana.requests_per_minute(),
    );
    assert!(rn > rv, "Nirvana beats vanilla: {rn} vs {rv}");
    assert!(rx > rn, "MoDM-SDXL beats Nirvana: {rx} vs {rn}");
    assert!(rs > rx, "MoDM-SANA beats MoDM-SDXL: {rs} vs {rx}");
    // The headline claim: over 2x on the DiffusionDB-like workload.
    assert!(rx / rv > 2.0, "MoDM speedup = {}", rx / rv);
}

#[test]
fn quality_ordering_matches_table2() {
    // FID (against an independent large-model run) must order
    // vanilla < MoDM < standalone small model, with Pinecone's CLIP lowest.
    use modm::diffusion::{QualityModel, Sampler};
    use modm::embedding::{SemanticSpace, TextEncoder};
    use modm::metrics::QualityAggregator;
    use modm::simkit::SimRng;

    let t = trace(2);
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let sampler = Sampler::new(QualityModel::new(space, 4_242, 6.29));
    let mut rng = SimRng::seed_from(5);
    let mut gt = QualityAggregator::new();
    for req in t.iter().skip(800) {
        let e = text.encode(&req.prompt);
        gt.record(
            &e,
            &sampler.generate_for(ModelId::Sd35Large, &e, req.id, &mut rng),
        );
    }

    let v = VanillaSystem::new(ModelId::Sd35Large, GPU, N).run_with(&t, opts());
    let sana = VanillaSystem::new(ModelId::Sana, GPU, N).run_with(&t, opts());
    let config = MoDMConfig::builder()
        .gpus(GPU, N)
        .small_model(ModelId::Sana)
        .cache_capacity(CACHE)
        .build();
    let modm = Deployment::single(config).run_with(&t, opts());
    let modm = modm.as_single().expect("single tier");
    let pc = PineconeSystem::new(ModelId::Sd35Large, GPU, N, CACHE).run_with(&t, opts());

    let fid_v = v.quality.fid_against(&gt).unwrap();
    let fid_m = modm.quality.fid_against(&gt).unwrap();
    let fid_s = sana.quality.fid_against(&gt).unwrap();
    assert!(fid_v < fid_m, "vanilla {fid_v} < modm {fid_m}");
    assert!(fid_m < fid_s, "modm {fid_m} < standalone sana {fid_s}");

    assert!(
        pc.quality.mean_clip() < v.quality.mean_clip(),
        "retrieval-only serving loses alignment: {} vs {}",
        pc.quality.mean_clip(),
        v.quality.mean_clip()
    );
    // MoDM keeps CLIP within ~2% of vanilla (paper: 99.7% retention).
    let retention = modm.quality.mean_clip() / v.quality.mean_clip();
    assert!(retention > 0.96, "retention = {retention}");
}

#[test]
fn slo_violations_monotone_in_rate() {
    let config = MoDMConfig::builder()
        .gpus(GPU, 8)
        .cache_capacity(CACHE)
        .build();
    let mut system = Deployment::single(config);
    let mut last = -1.0;
    for rate in [4.0, 12.0, 28.0, 60.0] {
        let t = TraceBuilder::diffusion_db(3)
            .requests(700)
            .rate_per_min(rate)
            .build();
        let r = system.run(&t);
        let viol = r.as_single().expect("single tier").slo_violation_rate(2.0);
        assert!(
            viol >= last - 0.05,
            "violations should not fall as load rises: {viol} after {last}"
        );
        last = viol;
    }
    assert!(last > 0.5, "8 GPUs cannot sustain 60 req/min: {last}");
}

#[test]
fn temporal_locality_matches_fig15() {
    // Over 90% of cache hits retrieve images cached within four hours.
    let t = TraceBuilder::diffusion_db(4)
        .requests(4_000)
        .rate_per_min(10.0)
        .build();
    let config = MoDMConfig::builder()
        .gpus(GPU, N)
        .cache_capacity(50_000)
        .build();
    let r = Deployment::single(config).run(&t);
    let r = r.as_single().expect("single tier");
    let young = r.cache_stats.fraction_of_hits_younger_than(4.0 * 3600.0);
    assert!(young > 0.9, "4-hour locality = {young}");
}

#[test]
fn monitor_escalates_small_model_under_ramp() {
    let t = TraceBuilder::diffusion_db(5)
        .requests(2_200)
        .rate_schedule(RateSchedule::ramp(6.0, 26.0, 4.0, 12.0))
        .build();
    let config = MoDMConfig::builder()
        .gpus(GPU, N)
        .cache_capacity(CACHE)
        .build();
    let r = Deployment::single(config).run(&t);
    let r = r.as_single().expect("single tier");
    let used_sana = r
        .allocation_series
        .iter()
        .any(|s| s.small_model == ModelId::Sana);
    let used_sdxl = r
        .allocation_series
        .iter()
        .any(|s| s.small_model == ModelId::Sdxl);
    assert!(used_sdxl, "starts on SDXL");
    assert!(used_sana, "escalates to SANA past ~22 req/min");
    assert!(r.model_switches > 0, "workers actually switched models");
}

#[test]
fn runs_are_deterministic() {
    let t = trace(6);
    let run = || {
        let config = MoDMConfig::builder()
            .gpus(GPU, N)
            .cache_capacity(CACHE)
            .build();
        let outcome = Deployment::single(config).run_with(&t, opts());
        outcome.as_single().expect("single tier").clone()
    };
    let a = run();
    let b = run();
    assert_eq!(a.hits, b.hits);
    assert_eq!(a.k_histogram, b.k_histogram);
    assert!((a.requests_per_minute() - b.requests_per_minute()).abs() < 1e-12);
    assert!((a.quality.mean_clip() - b.quality.mean_clip()).abs() < 1e-12);
    assert!((a.energy.total_joules - b.energy.total_joules).abs() < 1e-6);
}

#[test]
fn energy_savings_ordering_matches_fig18() {
    let t = TraceBuilder::diffusion_db(7)
        .requests(1_200)
        .rate_per_min(8.0)
        .build();
    let v = VanillaSystem::new(ModelId::Sd35Large, GPU, N).run(&t);
    let ni = NirvanaSystem::new(ModelId::Sd35Large, GPU, N, CACHE).run(&t);
    let config = MoDMConfig::builder()
        .gpus(GPU, N)
        .small_model(ModelId::Sana)
        .cache_capacity(CACHE)
        .build();
    let modm_sana = Deployment::single(config).run(&t);
    let modm_sana = modm_sana.as_single().expect("single tier");
    let j = |r: &modm::core::report::ServingReport| r.energy.joules_per_request(r.completed());
    assert!(j(&ni) < j(&v), "Nirvana saves energy vs vanilla");
    assert!(j(modm_sana) < j(&ni), "MoDM-SANA saves more than Nirvana");
}

#[test]
fn mjhq_gains_smaller_than_diffusiondb() {
    // Fig 7's dataset contrast: less temporal locality -> smaller speedups.
    let db = trace(8);
    let mj = TraceBuilder::mjhq(8)
        .requests(2_800)
        .rate_per_min(10.0)
        .build();
    let speedup = |t: &modm::workload::Trace| {
        let v = VanillaSystem::new(ModelId::Sd35Large, GPU, N).run_with(t, opts());
        let config = MoDMConfig::builder()
            .gpus(GPU, N)
            .small_model(ModelId::Sdxl)
            .cache_capacity(CACHE)
            .build();
        let m = Deployment::single(config).run_with(t, opts());
        let m = m.as_single().expect("single tier");
        m.requests_per_minute() / v.requests_per_minute()
    };
    let s_db = speedup(&db);
    let s_mj = speedup(&mj);
    assert!(s_db > s_mj, "DiffusionDB {s_db} vs MJHQ {s_mj}");
}
