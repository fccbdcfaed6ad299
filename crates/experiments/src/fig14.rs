//! Fig 14: the quality–performance trade-off space (FID vs 1/throughput)
//! with FLUX as the large model, sweeping MoDM's runtime knobs.

use modm_baselines::{NirvanaSystem, PineconeSystem, VanillaSystem};
use modm_controlplane::ServingSystem;
use modm_core::{AdmissionPolicy, MoDMConfig};
use modm_diffusion::{ModelId, QualityModel, Sampler};
use modm_embedding::{SemanticSpace, TextEncoder};
use modm_metrics::QualityAggregator;
use modm_simkit::SimRng;
use modm_workload::Trace;

use crate::common::{banner, db_trace, saturated, CACHE, CLUSTER};

/// Ground truth for FID: FLUX generations under an independent seed.
fn ground_truth(trace: &Trace) -> QualityAggregator {
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let sampler = Sampler::new(QualityModel::new(space, 9_999, trace.dataset().fid_floor()));
    let mut rng = SimRng::seed_from(140);
    let mut agg = QualityAggregator::new();
    for req in trace.iter().skip(crate::common::WARMUP) {
        let emb = text.encode(&req.prompt);
        let img = sampler.generate_for(ModelId::Flux, &emb, req.id, &mut rng);
        agg.record(&emb, &img);
    }
    agg
}

/// A standalone small/distilled model serving everything (no cache).
fn standalone(trace: &Trace, model: ModelId) -> (f64, QualityAggregator) {
    let (gpu, n) = CLUSTER;
    let mut sys = VanillaSystem::with_fid_floor(model, gpu, n, trace.dataset().fid_floor());
    let r = sys.run_with(trace, saturated());
    (r.requests_per_minute(), r.quality)
}

/// Runs the Fig 14 reproduction.
pub fn run() {
    banner("Fig 14: FID vs 1/throughput trade-off space (large model = FLUX)");
    let trace = db_trace(141);
    let gt = ground_truth(&trace);
    let (gpu, n) = CLUSTER;
    let floor = trace.dataset().fid_floor();
    let opts = saturated();

    let mut points: Vec<(String, f64, QualityAggregator)> = Vec::new();
    {
        let mut v = VanillaSystem::with_fid_floor(ModelId::Flux, gpu, n, floor);
        let r = v.run_with(&trace, opts);
        points.push(("FLUX".into(), r.requests_per_minute(), r.quality));
    }
    {
        let mut s = NirvanaSystem::with_fid_floor(ModelId::Flux, gpu, n, CACHE, floor);
        let r = s.run_with(&trace, opts);
        points.push(("NIRVANA".into(), r.requests_per_minute(), r.quality));
    }
    {
        let mut s = PineconeSystem::with_fid_floor(ModelId::Flux, gpu, n, CACHE, floor);
        let r = s.run_with(&trace, opts);
        points.push(("Pinecone".into(), r.requests_per_minute(), r.quality));
    }
    let (rpm, q) = standalone(&trace, ModelId::Sdxl);
    points.push(("SDXL".into(), rpm, q));
    let (rpm, q) = standalone(&trace, ModelId::Sd35Turbo);
    points.push(("SD3.5L-Turbo".into(), rpm, q));

    // MoDM configuration sweep: small model, admission, cache size,
    // threshold shift.
    let sweep: Vec<(String, MoDMConfig)> = vec![
        (
            "MoDM-SDXL-cachelarge".into(),
            MoDMConfig::builder()
                .gpus(gpu, n)
                .large_model(ModelId::Flux)
                .small_model(ModelId::Sdxl)
                .cache_capacity(CACHE)
                .admission(AdmissionPolicy::CacheLarge)
                .build(),
        ),
        (
            "MoDM-SANA-cachelarge".into(),
            MoDMConfig::builder()
                .gpus(gpu, n)
                .large_model(ModelId::Flux)
                .small_model(ModelId::Sana)
                .cache_capacity(CACHE)
                .admission(AdmissionPolicy::CacheLarge)
                .build(),
        ),
        (
            "MoDM-Turbo-cachelarge".into(),
            MoDMConfig::builder()
                .gpus(gpu, n)
                .large_model(ModelId::Flux)
                .small_model(ModelId::Sd35Turbo)
                .cache_capacity(CACHE)
                .admission(AdmissionPolicy::CacheLarge)
                .build(),
        ),
        (
            "MoDM-Turbo-cacheall".into(),
            MoDMConfig::builder()
                .gpus(gpu, n)
                .large_model(ModelId::Flux)
                .small_model(ModelId::Sd35Turbo)
                .cache_capacity(CACHE)
                .admission(AdmissionPolicy::CacheAll)
                .build(),
        ),
        (
            "MoDM-Turbo-cachelarge-5k".into(),
            MoDMConfig::builder()
                .gpus(gpu, n)
                .large_model(ModelId::Flux)
                .small_model(ModelId::Sd35Turbo)
                .cache_capacity(5_000)
                .admission(AdmissionPolicy::CacheLarge)
                .build(),
        ),
        (
            "MoDM-Turbo-thresh+0.01".into(),
            MoDMConfig::builder()
                .gpus(gpu, n)
                .large_model(ModelId::Flux)
                .small_model(ModelId::Sd35Turbo)
                .cache_capacity(CACHE)
                .admission(AdmissionPolicy::CacheLarge)
                .threshold_shift(0.01)
                .build(),
        ),
    ];
    for (label, config) in sweep {
        let r = ServingSystem::new(config).run_with(&trace, opts);
        points.push((label, r.requests_per_minute(), r.quality));
    }

    println!(
        "{:<26} {:>9} {:>12} {:>8}",
        "system", "req/min", "1/throughput", "FID"
    );
    for (label, rpm, quality) in &points {
        let fid = quality.fid_against(&gt).map_or(f64::NAN, |f| f);
        println!(
            "{:<26} {:>9.2} {:>12.3} {:>8.2}",
            label,
            rpm,
            1.0 / rpm,
            fid
        );
    }
    println!("\n(paper: MoDM points trace the Pareto frontier between FLUX and the");
    println!(" standalone small models; tighter thresholds / smaller caches trade");
    println!(" throughput back for fidelity)");
}
