//! Tables 2 and 3: image quality (CLIP / FID / IS / Pick) of every system,
//! plus appendix A.6 (the effect of caching small-model images) and Fig 19
//! (MJHQ hit rates).

use modm_baselines::{NirvanaSystem, PineconeSystem, VanillaSystem};
use modm_core::report::ServingReport;
use modm_core::{AdmissionPolicy, MoDMConfig, ServingSystem};
use modm_diffusion::{ModelId, QualityModel, Sampler};
use modm_embedding::{IndexPolicy, SemanticSpace, TextEncoder};
use modm_metrics::{QualityAggregator, QualityRow};
use modm_simkit::SimRng;
use modm_workload::{DatasetKind, Trace};

use crate::common::{banner, db_trace, mjhq_trace, saturated, CACHE, CLUSTER, WARMUP};

/// Ground truth: the large model under an independent seed on the same
/// served prompts (the paper's FID methodology).
fn ground_truth(trace: &Trace, large: ModelId) -> QualityAggregator {
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let sampler = Sampler::new(QualityModel::new(
        space,
        77_777,
        trace.dataset().fid_floor(),
    ));
    let mut rng = SimRng::seed_from(202);
    let mut agg = QualityAggregator::new();
    for req in trace.iter().skip(WARMUP) {
        let emb = text.encode(&req.prompt);
        let img = sampler.generate_for(large, &emb, req.id, &mut rng);
        agg.record(&emb, &img);
    }
    agg
}

fn quality_rows(trace: &Trace, large: ModelId) -> Vec<QualityRow> {
    let (gpu, n) = CLUSTER;
    let floor = trace.dataset().fid_floor();
    let opts = saturated();
    let gt = ground_truth(trace, large);

    let mut rows = Vec::new();
    let mut push = |label: &str, r: &ServingReport| {
        rows.push(r.quality.row(label, &gt));
    };

    let vanilla_label = format!("Vanilla ({})", large);
    let mut v = VanillaSystem::with_fid_floor(large, gpu, n, floor);
    push(&vanilla_label, &v.run_with(trace, opts));

    // Standalone small / distilled models serving everything.
    for (label, model) in [
        ("SDXL", ModelId::Sdxl),
        ("SD3.5L-Turbo", ModelId::Sd35Turbo),
        ("SANA", ModelId::Sana),
    ] {
        let mut s = VanillaSystem::with_fid_floor(model, gpu, n, floor);
        push(label, &s.run_with(trace, opts));
    }

    let mut ni = NirvanaSystem::with_fid_floor(large, gpu, n, CACHE, floor);
    push("Nirvana", &ni.run_with(trace, opts));
    let mut pc = PineconeSystem::with_fid_floor(large, gpu, n, CACHE, floor);
    push("Pinecone", &pc.run_with(trace, opts));

    for (label, small) in [("MoDM-SDXL", ModelId::Sdxl), ("MoDM-SANA", ModelId::Sana)] {
        let r = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(gpu, n)
                .large_model(large)
                .small_model(small)
                .cache_capacity(CACHE)
                .build(),
        )
        .run_with(trace, opts);
        push(label, &r);
    }
    rows
}

fn print_rows(rows: &[QualityRow]) {
    println!("{}", QualityRow::header());
    for row in rows {
        println!("{}", row.formatted());
    }
}

/// Table 2: quality on DiffusionDB and MJHQ with SD3.5-Large as vanilla.
pub fn run_table2() {
    banner("Table 2: image quality (vanilla = SD3.5-Large)");
    for (name, trace) in [
        ("DiffusionDB", db_trace(201)),
        ("MJHQ-30k", mjhq_trace(202)),
    ] {
        println!("\n{name}:");
        print_rows(&quality_rows(&trace, ModelId::Sd35Large));
    }
    println!("\n(paper DiffusionDB: Vanilla CLIP 28.55/FID 6.29; SDXL 29.30/16.29;");
    println!(" MoDM-SDXL 28.70/11.85 — MoDM sits between vanilla and the small model)");
}

/// Table 3: quality on DiffusionDB with FLUX as vanilla.
pub fn run_table3() {
    banner("Table 3: image quality on DiffusionDB (vanilla = FLUX)");
    let trace = db_trace(203);
    print_rows(&quality_rows(&trace, ModelId::Flux));
    println!("\n(paper: Vanilla 26.82/6.02; MoDM-SDXL 28.41/10.74; MoDM-SANA 27.59/16.84)");
}

/// Fig 19 (appendix A.5): MJHQ hit rates for cache sizes 1k and 10k.
pub fn run_fig19() {
    banner("Fig 19: cache hit rates on MJHQ");
    crate::fig9::run_for(
        DatasetKind::Mjhq,
        &[(1_000, IndexPolicy::Exact), (10_000, IndexPolicy::Exact)],
        30_000,
    );
    println!("\n(paper: MoDM > Nirvana; cache-large ~ cache-all without temporal locality)");
}

/// Appendix A.6: does caching small-model refinements degrade future
/// generations?
pub fn run_a6() {
    banner("Appendix A.6: effect of caching small-model images");
    let (gpu, n) = CLUSTER;
    let trace = db_trace(206);
    let opts = saturated();
    let gt = ground_truth(&trace, ModelId::Sd35Large);

    for (label, admission) in [
        ("cache-large only", AdmissionPolicy::CacheLarge),
        ("cache-all", AdmissionPolicy::CacheAll),
    ] {
        let r = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(gpu, n)
                .cache_capacity(CACHE)
                .admission(admission)
                .build(),
        )
        .run_with(&trace, opts);
        let fid = r.quality.fid_against(&gt).map_or(f64::NAN, |f| f);
        println!(
            "{:<18} hit rate {:.3}  CLIP {:.2}  FID {:.2}",
            label,
            r.hit_rate(),
            r.quality.mean_clip(),
            fid
        );
    }
    println!("\n(paper: CLIP drop from caching small-model images is minimal —");
    println!(" 28.58 vs 28.32 — while the hit rate rises; MoDM caches all images)");
}
