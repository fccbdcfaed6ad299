//! Fig 9 (and Fig 19 for MJHQ): cache hit rates and k-distributions for
//! Nirvana vs MoDM cache-large vs MoDM cache-all, across cache sizes.

use modm_baselines::nirvana::{t2t_k_decision, T2T_HIT_THRESHOLD};
use modm_cache::{CacheConfig, ImageCache, LatentCache};
use modm_core::kselect::HIT_THRESHOLD;
use modm_core::{k_decision, KDecision};
use modm_diffusion::{ModelId, QualityModel, Sampler, K_CHOICES};
use modm_embedding::{IndexPolicy, SemanticSpace, TextEncoder};
use modm_simkit::{SimRng, SimTime};
use modm_workload::{DatasetKind, Trace, TraceBuilder};

use crate::common::banner;

fn k_slot(k: u32) -> usize {
    K_CHOICES.iter().position(|&c| c == k).unwrap_or(0)
}

struct Outcome {
    hit_rate: f64,
    k_dist: [f64; K_CHOICES.len()],
}

fn fmt(o: &Outcome) -> String {
    let ks: Vec<String> = K_CHOICES
        .iter()
        .zip(o.k_dist)
        .map(|(k, f)| format!("k{k}:{f:.2}"))
        .collect();
    format!("hit={:.3}  [{}]", o.hit_rate, ks.join(" "))
}

fn run_nirvana(trace: &Trace, capacity: usize, index: IndexPolicy) -> Outcome {
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let sampler = Sampler::new(QualityModel::new(space, 9, trace.dataset().fid_floor()));
    let mut rng = SimRng::seed_from(91);
    let mut cache = LatentCache::new_utility(capacity, index);
    let mut hits = 0u64;
    let mut k_counts = [0u64; K_CHOICES.len()];
    for (i, req) in trace.iter().enumerate() {
        let emb = text.encode(&req.prompt);
        let now = SimTime::from_secs_f64(i as f64 * 6.0);
        let hit = cache
            .retrieve(now, &emb, T2T_HIT_THRESHOLD, ModelId::Sd35Large)
            .and_then(|h| t2t_k_decision(h.text_similarity).map(|k| (h, k)));
        match hit {
            Some((_h, k)) => {
                hits += 1;
                k_counts[k_slot(k)] += 1;
            }
            None => {
                let img = sampler.generate_for(ModelId::Sd35Large, &emb, req.id, &mut rng);
                let latents = K_CHOICES
                    .iter()
                    .map(|&k| sampler.capture_latent(&img, k))
                    .collect();
                cache.insert(now, emb, latents);
            }
        }
    }
    finish(hits, k_counts, trace.len())
}

fn run_modm(trace: &Trace, capacity: usize, index: IndexPolicy, cache_all: bool) -> Outcome {
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let sampler = Sampler::new(QualityModel::new(space, 9, trace.dataset().fid_floor()));
    let mut rng = SimRng::seed_from(92);
    let mut cache = ImageCache::new(CacheConfig::fifo(capacity).with_index_policy(index));
    let mut hits = 0u64;
    let mut k_counts = [0u64; K_CHOICES.len()];
    for (i, req) in trace.iter().enumerate() {
        let emb = text.encode(&req.prompt);
        let now = SimTime::from_secs_f64(i as f64 * 6.0);
        let image = match cache.retrieve(now, &emb, HIT_THRESHOLD) {
            Some(h) => {
                let k = match k_decision(h.similarity) {
                    KDecision::Hit { k } => k,
                    KDecision::Miss => 5,
                };
                hits += 1;
                k_counts[k_slot(k)] += 1;
                sampler.refine_for(ModelId::Sdxl, &h.image, &emb, req.id, k, &mut rng)
            }
            None => sampler.generate_for(ModelId::Sd35Large, &emb, req.id, &mut rng),
        };
        if cache_all || image.is_full_generation() {
            cache.insert(now, image);
        }
    }
    finish(hits, k_counts, trace.len())
}

fn finish(hits: u64, k_counts: [u64; K_CHOICES.len()], total: usize) -> Outcome {
    let mut k_dist = [0.0; K_CHOICES.len()];
    if hits > 0 {
        for (d, c) in k_dist.iter_mut().zip(k_counts) {
            *d = c as f64 / hits as f64;
        }
    }
    Outcome {
        hit_rate: hits as f64 / total as f64,
        k_dist,
    }
}

/// Shared body for Figs 9 and 19: one block per `(cache size, index
/// policy)` column.
pub fn run_for(dataset: DatasetKind, sizes: &[(usize, IndexPolicy)], replay: usize) {
    let trace = match dataset {
        DatasetKind::DiffusionDb => TraceBuilder::diffusion_db(90),
        DatasetKind::Mjhq => TraceBuilder::mjhq(90),
    }
    .requests(replay)
    .rate_per_min(10.0)
    .build();
    for &(size, index) in sizes {
        println!("\ncache size = {size}:");
        println!(
            "  NIRVANA          {}",
            fmt(&run_nirvana(&trace, size, index))
        );
        println!(
            "  MoDM cache-large {}",
            fmt(&run_modm(&trace, size, index, false))
        );
        println!(
            "  MoDM cache-all   {}",
            fmt(&run_modm(&trace, size, index, true))
        );
    }
}

/// Fig 9: DiffusionDB, cache sizes 1k / 10k / 100k. The 100k column runs
/// the approximate index, whose hit/miss verdicts are exact to f32
/// precision at a fraction of the flat scan's cost.
pub fn run() {
    banner("Fig 9: hit rates and skipped-step distributions (DiffusionDB)");
    run_for(
        DatasetKind::DiffusionDb,
        &[
            (1_000, IndexPolicy::Exact),
            (10_000, IndexPolicy::Exact),
            (100_000, IndexPolicy::Approx),
        ],
        80_000,
    );
    println!("\n(paper: MoDM > Nirvana; cache-all > cache-large; 100k reaches ~0.93)");
}
