//! Fig 6: cache hit rate over a long DiffusionDB replay, cache 10k vs 100k.
//!
//! The paper replays all 2M DiffusionDB requests; we replay 300k (the hit
//! rate stabilizes within the first tens of thousands, which is the point
//! the paper makes: a subset generalizes).

use modm_cache::{CacheConfig, ImageCache};
use modm_core::kselect::HIT_THRESHOLD;
use modm_core::{k_decision, KDecision};
use modm_diffusion::{ModelId, QualityModel, Sampler};
use modm_embedding::{IndexPolicy, SemanticSpace, TextEncoder};
use modm_simkit::{SimRng, SimTime};
use modm_workload::TraceBuilder;

use crate::common::banner;

/// Number of requests replayed (paper: 2,000,000).
pub const REPLAY: usize = 120_000;

/// Runs the Fig 6 reproduction.
pub fn run() {
    run_scaled(REPLAY);
}

/// Runs with an explicit replay length (tests use smaller scales).
pub fn run_scaled(replay: usize) {
    banner("Fig 6: hit rate over the DiffusionDB replay");
    println!("(replaying {replay} requests; paper replays 2M)");
    let trace = TraceBuilder::diffusion_db(61)
        .requests(replay)
        .rate_per_min(10.0)
        .build();
    // The 100k cache runs the approximate index: its hit/miss verdicts are
    // exact to f32 precision, and the flat scan would dominate the replay.
    for (capacity, index) in [
        (10_000usize, IndexPolicy::Exact),
        (100_000, IndexPolicy::Approx),
    ] {
        let space = SemanticSpace::default();
        let text = TextEncoder::new(space.clone());
        let sampler = Sampler::new(QualityModel::new(space, 6, 6.29));
        let mut rng = SimRng::seed_from(62);
        let mut cache = ImageCache::new(CacheConfig::fifo(capacity).with_index_policy(index));
        let mut window_hits = 0u64;
        let mut window_total = 0u64;
        let mut series = Vec::new();
        let window = replay / 10;
        for (i, req) in trace.iter().enumerate() {
            let emb = text.encode(&req.prompt);
            let now = SimTime::from_secs_f64(i as f64 * 6.0); // ~10 req/min
            let hit = cache.retrieve(now, &emb, HIT_THRESHOLD);
            let image = match &hit {
                Some(h) => {
                    let k = match k_decision(h.similarity) {
                        KDecision::Hit { k } => k,
                        KDecision::Miss => 5,
                    };
                    window_hits += 1;
                    sampler.refine_for(ModelId::Sdxl, &h.image, &emb, req.id, k, &mut rng)
                }
                None => sampler.generate_for(ModelId::Sd35Large, &emb, req.id, &mut rng),
            };
            cache.insert(now, image);
            window_total += 1;
            if window_total == window as u64 {
                series.push(window_hits as f64 / window_total as f64);
                window_hits = 0;
                window_total = 0;
            }
        }
        let overall = cache.stats().hit_rate();
        println!("\ncache size {capacity}: overall hit rate = {overall:.3}");
        print!("  per-decile hit rate:");
        for s in &series {
            print!(" {s:.2}");
        }
        println!();
    }
    println!("\n(paper: hit rate is stable across the replay and ~0.93 at 100k)");
}
