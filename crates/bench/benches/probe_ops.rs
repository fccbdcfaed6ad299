//! Similarity-probe micro-costs: the per-operation prices behind the
//! million-request headline, measured per backend.
//!
//! Three groups:
//!
//! * `cache_retrieve` — `ImageCache::retrieve` on a full 128-entry shard
//!   (the fleet's per-node slice), hit and miss mixes, exact flat scan
//!   vs the anchored inverted index; plus the exact scan alone at 600
//!   and 1,600 entries (`.../exact/600`, `.../exact/1600`: the elastic
//!   tier's shard and the overload study's single-node cache);
//! * `cache_insert` — insert-with-eviction on the 128-entry shard, per
//!   backend;
//! * `cluster_of` — the affinity leader probe at the fleet's 512-leader
//!   bound, exact lane-blocked f64 scan vs the two-level f32 probe; plus
//!   the exact scan over a full table at the default 4,096-leader bound
//!   (`cluster_of/exact/4096`).

use modm_bench::Bench;
use modm_cache::{CacheConfig, ImageCache};
use modm_diffusion::{ModelId, QualityModel, Sampler};
use modm_embedding::{IndexPolicy, SemanticSpace, TextEncoder};
use modm_fleet::SemanticClusterer;
use modm_simkit::{SimRng, SimTime};

fn main() {
    let space = SemanticSpace::default();
    let text = TextEncoder::new(space.clone());
    let sampler = Sampler::new(QualityModel::new(space, 1, 6.29));
    let mut rng = SimRng::seed_from(7);
    let images: Vec<_> = (0..1_600)
        .map(|i| {
            let e = text.encode(&format!("session {} scene {i} canyon", i % 24));
            sampler.generate(ModelId::Sd35Large, &e, &mut rng)
        })
        .collect();
    let hit_queries: Vec<_> = (0..1_600)
        .map(|i| text.encode(&format!("session {} scene {i} canyon", i % 24)))
        .collect();
    let miss_queries: Vec<_> = (0..256)
        .map(|i| text.encode(&format!("unrelated basalt {i} moonlit harbor")))
        .collect();

    let mut bench = Bench::new("probe_ops");
    for (name, policy) in [
        ("exact", IndexPolicy::Exact),
        ("approx", IndexPolicy::Approx),
    ] {
        let mut cache = ImageCache::new(CacheConfig::fifo(128).with_index_policy(policy));
        for (i, img) in images.iter().take(128).enumerate() {
            cache.insert(SimTime::from_micros(i as u64), img.clone());
        }
        let mut i = 0usize;
        bench.measure(format!("cache_retrieve_hit/{name}"), || {
            i += 1;
            cache.retrieve(
                SimTime::from_micros(1_000 + i as u64),
                &hit_queries[i % 128],
                0.25,
            )
        });
        let mut j = 0usize;
        bench.measure(format!("cache_retrieve_miss/{name}"), || {
            j += 1;
            cache.retrieve(
                SimTime::from_micros(9_000 + j as u64),
                &miss_queries[j % 256],
                0.25,
            )
        });
        let mut k = 0usize;
        bench.measure(format!("cache_insert_evict/{name}"), || {
            k += 1;
            cache.insert(
                SimTime::from_micros(20_000 + k as u64),
                images[k % 256].clone(),
            );
        });
    }

    for entries in [600, 1_600] {
        let mut cache = ImageCache::new(CacheConfig::fifo(entries));
        for (i, img) in images.iter().take(entries).enumerate() {
            cache.insert(SimTime::from_micros(i as u64), img.clone());
        }
        let mut i = 0usize;
        bench.measure(format!("cache_retrieve_hit/exact/{entries}"), || {
            i += 1;
            cache.retrieve(
                SimTime::from_micros(10_000 + i as u64),
                &hit_queries[i % entries],
                0.25,
            )
        });
        let mut j = 0usize;
        bench.measure(format!("cache_retrieve_miss/exact/{entries}"), || {
            j += 1;
            cache.retrieve(
                SimTime::from_micros(90_000 + j as u64),
                &miss_queries[j % 256],
                0.25,
            )
        });
    }

    for (name, policy) in [
        ("exact", IndexPolicy::Exact),
        ("approx", IndexPolicy::Approx),
    ] {
        let mut clusterer =
            SemanticClusterer::with_index_policy(SemanticClusterer::DEFAULT_THRESHOLD, 512, policy);
        let warm: Vec<_> = (0..512)
            .map(|i| text.encode(&format!("leader {} topic {i} skyline", i % 96)))
            .collect();
        for e in &warm {
            clusterer.cluster_of(e);
        }
        let mut i = 0usize;
        bench.measure(format!("cluster_of/{name}"), || {
            i += 1;
            clusterer.cluster_of(&warm[(i * 17) % 512])
        });
    }

    // Unrelated prompts each mint a leader; warm past the bound so the
    // ring is full, then probe only live leaders so the table stays put.
    let leaders = SemanticClusterer::DEFAULT_MAX_LEADERS;
    let mut clusterer = SemanticClusterer::default_config();
    let warm: Vec<_> = (0..leaders + leaders / 4)
        .map(|i| {
            text.encode(&format!(
                "alpha{i} beta{} gamma{} delta{}",
                i * 3,
                i * 7,
                i * 11
            ))
        })
        .collect();
    for e in &warm {
        clusterer.cluster_of(e);
    }
    assert_eq!(clusterer.num_leaders(), leaders, "leader table not full");
    let live = &warm[warm.len() - leaders..];
    let mut i = 0usize;
    bench.measure(format!("cluster_of/exact/{leaders}"), || {
        i += 1;
        clusterer.cluster_of(&live[(i * 17) % leaders])
    });
}
