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
//!   (`cluster_of/exact/4096`);
//! * `prewarm` — one node joining and draining again at the elastic
//!   tier's shape (6 serving shards × 600 entries, full 4,096-leader
//!   exact clusterer), priced per resident entry: `prewarm/closure`
//!   places every entry with `Router::shard_for` (a full leader scan),
//!   `prewarm/verdict` with `Router::shard_for_image` (only leaders
//!   minted since the entry's last placement). Each cycle also mints a
//!   few leaders, as live traffic does between scale events.

use modm_bench::Bench;
use modm_cache::{CacheConfig, ImageCache};
use modm_diffusion::{GeneratedImage, ModelId, QualityModel, Sampler};
use modm_embedding::{Embedding, IndexPolicy, SemanticSpace, TextEncoder};
use modm_fleet::{Router, RoutingConfig, RoutingPolicy, SemanticClusterer, ShardedCache};
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

    let prewarm_images: Vec<GeneratedImage> = (0..3_600)
        .map(|i| {
            let e = text.encode(&format!("visit {} vista {} quartz dunes", i % 7, i % 900));
            sampler.generate(ModelId::Sd35Large, &e, &mut rng)
        })
        .collect();
    let fresh: Vec<Embedding> = (0..4_096)
        .map(|i| text.encode(&format!("novel{i} glyph{} ember{}", i * 5, i * 13)))
        .collect();
    for verdicts in [false, true] {
        let (mut cache, mut router) = prewarm_fleet(&clusterer, &prewarm_images);
        let joiner = cache.num_shards() - 1;
        let mut minted = 0usize;
        let mut cycle = |cache: &mut ShardedCache, router: &mut Router| {
            for k in minted..minted + 16 {
                router.route(&fresh[k % fresh.len()], &[]);
            }
            minted += 16;
            router.add_node(joiner);
            let pulled = if verdicts {
                cache.pull_routed(SimTime::ZERO, joiner, router)
            } else {
                cache.pull_owned(SimTime::ZERO, joiner, |e| router.shard_for(e))
            };
            router.remove_node(joiner);
            let all = cache.shard(joiner).len();
            if verdicts {
                cache.handoff_routed(SimTime::ZERO, joiner, all, router);
            } else {
                cache.handoff(SimTime::ZERO, joiner, all, |e| router.shard_for(e));
            }
            pulled
        };
        // One untimed cycle leaves every resident entry with a verdict.
        cycle(&mut cache, &mut router);
        let entries = cache.len() as u64;
        let name = if verdicts { "verdict" } else { "closure" };
        bench.measure_per(format!("prewarm/{name}"), entries, || {
            cycle(&mut cache, &mut router)
        });
    }
}

/// Six 600-entry shards filled with `images` by an affinity router over
/// the warmed 4,096-leader `clusterer`, plus an empty seventh shard for
/// the node that joins.
fn prewarm_fleet(
    clusterer: &SemanticClusterer,
    images: &[GeneratedImage],
) -> (ShardedCache, Router) {
    let serving = 6;
    let mut router = RoutingConfig::new(RoutingPolicy::CacheAffinity, serving + 1)
        .clusterer(clusterer.clone())
        .build();
    router.remove_node(serving);
    let mut cache = ShardedCache::new(serving + 1, CacheConfig::fifo(600));
    for image in images {
        let shard = router.shard_for(&image.embedding);
        cache.shard_mut(shard).insert(SimTime::ZERO, image.clone());
    }
    (cache, router)
}
