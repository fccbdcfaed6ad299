//! Similarity-probe micro-costs: the per-operation prices behind the
//! million-request headline, measured per backend.
//!
//! Four groups:
//!
//! * `cache_retrieve` — `ImageCache::retrieve` on a full 128-entry shard
//!   (the fleet's per-node slice), hit and miss mixes, exact flat index
//!   (a 16-bit fixed-point screen, then an f64 re-score of the rows near
//!   the top) vs the anchored inverted index; plus the exact index alone
//!   at 600 and 1,600 entries (`.../exact/600`, `.../exact/1600`: the
//!   elastic tier's shard and the overload study's single-node cache);
//! * `cache_insert` — insert-with-eviction on the 128-entry shard, per
//!   backend;
//! * `cluster_of` — the affinity leader probe at the fleet's 512-leader
//!   bound, exact scan (a 16-bit fixed-point screen seeded with the join
//!   threshold, then an f64 re-score of the candidates) vs the two-level
//!   f32 probe; the exact scan over a full table at the default
//!   4,096-leader bound (`cluster_of/exact/4096`); and at the elastic
//!   tier's ~660 live leaders, a join stream of prompts near live leaders
//!   (`cluster_of/exact/660/join`) and a mint stream of unrelated prompts
//!   on a full 660-leader table, each retiring the oldest leader so the
//!   table stays put (`cluster_of/exact/660/mint`);
//! * `prewarm` — one node joining and draining again at the elastic
//!   tier's shape (6 serving shards × 600 entries, full 4,096-leader
//!   exact clusterer), priced per resident entry: `prewarm/closure`
//!   places every entry with `Router::shard_for` (a full leader scan),
//!   `prewarm/verdict` through the router's kept verdicts
//!   (`ShardedCache::{pull_routed, handoff_routed}`). There each pull
//!   and handoff is one batch: an entry no migration has placed yet
//!   takes a full scan, and every other entry only needs the leaders
//!   minted since its last placement, each screened in fixed point
//!   against sixteen entries per SIMD block, with the rare survivor
//!   scored in f64. Each cycle mints 16 leaders first, as live traffic
//!   does between scale events, and the price includes those mints and
//!   the moved entries' cache inserts.
//!
//! The run first prints the 8-bit pass's kernel this CPU selected
//! (`modm_numerics::lanes::screen_kernel`). After `cache_retrieve_*/exact/1600`
//! and `cluster_of/exact/660/*` it also prints, as counts from
//! `modm_numerics::lanes::screen_tally` over 256 more probes, how many
//! sixteen-row blocks each probe scored in 8 bits and how many of those it
//! re-screened in 16 bits.
//!
//! Pass `--smoke` (CI does) to take one sample per case instead of five:
//! every case still runs and prints its price, which nothing gates on.

use modm_bench::Bench;
use modm_cache::{CacheConfig, ImageCache};
use modm_diffusion::{GeneratedImage, ModelId, QualityModel, Sampler};
use modm_embedding::{Embedding, IndexPolicy, SemanticSpace, TextEncoder};
use modm_fleet::{Router, RoutingConfig, RoutingPolicy, SemanticClusterer, ShardedCache};
use modm_numerics::lanes::{screen_kernel, screen_tally};
use modm_simkit::{SimRng, SimTime};

/// Runs `probe` 256 times and prints, per probe, the blocks the screen
/// scored in 8 bits and the blocks it re-screened in 16 bits.
fn print_rescreens(id: &str, mut probe: impl FnMut(usize)) {
    let before = screen_tally();
    for i in 0..256 {
        probe(i);
    }
    let after = screen_tally();
    let screens = (after.screens - before.screens).max(1) as f64;
    println!(
        "probe_ops/{id}: {:.2} of {:.0} blocks re-screened in 16 bits per probe ({} screens)",
        (after.rescreened - before.rescreened) as f64 / screens,
        (after.blocks - before.blocks) as f64 / screens,
        after.screens - before.screens,
    );
}

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

    let smoke = std::env::args().any(|a| a == "--smoke" || a == "smoke");
    println!("probe_ops: 8-bit screen kernel {}", screen_kernel());
    let mut bench = Bench::new("probe_ops").with_samples(if smoke { 1 } else { 5 });
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
        if entries == 1_600 {
            print_rescreens("cache_retrieve_hit/exact/1600", |i| {
                cache.retrieve(SimTime::from_micros(500_000), &hit_queries[i], 0.25);
            });
            print_rescreens("cache_retrieve_miss/exact/1600", |i| {
                cache.retrieve(SimTime::from_micros(500_000), &miss_queries[i], 0.25);
            });
        }
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

    // The elastic tier's shape: ~660 live leaders. Joiners share four of
    // five tokens with a live leader (cosine ~0.9); minters share none,
    // and there are more of them than slots, so each has retired by the
    // time the stream comes round to it again.
    let leaders = 660;
    let mut elastic = SemanticClusterer::new(SemanticClusterer::DEFAULT_THRESHOLD, leaders);
    let prompt = |i: usize| format!("orchid{i} lantern{} meadow{} tide{}", i * 3, i * 7, i * 11);
    for i in 0..leaders {
        elastic.cluster_of(&text.encode(&prompt(i)));
    }
    assert_eq!(elastic.num_leaders(), leaders, "leader table not full");
    let joiners: Vec<_> = (0..leaders)
        .map(|i| text.encode(&format!("{} dusk", prompt(i))))
        .collect();
    let minters: Vec<_> = (0..4 * leaders)
        .map(|i| text.encode(&format!("quartz{i} ember{} glyph{}", i * 5, i * 13)))
        .collect();
    let mut i = 0usize;
    bench.measure(format!("cluster_of/exact/{leaders}/join"), || {
        i += 1;
        elastic.cluster_of(&joiners[(i * 17) % leaders])
    });
    print_rescreens(&format!("cluster_of/exact/{leaders}/join"), |i| {
        elastic.cluster_of(&joiners[(i * 17) % leaders]);
    });
    let mut i = 0usize;
    bench.measure(format!("cluster_of/exact/{leaders}/mint"), || {
        i += 1;
        elastic.cluster_of(&minters[i % minters.len()])
    });
    print_rescreens(&format!("cluster_of/exact/{leaders}/mint"), |k| {
        elastic.cluster_of(&minters[(i + k) % minters.len()]);
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
        // One untimed cycle leaves every resident entry with a verdict;
        // its time sizes the samples to hold ten or more cycles each.
        let once = std::time::Instant::now();
        cycle(&mut cache, &mut router);
        bench = bench.with_sample_secs((12.0 * once.elapsed().as_secs_f64()).max(0.1));
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
