//! Layer replay: prices the public functions the DES self-profiler does
//! not reach, by timing them on the workload's own generated inputs
//! outside the simulation. Each price is multiplied by the traced run's
//! call count to reconcile the layers against the wall clock.

use std::hint::black_box;
use std::time::Instant;

use modm_cache::{CacheConfig, ImageCache};
use modm_core::node::render_completion;
use modm_core::{route_against_cache, RouteKind, RoutedRequest};
use modm_diffusion::{GeneratedImage, ModelId, QualityModel, Sampler};
use modm_embedding::{SemanticSpace, TextEncoder};
use modm_fleet::{Router, ShardedCache};
use modm_metrics::{LatencyReport, QualityAggregator};
use modm_simkit::{SimDuration, SimRng, SimTime};
use modm_workload::Trace;

use crate::stats::median;

/// Prompts each replay draws from the head of the trace.
const SAMPLE: usize = 4_000;
/// Timed passes per replay; the reported price is their median.
const PASSES: usize = 5;

/// Per-call host prices, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prices {
    /// `TextEncoder::encode` on one prompt.
    pub encode_ns: f64,
    /// `Router::route` of one prompt embedding.
    pub route_ns: f64,
    /// `render_completion` (`Sampler::generate_for` on a miss,
    /// `Sampler::refine_for` on a hit) for one completion.
    pub render_ns: f64,
    /// `LatencyReport::record` plus `QualityAggregator::record` for one
    /// completion.
    pub record_ns: f64,
    /// `ShardedCache::pull_owned` (with `Router::shard_for` as its
    /// placement) pre-warming a joining node, per entry resident on the
    /// other shards (every one is evaluated).
    pub pull_owned_ns_per_entry: f64,
    /// `ShardedCache::handoff` of a draining node's hot entries, per
    /// entry exported.
    pub handoff_ns_per_entry: f64,
}

/// Median over `PASSES` of `pass()`'s wall time divided by `calls`.
fn price(calls: usize, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Prices every replayed layer on `trace`'s prompts, on `nodes` shards
/// of `shard_capacity` entries behind routers built by `router(n)` for
/// `n` nodes.
pub fn measure(
    trace: &Trace,
    shard_capacity: usize,
    nodes: usize,
    router: impl Fn(usize) -> Router,
) -> Prices {
    let space = SemanticSpace::default();
    let encoder = TextEncoder::new(space.clone());
    let sampler = Sampler::new(QualityModel::new(
        space,
        0xD1FF,
        trace.dataset().fid_floor(),
    ));
    let prompts: Vec<&str> = trace
        .iter()
        .take(SAMPLE)
        .map(|r| r.prompt.as_str())
        .collect();

    let encode_ns = price(prompts.len(), || {
        for p in &prompts {
            black_box(encoder.encode(black_box(p)));
        }
    });

    // Route each prompt against a local cache so the sample carries the
    // workload's own hit/miss mix, then replay the completions.
    let mut cache = ImageCache::new(CacheConfig::fifo(shard_capacity));
    let mut rng = SimRng::seed_from(0x5245_504C); // "REPL"
    let mut jobs: Vec<(RoutedRequest, ModelId)> = Vec::with_capacity(prompts.len());
    let mut images: Vec<GeneratedImage> = Vec::with_capacity(prompts.len());
    for (i, req) in trace.iter().take(SAMPLE).enumerate() {
        let now = SimTime::ZERO + SimDuration::from_secs_f64(i as f64);
        let embedding = encoder.encode(&req.prompt);
        let route = route_against_cache(&mut cache, now, &embedding, 0.0);
        let model = match route {
            RouteKind::Hit { .. } => ModelId::Sdxl,
            RouteKind::Miss => ModelId::Sd35Large,
        };
        let routed = RoutedRequest {
            request_id: req.id,
            arrival: SimTime::ZERO,
            tenant: req.tenant,
            qos: req.qos,
            prompt_embedding: embedding,
            route,
        };
        let image = render_completion(&sampler, &routed, model, &mut rng);
        cache.insert_for(now, req.tenant, image.clone());
        images.push(image);
        jobs.push((routed, model));
    }
    let render_ns = price(jobs.len(), || {
        for (routed, model) in &jobs {
            black_box(render_completion(&sampler, routed, *model, &mut rng));
        }
    });
    let record_ns = price(jobs.len(), || {
        let mut latency = LatencyReport::new();
        let mut quality = QualityAggregator::new();
        for (i, ((routed, _), image)) in jobs.iter().zip(&images).enumerate() {
            latency.record(SimTime::ZERO, SimTime::from_secs_f64(i as f64));
            quality.record(&routed.prompt_embedding, image);
        }
        black_box((latency.count(), quality.count()));
    });

    let mut routing = router(nodes);
    let route_ns = price(jobs.len(), || {
        for (routed, _) in &jobs {
            black_box(routing.route(&routed.prompt_embedding, &[]));
        }
    });

    let (pull_owned_ns_per_entry, handoff_ns_per_entry) =
        migrations(&jobs, &images, shard_capacity, router(nodes + 1));
    Prices {
        encode_ns,
        route_ns,
        render_ns,
        record_ns,
        pull_owned_ns_per_entry,
        handoff_ns_per_entry,
    }
}

/// Prices one node joining (`pull_owned`, per entry evaluated) and one
/// node draining (`handoff` of its hottest 60%, per entry exported) on a
/// cache filled with the sample's images, placed by the affinity map as
/// the fleet does. `router` spans the serving nodes plus the joiner.
fn migrations(
    jobs: &[(RoutedRequest, ModelId)],
    images: &[GeneratedImage],
    shard_capacity: usize,
    mut router: Router,
) -> (f64, f64) {
    let joining = router.nodes() - 1;
    router.remove_node(joining);
    let mut cache = ShardedCache::new(joining + 1, CacheConfig::fifo(shard_capacity));
    for ((routed, _), image) in jobs.iter().zip(images) {
        let shard = router.shard_for(&routed.prompt_embedding);
        cache
            .shard_mut(shard)
            .insert_for(SimTime::ZERO, routed.tenant, image.clone());
    }
    let mut pulls = Vec::with_capacity(PASSES);
    let mut handoffs = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        router.add_node(joining);
        let evaluated = cache.len().max(1) as f64;
        let t = Instant::now();
        black_box(cache.pull_owned(SimTime::ZERO, joining, |e| router.shard_for(e)));
        pulls.push(t.elapsed().as_nanos() as f64 / evaluated);
        router.remove_node(joining);
        let count = (cache.shard(joining).len() as f64 * 0.6).ceil() as usize;
        let t = Instant::now();
        black_box(cache.handoff(SimTime::ZERO, joining, count, |e| router.shard_for(e)));
        handoffs.push(t.elapsed().as_nanos() as f64 / count.max(1) as f64);
        drop(cache.shard_mut(joining).drain_images());
    }
    (median(&pulls), median(&handoffs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_workload::TraceBuilder;

    #[test]
    fn prices_are_positive() {
        let trace = TraceBuilder::diffusion_db(5).requests(300).build();
        let p = measure(&trace, 100, 3, |n| {
            modm_fleet::Router::new(modm_fleet::RoutingPolicy::CacheAffinity, n)
        });
        for (name, v) in [
            ("encode", p.encode_ns),
            ("route", p.route_ns),
            ("render", p.render_ns),
            ("record", p.record_ns),
            ("pull_owned", p.pull_owned_ns_per_entry),
            ("handoff", p.handoff_ns_per_entry),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
    }
}
