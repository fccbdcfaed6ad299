//! The fleet's sharded semantic cache: one [`ImageCache`] per node.
//!
//! Sharding the image cache is what makes the fleet horizontally scalable:
//! each node only indexes (and scans) its own slice of the global cache, so
//! per-lookup cost stays flat as nodes are added. The price is that a hit
//! can only happen on the shard a request was routed to — which is why the
//! `CacheAffinity` policy, which co-locates semantically similar requests,
//! recovers most of the monolithic cache's hit rate while `RoundRobin`
//! scatters sessions over shards and loses it.

use modm_cache::{CacheConfig, ImageCache};
use modm_diffusion::{GeneratedImage, ImageId};
use modm_embedding::Embedding;
use modm_simkit::SimTime;
use modm_workload::TenantId;

use crate::router::Router;

/// The one target rule every migration applies: a placement function's
/// answer names shard `assigned % shards`.
fn target(assigned: usize, shards: usize) -> usize {
    assigned % shards
}

/// Aggregated counters over every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSummary {
    /// Total lookups across shards.
    pub lookups: u64,
    /// Total hits across shards.
    pub hits: u64,
    /// Total insertions across shards.
    pub insertions: u64,
    /// Total evictions across shards.
    pub evictions: u64,
    /// Total resident images.
    pub len: usize,
    /// Total capacity.
    pub capacity: usize,
}

/// Summing shard summaries adds every counter: what a multi-region run
/// reports for all of its regions' shards.
impl std::iter::Sum for ShardSummary {
    fn sum<I: Iterator<Item = ShardSummary>>(iter: I) -> Self {
        iter.fold(ShardSummary::default(), |a, b| ShardSummary {
            lookups: a.lookups + b.lookups,
            hits: a.hits + b.hits,
            insertions: a.insertions + b.insertions,
            evictions: a.evictions + b.evictions,
            len: a.len + b.len,
            capacity: a.capacity + b.capacity,
        })
    }
}

impl ShardSummary {
    /// Aggregate hit rate in `[0, 1]` (zero before any lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Outcome of a [`ShardedCache::rebalance`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Images redistributed (all resident images are re-placed).
    pub total: usize,
    /// Images whose owning shard changed.
    pub moved: usize,
}

/// Outcome of a [`ShardedCache::handoff`] from a draining shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HandoffReport {
    /// Hot images exported from the draining shard.
    pub exported: usize,
    /// Images accepted by successor shards (always equals `exported`;
    /// successors may then evict per their own policy to stay within
    /// capacity).
    pub migrated: usize,
    /// Cold images left behind on the draining shard (lost when the shard
    /// is decommissioned).
    pub abandoned: usize,
}

/// The image cache partitioned across fleet nodes.
///
/// # Example
///
/// ```
/// use modm_fleet::ShardedCache;
/// use modm_cache::CacheConfig;
///
/// let cache = ShardedCache::new(4, CacheConfig::fifo(100));
/// assert_eq!(cache.num_shards(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedCache {
    shards: Vec<ImageCache>,
}

impl ShardedCache {
    /// Creates `nodes` shards, each with the per-shard `config`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, config: CacheConfig) -> Self {
        assert!(nodes > 0, "need at least one shard");
        ShardedCache {
            shards: (0..nodes)
                .map(|_| ImageCache::new(config.clone()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Immutable access to shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &ImageCache {
        &self.shards[i]
    }

    /// Mutable access to shard `i` (the owning node retrieves from and
    /// admits into its shard through this).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_mut(&mut self, i: usize) -> &mut ImageCache {
        &mut self.shards[i]
    }

    /// Total resident images.
    pub fn len(&self) -> usize {
        self.shards.iter().map(ImageCache::len).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ImageCache::is_empty)
    }

    /// Aggregated counters over all shards.
    pub fn summary(&self) -> ShardSummary {
        let mut s = ShardSummary::default();
        for shard in &self.shards {
            let st = shard.stats();
            s.lookups += st.lookups();
            s.hits += st.hits();
            s.insertions += st.insertions();
            s.evictions += st.evictions();
            s.len += shard.len();
            s.capacity += shard.capacity();
        }
        s
    }

    /// Total storage across shards (images + embedding indexes).
    pub fn storage_bytes(&self) -> usize {
        self.shards.iter().map(ImageCache::storage_bytes).sum()
    }

    /// Re-places every resident image onto the shard `assign` chooses for
    /// its embedding — the hook a fleet operator runs after changing the
    /// node count or the affinity map. Hit-age bookkeeping restarts at
    /// `now` for moved and unmoved entries alike (the drain/reinsert is
    /// indistinguishable from fresh admission to the per-shard caches).
    pub fn rebalance(
        &mut self,
        now: SimTime,
        mut assign: impl FnMut(&Embedding) -> usize,
    ) -> RebalanceReport {
        let mut drained: Vec<(usize, Vec<(TenantId, GeneratedImage)>)> = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            drained.push((i, shard.drain_images()));
        }
        let mut report = RebalanceReport { total: 0, moved: 0 };
        for (from, images) in drained {
            for (tenant, image) in images {
                let to = target(assign(&image.embedding), self.shards.len());
                report.total += 1;
                if to != from {
                    report.moved += 1;
                }
                self.shards[to].insert_for(now, tenant, image);
            }
        }
        report
    }

    /// Pre-warms shard `to` (a node joining the fleet): every entry
    /// resident on another shard whose embedding `assign`s to `to`
    /// migrates in, so the newcomer can hit on the keyspace slice it just
    /// inherited instead of starting cold. The donors' remaining entries
    /// keep their hit-count/recency bookkeeping; returns how many entries
    /// moved. `assign` is called once per entry off `to`, shard by shard
    /// in ascending image id order, and its answer is reduced modulo the
    /// shard count, as in every migration.
    pub fn pull_owned(
        &mut self,
        now: SimTime,
        to: usize,
        mut assign: impl FnMut(&Embedding) -> usize,
    ) -> usize {
        self.pull_images(now, to, |images| {
            images
                .iter()
                .map(|image| assign(&image.embedding))
                .collect()
        })
    }

    /// [`ShardedCache::pull_owned`] placed by `router`'s affinity map;
    /// moves exactly the entries
    /// `pull_owned(now, to, |e| router.shard_for(e))` moves, and leaves
    /// the leader table as that call does.
    ///
    /// The router keeps each migrated image's last leader verdict, so a
    /// pull costs one full leader scan per entry no migration has placed
    /// yet (only those can mint a leader). Every other entry only needs
    /// the leaders minted since its last placement, and those are scored
    /// in one batch: each new leader is screened in fixed point against
    /// sixteen entries per SIMD block, and only a leader that could beat
    /// an entry's verdict is scored in f64 (see
    /// [`Router::shard_for_image`]). Each distinct cluster's ring owner
    /// is then looked up once, and only the entries moving to `to` leave
    /// their shards.
    ///
    /// The pull visits every entry off `to`, and a joining shard is
    /// empty, so afterwards the router keeps verdicts only for the images
    /// this pull placed that are still resident: at most one per
    /// resident entry. Handoffs add verdicts until the next pull.
    pub fn pull_routed(&mut self, now: SimTime, to: usize, router: &mut Router) -> usize {
        let before = self.shards[to].len();
        let moved = router.sweeping_verdicts(|router| {
            self.pull_images(now, to, |images| router.shards_for_images(images))
        });
        if self.shards[to].len() != before + moved {
            // `to` overflowed and evicted some of what it pulled.
            let shards = &self.shards;
            router.retain_verdicts(|id| shards.iter().any(|shard| shard.contains(id)));
        }
        moved
    }

    /// The pull primitive: `place` answers, for every entry off `to` in
    /// visiting order (shard by shard, ascending image id), the shard it
    /// belongs on; the entries it sends to `to` move there, donor by
    /// donor, in that order.
    fn pull_images(
        &mut self,
        now: SimTime,
        to: usize,
        place: impl FnOnce(&[&GeneratedImage]) -> Vec<usize>,
    ) -> usize {
        let shards = self.shards.len();
        let mut visited: Vec<&GeneratedImage> = Vec::new();
        let mut donors = Vec::new();
        for (from, shard) in self.shards.iter().enumerate() {
            if from != to {
                let images = shard.images_by_id();
                donors.resize(donors.len() + images.len(), from);
                visited.extend(images);
            }
        }
        let owners = place(&visited);
        let mut moving: Vec<Vec<ImageId>> = vec![Vec::new(); shards];
        for ((owner, image), from) in owners.into_iter().zip(visited).zip(donors) {
            if target(owner, shards) == to {
                moving[from].push(image.id);
            }
        }
        let mut moved = 0;
        for (from, ids) in moving.iter().enumerate() {
            for (tenant, image) in self.shards[from].extract(ids) {
                self.shards[to].insert_for(now, tenant, image);
                moved += 1;
            }
        }
        moved
    }

    /// Migrates the hottest `count` images off the draining shard `from`
    /// onto the shards `assign` chooses (normally the affinity map over
    /// the ring *without* `from`, i.e. each image's ring successor). The
    /// remaining cold entries stay behind and die with the shard —
    /// deliberately: migrating the whole shard would evict the survivors'
    /// own hot entries. Successor shards admit through their normal insert
    /// path, so per-shard capacity invariants hold throughout.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range or `assign` points an image back
    /// at the draining shard.
    pub fn handoff(
        &mut self,
        now: SimTime,
        from: usize,
        count: usize,
        mut assign: impl FnMut(&Embedding) -> usize,
    ) -> HandoffReport {
        self.handoff_images(now, from, count, |images| {
            images
                .iter()
                .map(|image| assign(&image.embedding))
                .collect()
        })
    }

    /// [`ShardedCache::handoff`] placed by `router`'s affinity map;
    /// migrates exactly what
    /// `handoff(now, from, count, |e| router.shard_for(e))` migrates.
    /// The exported entries are placed as [`ShardedCache::pull_routed`]
    /// places a pull's: through their verdicts, batched.
    ///
    /// # Panics
    ///
    /// As [`ShardedCache::handoff`].
    pub fn handoff_routed(
        &mut self,
        now: SimTime,
        from: usize,
        count: usize,
        router: &mut Router,
    ) -> HandoffReport {
        self.handoff_images(now, from, count, |images| router.shards_for_images(images))
    }

    /// The handoff primitive behind both entry points: `place` answers
    /// the shard of each exported image, hottest first.
    fn handoff_images(
        &mut self,
        now: SimTime,
        from: usize,
        count: usize,
        place: impl FnOnce(&[&GeneratedImage]) -> Vec<usize>,
    ) -> HandoffReport {
        let hot = self.shards[from].export_hottest(count);
        let mut report = HandoffReport {
            exported: hot.len(),
            migrated: 0,
            abandoned: self.shards[from].len(),
        };
        let owners = place(&hot.iter().map(|(_, image)| image).collect::<Vec<_>>());
        for ((tenant, image), owner) in hot.into_iter().zip(owners) {
            let to = target(owner, self.shards.len());
            assert_ne!(to, from, "handoff target is the draining shard");
            self.shards[to].insert_for(now, tenant, image);
            report.migrated += 1;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_diffusion::{GeneratedImage, ModelId, QualityModel, Sampler};
    use modm_embedding::{SemanticSpace, TextEncoder};
    use modm_simkit::SimRng;

    struct Fixture {
        sampler: Sampler,
        text: TextEncoder,
        rng: SimRng,
    }

    fn fixture() -> Fixture {
        let space = SemanticSpace::default();
        Fixture {
            sampler: Sampler::new(QualityModel::new(space.clone(), 1, 6.29)),
            text: TextEncoder::new(space),
            rng: SimRng::seed_from(7),
        }
    }

    fn image_for(f: &mut Fixture, prompt: &str) -> GeneratedImage {
        let e = f.text.encode(prompt);
        f.sampler.generate(ModelId::Sd35Large, &e, &mut f.rng)
    }

    #[test]
    fn shards_are_independent() {
        let mut f = fixture();
        let mut cache = ShardedCache::new(2, CacheConfig::fifo(10));
        let p = "silver fox crossing tundra dawn watercolor painting soft";
        cache
            .shard_mut(0)
            .insert(SimTime::ZERO, image_for(&mut f, p));
        let q = f.text.encode(p);
        let now = SimTime::from_secs_f64(5.0);
        assert!(cache.shard_mut(0).retrieve(now, &q, 0.25).is_some());
        assert!(
            cache.shard_mut(1).retrieve(now, &q, 0.25).is_none(),
            "a hit can only happen on the owning shard"
        );
        let s = cache.summary();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.len, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rebalance_moves_entries_to_assigned_shards() {
        let mut f = fixture();
        let mut cache = ShardedCache::new(4, CacheConfig::fifo(50));
        // Scatter 20 images round-robin (a RoundRobin fleet's placement).
        for i in 0..20 {
            let p = format!("scene number {i} amber cliffs sunset matte");
            cache
                .shard_mut(i % 4)
                .insert(SimTime::ZERO, image_for(&mut f, &p));
        }
        assert_eq!(cache.len(), 20);
        // Rebalance everything onto shard 3.
        let report = cache.rebalance(SimTime::from_secs_f64(1.0), |_| 3);
        assert_eq!(report.total, 20);
        assert_eq!(report.moved, 15, "the 5 already on shard 3 stay");
        assert_eq!(cache.shard(3).len(), 20);
        assert_eq!(cache.len(), 20);
        // Retrieval works after the move.
        let q = f.text.encode("scene number 7 amber cliffs sunset matte");
        assert!(cache
            .shard_mut(3)
            .retrieve(SimTime::from_secs_f64(2.0), &q, 0.25)
            .is_some());
    }

    #[test]
    fn handoff_migrates_hottest_and_respects_capacity() {
        let mut f = fixture();
        let mut cache = ShardedCache::new(3, CacheConfig::fifo(10));
        // Shard 0 holds 8 entries; 3 of them are hot (retrieved).
        let mut hot_prompts = Vec::new();
        for i in 0..8 {
            let p = format!("harbor scene {i} copper dusk engraving");
            cache
                .shard_mut(0)
                .insert(SimTime::ZERO, image_for(&mut f, &p));
            if i < 3 {
                hot_prompts.push(p);
            }
        }
        for p in &hot_prompts {
            assert!(cache
                .shard_mut(0)
                .retrieve(SimTime::from_secs_f64(1.0), &f.text.encode(p), 0.25)
                .is_some());
        }
        // Fill shard 1 to capacity so the handoff forces evictions there
        // rather than overflow.
        for i in 0..10 {
            let p = format!("resident vista {i} jade cliffs");
            cache
                .shard_mut(1)
                .insert(SimTime::ZERO, image_for(&mut f, &p));
        }
        let report = cache.handoff(SimTime::from_secs_f64(2.0), 0, 3, |_| 1);
        assert_eq!(report.exported, 3);
        assert_eq!(report.migrated, 3);
        assert_eq!(report.abandoned, 5, "cold tail stays behind");
        assert!(cache.shard(1).len() <= 10, "capacity invariant holds");
        assert_eq!(cache.shard(0).len(), 5);
        // The hot entries are retrievable on the successor shard.
        for p in &hot_prompts {
            assert!(
                cache
                    .shard_mut(1)
                    .retrieve(SimTime::from_secs_f64(3.0), &f.text.encode(p), 0.25)
                    .is_some(),
                "hot entry survived the handoff"
            );
        }
    }

    #[test]
    fn every_migration_reduces_targets_modulo_the_shard_count() {
        let mut f = fixture();
        let mut cache = ShardedCache::new(3, CacheConfig::fifo(10));
        for i in 0..4 {
            let p = format!("tidal cave {i} violet haze gouache");
            cache
                .shard_mut(0)
                .insert(SimTime::ZERO, image_for(&mut f, &p));
        }
        let shards = cache.num_shards();
        let moved = cache.pull_owned(SimTime::ZERO, 2, |_| 2 + shards);
        assert_eq!(moved, 4, "`to + num_shards()` names shard `to`");
        assert_eq!(cache.shard(2).len(), 4);
        let report = cache.handoff(SimTime::ZERO, 2, 4, |_| 1 + shards);
        assert_eq!(report.migrated, 4);
        assert_eq!(cache.shard(1).len(), 4);
        let report = cache.rebalance(SimTime::ZERO, |_| 2 * shards);
        assert_eq!((report.total, report.moved), (4, 4));
        assert_eq!(cache.shard(0).len(), 4);
    }

    /// One resident entry: image id, tenant, admission time.
    type Resident = (u64, TenantId, SimTime);

    /// Every shard's eviction count and resident entries in id order.
    fn contents(cache: &ShardedCache) -> Vec<(u64, Vec<Resident>)> {
        (0..cache.num_shards())
            .map(|i| {
                let shard = cache.shard(i);
                let mut ids: Vec<_> = shard
                    .iter()
                    .map(|c| (c.image.id.0, c.tenant, c.cached_at))
                    .collect();
                ids.sort_unstable();
                (shard.stats().evictions(), ids)
            })
            .collect()
    }

    #[test]
    fn routed_migrations_match_closure_migrations() {
        // Twin fleets: one migrates through `shard_for` closures, the
        // other through persisted leader verdicts, batched. Requests are
        // routed by their prompt and the generated image is cached, as
        // the engine does, so an image first placed by a migration may
        // join no leader and mint one mid-migration. 12- and 24-leader
        // tables keep verdict leaders retiring, the 12-leader one often
        // while a batch still needs them; a 4,096-leader one never wraps.
        // 8-entry shards keep evicting (including the pulling shard).
        for max_leaders in [12, 24, 4_096] {
            let mut mid_migration_mints = 0;
            for seed in 0..6 {
                mid_migration_mints += twin_migrations(seed, max_leaders);
            }
            assert!(
                mid_migration_mints > 0,
                "{max_leaders} leaders: no migration minted a leader"
            );
        }
    }

    /// One twin run of [`routed_migrations_match_closure_migrations`];
    /// returns how many leaders its routed migrations minted.
    fn twin_migrations(seed: u64, max_leaders: usize) -> u64 {
        use crate::{RoutingConfig, RoutingPolicy, SemanticClusterer};
        let mut f = fixture();
        let mut rng = SimRng::seed_from(0x7_1115 + seed);
        let nodes = 5;
        let router = RoutingConfig::new(RoutingPolicy::CacheAffinity, nodes)
            .clusterer(SemanticClusterer::new(0.7, max_leaders))
            .build();
        let mut closure = (ShardedCache::new(nodes, CacheConfig::fifo(8)), router);
        let mut routed = closure.clone();
        let mut active: Vec<usize> = (0..nodes).collect();
        let mut bound = 0; // verdicts after the last pull + handed off since
        let mut minted = 0;
        let topics = 40;
        for step in 0..400 {
            let now = SimTime::from_secs_f64(step as f64);
            let ctx = format!("seed {seed}, {max_leaders} leaders, step {step}");
            let before = routed.1.clusterer().next_id();
            match rng.index(8) {
                // Serve a request: route the prompt (may mint), cache the
                // image generated for it.
                0..=3 => {
                    let t = rng.index(topics);
                    let p = format!("topic{t} scene{t} hue{t} mood{t} take{}", rng.index(3));
                    let prompt = f.text.encode(&p);
                    let image = f.sampler.generate(ModelId::Sd35Large, &prompt, &mut f.rng);
                    let a = closure.1.route(&prompt, &[]);
                    let b = routed.1.route(&prompt, &[]);
                    assert_eq!(a, b, "{ctx}: routes diverged");
                    let tenant = TenantId(rng.index(2) as u16);
                    closure
                        .0
                        .shard_mut(a)
                        .insert_for(now, tenant, image.clone());
                    routed.0.shard_mut(b).insert_for(now, tenant, image);
                    assert_twins_agree(&closure, &routed, bound, &ctx);
                    continue;
                }
                // A node joins and pre-warms.
                4 | 5 => {
                    let Some(node) = (0..nodes).find(|n| !active.contains(n)) else {
                        continue;
                    };
                    active.push(node);
                    closure.1.add_node(node);
                    routed.1.add_node(node);
                    let router = &mut closure.1;
                    let a = closure.0.pull_owned(now, node, |e| router.shard_for(e));
                    let b = routed.0.pull_routed(now, node, &mut routed.1);
                    assert_eq!(a, b, "{ctx}: pulls moved different counts");
                    assert!(
                        routed.1.num_verdicts() <= routed.0.len(),
                        "{ctx}: {} verdicts for {} residents",
                        routed.1.num_verdicts(),
                        routed.0.len()
                    );
                    bound = routed.1.num_verdicts();
                }
                // A node drains (hot handoff, then decommission) or
                // crashes (no handoff).
                _ => {
                    if active.len() <= 1 {
                        continue;
                    }
                    let node = active.swap_remove(rng.index(active.len()));
                    closure.1.remove_node(node);
                    routed.1.remove_node(node);
                    if rng.index(3) != 0 {
                        let count = rng.index(closure.0.shard(node).len() + 1);
                        let router = &mut closure.1;
                        let a = closure.0.handoff(now, node, count, |e| router.shard_for(e));
                        let b = routed.0.handoff_routed(now, node, count, &mut routed.1);
                        assert_eq!(a, b, "{ctx}: handoffs diverged");
                        bound += b.exported;
                    }
                    drop(closure.0.shard_mut(node).drain_images());
                    drop(routed.0.shard_mut(node).drain_images());
                }
            }
            minted += routed.1.clusterer().next_id() - before;
            assert_twins_agree(&closure, &routed, bound, &ctx);
        }
        assert!(bound > 0, "seed {seed}: no verdict was ever kept");
        if max_leaders == 4_096 {
            assert!(
                routed.1.clusterer().num_leaders() < max_leaders,
                "the table wrapped"
            );
        }
        minted
    }

    /// The twins' shards, leader tables and the clusters of every
    /// resident image agree, and the routed twin keeps at most `bound`
    /// verdicts.
    fn assert_twins_agree(
        closure: &(ShardedCache, Router),
        routed: &(ShardedCache, Router),
        bound: usize,
        ctx: &str,
    ) {
        assert_eq!(contents(&closure.0), contents(&routed.0), "{ctx}: shards");
        assert!(routed.1.num_verdicts() <= bound, "{ctx}: verdicts grew");
        let (mut a, mut b) = (closure.1.clusterer().clone(), routed.1.clusterer().clone());
        assert_eq!(a.num_leaders(), b.num_leaders(), "{ctx}: leader tables");
        assert_eq!(a.next_id(), b.next_id(), "{ctx}: leader ids");
        for shard in 0..closure.0.num_shards() {
            let mut resident: Vec<_> = closure.0.shard(shard).iter().map(|c| &c.image).collect();
            resident.sort_unstable_by_key(|image| image.id);
            for image in resident {
                assert_eq!(
                    a.cluster_of(&image.embedding),
                    b.cluster_of(&image.embedding),
                    "{ctx}: cluster of {}",
                    image.id
                );
            }
        }
    }

    #[test]
    fn rebalance_respects_capacity() {
        let mut f = fixture();
        let mut cache = ShardedCache::new(2, CacheConfig::fifo(5));
        for i in 0..10 {
            let p = format!("vista {i} cobalt storm rolling plains");
            cache
                .shard_mut(i % 2)
                .insert(SimTime::ZERO, image_for(&mut f, &p));
        }
        cache.rebalance(SimTime::from_secs_f64(1.0), |_| 0);
        assert!(cache.shard(0).len() <= 5, "capacity holds after rebalance");
    }
}
