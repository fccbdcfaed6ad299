//! MoDM's final-image cache: capacity-bounded, similarity-retrievable,
//! maintained by FIFO (the paper's choice), LRU, utility or S3-FIFO
//! policies — with optional per-tenant reserves for multi-tenant serving.
//!
//! # Tenant reserves
//!
//! Under a shared cache, one tenant's flood can evict everyone else's
//! working set. A [`CacheConfig`] may therefore reserve a slice of the
//! capacity per tenant: eviction never lets one tenant push *another*
//! tenant below its reserve (a tenant may always displace its own
//! entries). With no reserves configured — the default — victim selection
//! is exactly the untenanted policy behavior.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use modm_diffusion::{GeneratedImage, ImageId};
use modm_embedding::{Embedding, EmbeddingIndex, IndexPolicy, InvertedIndex, Neighbor};
use modm_simkit::{profile, SimTime};
use modm_workload::TenantId;

use crate::slot_list::IndexedList;
use crate::stats::CacheStats;

/// Index backend shared by the cache variants, selected by the
/// [`IndexPolicy`] on [`CacheConfig`]: the exact flat index or the f32
/// anchored inverted index. The flat index screens its entries in 16-bit
/// fixed point and re-scores the few within the screen's error bound of
/// the best in f64, so its answers are bit-identical to a full f64 scan.
#[derive(Debug, Clone)]
pub(crate) enum CacheIndex {
    Flat(EmbeddingIndex<u64>),
    Inverted(InvertedIndex<u64>),
}

impl CacheIndex {
    pub(crate) fn for_policy(policy: IndexPolicy, capacity: usize, dim: usize) -> Self {
        match policy {
            IndexPolicy::Exact => CacheIndex::Flat(EmbeddingIndex::new()),
            IndexPolicy::Approx => CacheIndex::Inverted(InvertedIndex::for_capacity(dim, capacity)),
        }
    }

    /// Short backend name for reporting and tests.
    pub(crate) fn backend(&self) -> &'static str {
        match self {
            CacheIndex::Flat(_) => "flat",
            CacheIndex::Inverted(_) => "inverted",
        }
    }

    /// Inserts `e` under `key`. The inverted backend partitions by
    /// `anchor` — the generating prompt's text embedding — because future
    /// queries that can hit this entry are exactly the prompts similar to
    /// it; the image embedding itself is noise-dominated and would
    /// partition randomly.
    pub(crate) fn insert(&mut self, key: u64, e: Embedding, anchor: &Embedding) {
        match self {
            CacheIndex::Flat(i) => i.insert(key, e),
            CacheIndex::Inverted(i) => i.insert_anchored(key, anchor, e),
        }
    }

    pub(crate) fn remove(&mut self, key: &u64) -> bool {
        match self {
            CacheIndex::Flat(i) => i.remove(key),
            CacheIndex::Inverted(i) => i.remove(key),
        }
    }

    /// Nearest neighbor, given the retrieval floor (cosine scale). The
    /// inverted backend uses the floor to keep hit/miss verdicts exact: a
    /// probed miss falls back to a full scan before being declared.
    pub(crate) fn nearest_with_floor(&self, q: &Embedding, floor: f64) -> Option<Neighbor<u64>> {
        match self {
            CacheIndex::Flat(i) => i.nearest(q),
            CacheIndex::Inverted(i) => i.nearest_with_floor(q, floor),
        }
    }

    pub(crate) fn top_k(&self, q: &Embedding, k: usize) -> Vec<Neighbor<u64>> {
        match self {
            CacheIndex::Flat(i) => i.top_k(q, k),
            CacheIndex::Inverted(i) => i.top_k(q, k),
        }
    }

    pub(crate) fn storage_bytes(&self) -> usize {
        match self {
            CacheIndex::Flat(i) => i.storage_bytes(),
            CacheIndex::Inverted(i) => i.storage_bytes(),
        }
    }
}

/// Cache maintenance policy (paper §5.4).
///
/// The paper adopts FIFO: with DiffusionDB's temporal locality, a sliding
/// window of recent images captures >90% of hits and avoids the
/// over-representation bias of utility caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MaintenancePolicy {
    /// Evict the oldest inserted entry (sliding window). The paper default.
    #[default]
    Fifo,
    /// Evict the least recently *retrieved* entry.
    Lru,
    /// Evict the entry with the fewest hits (utility-based, Nirvana-style).
    Utility,
    /// S3-FIFO (Yang et al., SOSP'23): a small probationary FIFO absorbs
    /// one-hit wonders, entries retrieved while probationary are promoted
    /// into a main FIFO with lazy second-chance eviction, and a ghost queue
    /// of recently evicted keys readmits comebacks straight into main.
    S3Fifo,
}

/// Cache configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of images retained.
    pub capacity: usize,
    /// Eviction policy.
    pub policy: MaintenancePolicy,
    /// Per-tenant reserved capacity: eviction never lets one tenant push
    /// another below its reserve. Empty (the default) disables tenant
    /// protection entirely.
    pub tenant_reserves: Vec<(TenantId, usize)>,
    /// Similarity-index backend selection. Defaults to
    /// [`IndexPolicy::Exact`] at any capacity, as `MoDMConfig` does.
    pub index_policy: IndexPolicy,
}

impl CacheConfig {
    /// FIFO cache with the given capacity (the paper's configuration).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn fifo(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CacheConfig {
            capacity,
            policy: MaintenancePolicy::Fifo,
            tenant_reserves: Vec::new(),
            index_policy: IndexPolicy::Exact,
        }
    }

    /// Same, with an explicit policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_policy(capacity: usize, policy: MaintenancePolicy) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CacheConfig {
            capacity,
            policy,
            tenant_reserves: Vec::new(),
            index_policy: IndexPolicy::Exact,
        }
    }

    /// Selects the similarity-index backend (builder style).
    #[must_use]
    pub fn with_index_policy(mut self, index_policy: IndexPolicy) -> Self {
        self.index_policy = index_policy;
        self
    }

    /// Adds per-tenant reserved capacity (builder style).
    ///
    /// # Panics
    ///
    /// Panics if a tenant appears twice or the reserves together exceed
    /// the capacity (reserves must be satisfiable simultaneously).
    #[must_use]
    pub fn with_reserves(mut self, reserves: Vec<(TenantId, usize)>) -> Self {
        let mut ids: Vec<TenantId> = reserves.iter().map(|(t, _)| *t).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reserves.len(), "duplicate tenant reserve");
        let total: usize = reserves.iter().map(|(_, r)| r).sum();
        assert!(
            total <= self.capacity,
            "tenant reserves ({total}) exceed cache capacity ({})",
            self.capacity
        );
        self.tenant_reserves = reserves;
        self
    }

    /// The reserve configured for `tenant` (zero if none).
    pub fn reserve_of(&self, tenant: TenantId) -> usize {
        self.tenant_reserves
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(0, |(_, r)| *r)
    }
}

/// Why a runtime reserve revision was refused (see
/// [`ImageCache::try_set_reserves`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReserveError {
    /// The same tenant appeared twice in the revision.
    DuplicateTenant(TenantId),
    /// The reserves together exceed the cache capacity.
    Overcommitted {
        /// Sum of the requested reserves.
        reserved: usize,
        /// The cache's capacity.
        capacity: usize,
    },
}

impl fmt::Display for ReserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReserveError::DuplicateTenant(t) => {
                write!(f, "duplicate reserve for tenant {t}")
            }
            ReserveError::Overcommitted { reserved, capacity } => write!(
                f,
                "tenant reserves ({reserved}) exceed cache capacity ({capacity})"
            ),
        }
    }
}

impl std::error::Error for ReserveError {}

/// A cache-resident image with its bookkeeping.
#[derive(Debug, Clone)]
pub struct CachedImage {
    /// The stored image.
    pub image: GeneratedImage,
    /// The tenant whose request produced it (quota accounting).
    pub tenant: TenantId,
    /// When it entered the cache.
    pub cached_at: SimTime,
    /// Last retrieval time (LRU bookkeeping). The serving loops retrieve
    /// only for requests admission let through, so a refused request
    /// never refreshes it.
    pub last_used: SimTime,
    /// Number of times it has been retrieved (utility bookkeeping): by
    /// the serving loops, the admitted requests that hit it.
    pub hit_count: u64,
}

/// A successful retrieval.
#[derive(Debug, Clone)]
pub struct RetrievedImage {
    /// A copy of the cached image.
    pub image: GeneratedImage,
    /// Text-to-image similarity between the query and the image, on the
    /// paper's reporting scale.
    pub similarity: f64,
    /// When the image was originally cached.
    pub cached_at: SimTime,
}

/// Book-keeping for the S3-FIFO maintenance policy: the probationary
/// (small) and protected (main) FIFO queues, the ghost queue of recently
/// evicted keys, and the per-entry access frequency (capped at 3, as in the
/// reference implementations).
///
/// All three queues are [`IndexedList`]s, so membership tests and
/// arbitrary-key removal (ghost comebacks, resident-id replacement) are
/// O(1) instead of positional deque scans. Bookkeeping is bounded by
/// construction: `freq` only ever keys resident entries (eviction removes
/// the record before the key enters the ghost queue, and ghost rotation
/// defensively prunes it again), and the ghost queue trims itself to the
/// cache capacity.
#[derive(Debug, Clone, Default)]
struct S3State {
    small: IndexedList,
    main: IndexedList,
    ghost: IndexedList,
    freq: HashMap<u64, u8>,
}

/// Maximum tracked access frequency under S3-FIFO.
const S3_FREQ_CAP: u8 = 3;

impl S3State {
    /// Target size of the probationary queue: 10% of capacity (at least 1).
    fn small_target(capacity: usize) -> usize {
        (capacity / 10).max(1)
    }

    fn bump(&mut self, key: u64) {
        let f = self.freq.entry(key).or_insert(0);
        *f = (*f + 1).min(S3_FREQ_CAP);
    }

    fn remember_ghost(&mut self, key: u64, capacity: usize) {
        if !self.ghost.contains(key) {
            self.ghost.push_back(key);
        }
        while self.ghost.len() > capacity {
            if let Some(old) = self.ghost.pop_front() {
                // A key rotating out of ghost memory must leave no trace:
                // its frequency record was already dropped at eviction, but
                // prune defensively so bookkeeping stays bounded even if a
                // future policy tweak reorders those steps.
                self.freq.remove(&old);
            }
        }
    }

    fn forget(&mut self, key: u64) {
        self.freq.remove(&key);
        self.small.remove(key);
        self.main.remove(key);
    }

    /// Selects one victim to evict, performing small->main promotions and
    /// main-queue second chances along the way. Terminates because every
    /// pass either shrinks `small` or decrements a frequency.
    fn pick_victim(&mut self, capacity: usize) -> Option<u64> {
        loop {
            let from_small =
                self.small.len() >= Self::small_target(capacity) || self.main.is_empty();
            if from_small {
                if let Some(key) = self.small.pop_front() {
                    if self.freq.get(&key).copied().unwrap_or(0) >= 1 {
                        // Retrieved while probationary: promote.
                        self.freq.insert(key, 0);
                        self.main.push_back(key);
                        continue;
                    }
                    return Some(key);
                }
            }
            let key = self.main.pop_front()?;
            let f = self.freq.get(&key).copied().unwrap_or(0);
            if f > 0 {
                self.freq.insert(key, f - 1);
                self.main.push_back(key);
                continue;
            }
            return Some(key);
        }
    }
}

/// The final-image cache.
///
/// Maintenance bookkeeping is policy-indexed so every hot-path operation
/// (touch, promote, evict, arbitrary remove) is O(1) — or O(log n) for the
/// ordered victim indexes — rather than a scan:
///
/// * **Fifo** keeps insertion order in an [`IndexedList`].
/// * **Lru** keeps a [`BTreeSet`] ordered by `(last_used, id)` — exactly
///   the tuple the old linear `min_by_key` scan minimized, so the first
///   element (or first unprotected element, under reserves) is provably
///   the same victim, ties included.
/// * **Utility** does the same with `(hit_count, cached_at, id)`.
/// * **S3Fifo** runs its three queues as [`IndexedList`]s.
///
/// Only the active policy's structure is maintained; the others stay
/// empty.
#[derive(Debug, Clone)]
pub struct ImageCache {
    config: CacheConfig,
    entries: HashMap<u64, CachedImage>,
    index: CacheIndex,
    fifo: IndexedList,
    lru_index: BTreeSet<(SimTime, u64)>,
    util_index: BTreeSet<(u64, SimTime, u64)>,
    s3: S3State,
    tenant_counts: HashMap<TenantId, usize>,
    stats: CacheStats,
}

impl ImageCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let index = CacheIndex::for_policy(
            config.index_policy,
            config.capacity,
            modm_embedding::space::DEFAULT_DIM,
        );
        ImageCache {
            config,
            entries: HashMap::new(),
            index,
            fifo: IndexedList::new(),
            lru_index: BTreeSet::new(),
            util_index: BTreeSet::new(),
            s3: S3State::default(),
            tenant_counts: HashMap::new(),
            stats: CacheStats::new(),
        }
    }

    /// The active index backend: `"flat"` or `"inverted"`.
    pub fn index_backend(&self) -> &'static str {
        self.index.backend()
    }

    /// Current number of cached images.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Replaces the per-tenant reserves mid-run — the cache half of a
    /// tenant join/leave. Validation mirrors [`CacheConfig::with_reserves`]
    /// but returns a typed error instead of panicking, so a control plane
    /// can refuse a bad revision and keep serving. Cached entries are
    /// untouched: reserves only constrain *future* evictions, so a tenant
    /// already above its new reserve simply stops being protected down to
    /// the old one.
    pub fn try_set_reserves(
        &mut self,
        reserves: Vec<(TenantId, usize)>,
    ) -> Result<(), ReserveError> {
        let mut ids: Vec<TenantId> = reserves.iter().map(|(t, _)| *t).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(ReserveError::DuplicateTenant(dup[0]));
        }
        let total: usize = reserves.iter().map(|(_, r)| r).sum();
        if total > self.config.capacity {
            return Err(ReserveError::Overcommitted {
                reserved: total,
                capacity: self.config.capacity,
            });
        }
        self.config.tenant_reserves = reserves;
        Ok(())
    }

    /// Observability counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Total bytes of cached images (1.4 MB each) plus their embeddings.
    pub fn storage_bytes(&self) -> usize {
        let images: usize = self.entries.values().map(|e| e.image.storage_bytes()).sum();
        images + self.index.storage_bytes()
    }

    /// Number of resident entries belonging to `tenant`.
    pub fn tenant_len(&self, tenant: TenantId) -> usize {
        self.tenant_counts.get(&tenant).copied().unwrap_or(0)
    }

    /// True when evicting an entry of `tenant` on behalf of `inserter`
    /// would violate the tenant's reserve: another tenant may never push
    /// it at-or-below its reserved residency (a tenant can always displace
    /// its own entries).
    fn protected_from(&self, tenant: TenantId, inserter: TenantId) -> bool {
        tenant != inserter && self.tenant_len(tenant) <= self.config.reserve_of(tenant)
    }

    /// Selects the eviction victim on behalf of `inserter`, honoring
    /// tenant reserves. With no reserves configured this is exactly the
    /// policy's untenanted victim. Returns `None` when every entry is
    /// protected from `inserter` (pre-checked in
    /// [`ImageCache::insert_for`], which then refuses the insert).
    fn evict_victim(&mut self, inserter: TenantId) -> Option<u64> {
        let unrestricted = self.config.tenant_reserves.is_empty();
        match self.config.policy {
            MaintenancePolicy::Fifo => {
                if unrestricted {
                    return self.fifo.pop_front();
                }
                // First unprotected key in insertion order — the same
                // victim the old positional deque scan selected.
                let key = self.fifo.iter().find(|key| {
                    let t = self.entries.get(key).expect("fifo in sync").tenant;
                    !self.protected_from(t, inserter)
                })?;
                self.fifo.remove(key);
                Some(key)
            }
            // The ordered indexes iterate ascending by exactly the tuple
            // the old `min_by_key` scans minimized, so the first
            // (unprotected) element is the identical victim, ties included.
            MaintenancePolicy::Lru => self
                .lru_index
                .iter()
                .find(|(_, key)| {
                    let t = self.entries.get(key).expect("lru index in sync").tenant;
                    unrestricted || !self.protected_from(t, inserter)
                })
                .map(|(_, key)| *key),
            MaintenancePolicy::Utility => self
                .util_index
                .iter()
                .find(|(_, _, key)| {
                    let t = self.entries.get(key).expect("util index in sync").tenant;
                    unrestricted || !self.protected_from(t, inserter)
                })
                .map(|(_, _, key)| *key),
            MaintenancePolicy::S3Fifo => {
                if unrestricted {
                    return self.s3.pick_victim(self.config.capacity);
                }
                // Reserve-protected victims get a second chance at the back
                // of the main queue. That rotation alone cannot be relied
                // on to terminate: `pick_victim` only draws from `small`
                // while it is at its target size, so an unprotected entry
                // stranded in a short `small` behind an all-protected
                // `main` would cycle forever. Bound the rotations and fall
                // back to a queue-order scan.
                let budget = self.s3.main.len() + self.s3.small.len() + 1;
                let mut rotations = 0;
                while rotations <= budget {
                    let victim = self.s3.pick_victim(self.config.capacity)?;
                    let t = self.entries.get(&victim).expect("s3 in sync").tenant;
                    if !self.protected_from(t, inserter) {
                        return Some(victim);
                    }
                    self.s3.main.push_back(victim);
                    rotations += 1;
                }
                // Every rotating candidate is protected; evict the first
                // unprotected entry in queue order (probationary first).
                let mut found = None;
                for probationary in [true, false] {
                    let q = if probationary {
                        &self.s3.small
                    } else {
                        &self.s3.main
                    };
                    found = q.iter().find(|key| {
                        let t = self.entries.get(key).expect("s3 in sync").tenant;
                        !self.protected_from(t, inserter)
                    });
                    if found.is_some() {
                        break;
                    }
                }
                let key = found?;
                if !self.s3.small.remove(key) {
                    self.s3.main.remove(key);
                }
                Some(key)
            }
        }
    }

    /// Inserts an image at time `now` on behalf of the default tenant.
    pub fn insert(&mut self, now: SimTime, image: GeneratedImage) {
        self.insert_for(now, TenantId::DEFAULT, image);
    }

    /// Inserts `tenant`'s image at time `now`, evicting per policy when
    /// full — but never pushing *another* tenant below its configured
    /// reserve. In the fully-reserved corner case (every resident entry
    /// protected from `tenant`), the insert is refused rather than
    /// overflowing the capacity. Re-inserting an id that is already
    /// resident replaces the old entry.
    pub fn insert_for(&mut self, now: SimTime, tenant: TenantId, image: GeneratedImage) {
        profile::timed(profile::Subsystem::ImageCache, || {
            self.insert_for_inner(now, tenant, image)
        })
    }

    fn insert_for_inner(&mut self, now: SimTime, tenant: TenantId, image: GeneratedImage) {
        let key = image.id.0;
        if let Some(old) = self.entries.remove(&key) {
            self.index.remove(&key);
            self.remove_from_queues(key, &old);
            self.dec_tenant(old.tenant);
        }
        if !self.config.tenant_reserves.is_empty()
            && self.entries.len() >= self.config.capacity
            && self
                .entries
                .values()
                .all(|e| self.protected_from(e.tenant, tenant))
        {
            // Every resident entry is protected from this tenant: the
            // reserves are fully drawn down by other tenants and evicting
            // any of them would violate a guarantee. Refuse the insert.
            return;
        }
        // Ghost membership is decided when the insert arrives, before this
        // insert's own evictions can rotate the ghost queue.
        let ghost_comeback =
            self.config.policy == MaintenancePolicy::S3Fifo && self.s3.ghost.contains(key);
        while self.entries.len() >= self.config.capacity {
            let Some(victim) = self.evict_victim(tenant) else {
                break;
            };
            // FIFO and S3-FIFO already popped the victim from their own
            // queues inside `evict_victim`.
            if self.config.policy == MaintenancePolicy::S3Fifo {
                self.s3.freq.remove(&victim);
                self.s3.remember_ghost(victim, self.config.capacity);
            }
            if let Some(gone) = self.entries.remove(&victim) {
                match self.config.policy {
                    MaintenancePolicy::Lru => {
                        self.lru_index.remove(&(gone.last_used, victim));
                    }
                    MaintenancePolicy::Utility => {
                        self.util_index
                            .remove(&(gone.hit_count, gone.cached_at, victim));
                    }
                    _ => {}
                }
                self.dec_tenant(gone.tenant);
            }
            self.index.remove(&victim);
            self.stats.record_eviction();
        }
        self.index
            .insert(key, image.embedding.clone(), &image.text_anchor);
        match self.config.policy {
            MaintenancePolicy::S3Fifo => {
                self.s3.freq.insert(key, 0);
                if ghost_comeback {
                    // A key evicted recently came back: skip probation, and
                    // drop the ghost record so a future eviction grants a
                    // fresh full-length comeback window.
                    self.s3.ghost.remove(key);
                    self.s3.main.push_back(key);
                } else {
                    self.s3.small.push_back(key);
                }
            }
            MaintenancePolicy::Fifo => self.fifo.push_back(key),
            MaintenancePolicy::Lru => {
                self.lru_index.insert((now, key));
            }
            MaintenancePolicy::Utility => {
                self.util_index.insert((0, now, key));
            }
        }
        self.entries.insert(
            key,
            CachedImage {
                image,
                tenant,
                cached_at: now,
                last_used: now,
                hit_count: 0,
            },
        );
        *self.tenant_counts.entry(tenant).or_insert(0) += 1;
        self.stats.record_insertion();
    }

    fn dec_tenant(&mut self, tenant: TenantId) {
        if let Some(count) = self.tenant_counts.get_mut(&tenant) {
            *count -= 1;
            if *count == 0 {
                self.tenant_counts.remove(&tenant);
            }
        }
    }

    /// Drops every maintenance-structure reference to `key` (needed when a
    /// resident id is replaced, exported, or extracted — paths eviction
    /// does not handle). `entry` is the just-removed bookkeeping, which
    /// the ordered indexes need to locate their record.
    fn remove_from_queues(&mut self, key: u64, entry: &CachedImage) {
        match self.config.policy {
            MaintenancePolicy::S3Fifo => self.s3.forget(key),
            MaintenancePolicy::Fifo => {
                self.fifo.remove(key);
            }
            MaintenancePolicy::Lru => {
                self.lru_index.remove(&(entry.last_used, key));
            }
            MaintenancePolicy::Utility => {
                self.util_index
                    .remove(&(entry.hit_count, entry.cached_at, key));
            }
        }
    }

    /// Looks up the most similar cached image for a query text embedding,
    /// returning it only if the text-to-image similarity (paper scale)
    /// reaches `threshold`. Records hit/miss statistics either way, and a
    /// hit refreshes the entry's recency and hit count. The serving loops
    /// call it once per *admitted* request (after admission control), so
    /// these counters count admitted requests' retrievals and equal the
    /// scheduler's hit/miss decisions.
    pub fn retrieve(
        &mut self,
        now: SimTime,
        query: &Embedding,
        threshold: f64,
    ) -> Option<RetrievedImage> {
        profile::timed(profile::Subsystem::ImageCache, || {
            self.retrieve_inner(now, query, threshold)
        })
    }

    fn retrieve_inner(
        &mut self,
        now: SimTime,
        query: &Embedding,
        threshold: f64,
    ) -> Option<RetrievedImage> {
        let best = self
            .index
            .nearest_with_floor(query, threshold / modm_embedding::CLIP_COS_SCALE);
        let hit = best.and_then(|n| {
            let sim = modm_embedding::CLIP_COS_SCALE * n.similarity;
            (sim >= threshold).then_some((n.key, sim))
        });
        match hit {
            Some((key, sim)) => {
                let entry = self.entries.get_mut(&key).expect("index/entries in sync");
                // Re-key the ordered victim indexes before mutating the
                // bookkeeping they are keyed on.
                match self.config.policy {
                    MaintenancePolicy::Lru => {
                        self.lru_index.remove(&(entry.last_used, key));
                        self.lru_index.insert((now, key));
                    }
                    MaintenancePolicy::Utility => {
                        self.util_index
                            .remove(&(entry.hit_count, entry.cached_at, key));
                        self.util_index
                            .insert((entry.hit_count + 1, entry.cached_at, key));
                    }
                    _ => {}
                }
                entry.last_used = now;
                entry.hit_count += 1;
                if self.config.policy == MaintenancePolicy::S3Fifo {
                    self.s3.bump(key);
                }
                let age = now.saturating_since(entry.cached_at);
                self.stats.record_lookup(Some((age, sim)));
                Some(RetrievedImage {
                    image: entry.image.clone(),
                    similarity: sim,
                    cached_at: entry.cached_at,
                })
            }
            None => {
                self.stats.record_lookup(None);
                None
            }
        }
    }

    /// Like [`ImageCache::retrieve`] but without mutating statistics or
    /// recency bookkeeping; used by analysis experiments.
    pub fn peek(&self, query: &Embedding, threshold: f64) -> Option<RetrievedImage> {
        let n = self
            .index
            .nearest_with_floor(query, threshold / modm_embedding::CLIP_COS_SCALE)?;
        let sim = modm_embedding::CLIP_COS_SCALE * n.similarity;
        if sim < threshold {
            return None;
        }
        let entry = self.entries.get(&n.key).expect("index/entries in sync");
        Some(RetrievedImage {
            image: entry.image.clone(),
            similarity: sim,
            cached_at: entry.cached_at,
        })
    }

    /// True when the image with id `id` is resident.
    pub fn contains(&self, id: ImageId) -> bool {
        self.entries.contains_key(&id.0)
    }

    /// Iterates over the cached entries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &CachedImage> {
        self.entries.values()
    }

    /// Removes and returns the `n` *hottest* resident images (with their
    /// owning tenants, so migration preserves quota attribution): most
    /// retrievals first, ties broken by most recent use, then by ascending
    /// id (fully deterministic). The removals are not counted as evictions
    /// — the entries live on elsewhere. This is the export half of the
    /// drain handoff: a shard leaving the fleet sends its hottest entries
    /// to the shards inheriting its keyspace, so scale-down does not torch
    /// the hit rate.
    pub fn export_hottest(&mut self, n: usize) -> Vec<(TenantId, GeneratedImage)> {
        let mut ranked: Vec<(u64, SimTime, u64)> = self
            .entries
            .values()
            .map(|e| (e.hit_count, e.last_used, e.image.id.0))
            .collect();
        ranked.sort_unstable_by(|a, b| {
            b.0.cmp(&a.0) // hottest first
                .then_with(|| b.1.cmp(&a.1)) // most recently used first
                .then_with(|| a.2.cmp(&b.2)) // stable: lowest id first
        });
        ranked
            .into_iter()
            .take(n)
            .map(|(_, _, key)| {
                let entry = self.entries.remove(&key).expect("ranked from entries");
                self.index.remove(&key);
                self.remove_from_queues(key, &entry);
                self.dec_tenant(entry.tenant);
                (entry.tenant, entry.image)
            })
            .collect()
    }

    /// Removes and returns every resident image (with its owning tenant)
    /// that satisfies `pred`, in ascending id order
    /// (deterministic despite the hash-map backing). `pred` is also
    /// *called* in ascending id order, so a stateful predicate (the fleet
    /// router's, which can mint clusterer leaders) sees the same sequence
    /// every run. Hit-count and recency bookkeeping of the *remaining*
    /// entries is untouched, and the removals are not counted as
    /// evictions. This is the selective-migration primitive: a shard
    /// joining the fleet pulls exactly the entries whose keyspace it now
    /// owns.
    pub fn extract_matching(
        &mut self,
        mut pred: impl FnMut(&GeneratedImage) -> bool,
    ) -> Vec<(TenantId, GeneratedImage)> {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys.retain(|key| pred(&self.entries[key].image));
        keys.into_iter()
            .map(|key| {
                let entry = self.entries.remove(&key).expect("key from entries");
                self.index.remove(&key);
                self.remove_from_queues(key, &entry);
                self.dec_tenant(entry.tenant);
                (entry.tenant, entry.image)
            })
            .collect()
    }

    /// Empties the cache, returning every resident image (with its owning
    /// tenant) in ascending id order (so downstream re-placement is
    /// deterministic). Maintenance state (queues, ghost memory,
    /// frequencies) is reset; lookup/insertion/eviction counters are
    /// preserved but the drain itself is not counted as evictions. This is
    /// the primitive behind shard rebalancing in `modm-fleet`.
    pub fn drain_images(&mut self) -> Vec<(TenantId, GeneratedImage)> {
        let mut images: Vec<(TenantId, GeneratedImage)> = self
            .entries
            .drain()
            .map(|(_, e)| (e.tenant, e.image))
            .collect();
        images.sort_unstable_by_key(|(_, img)| img.id.0);
        self.index = CacheIndex::for_policy(
            self.config.index_policy,
            self.config.capacity,
            modm_embedding::space::DEFAULT_DIM,
        );
        self.fifo.clear();
        self.lru_index.clear();
        self.util_index.clear();
        self.s3 = S3State::default();
        self.tenant_counts.clear();
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_diffusion::{ModelId, QualityModel, Sampler};
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
            rng: SimRng::seed_from(5),
        }
    }

    fn image_for(f: &mut Fixture, prompt: &str) -> GeneratedImage {
        let e = f.text.encode(prompt);
        f.sampler.generate(ModelId::Sd35Large, &e, &mut f.rng)
    }

    #[test]
    fn same_prompt_hits_unrelated_misses() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::fifo(10));
        let p = "ancient castle soaring mountains dawn watercolor painting misty golden";
        cache.insert(SimTime::ZERO, image_for(&mut f, p));
        let q_same = f.text.encode(p);
        let q_far = f
            .text
            .encode("neon robot dueling metropolis midnight pixel art");
        let now = SimTime::from_secs_f64(10.0);
        assert!(cache.retrieve(now, &q_same, 0.25).is_some());
        assert!(cache.retrieve(now, &q_far, 0.25).is_none());
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn try_set_reserves_validates_and_swaps() {
        let mut f = fixture();
        let mut cache = ImageCache::new(
            CacheConfig::fifo(10).with_reserves(vec![(TenantId(1), 4), (TenantId(2), 4)]),
        );
        cache.insert_for(
            SimTime::ZERO,
            TenantId(1),
            image_for(&mut f, "amber fjord dawn"),
        );

        let dup = cache.try_set_reserves(vec![(TenantId(1), 2), (TenantId(1), 3)]);
        assert_eq!(dup, Err(ReserveError::DuplicateTenant(TenantId(1))));
        let over = cache.try_set_reserves(vec![(TenantId(1), 8), (TenantId(3), 4)]);
        assert_eq!(
            over,
            Err(ReserveError::Overcommitted {
                reserved: 12,
                capacity: 10
            })
        );
        // A refused revision leaves the old reserves (and entries) intact.
        assert_eq!(cache.config().reserve_of(TenantId(2)), 4);
        assert_eq!(cache.len(), 1);

        cache
            .try_set_reserves(vec![(TenantId(1), 3), (TenantId(3), 5)])
            .unwrap();
        assert_eq!(cache.config().reserve_of(TenantId(1)), 3);
        assert_eq!(cache.config().reserve_of(TenantId(2)), 0);
        assert_eq!(cache.config().reserve_of(TenantId(3)), 5);
    }

    #[test]
    fn spurious_hits_do_not_happen_at_scale() {
        // The geometry guarantee: thousands of unrelated cached images never
        // reach the 0.25 threshold for a fresh query.
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::fifo(3_000));
        for i in 0..2_000 {
            let p = format!(
                "{} {} exploring {} dusk pixel art layered",
                modm_workload_stub::MODS[i % modm_workload_stub::MODS.len()],
                modm_workload_stub::SUBJ[(i / 7) % modm_workload_stub::SUBJ.len()],
                modm_workload_stub::PLACES[(i / 3) % modm_workload_stub::PLACES.len()],
            );
            cache.insert(SimTime::ZERO, image_for(&mut f, &p));
        }
        let q = f
            .text
            .encode("crystal leviathan awakening reef noon baroque fresco velvet");
        let hit = cache.retrieve(SimTime::ZERO, &q, 0.25);
        assert!(hit.is_none(), "unrelated query must miss");
    }

    // A tiny local vocabulary so the test doesn't depend on modm-workload
    // (which would create a dependency cycle).
    mod modm_workload_stub {
        pub const MODS: [&str; 4] = ["gilded", "rusted", "frozen", "verdant"];
        pub const SUBJ: [&str; 5] = ["harbor", "citadel", "falcon", "oracle", "gondola"];
        pub const PLACES: [&str; 3] = ["steppe", "fjord", "dunes"];
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::fifo(2));
        let p1 = "emerald wolf wandering tundra dusk charcoal sketch";
        let p2 = "obsidian temple collapsing desert noon oil painting";
        let p3 = "radiant mermaid drifting lagoon dawn pastel drawing";
        cache.insert(SimTime::from_secs_f64(0.0), image_for(&mut f, p1));
        cache.insert(SimTime::from_secs_f64(1.0), image_for(&mut f, p2));
        cache.insert(SimTime::from_secs_f64(2.0), image_for(&mut f, p3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions(), 1);
        // p1 was evicted; p2 and p3 remain.
        let now = SimTime::from_secs_f64(3.0);
        assert!(cache.retrieve(now, &f.text.encode(p1), 0.25).is_none());
        assert!(cache.retrieve(now, &f.text.encode(p2), 0.25).is_some());
        assert!(cache.retrieve(now, &f.text.encode(p3), 0.25).is_some());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut f = fixture();
        for policy in [
            MaintenancePolicy::Fifo,
            MaintenancePolicy::Lru,
            MaintenancePolicy::Utility,
        ] {
            let mut cache = ImageCache::new(CacheConfig::with_policy(5, policy));
            for i in 0..20 {
                let p = format!("prompt variant {i} crystal garden blooming");
                cache.insert(SimTime::from_secs_f64(i as f64), image_for(&mut f, &p));
                assert!(cache.len() <= 5, "{policy:?} overflowed");
            }
        }
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::with_policy(2, MaintenancePolicy::Lru));
        let p1 = "spectral archer ascending cliffside twilight noir film";
        let p2 = "ornate violinist resonating cathedral midnight baroque fresco";
        cache.insert(SimTime::from_secs_f64(0.0), image_for(&mut f, p1));
        cache.insert(SimTime::from_secs_f64(1.0), image_for(&mut f, p2));
        // Touch p1 so p2 becomes the LRU victim.
        assert!(cache
            .retrieve(SimTime::from_secs_f64(2.0), &f.text.encode(p1), 0.25)
            .is_some());
        let p3 = "ivory phoenix erupting volcano sunrise anime keyframe";
        cache.insert(SimTime::from_secs_f64(3.0), image_for(&mut f, p3));
        let now = SimTime::from_secs_f64(4.0);
        assert!(cache.retrieve(now, &f.text.encode(p1), 0.25).is_some());
        assert!(cache.retrieve(now, &f.text.encode(p2), 0.25).is_none());
    }

    #[test]
    fn utility_keeps_popular() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::with_policy(2, MaintenancePolicy::Utility));
        let p1 = "weathered shepherd meditating highlands dawn impressionist canvas";
        let p2 = "luminous jellyfish orbiting moon eclipse vaporwave aesthetic";
        cache.insert(SimTime::from_secs_f64(0.0), image_for(&mut f, p1));
        cache.insert(SimTime::from_secs_f64(1.0), image_for(&mut f, p2));
        // p1 accumulates hits; p2 has none and should be the victim.
        for i in 0..3 {
            let t = SimTime::from_secs_f64(2.0 + i as f64);
            assert!(cache.retrieve(t, &f.text.encode(p1), 0.25).is_some());
        }
        let p3 = "mechanical falcon soaring canyon dusk lowpoly model";
        cache.insert(SimTime::from_secs_f64(9.0), image_for(&mut f, p3));
        let now = SimTime::from_secs_f64(10.0);
        assert!(cache.retrieve(now, &f.text.encode(p1), 0.25).is_some());
        assert!(cache.retrieve(now, &f.text.encode(p2), 0.25).is_none());
    }

    #[test]
    fn s3fifo_protects_retrieved_entries() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::with_policy(3, MaintenancePolicy::S3Fifo));
        let hot = "ancient lighthouse guarding archipelago dusk oil painting";
        let cold = "forgotten automaton rusting junkyard noon charcoal sketch";
        cache.insert(SimTime::from_secs_f64(0.0), image_for(&mut f, hot));
        cache.insert(SimTime::from_secs_f64(1.0), image_for(&mut f, cold));
        // Retrieve `hot` while probationary so it gets promoted to main.
        assert!(cache
            .retrieve(SimTime::from_secs_f64(2.0), &f.text.encode(hot), 0.25)
            .is_some());
        // Flood with one-hit wonders; `hot` must survive, `cold` must not.
        for i in 0..6 {
            let p = format!("fleeting meteor streak {i} night photo grainy");
            cache.insert(
                SimTime::from_secs_f64(3.0 + i as f64),
                image_for(&mut f, &p),
            );
            assert!(cache.len() <= 3);
        }
        let now = SimTime::from_secs_f64(60.0);
        assert!(cache.retrieve(now, &f.text.encode(hot), 0.25).is_some());
        assert!(cache.retrieve(now, &f.text.encode(cold), 0.25).is_none());
    }

    #[test]
    fn s3fifo_ghost_readmits_to_main() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::with_policy(2, MaintenancePolicy::S3Fifo));
        let p1 = "sapphire glacier calving fjord dawn long exposure";
        let img1 = image_for(&mut f, p1);
        let clone1 = img1.clone();
        let key1 = img1.id.0;
        cache.insert(SimTime::from_secs_f64(0.0), img1);
        // Push p1 out: it lands in the ghost queue.
        for i in 0..3 {
            let p = format!("transient spark {i} cavern midnight macro");
            cache.insert(
                SimTime::from_secs_f64(1.0 + i as f64),
                image_for(&mut f, &p),
            );
        }
        assert!(cache
            .retrieve(SimTime::from_secs_f64(9.0), &f.text.encode(p1), 0.25)
            .is_none());
        // Re-inserting the same id is a ghost comeback: it skips probation,
        // so a later flood of cold entries cannot displace it.
        cache.insert(SimTime::from_secs_f64(10.0), clone1);
        assert!(cache.s3.main.contains(key1), "ghost comeback goes to main");
        assert!(
            !cache.s3.ghost.contains(key1),
            "readmission clears the ghost record"
        );
        for i in 0..4 {
            let p = format!("dust mote drifting attic {i} afternoon");
            cache.insert(
                SimTime::from_secs_f64(11.0 + i as f64),
                image_for(&mut f, &p),
            );
        }
        assert!(cache
            .retrieve(SimTime::from_secs_f64(30.0), &f.text.encode(p1), 0.25)
            .is_some());
    }

    #[test]
    fn s3fifo_capacity_and_eviction_accounting() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::with_policy(8, MaintenancePolicy::S3Fifo));
        for i in 0..40 {
            let p = format!("procedural vista number {i} dawn matte painting");
            cache.insert(SimTime::from_secs_f64(i as f64), image_for(&mut f, &p));
            assert!(cache.len() <= 8, "S3-FIFO overflowed at insert {i}");
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().evictions(), 32);
        // Ghost memory stays bounded by capacity, with consistent links.
        assert!(cache.s3.ghost.len() <= 8);
        assert_eq!(cache.s3.ghost.check_links().len(), cache.s3.ghost.len());
        // Frequency bookkeeping only keys resident entries.
        assert!(cache.s3.freq.len() <= cache.len());
    }

    #[test]
    fn export_hottest_ranks_by_hits_then_recency() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::fifo(10));
        let hot = "ancient lighthouse guarding archipelago dusk oil painting";
        let warm = "gilded carousel spinning boardwalk twilight photograph";
        let cold = "forgotten automaton rusting junkyard noon charcoal sketch";
        let hot_img = image_for(&mut f, hot);
        let hot_id = hot_img.id.0;
        let warm_img = image_for(&mut f, warm);
        let warm_id = warm_img.id.0;
        cache.insert(SimTime::ZERO, hot_img);
        cache.insert(SimTime::ZERO, warm_img);
        cache.insert(SimTime::ZERO, image_for(&mut f, cold));
        for i in 0..3 {
            let t = SimTime::from_secs_f64(1.0 + i as f64);
            assert!(cache.retrieve(t, &f.text.encode(hot), 0.25).is_some());
        }
        assert!(cache
            .retrieve(SimTime::from_secs_f64(9.0), &f.text.encode(warm), 0.25)
            .is_some());
        let exported = cache.export_hottest(2);
        assert_eq!(exported[0].1.id.0, hot_id, "3-hit entry first");
        assert_eq!(exported[1].1.id.0, warm_id, "1-hit entry second");
        assert_eq!(cache.len(), 1, "cold entry stays");
        assert_eq!(cache.stats().evictions(), 0, "export is not eviction");
        // Exported entries are gone from the index too.
        assert!(cache
            .retrieve(SimTime::from_secs_f64(10.0), &f.text.encode(hot), 0.25)
            .is_none());
    }

    #[test]
    fn export_hottest_caps_at_len_and_keeps_cache_consistent() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::with_policy(6, MaintenancePolicy::S3Fifo));
        for i in 0..6 {
            let p = format!("orchard {i} lantern mist morning");
            cache.insert(SimTime::from_secs_f64(i as f64), image_for(&mut f, &p));
        }
        let exported = cache.export_hottest(100);
        assert_eq!(exported.len(), 6);
        assert!(cache.is_empty());
        // The cache still works after a full export.
        let p = "fresh meadow after export";
        cache.insert(SimTime::from_secs_f64(10.0), image_for(&mut f, p));
        assert!(cache
            .retrieve(SimTime::from_secs_f64(11.0), &f.text.encode(p), 0.25)
            .is_some());
    }

    #[test]
    fn hit_age_recorded() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::fifo(4));
        let p = "delicate orchid blooming garden spring botanical lithograph";
        cache.insert(SimTime::from_secs_f64(100.0), image_for(&mut f, p));
        cache.retrieve(SimTime::from_secs_f64(400.0), &f.text.encode(p), 0.2);
        assert_eq!(cache.stats().hit_ages_secs(), &[300.0]);
    }

    #[test]
    fn storage_accounting() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::fifo(10));
        cache.insert(
            SimTime::ZERO,
            image_for(&mut f, "amber reef glowing lagoon dusk"),
        );
        // One image (1.4 MB) plus one 64-d f32 embedding.
        assert!(cache.storage_bytes() >= 1_400_000);
        assert!(cache.storage_bytes() < 1_500_000);
    }

    #[test]
    fn tenant_reserve_survives_another_tenants_flood() {
        let mut f = fixture();
        let protected = TenantId(1);
        let flooder = TenantId(2);
        for policy in [
            MaintenancePolicy::Fifo,
            MaintenancePolicy::Lru,
            MaintenancePolicy::Utility,
            MaintenancePolicy::S3Fifo,
        ] {
            let mut cache = ImageCache::new(
                CacheConfig::with_policy(6, policy).with_reserves(vec![(protected, 2)]),
            );
            // The protected tenant caches two images first (its reserve).
            let kept = [
                "sapphire heron wading estuary dawn etching",
                "amber citadel glowing mesa dusk fresco",
            ];
            for (i, p) in kept.iter().enumerate() {
                cache.insert_for(
                    SimTime::from_secs_f64(i as f64),
                    protected,
                    image_for(&mut f, p),
                );
            }
            // Another tenant floods far past capacity.
            for i in 0..30 {
                let p = format!("flood item {i} gravel rain");
                cache.insert_for(
                    SimTime::from_secs_f64(10.0 + i as f64),
                    flooder,
                    image_for(&mut f, &p),
                );
                assert!(cache.len() <= 6, "{policy:?} overflowed");
            }
            assert_eq!(
                cache.tenant_len(protected),
                2,
                "{policy:?}: flood ate into the reserve"
            );
            assert_eq!(cache.tenant_len(flooder), 4);
            // The protected images are still retrievable.
            let now = SimTime::from_secs_f64(100.0);
            for p in kept {
                assert!(
                    cache.retrieve(now, &f.text.encode(p), 0.25).is_some(),
                    "{policy:?}: reserved entry evicted"
                );
            }
        }
    }

    #[test]
    fn tenant_evicts_its_own_entries_past_its_reserve() {
        let mut f = fixture();
        let t = TenantId(1);
        let mut cache = ImageCache::new(CacheConfig::fifo(3).with_reserves(vec![(t, 2)]));
        for i in 0..10 {
            let p = format!("own flood {i} slate pier");
            cache.insert_for(SimTime::from_secs_f64(i as f64), t, image_for(&mut f, &p));
            assert!(cache.len() <= 3);
        }
        assert_eq!(
            cache.tenant_len(t),
            3,
            "a reserve never blocks self-eviction"
        );
        assert!(cache.stats().evictions() > 0);
    }

    #[test]
    fn fully_reserved_cache_refuses_unreserved_insert() {
        let mut f = fixture();
        let a = TenantId(1);
        let b = TenantId(2);
        let outsider = TenantId(3);
        let mut cache = ImageCache::new(CacheConfig::fifo(2).with_reserves(vec![(a, 1), (b, 1)]));
        cache.insert_for(SimTime::ZERO, a, image_for(&mut f, "alpha reef glow"));
        cache.insert_for(SimTime::ZERO, b, image_for(&mut f, "beta dune storm"));
        cache.insert_for(
            SimTime::from_secs_f64(1.0),
            outsider,
            image_for(&mut f, "gamma moss vale"),
        );
        assert_eq!(cache.len(), 2, "capacity invariant holds");
        assert_eq!(cache.tenant_len(a), 1);
        assert_eq!(cache.tenant_len(b), 1);
        assert_eq!(cache.tenant_len(outsider), 0, "insert was refused");
        assert_eq!(cache.stats().evictions(), 0);
    }

    #[test]
    fn no_reserves_matches_untenanted_eviction_order() {
        // Tenancy neutrality at the cache level: tagging inserts with
        // tenants but configuring no reserves evicts exactly the same
        // victims as the untenanted cache.
        let mut f1 = fixture();
        let mut f2 = fixture();
        let mut plain = ImageCache::new(CacheConfig::fifo(3));
        let mut tagged = ImageCache::new(CacheConfig::fifo(3));
        for i in 0..12 {
            let p = format!("neutrality probe {i} lichen arch");
            let now = SimTime::from_secs_f64(i as f64);
            plain.insert(now, image_for(&mut f1, &p));
            tagged.insert_for(now, TenantId((i % 3) as u16 + 1), image_for(&mut f2, &p));
        }
        let mut left: Vec<u64> = plain.iter().map(|e| e.image.id.0).collect();
        let mut right: Vec<u64> = tagged.iter().map(|e| e.image.id.0).collect();
        left.sort_unstable();
        right.sort_unstable();
        assert_eq!(left, right);
        assert_eq!(plain.stats().evictions(), tagged.stats().evictions());
    }

    #[test]
    fn s3fifo_reserve_eviction_terminates_with_protected_main_queue() {
        // Regression: an unprotected entry stranded in a short `small`
        // queue behind an all-protected `main` queue must still be found
        // (the rotation loop alone never draws from `small` below its
        // target size and would spin forever).
        let mut f = fixture();
        let a = TenantId(1);
        let b = TenantId(2);
        let mut cache = ImageCache::new(
            CacheConfig::with_policy(20, MaintenancePolicy::S3Fifo).with_reserves(vec![(a, 19)]),
        );
        // Tenant A fills 19 slots and retrieves each (freq >= 1), so all
        // of them promote to `main` on the first eviction pass.
        for i in 0..19 {
            let p = format!("protected {i} basalt tide");
            cache.insert_for(SimTime::from_secs_f64(i as f64), a, image_for(&mut f, &p));
            let _ = cache.retrieve(SimTime::from_secs_f64(50.0), &f.text.encode(&p), 0.0);
        }
        // Tenant B's single entry sits in `small`; its next insert must
        // evict, and the only unprotected entry is B's own.
        cache.insert_for(
            SimTime::from_secs_f64(100.0),
            b,
            image_for(&mut f, "victim pebble drift"),
        );
        cache.insert_for(
            SimTime::from_secs_f64(101.0),
            b,
            image_for(&mut f, "incoming comet dust"),
        );
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.tenant_len(a), 19, "the reserve held");
        assert_eq!(cache.tenant_len(b), 1, "B displaced its own entry");
        assert_eq!(cache.stats().evictions(), 1);
    }

    #[test]
    #[should_panic(expected = "exceed cache capacity")]
    fn overcommitted_reserves_rejected() {
        let _ = CacheConfig::fifo(10).with_reserves(vec![(TenantId(1), 6), (TenantId(2), 5)]);
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut f = fixture();
        let mut cache = ImageCache::new(CacheConfig::fifo(4));
        let p = "colossal golem forging citadel solstice cinematic photograph";
        cache.insert(SimTime::ZERO, image_for(&mut f, p));
        let q = f.text.encode(p);
        assert!(cache.peek(&q, 0.2).is_some());
        assert_eq!(cache.stats().lookups(), 0);
    }

    /// Seeds for the bounded-bookkeeping sweep. Defaults to `[1]`; CI's
    /// seed-matrix job widens it via `MODM_TEST_SEEDS="1 7 42"`.
    fn sweep_seeds() -> Vec<u64> {
        match std::env::var("MODM_TEST_SEEDS") {
            Ok(s) => s
                .split_whitespace()
                .map(|tok| tok.parse().expect("MODM_TEST_SEEDS: u64 seeds"))
                .collect(),
            Err(_) => vec![1],
        }
    }

    #[test]
    fn s3fifo_bookkeeping_stays_bounded_under_seeded_op_sweep() {
        // Property: no matter how long the run and how the ops mix,
        // S3-FIFO's side tables stay bounded — `freq` keys only resident
        // entries, the ghost queue never outgrows capacity, and all three
        // intrusive queues keep consistent links. This is the regression
        // net for the ghost/freq prune leak.
        for seed in sweep_seeds() {
            let mut f = fixture();
            f.rng = SimRng::seed_from(seed);
            let mut ops = SimRng::seed_from(seed ^ 0x53_F1F0);
            let capacity = 12;
            let mut cache = ImageCache::new(CacheConfig::with_policy(
                capacity,
                MaintenancePolicy::S3Fifo,
            ));
            let mut clock = 0.0;
            for step in 0..2_500 {
                clock += 1.0;
                let now = SimTime::from_secs_f64(clock);
                match ops.index(10) {
                    // Mostly inserts from a pool small enough that ghost
                    // comebacks and re-inserts of resident ids both occur.
                    0..=5 => {
                        let p = format!("vista {} over plain {seed} dusk", ops.index(60));
                        cache.insert(now, image_for(&mut f, &p));
                    }
                    6 | 7 => {
                        let p = format!("vista {} over plain {seed} dusk", ops.index(60));
                        let q = f.text.encode(&p);
                        let _ = cache.retrieve(now, &q, 0.25);
                    }
                    8 => {
                        let _ = cache.export_hottest(3);
                    }
                    _ => {
                        if ops.chance(0.05) {
                            let _ = cache.drain_images();
                        }
                    }
                }
                assert!(
                    cache.len() <= capacity,
                    "seed {seed}, step {step}: over capacity"
                );
                assert!(
                    cache.s3.ghost.len() <= capacity,
                    "seed {seed}, step {step}: ghost queue grew past capacity"
                );
                assert!(
                    cache.s3.freq.len() <= cache.len(),
                    "seed {seed}, step {step}: freq table larger than residency"
                );
                for key in cache.s3.freq.keys() {
                    assert!(
                        cache.s3.small.contains(*key) || cache.s3.main.contains(*key),
                        "seed {seed}, step {step}: freq keys non-resident id {key}"
                    );
                }
                if step % 50 == 0 {
                    assert_eq!(cache.s3.small.check_links().len(), cache.s3.small.len());
                    assert_eq!(cache.s3.main.check_links().len(), cache.s3.main.len());
                    assert_eq!(cache.s3.ghost.check_links().len(), cache.s3.ghost.len());
                }
            }
        }
    }
}
