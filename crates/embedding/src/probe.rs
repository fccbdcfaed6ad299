//! The similarity-index policy and the approximate backends.
//!
//! MoDM has one retrieval primitive: find the cached entry nearest to a
//! prompt embedding and act on it only if it clears a similarity floor
//! (the cache-hit threshold, or the affinity clusterer's join threshold).
//! Every structure serving that primitive has exactly two backends, chosen
//! by [`IndexPolicy`]:
//!
//! * `Exact` — lane-blocked scans with f64 answers:
//!   [`EmbeddingIndex`](crate::EmbeddingIndex) for caches (a 16-bit
//!   fixed-point screen, then an f64 re-score of the rows near the top)
//!   and the clusterer's own f64 leader table for affinity routing.
//! * `Approx` — the f32 backends in this module: [`InvertedIndex`] for
//!   caches (with [`InvertedIndex::nearest_with_floor`]'s verify-on-miss
//!   fallback keeping hit/miss verdicts exact to f32 precision) and
//!   [`TwoLevelProbe::resolve`] for leader tables. Rows are scored with
//!   [`dot_f32`]'s lane-split accumulators, which LLVM autovectorizes into
//!   SIMD adds.

use std::collections::HashMap;

use modm_numerics::vector;
use modm_simkit::SimRng;

use crate::index::Neighbor;
use crate::space::Embedding;

/// Which backend a similarity-searchable structure (cache index, leader
/// table) probes with.
///
/// The policy travels on `MoDMConfig` (and `RoutingConfig` for the
/// affinity clusterer) and is consulted wherever an index is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexPolicy {
    /// Exact lane-blocked f64 scan at any capacity — the determinism
    /// contract `tests/seed_matrix.rs` pins bit for bit.
    #[default]
    Exact,
    /// The approximate f32 backends: the [`InvertedIndex`] for caches and
    /// the [`TwoLevelProbe`] for affinity leader tables. Opt-in — hit/miss
    /// and join/mint verdicts are exact to f32 precision, but similarities
    /// and tie-breaks are not bit-identical to `Exact`.
    Approx,
}

/// Dot product of two f32 slices with lane-split accumulators: the loop
/// body is eight independent multiply-adds per iteration, which LLVM
/// autovectorizes into SIMD lanes (the dependency chain of a single
/// scalar accumulator would forbid that reassociation).
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; 8];
    let chunks = n / 8;
    for c in 0..chunks {
        let (xs, ys) = (&a[c * 8..c * 8 + 8], &b[c * 8..c * 8 + 8]);
        for l in 0..8 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut sum = (acc[0] + acc[4]) + (acc[1] + acc[5]) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for i in chunks * 8..n {
        sum += a[i] * b[i];
    }
    sum
}

/// The f32 image of a unit f64 vector: each component divided by the
/// exact norm, then narrowed. Scoring two such rows with [`dot_f32`]
/// approximates the f64 cosine to ~1e-6 — far inside the margins of the
/// similarity thresholds the system compares against.
pub fn unit_f32(values: &[f64], norm: f64) -> Vec<f32> {
    let mut out = Vec::new();
    unit_f32_into(values, norm, &mut out);
    out
}

/// [`unit_f32`] into a caller-owned scratch buffer (cleared first), so
/// per-query conversions on hot paths reuse one allocation.
pub fn unit_f32_into(values: &[f64], norm: f64, out: &mut Vec<f32>) {
    let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
    out.clear();
    out.extend(values.iter().map(|&x| (x * inv) as f32));
}

/// Upper bound on the cosine between `q` and any member of a partition,
/// given `s` = cos(q, centroid) and `c` = the partition's minimum
/// member-to-centroid cosine (its angular radius). By the triangle
/// inequality on the sphere, a member lies within `acos(c)` of the
/// centroid, so its angle to `q` is at least `acos(s) - acos(c)`:
/// the bound is `cos(acos(s) - acos(c))`, expanded without trig as
/// `s*c + sqrt((1-s²)(1-c²))`, saturating at 1 when `q` is inside the
/// partition cone (`s >= c`).
#[inline]
fn partition_bound(s: f32, c: f32) -> f32 {
    if s >= c {
        return 1.0;
    }
    let s2 = (1.0 - s * s).max(0.0);
    let c2 = (1.0 - c * c).max(0.0);
    s * c + (s2 * c2).sqrt()
}

/// Upper bound on centroids for the fixed-size selection scratch.
const MAX_CENTROIDS: usize = 256;

/// Writes the indexes of the `nprobe` largest `sims` into `out`, best
/// first. Selection is by repeated strict-maximum, so equal similarities
/// resolve to the lowest index — deterministic for any input order.
#[inline]
fn select_top(sims: &[f32], nprobe: usize, out: &mut [usize]) -> usize {
    let take = nprobe.min(sims.len());
    let mut taken = [false; MAX_CENTROIDS];
    for slot in out.iter_mut().take(take) {
        let mut best = usize::MAX;
        let mut best_sim = f32::NEG_INFINITY;
        for (i, &s) in sims.iter().enumerate() {
            if !taken[i] && s > best_sim {
                best_sim = s;
                best = i;
            }
        }
        taken[best] = true;
        *slot = best;
    }
    take
}

/// Fixed random unit centroids shared by the inverted backends: `count`
/// directions of dimension `dim`, seeded from the shape so equal shapes
/// agree across runs and structures.
pub(crate) fn fixed_centroids_f32(dim: usize, count: usize, tag: u64) -> Vec<f32> {
    let mut rng = SimRng::seed_from(tag ^ ((dim as u64) << 8) ^ count as u64);
    let mut out = Vec::with_capacity(dim * count);
    for _ in 0..count {
        let mut v: Vec<f64> = (0..dim).map(|_| rng.standard_normal()).collect();
        vector::normalize(&mut v);
        out.extend(v.iter().map(|&x| x as f32));
    }
    out
}

/// Seed tag for [`InvertedIndex`] centroids ("INVF").
const INVERTED_SEED: u64 = 0x494E_5646;

/// Small-shard inverted index: approximate cosine search over contiguous
/// f32 rows bucketed by nearest fixed random unit centroid.
///
/// This is the backend that takes the per-shard cache lookup off the
/// exact O(entries) scan. Geometry sized for the sharded fleet cache:
/// ~√capacity buckets, a handful probed per query, f32 rows scored with
/// [`dot_f32`]. Near-duplicate queries land in the same bucket as their
/// target (both are nearly the same unit vector), so recall on the
/// similarity range that produces cache hits is effectively perfect.
///
/// # Example
///
/// ```
/// use modm_embedding::{probe::InvertedIndex, Embedding};
/// let mut idx = InvertedIndex::for_capacity(64, 128);
/// idx.insert(1u64, Embedding::from_vec(vec![1.0; 64]));
/// let q = Embedding::from_vec(vec![1.0; 64]);
/// assert_eq!(idx.nearest(&q).unwrap().key, 1);
/// ```
#[derive(Debug, Clone)]
pub struct InvertedIndex<K> {
    centroids: Vec<f32>,
    ncent: usize,
    nprobe: usize,
    dim: usize,
    /// Per-bucket contiguous f32 rows: probing a bucket is one
    /// sequential scan, which is what makes the probe cheap when the
    /// working set no longer fits in cache.
    bucket_rows: Vec<Vec<f32>>,
    /// Keys parallel to each bucket's rows.
    bucket_keys: Vec<Vec<K>>,
    /// key → (bucket, position within bucket).
    by_key: HashMap<K, (u32, u32)>,
}

impl<K: Copy + Eq + std::hash::Hash> InvertedIndex<K> {
    /// Creates an index over `dim`-dimensional vectors with `centroids`
    /// buckets, probing `nprobe` of them per query.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `nprobe > centroids`, or
    /// `centroids` exceeds 256.
    pub fn new(dim: usize, centroids: usize, nprobe: usize) -> Self {
        assert!(dim > 0 && centroids > 0 && nprobe > 0, "invalid parameters");
        assert!(nprobe <= centroids, "nprobe exceeds centroid count");
        assert!(
            centroids <= MAX_CENTROIDS,
            "at most {MAX_CENTROIDS} centroids"
        );
        InvertedIndex {
            centroids: fixed_centroids_f32(dim, centroids, INVERTED_SEED),
            ncent: centroids,
            nprobe,
            dim,
            bucket_rows: vec![Vec::new(); centroids],
            bucket_keys: vec![Vec::new(); centroids],
            by_key: HashMap::new(),
        }
    }

    /// Geometry for a structure expected to hold about `capacity`
    /// entries: ~√capacity buckets (at least 4, at most 256), a quarter
    /// of them probed per query (at least 2, at most 16).
    pub fn for_capacity(dim: usize, capacity: usize) -> Self {
        let ncent = (capacity as f64).sqrt().ceil() as usize;
        let ncent = ncent.clamp(4, MAX_CENTROIDS);
        let nprobe = (ncent / 4).clamp(2, 16);
        Self::new(dim, ncent, nprobe)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.by_key.contains_key(key)
    }

    #[inline]
    fn centroid(&self, i: usize) -> &[f32] {
        &self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    fn centroid_sims(&self, q: &[f32]) -> [f32; MAX_CENTROIDS] {
        let mut sims = [f32::NEG_INFINITY; MAX_CENTROIDS];
        for (i, sim) in sims.iter_mut().enumerate().take(self.ncent) {
            *sim = dot_f32(q, self.centroid(i));
        }
        sims
    }

    fn nearest_bucket(&self, q: &[f32]) -> usize {
        let sims = self.centroid_sims(q);
        let mut out = [0usize; 1];
        select_top(&sims[..self.ncent], 1, &mut out);
        out[0]
    }

    /// Inserts (or replaces) the embedding for `key`, bucketed by the
    /// embedding itself.
    ///
    /// # Panics
    ///
    /// Panics if `embedding`'s dimension differs from the index's.
    pub fn insert(&mut self, key: K, embedding: Embedding) {
        let anchor = embedding.clone();
        self.insert_anchored(key, &anchor, embedding);
    }

    /// Inserts (or replaces) the embedding for `key`, bucketed by
    /// `anchor` instead of the embedding itself.
    ///
    /// Queries still *score* against the stored embedding; only partition
    /// membership comes from the anchor. The cache uses the generating
    /// prompt's text embedding here: queries similar to that prompt — the
    /// only queries that can hit — then probe the right partition, while
    /// the noise-dominated image embedding would bucket randomly.
    ///
    /// # Panics
    ///
    /// Panics if either dimension differs from the index's.
    pub fn insert_anchored(&mut self, key: K, anchor: &Embedding, embedding: Embedding) {
        self.remove(&key);
        let values = embedding.as_slice();
        assert_eq!(values.len(), self.dim, "embedding dimension mismatch");
        assert_eq!(anchor.dim(), self.dim, "anchor dimension mismatch");
        let anchor32: Vec<f32> = anchor.as_slice().iter().map(|&x| x as f32).collect();
        let bucket = self.nearest_bucket(&anchor32);
        // Stored embeddings are unit-normalized by `Embedding::from_vec`;
        // narrowing keeps them unit to f32 precision.
        self.bucket_rows[bucket].extend(values.iter().map(|&x| x as f32));
        self.bucket_keys[bucket].push(key);
        let pos = (self.bucket_keys[bucket].len() - 1) as u32;
        self.by_key.insert(key, (bucket as u32, pos));
    }

    /// Removes `key`; returns whether it existed. The bucket's last row
    /// backfills the vacated position, keeping each bucket contiguous.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some((bucket, pos)) = self.by_key.remove(key) else {
            return false;
        };
        let (b, p) = (bucket as usize, pos as usize);
        let last = self.bucket_keys[b].len() - 1;
        if p != last {
            let moved = self.bucket_keys[b][last];
            self.bucket_rows[b].copy_within(last * self.dim..(last + 1) * self.dim, p * self.dim);
            self.bucket_keys[b][p] = moved;
            self.by_key.insert(moved, (bucket, pos));
        }
        self.bucket_keys[b].pop();
        self.bucket_rows[b].truncate(last * self.dim);
        true
    }

    /// Best entry within one bucket (contiguous scan). Ties resolve to
    /// the earliest row.
    #[inline]
    fn bucket_best(&self, bucket: usize, q: &[f32]) -> Option<(usize, f32)> {
        let rows = &self.bucket_rows[bucket];
        let mut best: Option<(usize, f32)> = None;
        for (pos, row) in rows.chunks_exact(self.dim).enumerate() {
            let sim = dot_f32(q, row);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((pos, sim));
            }
        }
        best
    }

    fn neighbor(&self, bucket: usize, pos: usize, sim: f32) -> Neighbor<K> {
        Neighbor {
            key: self.bucket_keys[bucket][pos],
            similarity: f64::from(sim).clamp(-1.0, 1.0),
        }
    }

    /// Approximate nearest entry to `query`, scanning the `nprobe`
    /// closest buckets. Ties resolve to the earliest-scanned row.
    pub fn nearest(&self, query: &Embedding) -> Option<Neighbor<K>> {
        if self.is_empty() {
            return None;
        }
        let q: Vec<f32> = query.as_slice().iter().map(|&x| x as f32).collect();
        let sims = self.centroid_sims(&q);
        let mut order = [0usize; MAX_CENTROIDS];
        let probes = select_top(&sims[..self.ncent], self.nprobe, &mut order);
        let mut best: Option<(usize, usize, f32)> = None;
        for &bucket in order.iter().take(probes) {
            if let Some((pos, sim)) = self.bucket_best(bucket, &q) {
                if best.is_none_or(|(_, _, b)| sim > b) {
                    best = Some((bucket, pos, sim));
                }
            }
        }
        best.map(|(bucket, pos, sim)| self.neighbor(bucket, pos, sim))
    }

    /// [`InvertedIndex::nearest`] with a decision floor: if the probed
    /// partitions hold nothing at or above `floor` similarity, falls back
    /// to scanning the remaining buckets before conceding.
    ///
    /// This keeps threshold decisions ("is there any entry above the hit
    /// floor?") exact to f32 precision: a probed result at or above the
    /// floor is a true hit, and a miss is only declared after every
    /// bucket has been scanned. Hits — the common case, and the one the
    /// anchored partitions are built to catch — stay on the cheap probed
    /// path.
    pub fn nearest_with_floor(&self, query: &Embedding, floor: f64) -> Option<Neighbor<K>> {
        if self.is_empty() {
            return None;
        }
        let q: Vec<f32> = query.as_slice().iter().map(|&x| x as f32).collect();
        let sims = self.centroid_sims(&q);
        let mut order = [0usize; MAX_CENTROIDS];
        let probes = select_top(&sims[..self.ncent], self.nprobe, &mut order);
        let mut probed = [false; MAX_CENTROIDS];
        let mut best: Option<(usize, usize, f32)> = None;
        for &bucket in order.iter().take(probes) {
            probed[bucket] = true;
            if let Some((pos, sim)) = self.bucket_best(bucket, &q) {
                if best.is_none_or(|(_, _, b)| sim > b) {
                    best = Some((bucket, pos, sim));
                }
            }
        }
        if best.is_some_and(|(_, _, sim)| f64::from(sim) >= floor) {
            return best.map(|(bucket, pos, sim)| self.neighbor(bucket, pos, sim));
        }
        // Probed partitions came up short: scan the rest, so a miss
        // verdict (or a sub-floor best) is exact to f32 precision.
        for (bucket, &seen) in probed.iter().enumerate().take(self.ncent) {
            if seen {
                continue;
            }
            if let Some((pos, sim)) = self.bucket_best(bucket, &q) {
                if best.is_none_or(|(_, _, b)| sim > b) {
                    best = Some((bucket, pos, sim));
                }
            }
        }
        best.map(|(bucket, pos, sim)| self.neighbor(bucket, pos, sim))
    }

    /// The `k` best approximate matches, best first.
    pub fn top_k(&self, query: &Embedding, k: usize) -> Vec<Neighbor<K>> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let q: Vec<f32> = query.as_slice().iter().map(|&x| x as f32).collect();
        let sims = self.centroid_sims(&q);
        let mut order = [0usize; MAX_CENTROIDS];
        let probes = select_top(&sims[..self.ncent], self.nprobe, &mut order);
        let mut hits: Vec<Neighbor<K>> = Vec::new();
        for &bucket in order.iter().take(probes) {
            for (pos, row) in self.bucket_rows[bucket].chunks_exact(self.dim).enumerate() {
                hits.push(self.neighbor(bucket, pos, dot_f32(&q, row)));
            }
        }
        hits.sort_by(|a, b| b.similarity.partial_cmp(&a.similarity).expect("NaN sim"));
        hits.truncate(k);
        hits
    }

    /// Storage accounting matching the flat index convention (f32 rows
    /// plus per-entry bookkeeping).
    pub fn storage_bytes(&self) -> usize {
        self.len() * (self.dim * 4 + 16)
    }
}

/// Seed tag for [`TwoLevelProbe`] centroids ("2LVL").
const TWO_LEVEL_SEED: u64 = 0x324C_564C;

/// Two-level leader probe: a slot-parallel f32 mirror of an external
/// slot-indexed leader table, partitioned under ~√n fixed random unit
/// centroids (the "super-leaders").
///
/// The affinity clusterer keeps its authoritative leader matrix in f64
/// (the exact path scans it directly); under an approximate
/// [`IndexPolicy`] it maintains this sidecar and resolves queries by
/// scoring the centroids, probing the top partitions, and only falling
/// back to a full f32 scan when the probed best misses the join
/// threshold — so "mint a new leader" decisions stay exact to f32
/// precision while the common repeated-prompt case touches a fraction of
/// the table.
#[derive(Debug, Clone)]
pub struct TwoLevelProbe {
    centroids: Vec<f32>,
    ncent: usize,
    nprobe: usize,
    dim: usize,
    /// Normalized f32 row per slot, parallel to the external table.
    rows: Vec<f32>,
    /// Partition of each slot.
    slot_part: Vec<u32>,
    /// Slots per partition.
    parts: Vec<Vec<u32>>,
    /// Per-partition minimum member-to-centroid cosine (the angular
    /// radius backing [`partition_bound`]). Maintained as a safe lower
    /// bound: member removal can leave it stale-low, which only costs
    /// pruning power, never correctness. `1.0` for empty partitions.
    part_minrcos: Vec<f32>,
}

impl TwoLevelProbe {
    /// Creates a probe for a table of up to `max_slots` rows of dimension
    /// `dim`: ~√max_slots partitions (4..=128), a quarter probed per
    /// query (at least 2).
    pub fn new(dim: usize, max_slots: usize) -> Self {
        assert!(dim > 0 && max_slots > 0, "invalid parameters");
        let ncent = ((max_slots as f64).sqrt().ceil() as usize).clamp(4, 128);
        let nprobe = (ncent / 4).max(2);
        TwoLevelProbe {
            centroids: fixed_centroids_f32(dim, ncent, TWO_LEVEL_SEED),
            ncent,
            nprobe,
            dim,
            rows: Vec::new(),
            slot_part: Vec::new(),
            parts: vec![Vec::new(); ncent],
            part_minrcos: vec![1.0; ncent],
        }
    }

    /// Number of mirrored slots.
    pub fn slots(&self) -> usize {
        self.slot_part.len()
    }

    #[inline]
    fn centroid(&self, i: usize) -> &[f32] {
        &self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    #[inline]
    fn row(&self, slot: usize) -> &[f32] {
        &self.rows[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Mirrors a write of the external table: `slot` now holds `values`
    /// (norm `norm`). Appends when `slot` is one past the end; reassigns
    /// the partition on overwrite.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is more than one past the current end or the
    /// dimension mismatches.
    pub fn set(&mut self, slot: usize, values: &[f64], norm: f64) {
        assert_eq!(values.len(), self.dim, "row dimension mismatch");
        let row = unit_f32(values, norm);
        let (part, own_sim) = {
            let mut best = 0usize;
            let mut best_sim = f32::NEG_INFINITY;
            for i in 0..self.ncent {
                let sim = dot_f32(&row, self.centroid(i));
                if sim > best_sim {
                    best_sim = sim;
                    best = i;
                }
            }
            (best as u32, best_sim)
        };
        if slot == self.slot_part.len() {
            self.rows.extend_from_slice(&row);
            self.slot_part.push(part);
        } else {
            assert!(slot < self.slot_part.len(), "slot out of range");
            let old = self.slot_part[slot] as usize;
            let pos = self.parts[old]
                .iter()
                .position(|&s| s == slot as u32)
                .expect("slot_part/parts in sync");
            self.parts[old].swap_remove(pos);
            if self.parts[old].is_empty() {
                self.part_minrcos[old] = 1.0;
            }
            self.rows[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(&row);
            self.slot_part[slot] = part;
        }
        self.parts[part as usize].push(slot as u32);
        let p = part as usize;
        self.part_minrcos[p] = self.part_minrcos[p].min(own_sim);
    }

    /// One-pass join resolution: probe the top partitions, and — when the
    /// probed best misses `join_floor` — sweep the remaining partitions,
    /// scanning only those whose triangle-inequality partition bound
    /// could still beat
    /// both the current best and the floor. The common case (a session
    /// repeat landing in a probed partition at or above the floor) pays
    /// just the centroid scan plus the probe budget; only genuinely
    /// ambiguous queries descend into the bounded sweep.
    ///
    /// The returned best is the true argmax whenever it is at or above
    /// `join_floor` (the decision that picks a join target); below the
    /// floor the value may come from a pruned-short scan, which is fine
    /// because sub-floor queries mint a new leader regardless. Callers
    /// pass the join threshold minus a small margin so f32 rounding near
    /// the boundary cannot prune a row the f64 comparison would accept.
    pub fn resolve(&self, q: &[f32], join_floor: f32) -> Option<(usize, f32)> {
        if self.slot_part.is_empty() {
            return None;
        }
        let mut sims = [f32::NEG_INFINITY; MAX_CENTROIDS];
        for (i, sim) in sims.iter_mut().enumerate().take(self.ncent) {
            *sim = dot_f32(q, self.centroid(i));
        }
        let mut order = [0usize; MAX_CENTROIDS];
        let ranked = select_top(&sims[..self.ncent], self.nprobe, &mut order);
        let mut probed = [false; MAX_CENTROIDS];
        let mut best: Option<(usize, f32)> = None;
        for &part in order.iter().take(ranked) {
            probed[part] = true;
            for &slot in &self.parts[part] {
                let sim = dot_f32(q, self.row(slot as usize));
                if best.is_none_or(|(_, b)| sim > b) {
                    best = Some((slot as usize, sim));
                }
            }
        }
        if best.is_some_and(|(_, b)| b >= join_floor) {
            return best;
        }
        // Probed miss: visit every unprobed partition that could still
        // change the outcome. The bound test is a few flops per
        // partition, so no ordering pass is needed.
        for part in 0..self.ncent {
            if probed[part] || self.parts[part].is_empty() {
                continue;
            }
            let bound = partition_bound(sims[part], self.part_minrcos[part]);
            if bound < join_floor || best.is_some_and(|(_, b)| bound <= b) {
                continue;
            }
            for &slot in &self.parts[part] {
                let sim = dot_f32(q, self.row(slot as usize));
                if best.is_none_or(|(_, b)| sim > b) {
                    best = Some((slot as usize, sim));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::EmbeddingIndex;
    use crate::space::{SemanticSpace, TextEncoder};

    #[test]
    fn policy_defaults_and_selection() {
        assert_eq!(IndexPolicy::default(), IndexPolicy::Exact);
        assert_ne!(IndexPolicy::Exact, IndexPolicy::Approx);
    }

    #[test]
    fn dot_f32_matches_f64_dot() {
        let mut rng = SimRng::seed_from(7);
        for len in [1usize, 7, 8, 63, 64, 65] {
            let a: Vec<f64> = (0..len).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let b: Vec<f64> = (0..len).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
            let exact = vector::dot(&a, &b);
            let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
            let approx = f64::from(dot_f32(&a32, &b32));
            assert!(
                (exact - approx).abs() < 1e-4,
                "len {len}: {exact} vs {approx}"
            );
        }
    }

    #[test]
    fn select_top_is_deterministic_on_ties() {
        let sims = [0.5f32, 0.9, 0.9, 0.1];
        let mut out = [0usize; 4];
        let n = select_top(&sims, 3, &mut out);
        assert_eq!(n, 3);
        assert_eq!(&out[..3], &[1, 2, 0], "ties resolve to the lowest index");
    }

    #[test]
    fn inverted_index_roundtrip_and_replacement() {
        let mut idx: InvertedIndex<u64> = InvertedIndex::new(8, 4, 2);
        let e1 = Embedding::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let e2 = Embedding::from_vec(vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        idx.insert(1, e1.clone());
        assert!(idx.contains(&1));
        assert_eq!(idx.len(), 1);
        idx.insert(1, e2.clone());
        assert_eq!(idx.len(), 1, "re-insert replaces");
        let n = idx.nearest(&e2).unwrap();
        assert_eq!(n.key, 1);
        assert!((n.similarity - 1.0).abs() < 1e-6);
        assert_eq!(
            idx.storage_bytes(),
            8 * 4 + 16,
            "one f32 row plus bookkeeping"
        );
        // Every bucket probed: top_k sees both rows, best first.
        let mut all: InvertedIndex<u64> = InvertedIndex::new(8, 4, 4);
        all.insert(1, e1.clone());
        all.insert(2, e2.clone());
        let ranked = all.top_k(&e2, 2);
        assert_eq!(ranked.iter().map(|n| n.key).collect::<Vec<_>>(), vec![2, 1]);
        assert!(ranked[0].similarity > ranked[1].similarity);
        assert_eq!(all.top_k(&e2, 1).len(), 1, "truncates to k");
        assert!(all.top_k(&e2, 0).is_empty());
        assert!(idx.remove(&1));
        assert!(!idx.remove(&1));
        assert!(idx.nearest(&e1).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn anchored_inverted_matches_flat_on_cache_shaped_data() {
        // The recall property that matters for the cache: rows are
        // noise-dominated image embeddings, anchors are the generating
        // prompts' text embeddings, and queries are prompts similar to a
        // stored anchor — the only queries that can produce a hit.
        use crate::space::ImageEncoder;
        let space = SemanticSpace::default();
        let enc = TextEncoder::new(space.clone());
        let imgenc = ImageEncoder::new(space, 0.30);
        let mut rng = SimRng::seed_from(42);
        let mut inv: InvertedIndex<u64> = InvertedIndex::for_capacity(64, 128);
        let mut flat: EmbeddingIndex<u64> = EmbeddingIndex::new();
        let prompts: Vec<String> = (0..128)
            .map(|i| format!("scene{} place{} style{} detail{}", i % 30, i % 7, i % 5, i))
            .collect();
        for (i, p) in prompts.iter().enumerate() {
            let anchor = enc.encode(p);
            let image = imgenc.encode(&anchor, &mut rng);
            inv.insert_anchored(i as u64, &anchor, image.clone());
            flat.insert(i as u64, image);
        }
        // The property the cache depends on: hit/miss *decisions* at the
        // retrieval floor agree with the exact scan on every query, and a
        // probed similarity never exceeds the exact one.
        let floor = 0.25;
        for (i, p) in prompts.iter().enumerate() {
            // Half the queries repeat a cached prompt verbatim, half add a
            // trailing token.
            let q = if i % 2 == 0 {
                enc.encode(p)
            } else {
                enc.encode(&format!("{p} extra"))
            };
            let a = inv.nearest_with_floor(&q, floor).unwrap();
            let b = flat.nearest(&q).unwrap();
            assert_eq!(
                a.similarity >= floor,
                b.similarity >= floor,
                "hit/miss decision diverged at {i}: {} vs {}",
                a.similarity,
                b.similarity
            );
            assert!(
                a.similarity <= b.similarity + 1e-5,
                "probe outscored exact at {i}"
            );
        }
    }
}
