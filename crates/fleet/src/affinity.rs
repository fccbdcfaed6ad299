//! Coarse semantic clustering of prompt embeddings.
//!
//! `CacheAffinity` routing needs a stable, cheap mapping from a prompt
//! embedding to a *coarse cluster*: semantically similar prompts (a user
//! iterating on a prompt, or a trending prompt being copied) must land in
//! the same cluster so the consistent-hash ring sends them to the same
//! shard. The clusterer runs the classic online *leader* algorithm: the
//! first prompt of a semantic neighborhood becomes that cluster's leader,
//! and later prompts within [`SemanticClusterer::DEFAULT_THRESHOLD`]
//! cosine of a leader join its cluster. Session prompts in the
//! DiffusionDB-like workload share ~10 of 11 tokens (text cosine ~0.9),
//! far above the threshold, so whole sessions — and every copy of a
//! trending prompt — map to one cluster, while unrelated prompts mint
//! fresh leaders. The leader table is bounded; when full, the oldest
//! leader retires (matching the workload's trending-recency structure).
//!
//! Shard migration re-places the same resident images again and again
//! against a leader table that barely moved in between. A
//! [`LeaderVerdict`] remembers an embedding's last exact scan, so
//! [`SemanticClusterer::cluster_of_since`] only scores the leaders minted
//! since — with the same answer the full scan gives.

use modm_embedding::probe::unit_f32_into;
use modm_embedding::{Embedding, IndexPolicy, TwoLevelProbe};
use modm_numerics::lanes::LaneRows;
use modm_numerics::vector;

/// One embedding's exact leader verdict: the first strict maximum, in
/// admission order, over every leader live when it was computed.
///
/// Opaque to callers beyond persisting it between
/// [`SemanticClusterer::cluster_of_since`] calls for the same embedding
/// on the same clusterer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderVerdict {
    /// Cluster id of the winning leader.
    pub id: u64,
    /// Its cosine against the embedding, as the exact scan computes it.
    pub sim: f64,
    /// The clusterer's next cluster id when the verdict was computed:
    /// every leader with a smaller id was live then or already retired,
    /// so only ids `>= seen` are new to it.
    pub seen: u64,
}

/// Maps embeddings to coarse semantic clusters by online leader
/// clustering.
///
/// Cluster ids are minted in order, one per admitted leader, and leaders
/// retire oldest-first, so the live leaders always hold the contiguous
/// ids `next_id - num_leaders() .. next_id` in admission order. The exact
/// scan keeps the first strict maximum in that order, which is what lets
/// [`SemanticClusterer::cluster_of_since`] extend an old verdict over the
/// newer leaders instead of rescanning the table.
///
/// # Example
///
/// ```
/// use modm_fleet::SemanticClusterer;
/// use modm_embedding::{SemanticSpace, TextEncoder};
///
/// let enc = TextEncoder::new(SemanticSpace::default());
/// let mut c = SemanticClusterer::default_config();
/// let a = c.cluster_of(&enc.encode("gilded castle soaring mountains dawn oil painting"));
/// let b = c.cluster_of(&enc.encode("gilded castle soaring mountains dusk oil painting"));
/// let far = c.cluster_of(&enc.encode("neon robot dueling metropolis midnight pixel art"));
/// assert_eq!(a, b, "near-duplicates share a cluster");
/// assert_ne!(a, far, "unrelated prompts do not");
/// ```
#[derive(Debug, Clone)]
pub struct SemanticClusterer {
    threshold: f64,
    max_leaders: usize,
    /// Leader vectors as a slot-indexed ring buffer of lane-blocked rows,
    /// so the per-request scan scores eight leaders per pass. Slot
    /// `(head + k) % max_leaders` holds the `k`-th leader in admission
    /// order; when the table is full the oldest slot is overwritten in
    /// place (identical retirement order to the old push-then-pop deque).
    /// The row length is learned from the first admitted leader.
    rows: LaneRows,
    /// Cluster id per slot, parallel to `rows`.
    ids: Vec<u64>,
    /// Cached `l2_norm` per slot — a pure function of the stored row, so
    /// scoring with it is bit-identical to recomputing per probe.
    norms: Vec<f64>,
    /// Reused per-slot dot products of the current query, in slot order,
    /// so the exact scan performs no per-request allocation.
    dots_scratch: Vec<f64>,
    /// Slot of the oldest leader. Stays 0 until the table is full, so
    /// the live leaders always fill slots `0..ids.len()`.
    head: usize,
    next_id: u64,
    /// How the leader probe runs; `Exact` (the default) keeps the
    /// admission-order scan above bit-identical to the historical one.
    policy: IndexPolicy,
    /// Slot-parallel f32 mirror driving the approximate probe. Present
    /// exactly when `policy` is `Approx` and at least
    /// one leader has been admitted (the dimension is learned then).
    approx: Option<TwoLevelProbe>,
    /// Reused f32 query buffer for the approximate probe, so the hot
    /// path performs no per-request allocation.
    q32_scratch: Vec<f32>,
}

impl SemanticClusterer {
    /// Default join threshold. Session near-duplicates score ~0.9 text
    /// cosine and unrelated prompts stay below ~0.4, so 0.7 splits the
    /// two regimes with a wide margin.
    pub const DEFAULT_THRESHOLD: f64 = 0.70;

    /// Default bound on live leaders: comfortably more than the trending
    /// base pool of the DiffusionDB-like workload, small enough that the
    /// per-request scan stays in the microsecond range.
    pub const DEFAULT_MAX_LEADERS: usize = 4_096;

    /// Creates a clusterer with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `(0, 1)` or `max_leaders` is zero.
    pub fn new(threshold: f64, max_leaders: usize) -> Self {
        Self::with_index_policy(threshold, max_leaders, IndexPolicy::Exact)
    }

    /// Creates a clusterer with an explicit [`IndexPolicy`] for the
    /// leader probe. `Exact` keeps the bit-identical admission-order scan;
    /// `Approx` runs the two-level probe.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `(0, 1)` or `max_leaders` is zero.
    pub fn with_index_policy(threshold: f64, max_leaders: usize, policy: IndexPolicy) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1): {threshold}"
        );
        assert!(max_leaders > 0, "need at least one leader slot");
        SemanticClusterer {
            threshold,
            max_leaders,
            rows: LaneRows::new(),
            ids: Vec::new(),
            norms: Vec::new(),
            dots_scratch: Vec::new(),
            head: 0,
            next_id: 0,
            policy,
            approx: None,
            q32_scratch: Vec::new(),
        }
    }

    /// Creates a clusterer with the default threshold and leader bound.
    pub fn default_config() -> Self {
        Self::new(Self::DEFAULT_THRESHOLD, Self::DEFAULT_MAX_LEADERS)
    }

    /// The join threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The probe policy.
    pub fn index_policy(&self) -> IndexPolicy {
        self.policy
    }

    /// Switches the probe policy, rebuilding the approximate sidecar
    /// from the live leader table if one is now required (so a warmed
    /// clusterer can be handed to a differently-configured router).
    pub fn set_index_policy(&mut self, policy: IndexPolicy) {
        self.policy = policy;
        self.approx = None;
        if policy == IndexPolicy::Approx && !self.rows.is_empty() {
            let mut probe = TwoLevelProbe::new(self.rows.dim(), self.max_leaders);
            for slot in 0..self.rows.len() {
                probe.set(slot, &self.rows.row(slot), self.norms[slot]);
            }
            self.approx = Some(probe);
        }
    }

    /// Number of live leaders.
    pub fn num_leaders(&self) -> usize {
        self.ids.len()
    }

    /// The coarse cluster of an embedding: the id of the nearest leader
    /// within the threshold, or a freshly minted cluster otherwise.
    ///
    /// The scan must stay bit-identical to probing each leader with
    /// [`Embedding::cosine`] in admission order (first strict maximum
    /// wins). It batch-scores every physical slot with the lane-blocked
    /// kernel ([`LaneRows::block_dots`], each lane folding from `-0.0` as
    /// `vector::dot`'s `Sum` does), then walks slots oldest-first and
    /// finishes each score with [`vector::cosine_with_norms`] — the query
    /// norm hoisted out of the loop and leader norms cached at admission,
    /// all pure functions of the same values the naive probe reads.
    ///
    /// Equivalent to [`SemanticClusterer::cluster_of_since`] with no
    /// earlier verdict.
    ///
    /// # Panics
    ///
    /// Panics if `embedding`'s dimension differs from the leaders'.
    pub fn cluster_of(&mut self, embedding: &Embedding) -> u64 {
        self.cluster_of_since(embedding, &mut None)
    }

    /// [`SemanticClusterer::cluster_of`] resumed from `verdict`, the
    /// verdict an earlier call left for this same embedding; updates it
    /// to this call's.
    ///
    /// While the verdict's leader is live, every leader it beat or tied
    /// and that is still live remains behind it in admission order, so
    /// the full scan's winner is the verdict extended over the leaders
    /// minted since (ids `>= seen`) with a strict `>`: only those are
    /// scored. A missing verdict, or one whose leader retired, takes the
    /// full scan. Either way the answer, and any mint, is bit-identical
    /// to [`SemanticClusterer::cluster_of`]'s. Under
    /// [`IndexPolicy::Approx`] the verdict is cleared and ignored.
    ///
    /// # Panics
    ///
    /// Panics if `embedding`'s dimension differs from the leaders'.
    pub fn cluster_of_since(
        &mut self,
        embedding: &Embedding,
        verdict: &mut Option<LeaderVerdict>,
    ) -> u64 {
        let q = embedding.as_slice();
        assert!(
            self.rows.is_empty() || q.len() == self.rows.dim(),
            "query dimension mismatch: {} vs {}",
            q.len(),
            self.rows.dim()
        );
        let qn = vector::l2_norm(q);
        if let Some(probe) = self.approx.as_ref() {
            *verdict = None;
            // Approximate path: one pruned pass over the partitions. The
            // join floor sits a hair under the threshold so the f32/f64
            // boundary cannot flip a should-join into a mint; partitions
            // whose triangle-inequality bound cannot reach the floor are
            // skipped, so a probed miss no longer pays a full-table scan.
            unit_f32_into(q, qn, &mut self.q32_scratch);
            let floor = (self.threshold - 1e-3) as f32;
            if let Some((slot, sim)) = probe.resolve(&self.q32_scratch, floor) {
                if f64::from(sim) >= self.threshold {
                    return self.ids[slot];
                }
            }
            let id = self.next_id;
            self.next_id += 1;
            self.admit(id, q, qn);
            return id;
        }
        let oldest = self.next_id - self.ids.len() as u64;
        let best = match *verdict {
            Some(v) if v.id >= oldest && v.id < self.next_id => {
                debug_assert!(v.seen <= self.next_id, "verdict from another clusterer");
                let (mut id, mut sim) = (v.id, v.sim);
                for newer in v.seen..self.next_id {
                    let slot = self.slot_at((newer - oldest) as usize);
                    let s = vector::cosine_with_norms(
                        self.rows.slot_dot(slot, q, -0.0),
                        qn,
                        self.norms[slot],
                    );
                    if s > sim {
                        (id, sim) = (newer, s);
                    }
                }
                Some((id, sim))
            }
            _ => self.full_scan(q, qn),
        };
        if let Some((id, sim)) = best {
            if sim >= self.threshold {
                *verdict = Some(LeaderVerdict {
                    id,
                    sim,
                    seen: self.next_id,
                });
                return id;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.admit(id, q, qn);
        // The new leader's score is exactly what a later scan computes.
        // It wins unless the query scores nothing above the old best (a
        // zero embedding); then rescan, as the mint may have retired it.
        let sim = vector::cosine_with_norms(self.rows.slot_dot(slot, q, -0.0), qn, qn);
        let (won, won_sim) = if best.is_none_or(|(_, b)| sim > b) {
            (id, sim)
        } else {
            self.full_scan(q, qn).expect("a leader was just admitted")
        };
        *verdict = Some(LeaderVerdict {
            id: won,
            sim: won_sim,
            seen: self.next_id,
        });
        id
    }

    /// The exact scan over every live leader: the first strict maximum
    /// in admission order, or `None` on an empty table.
    fn full_scan(&mut self, q: &[f64], qn: f64) -> Option<(u64, f64)> {
        // Every scored slot but the block padding holds a live leader.
        self.dots_scratch.clear();
        for dots in self.rows.block_dots(q, -0.0) {
            self.dots_scratch.extend_from_slice(&dots);
        }
        let mut best: Option<(u64, f64)> = None;
        for k in 0..self.ids.len() {
            let slot = self.slot_at(k);
            let sim = vector::cosine_with_norms(self.dots_scratch[slot], qn, self.norms[slot]);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((self.ids[slot], sim));
            }
        }
        best
    }

    /// Slot index of the `k`-th leader in admission order.
    fn slot_at(&self, k: usize) -> usize {
        let s = self.head + k;
        if s >= self.max_leaders {
            s - self.max_leaders
        } else {
            s
        }
    }

    /// Appends a new leader, retiring the oldest when the table is full;
    /// returns its slot.
    fn admit(&mut self, id: u64, values: &[f64], norm: f64) -> usize {
        if self.rows.is_empty() && self.policy == IndexPolicy::Approx {
            self.approx = Some(TwoLevelProbe::new(values.len(), self.max_leaders));
        }
        let slot = if self.ids.len() < self.max_leaders {
            let slot = self.rows.push(values);
            self.ids.push(id);
            self.norms.push(norm);
            slot
        } else {
            // Full: the new leader replaces the oldest in place.
            let slot = self.head;
            self.rows.set(slot, values);
            self.ids[slot] = id;
            self.norms[slot] = norm;
            self.head = self.slot_at(1);
            slot
        };
        if let Some(probe) = self.approx.as_mut() {
            probe.set(slot, values, norm);
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modm_embedding::{SemanticSpace, TextEncoder};

    fn encoder() -> TextEncoder {
        TextEncoder::new(SemanticSpace::default())
    }

    #[test]
    fn session_prompts_share_cluster() {
        // Session-style prompts: ten shared tokens, one varying detail —
        // the geometry the DiffusionDB-like factory produces.
        let enc = encoder();
        let mut c = SemanticClusterer::default_config();
        let mut same = 0;
        let n = 200;
        for i in 0..n {
            let base = format!(
                "subject{i} modifier{i} action{i} place{i} time{i} style{i} flavor{i} \
                 det{i} extra{i} more{i}"
            );
            let a = c.cluster_of(&enc.encode(&format!("{base} alpha")));
            let b = c.cluster_of(&enc.encode(&format!("{base} omega")));
            if a == b {
                same += 1;
            }
        }
        assert_eq!(same, n, "leader clustering co-locates sessions: {same}/{n}");
    }

    #[test]
    fn unrelated_prompts_get_distinct_clusters() {
        let enc = encoder();
        let mut c = SemanticClusterer::default_config();
        let clusters: std::collections::HashSet<u64> = (0..300)
            .map(|i| {
                c.cluster_of(&enc.encode(&format!(
                    "alpha{i} beta{} gamma{} delta{} epsilon{}",
                    i * 3,
                    i * 7,
                    i * 11,
                    i * 13
                )))
            })
            .collect();
        assert!(clusters.len() > 250, "only {} clusters", clusters.len());
    }

    #[test]
    fn leader_table_is_bounded() {
        let enc = encoder();
        let mut c = SemanticClusterer::new(0.7, 32);
        for i in 0..200 {
            c.cluster_of(&enc.encode(&format!(
                "unique{} tokens{} every{} time{}",
                i,
                i * 5,
                i * 9,
                i * 17
            )));
        }
        assert!(c.num_leaders() <= 32);
    }

    #[test]
    fn approx_probe_agrees_with_exact_scan() {
        // The two-level probe must reproduce the exact scan's decisions on
        // the workload shape that matters: sessions (join) mixed with
        // fresh prompts (mint). Ids are minted in lockstep, so equal ids
        // mean equal decisions.
        let enc = encoder();
        let mut exact = SemanticClusterer::new(0.7, 512);
        let mut approx = SemanticClusterer::with_index_policy(0.7, 512, IndexPolicy::Approx);
        assert_eq!(approx.index_policy(), IndexPolicy::Approx);
        let mut agree = 0;
        let total = 600;
        for i in 0..total {
            let base = i % 150; // four visits per session
            let prompt = format!(
                "subject{base} modifier{base} action{base} place{base} time{base} \
                 style{base} flavor{base} det{base} extra{base} more{base} visit{}",
                i / 150
            );
            let e = enc.encode(&prompt);
            if exact.cluster_of(&e) == approx.cluster_of(&e) {
                agree += 1;
            }
        }
        assert!(agree * 100 / total >= 95, "agreement {agree}/{total}");
    }

    #[test]
    fn approx_clusterer_bounded_with_retirement() {
        // Exercises the sidecar's overwrite path: unique prompts churn a
        // small full table.
        let enc = encoder();
        let mut c = SemanticClusterer::with_index_policy(0.7, 32, IndexPolicy::Approx);
        for i in 0..200 {
            c.cluster_of(&enc.encode(&format!(
                "unique{} tokens{} every{} time{}",
                i,
                i * 5,
                i * 9,
                i * 17
            )));
        }
        assert!(c.num_leaders() <= 32);
        // Repeats of a live leader still join its cluster.
        let a = c.cluster_of(&enc.encode("repeat anchor prompt golden meadow"));
        let b = c.cluster_of(&enc.encode("repeat anchor prompt golden meadow"));
        assert_eq!(a, b);
    }

    #[test]
    fn set_index_policy_rebuilds_warm_sidecar() {
        let enc = encoder();
        let mut c = SemanticClusterer::default_config();
        let warm: Vec<u64> = (0..50)
            .map(|i| c.cluster_of(&enc.encode(&format!("warm{} lead{} seed{}", i, i * 3, i * 7))))
            .collect();
        c.set_index_policy(IndexPolicy::Approx);
        // Every warmed leader is still found by the approximate probe.
        for (i, &id) in warm.iter().enumerate() {
            let again =
                c.cluster_of(&enc.encode(&format!("warm{} lead{} seed{}", i, i * 3, i * 7)));
            assert_eq!(again, id, "leader {i} lost in rebuild");
        }
        c.set_index_policy(IndexPolicy::Exact);
        let id = c.cluster_of(&enc.encode("warm0 lead0 seed0"));
        assert_eq!(id, warm[0], "exact path intact after switching back");
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn approx_probe_rejects_mismatched_query() {
        // The f32 probe would truncate silently; the clusterer checks first.
        let mut c = SemanticClusterer::with_index_policy(0.7, 32, IndexPolicy::Approx);
        c.cluster_of(&Embedding::from_vec(vec![1.0, 0.0, 0.0]));
        c.cluster_of(&Embedding::from_vec(vec![1.0, 0.0]));
    }

    #[test]
    fn deterministic_for_equal_input_sequences() {
        let enc = encoder();
        let run = || {
            let mut c = SemanticClusterer::default_config();
            (0..100)
                .map(|i| c.cluster_of(&enc.encode(&format!("scene {} tokens {}", i % 17, i % 5))))
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }
}
