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
//! The exact leader scan reads a 16-bit fixed-point copy of the leader
//! rows first ([`ScreenedRows::screen`], the screen the cache's flat
//! index uses too), seeded with the join threshold: only leaders whose
//! integer score could still belong to a cosine at or above the
//! threshold, and within the screen's error window of the best, are
//! re-scored in f64, in admission order. A query that joins no cluster
//! mostly mints without a single f64 dot product. Every answer is bit for
//! bit the full f64 scan's; [`SemanticClusterer`] states why.
//!
//! Shard migration re-places the same resident images again and again
//! against a leader table that barely moved in between. A
//! [`LeaderVerdict`] remembers an embedding's last exact scan, so
//! [`SemanticClusterer::cluster_of_since`] only scores the leaders minted
//! since — with the same answer the full scan gives. A migration resumes
//! its verdicts together (`SemanticClusterer::resume_all`): their images
//! are screened in fixed point against the new leaders sixteen at a
//! time, and only a leader that could beat a verdict is scored in f64.

use modm_embedding::probe::unit_f32_into;
use modm_embedding::{Embedding, IndexPolicy, TwoLevelProbe};
use modm_numerics::lanes::{Candidates, FixedQuery, QueryBlocks, ScreenedRows, SCREEN_LANES};
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
/// # The screened exact scan
///
/// A leader's score is its cosine with the query,
/// `c = cosine_with_norms(dot, qn, n)`: the f64 dot product folded from
/// `-0.0`, the query's norm and the leader's norm cached at admission,
/// exactly as [`Embedding::cosine`] computes it. The scan must return
/// the first strict maximum of `c` in admission order.
///
/// **Norm contract.** Leaders and queries are [`Embedding`]s, so each is
/// the zero vector or a vector normalized in f64 by
/// [`Embedding::from_vec`]: its Euclidean norm is within
/// `(n / 2 + 2) 2^-53` of 1 (`n` the dimension) and its computed `l2_norm`
/// within `(n + 3) 2^-53`. That meets the screen's `1 + 2^-30` contract.
///
/// **Cosine vs dot slack.** The screen's bound `B`
/// ([`fixed_screen_error_bound`](modm_numerics::lanes::fixed_screen_error_bound))
/// is proven for the clamped f64 dot `d`. For nonzero rows the norms'
/// product is within `(2n + 7) 2^-53` of 1, so with the division's own
/// rounding `|c − clamp(d)| <= (2n + 9) 2^-53`: at most `(2n + 9) 2^-23`
/// in fixed-point units (`S² < 2^30`), under 0.26 for `n <= 2^20`. `B`'s
/// final `+ 1` holds more than 0.6 beyond the dot's own error, so
/// `|Î − S² c| <= B` for the cosine as well. A zero leader scores 0 on
/// both sides.
///
/// **Seed.** The screen keeps the leaders whose integer score reaches
/// `max(seed, min(m, S²) − 2B)`, `m` the best integer score, with `seed`
/// from [`ScreenedRows::seed_for`] at the join threshold. If the full
/// scan's winner reaches the threshold, it is among them: the window
/// keeps every leader that can be the best, and the seed every leader
/// whose cosine can reach the threshold. So when no leader passes, no
/// leader can be joined and the query mints without an f64 re-score;
/// when the re-scored best misses the threshold, so does the full
/// scan's.
///
/// **Ring order.** The candidates come back in slot order, and slot
/// order is admission order rotated at the ring's head. Re-scoring them
/// from the head around (slots `head..`, then `..head`) with a strict
/// `>` keeps the first strict maximum in admission order: every leader
/// admitted before the full scan's winner scores strictly less, and any
/// later one at most ties it. When two live leaders tie exactly and the
/// older sits in the higher slot, the older still wins.
///
/// **Zero query.** Every cosine against a zero query is `0.0`, so the
/// answer is the oldest live leader at `0.0`, given without a scan.
///
/// Debug builds check every screened scan against the f64 scan in
/// admission order.
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
    /// Leader vectors as a slot-indexed ring buffer, in f64 and in the
    /// 16-bit fixed-point screen copy. Slot `(head + k) % max_leaders`
    /// holds the `k`-th leader in admission order; when the table is full
    /// the oldest slot is overwritten in place (identical retirement
    /// order to the old push-then-pop deque). The row length is learned
    /// from the first admitted leader.
    rows: ScreenedRows,
    /// Cluster id per slot, parallel to `rows`.
    ids: Vec<u64>,
    /// Cached `l2_norm` per slot — a pure function of the stored row, so
    /// scoring with it is bit-identical to recomputing per probe.
    norms: Vec<f64>,
    /// Reused screen buffers, so the exact scan performs no per-request
    /// allocation.
    candidates: Candidates,
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
            rows: ScreenedRows::new(),
            ids: Vec::new(),
            norms: Vec::new(),
            candidates: Candidates::new(),
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
                probe.set(slot, &self.rows.exact().row(slot), self.norms[slot]);
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
    /// The answer stays bit-identical to probing each leader with
    /// [`Embedding::cosine`] in admission order (first strict maximum
    /// wins). The scan screens every leader in fixed point, seeded with
    /// the join threshold, and re-scores only the candidates, walking
    /// them oldest-first from the ring's head: each score is
    /// [`LaneRows::slot_dot`](modm_numerics::lanes::LaneRows::slot_dot)
    /// folded from `-0.0` (as `vector::dot`'s `Sum` does) finished with
    /// [`vector::cosine_with_norms`], the query norm hoisted out of the
    /// loop and leader norms cached at admission, all pure functions of
    /// the same values the naive probe reads. When no leader passes the
    /// seed, the query mints without an f64 score; the struct docs give
    /// the argument.
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
                    let s = self.cosine(slot, q, qn);
                    if s > sim {
                        (id, sim) = (newer, s);
                    }
                }
                Some((id, sim))
            }
            _ => self.full_scan(q, qn, self.threshold),
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
        // Every older live leader scores below the threshold, so the new
        // one wins if it reaches it. Otherwise (a zero embedding) rescan,
        // as the mint may have retired the old best.
        let sim = self.cosine(slot, q, qn);
        let (won, won_sim) = if sim >= self.threshold {
            (id, sim)
        } else {
            self.full_scan(q, qn, f64::NEG_INFINITY)
                .expect("a leader was just admitted")
        };
        *verdict = Some(LeaderVerdict {
            id: won,
            sim: won_sim,
            seen: self.next_id,
        });
        id
    }

    /// The id the next minted leader will get.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Whether [`SemanticClusterer::cluster_of_since`] would answer from
    /// `verdict` by extension alone, with no chance of a mint: the exact
    /// policy, the verdict's leader live and its score at the threshold.
    /// Extension only raises the score, so the answer then joins.
    pub(crate) fn resumes(&self, verdict: &LeaderVerdict) -> bool {
        let oldest = self.next_id - self.ids.len() as u64;
        self.approx.is_none()
            && verdict.sim >= self.threshold
            && (oldest..self.next_id).contains(&verdict.id)
    }

    /// The id of the leader the next mint retires, if the table is full.
    pub(crate) fn next_retiree(&self) -> Option<u64> {
        (self.ids.len() == self.max_leaders).then(|| self.next_id - self.ids.len() as u64)
    }

    /// Extends each set-aside verdict over the leaders minted from its
    /// `seen` up to its `until`, as [`SemanticClusterer::cluster_of_since`]
    /// would have at its visit, and sets its `seen` to its `until`.
    ///
    /// Each of `set_aside` is `(k, until, embedding)`: slot `k` of
    /// `images` holds the fixed-point copy of `embedding`, whose verdict
    /// is `verdicts[k]`, and `until` was the next cluster id at its
    /// visit. Each of these verdicts must have
    /// [`SemanticClusterer::resumes`]d at its visit, and no leader it
    /// needs may have retired since. The other verdicts are left alone.
    ///
    /// Each block of sixteen slots is screened in fixed point against
    /// every new leader it needs, one leader after another, so the block
    /// is read from memory once ([`QueryBlocks::block_scores`]). A
    /// verdict keeps a leader only if the integer score reaches
    /// [`ScreenedRows::seed_for`] at the verdict's own score: a leader it
    /// drops scores below the verdict, so the extension's strict `>`
    /// would never take it. A kept leader is scored as the extension
    /// scores it (`slot_dot` from `-0.0`, then
    /// [`vector::cosine_with_norms`]), and each verdict takes its leaders
    /// in admission order, so every verdict keeps its bits.
    pub(crate) fn resume_all(
        &self,
        images: &QueryBlocks,
        verdicts: &mut [LeaderVerdict],
        set_aside: &[(usize, u64, &Embedding)],
    ) {
        let (Some(first), Some(last)) = (
            set_aside.iter().map(|&(k, ..)| verdicts[k].seen).min(),
            set_aside.iter().map(|&(_, until, _)| until).max(),
        ) else {
            return;
        };
        let oldest = self.next_id - self.ids.len() as u64;
        debug_assert!(
            first >= oldest && last <= self.next_id,
            "a leader a resumed verdict needs has retired"
        );
        // Per block: each lane's seed (`i64::MAX`, which no score
        // reaches, for a slot not set aside) and entry of `set_aside`,
        // and the leaders its set-aside verdicts need.
        let mut blocks =
            vec![([i64::MAX; SCREEN_LANES], [0; SCREEN_LANES], u64::MAX, 0); images.blocks()];
        for (j, &(k, until, _)) in set_aside.iter().enumerate() {
            let (seeds, entries, from, to) = &mut blocks[k / SCREEN_LANES];
            (seeds[k % SCREEN_LANES], entries[k % SCREEN_LANES]) =
                (self.rows.seed_for(verdicts[k].sim), j);
            (*from, *to) = (verdicts[k].seen.min(*from), until.max(*to));
        }
        let leaders: Vec<(usize, FixedQuery)> = (first..last)
            .map(|id| {
                let slot = self.slot_at((id - oldest) as usize);
                let mut leader = FixedQuery::new();
                leader.set(&self.rows.exact().row(slot));
                (slot, leader)
            })
            .collect();
        for (b, (seeds, entries, from, to)) in blocks.iter().enumerate() {
            // A block whose best score misses its lowest seed keeps nothing.
            let floor = *seeds.iter().min().expect("non-empty");
            let mut norms = [None; SCREEN_LANES];
            for id in *from..*to {
                let (slot, leader) = &leaders[(id - first) as usize];
                let scores = images.block_scores(b, leader);
                if i64::from(scores.into_iter().max().expect("non-empty")) < floor {
                    continue;
                }
                for (lane, (score, &seed)) in scores.into_iter().zip(seeds).enumerate() {
                    if i64::from(score) < seed {
                        continue;
                    }
                    let (k, until, embedding) = set_aside[entries[lane]];
                    let v = &mut verdicts[k];
                    if id < v.seen || id >= until {
                        continue;
                    }
                    let q = embedding.as_slice();
                    let qn = *norms[lane].get_or_insert_with(|| vector::l2_norm(q));
                    let sim = self.cosine(*slot, q, qn);
                    if sim > v.sim {
                        (v.id, v.sim) = (id, sim);
                    }
                }
            }
        }
        for &(k, until, _) in set_aside {
            verdicts[k].seen = until;
        }
    }

    /// The exact scan's answer over every live leader — the first strict
    /// maximum in admission order — whenever it reaches `at_least`;
    /// otherwise `None` or a leader scoring below `at_least`. `None` on
    /// an empty table. Screens in fixed point seeded at `at_least`, then
    /// re-scores the candidates in admission order (see the struct docs).
    fn full_scan(&mut self, q: &[f64], qn: f64, at_least: f64) -> Option<(u64, f64)> {
        if self.ids.is_empty() {
            return None;
        }
        if qn == 0.0 {
            // Every cosine is 0.0: the oldest live leader is the first.
            return Some((self.ids[self.head], 0.0));
        }
        let seed = self.rows.seed_for(at_least);
        // Every slot the screen scores holds a live leader.
        self.rows.screen(q, |_| true, seed, &mut self.candidates);
        let head = self.head;
        let older = self.candidates.slots().filter(|&slot| slot >= head);
        let newer = self.candidates.slots().filter(|&slot| slot < head);
        let mut best: Option<(u64, f64)> = None;
        for slot in older.chain(newer) {
            let sim = self.cosine(slot, q, qn);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((self.ids[slot], sim));
            }
        }
        debug_assert!(
            {
                let full = (0..self.ids.len()).map(|k| self.slot_at(k)).fold(
                    None,
                    |best: Option<(u64, f64)>, slot| {
                        let sim = self.cosine(slot, q, qn);
                        if best.is_none_or(|(_, b)| sim > b) {
                            Some((self.ids[slot], sim))
                        } else {
                            best
                        }
                    },
                );
                let bits = |b: Option<(u64, f64)>| b.map(|(id, sim)| (id, sim.to_bits()));
                match full {
                    Some((_, sim)) if sim >= at_least => bits(best) == bits(full),
                    _ => best.is_none_or(|(_, sim)| sim < at_least),
                }
            },
            "the fixed-point screen changed the answer of the full f64 leader scan"
        );
        best
    }

    /// The cosine of the leader in `slot` against `q` of norm `qn`, as
    /// [`Embedding::cosine`] computes it.
    fn cosine(&self, slot: usize, q: &[f64], qn: f64) -> f64 {
        vector::cosine_with_norms(
            self.rows.exact().slot_dot(slot, q, -0.0),
            qn,
            self.norms[slot],
        )
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

    /// Basis vector `i` of length `dim`.
    fn axis(dim: usize, i: usize) -> Vec<f64> {
        let mut v = vec![0.0; dim];
        v[i] = 1.0;
        v
    }

    #[test]
    fn wrapped_ring_ties_go_to_the_older_leader_in_the_higher_slot() {
        // Twenty slots, three f64 blocks and two screen blocks. Nineteen
        // mutually orthogonal fillers, then `a` in slot 19; `b` wraps to
        // slot 0, retiring the first filler. `a` and `b` are the same
        // row with two coordinates swapped, and the query is symmetric in
        // them, so both score exactly the same cosine (0.866).
        let dim = 32;
        let mut c = SemanticClusterer::new(0.7, 20);
        for i in 0..19 {
            assert_eq!(
                c.cluster_of(&Embedding::from_vec(axis(dim, 3 + i))),
                i as u64
            );
        }
        let mut a = axis(dim, 0);
        a[2] = 1.0;
        let mut b = axis(dim, 1);
        b[2] = 1.0;
        let (a, b) = (Embedding::from_vec(a), Embedding::from_vec(b));
        assert!(a.cosine(&b) < 0.7, "b must mint its own cluster");
        assert_eq!(c.cluster_of(&a), 19);
        assert_eq!(c.cluster_of(&b), 20);
        assert_eq!((c.num_leaders(), c.head), (20, 1), "the ring wrapped");
        let mut q = vec![1.0, 1.0, 2.0];
        q.resize(dim, 0.0);
        let q = Embedding::from_vec(q);
        let sim = q.cosine(&a);
        assert_eq!(sim.to_bits(), q.cosine(&b).to_bits(), "an exact tie");
        assert!(sim >= 0.7);
        let mut verdict = None;
        assert_eq!(c.cluster_of_since(&q, &mut verdict), 19, "the older leader");
        let v = verdict.expect("a join leaves a verdict");
        assert_eq!((v.id, v.sim.to_bits(), v.seen), (19, sim.to_bits(), 21));
    }

    #[test]
    fn a_leader_the_screen_rounds_below_the_threshold_still_joins() {
        // The join threshold is set to the query's exact cosine with the
        // leader, so it must join, while its fixed-point score (computed
        // here independently) lies below S² times the threshold: only the
        // seed's error margin keeps it.
        let s = f64::from(i16::MAX);
        let fixed = |x: f64| (x * s).round_ties_even() as i64;
        let mut rng = modm_simkit::SimRng::seed_from(0x7E5E);
        let dim = 64;
        let (leader, q, cos) = (0..1_000)
            .find_map(|_| {
                let leader: Vec<f64> = (0..dim).map(|_| rng.standard_normal()).collect();
                let leader = Embedding::from_vec(leader);
                let q: Vec<f64> = leader
                    .as_slice()
                    .iter()
                    .map(|x| x + 0.1 * rng.standard_normal())
                    .collect();
                let q = Embedding::from_vec(q);
                let cos = q.cosine(&leader);
                let int: i64 = q
                    .as_slice()
                    .iter()
                    .zip(leader.as_slice())
                    .map(|(&x, &y)| fixed(x) * fixed(y))
                    .sum();
                (int < (s * s * cos).floor() as i64).then_some((leader, q, cos))
            })
            .expect("some query rounds below its cosine");
        assert!(cos > 0.0 && cos < 1.0);
        let mut c = SemanticClusterer::new(cos, 8);
        assert_eq!(c.cluster_of(&leader), 0);
        let mut verdict = None;
        assert_eq!(
            c.cluster_of_since(&q, &mut verdict),
            0,
            "joins at the threshold"
        );
        assert_eq!(verdict.map(|v| v.sim.to_bits()), Some(cos.to_bits()));
        assert_eq!(c.num_leaders(), 1);
    }

    #[test]
    fn zero_queries_answer_without_a_screen() {
        let enc = encoder();
        let mut c = SemanticClusterer::new(0.7, 4);
        let prompts = ["amber dune", "cobalt reef", "ivory spire", "jade marsh"];
        for p in prompts {
            c.cluster_of(&enc.encode(p));
        }
        // A join leaves the screen's candidates behind.
        assert_eq!(c.cluster_of(&enc.encode(prompts[2])), 2);
        let before: Vec<usize> = c.candidates.slots().collect();
        assert!(!before.is_empty());
        let zero = Embedding::from_vec(vec![0.0; enc.space().dim()]);
        let mut verdict = None;
        // The zero query mints (retiring the oldest leader, id 0), and
        // every cosine is 0.0: the oldest live leader, id 1, wins.
        assert_eq!(c.cluster_of_since(&zero, &mut verdict), 4);
        assert_eq!(verdict.map(|v| (v.id, v.sim.to_bits())), Some((1, 0)));
        let after: Vec<usize> = c.candidates.slots().collect();
        assert_eq!(after, before, "a zero query never reaches the screen");
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
