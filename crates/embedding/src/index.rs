//! Flat cosine-similarity index with removal support.
//!
//! The paper computes cache retrieval as a single batched cosine-similarity
//! matmul on GPU (0.05 s over 100k entries, §5.2). A flat scan over 64-d
//! vectors reproduces that cost profile in simulation and keeps results
//! exact; removals (FIFO eviction) are O(1) via slot recycling.
//!
//! Every row is stored twice, lane-blocked ([`ScreenedRows`]): in f64,
//! eight slots per block, and in 16-bit fixed point, sixteen slots per
//! block. [`EmbeddingIndex::nearest`] screens the live rows with exact
//! integer dot products, which read a quarter of the bytes and pass over
//! whole blocks that cannot reach the top, then re-scores in f64, in slot
//! order, only the rows whose integer score lies within twice a proven
//! quantization bound of the integer maximum (a handful). The best row in
//! f64 is always among them, so the answer is the one a full f64 scan
//! gives: every similarity is the f64 a serial dot product of the query
//! against the row produces (folded from `0.0` in component order, then
//! clamped to `[-1, 1]`), and the first strict maximum in slot order
//! wins, bit for bit. The bound needs unit (or zero) rows and queries,
//! which [`Embedding::from_vec`] guarantees. [`EmbeddingIndex::top_k`]
//! scans the f64 rows in full.

use std::collections::HashMap;

use modm_numerics::lanes::{ScreenedRows, LANES};

use crate::space::Embedding;

/// A search hit: the key of the stored embedding and its cosine similarity
/// to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor<K> {
    /// Key of the matching entry.
    pub key: K,
    /// Cosine similarity in `[-1, 1]`.
    pub similarity: f64,
}

/// An exact nearest-neighbor index over embeddings, keyed by `K`.
///
/// # Example
///
/// ```
/// use modm_embedding::{EmbeddingIndex, Embedding};
///
/// let mut idx = EmbeddingIndex::new();
/// idx.insert(1u64, Embedding::from_vec(vec![1.0, 0.0]));
/// idx.insert(2u64, Embedding::from_vec(vec![0.0, 1.0]));
/// let q = Embedding::from_vec(vec![0.9, 0.1]);
/// let best = idx.nearest(&q).unwrap();
/// assert_eq!(best.key, 1);
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingIndex<K> {
    /// Key per slot; `None` marks a removed slot awaiting reuse.
    keys: Vec<Option<K>>,
    /// Slot-parallel rows in f64 and 16-bit fixed point, lane-blocked so
    /// the scans score eight (f64) or sixteen (fixed point) slots per pass. Rows of removed slots
    /// keep their stale values (skipped via `keys`) until recycled; the
    /// row length is learned from the first insert.
    rows: ScreenedRows,
    free_slots: Vec<usize>,
    by_key: HashMap<K, usize>,
    live: usize,
}

impl<K: Copy + Eq + std::hash::Hash> Default for EmbeddingIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + std::hash::Hash> EmbeddingIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        EmbeddingIndex {
            keys: Vec::new(),
            rows: ScreenedRows::new(),
            free_slots: Vec::new(),
            by_key: HashMap::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts (or replaces) the embedding for `key`.
    ///
    /// # Panics
    ///
    /// Panics if `embedding`'s dimension differs from earlier inserts.
    pub fn insert(&mut self, key: K, embedding: Embedding) {
        let values = embedding.as_slice();
        if let Some(&slot) = self.by_key.get(&key) {
            self.rows.set(slot, values);
            return;
        }
        let slot = if let Some(s) = self.free_slots.pop() {
            self.rows.set(s, values);
            self.keys[s] = Some(key);
            s
        } else {
            let s = self.rows.push(values);
            self.keys.push(Some(key));
            s
        };
        self.by_key.insert(key, slot);
        self.live += 1;
    }

    /// Removes the entry for `key`; returns whether it existed.
    pub fn remove(&mut self, key: &K) -> bool {
        if let Some(slot) = self.by_key.remove(key) {
            self.keys[slot] = None;
            self.free_slots.push(slot);
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.by_key.contains_key(key)
    }

    /// Every live entry scored against `query` in f64, in slot order.
    /// Stored embeddings and queries are unit vectors
    /// ([`Embedding::from_vec`] normalizes), so each clamped dot product
    /// is their cosine.
    fn scored<'a>(&'a self, query: &'a Embedding) -> impl Iterator<Item = Neighbor<K>> + 'a {
        self.rows
            .exact()
            .block_dots(query.as_slice(), 0.0)
            .zip(self.keys.chunks(LANES))
            .flat_map(|(dots, keys)| {
                keys.iter().zip(dots).filter_map(|(key, dot)| {
                    key.map(|k| Neighbor {
                        key: k,
                        similarity: dot.clamp(-1.0, 1.0),
                    })
                })
            })
    }

    /// The single most similar entry to `query`, if any entry is live. Ties
    /// go to the lowest slot.
    ///
    /// Screens in 16-bit fixed point and re-scores the rows near the top
    /// in f64 ([`ScreenedRows::nearest`]); the result is bit-identical to
    /// taking the first strict maximum of a full f64 scan, which debug
    /// builds check on every call. That holds because every stored
    /// embedding and query is a unit or zero vector.
    ///
    /// # Panics
    ///
    /// Panics if `query`'s dimension differs from the inserted embeddings'.
    pub fn nearest(&self, query: &Embedding) -> Option<Neighbor<K>> {
        let best = self
            .rows
            .nearest(query.as_slice(), |slot| self.keys[slot].is_some())
            .map(|(slot, similarity)| Neighbor {
                key: self.keys[slot].expect("the screen answers live slots"),
                similarity,
            });
        debug_assert!(
            {
                let full = self
                    .scored(query)
                    .fold(None, |best: Option<Neighbor<K>>, hit| {
                        if best.is_none_or(|b| hit.similarity > b.similarity) {
                            Some(hit)
                        } else {
                            best
                        }
                    });
                let bits = |n: Option<Neighbor<K>>| n.map(|n| (n.key, n.similarity.to_bits()));
                bits(best) == bits(full)
            },
            "the fixed-point screen changed the answer of the full f64 scan"
        );
        best
    }

    /// The most similar entry at or above `threshold`, mirroring the paper's
    /// retrieval rule "retrieve only if S(q, I*) >= tau".
    ///
    /// # Panics
    ///
    /// Panics if `query`'s dimension differs from the inserted embeddings'.
    pub fn nearest_above(&self, query: &Embedding, threshold: f64) -> Option<Neighbor<K>> {
        self.nearest(query).filter(|n| n.similarity >= threshold)
    }

    /// The `k` most similar entries, best first; equal similarities keep
    /// slot order.
    ///
    /// # Panics
    ///
    /// Panics if `query`'s dimension differs from the inserted embeddings'.
    pub fn top_k(&self, query: &Embedding, k: usize) -> Vec<Neighbor<K>> {
        let mut hits: Vec<Neighbor<K>> = self.scored(query).collect();
        hits.sort_by(|a, b| b.similarity.partial_cmp(&a.similarity).expect("NaN sim"));
        hits.truncate(k);
        hits
    }

    /// Total bytes of embedding storage currently live (f32 accounting, as
    /// the paper's 0.29 GB figure uses GPU f32 tensors).
    pub fn storage_bytes(&self) -> usize {
        self.live * (self.rows.dim() * 4 + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb(v: Vec<f64>) -> Embedding {
        Embedding::from_vec(v)
    }

    #[test]
    fn nearest_finds_best_match() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0, 0.0]));
        idx.insert(2, emb(vec![0.0, 1.0, 0.0]));
        idx.insert(3, emb(vec![0.7, 0.7, 0.0]));
        let q = emb(vec![0.6, 0.8, 0.0]);
        let n = idx.nearest(&q).unwrap();
        assert_eq!(n.key, 3);
    }

    #[test]
    fn threshold_filters_weak_matches() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0]));
        let q = emb(vec![0.0, 1.0]);
        assert!(idx.nearest_above(&q, 0.25).is_none());
        assert!(idx.nearest_above(&q, -1.0).is_some());
    }

    #[test]
    fn removal_frees_and_recycles_slots() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0]));
        idx.insert(2, emb(vec![0.0, 1.0]));
        assert!(idx.remove(&1));
        assert!(!idx.remove(&1));
        assert_eq!(idx.len(), 1);
        // Removed entries never match.
        let q = emb(vec![1.0, 0.0]);
        assert_eq!(idx.nearest(&q).unwrap().key, 2);
        // Slot is recycled.
        idx.insert(3, emb(vec![1.0, 0.0]));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.nearest(&q).unwrap().key, 3);
    }

    #[test]
    fn top_k_sorted_descending() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0]));
        idx.insert(2, emb(vec![0.9, 0.1]));
        idx.insert(3, emb(vec![0.0, 1.0]));
        let q = emb(vec![1.0, 0.0]);
        let hits = idx.top_k(&q, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].key, 1);
        assert_eq!(hits[1].key, 2);
        assert!(hits[0].similarity >= hits[1].similarity);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(7, emb(vec![1.0, 0.0]));
        idx.insert(7, emb(vec![0.0, 1.0]));
        assert_eq!(idx.len(), 1);
        let q = emb(vec![0.0, 1.0]);
        let n = idx.nearest(&q).unwrap();
        assert!((n.similarity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_index_returns_none() {
        let idx: EmbeddingIndex<u64> = EmbeddingIndex::new();
        assert!(idx.nearest(&emb(vec![1.0, 0.0])).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn nearest_rejects_mismatched_query() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0, 0.0]));
        let _ = idx.nearest(&emb(vec![1.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn top_k_rejects_mismatched_query_after_removals() {
        let mut idx = EmbeddingIndex::new();
        idx.insert(1, emb(vec![1.0, 0.0, 0.0]));
        idx.remove(&1);
        let _ = idx.top_k(&emb(vec![1.0, 0.0, 0.0, 0.0]), 1);
    }

    #[test]
    fn storage_bytes_scale() {
        let mut idx = EmbeddingIndex::new();
        for i in 0..100u64 {
            idx.insert(i, emb(vec![1.0; 64]));
        }
        assert_eq!(idx.storage_bytes(), 100 * (64 * 4 + 16));
    }
}
