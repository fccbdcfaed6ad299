//! An arena-backed intrusive doubly-linked list with a key→slot index.
//!
//! The cache maintenance queues (FIFO sliding window, S3-FIFO
//! small/main/ghost) need queue *order* plus O(1) membership tests and
//! O(1) removal of an arbitrary key — `VecDeque` gives the order but
//! costs O(n) for the other two (`iter().position()` + shifting
//! `remove`). [`IndexedList`] stores nodes in a slot arena (`Vec`, with a
//! free list for recycling), links them with `u32` slot indices instead
//! of pointers, and keeps an [`IdMap`] from key to slot, so `push_back` /
//! `pop_front` / `remove` / `contains` are all O(1) while iteration still
//! walks exact queue order.
//!
//! Keys are `u64` — the cache's image ids — and must be unique within a
//! list; [`IndexedList::push_back`] panics on a duplicate so a
//! desynchronized caller fails loudly instead of corrupting links.

use modm_simkit::IdMap;

/// Sentinel slot index meaning "no node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// A FIFO-ordered intrusive doubly-linked list over `u64` keys with O(1)
/// `push_back`, `pop_front`, `remove`, and `contains`.
///
/// # Example
///
/// ```
/// use modm_cache::IndexedList;
///
/// let mut q = IndexedList::new();
/// q.push_back(1);
/// q.push_back(2);
/// q.push_back(3);
/// assert!(q.remove(2));
/// assert_eq!(q.pop_front(), Some(1));
/// assert_eq!(q.pop_front(), Some(3));
/// assert_eq!(q.pop_front(), None);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedList {
    nodes: Vec<Node>,
    index: IdMap<u64, u32>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl Default for IndexedList {
    /// Must match [`IndexedList::new`]: a derived `Default` would zero
    /// `head`/`tail` instead of setting the `NIL` sentinel, which corrupts
    /// the links on the first `push_back`.
    fn default() -> Self {
        Self::new()
    }
}

impl IndexedList {
    /// Creates an empty list.
    pub fn new() -> Self {
        IndexedList {
            nodes: Vec::new(),
            index: IdMap::default(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of keys in the list.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the list holds no keys.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True when `key` is in the list.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// The oldest key, if any.
    pub fn front(&self) -> Option<u64> {
        (self.head != NIL).then(|| self.nodes[self.head as usize].key)
    }

    /// Appends `key` at the back (newest position).
    ///
    /// # Panics
    ///
    /// Panics if `key` is already in the list.
    pub fn push_back(&mut self, key: u64) {
        let node = Node {
            key,
            prev: self.tail,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s as usize] = node;
                s
            }
            None => {
                assert!(self.nodes.len() < NIL as usize, "IndexedList overflow");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        let prior = self.index.insert(key, slot);
        assert!(prior.is_none(), "duplicate key {key} pushed");
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
    }

    /// Removes and returns the oldest key.
    pub fn pop_front(&mut self) -> Option<u64> {
        let key = self.front()?;
        self.remove(key);
        Some(key)
    }

    /// Removes `key` from wherever it sits; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(slot) = self.index.remove(&key) else {
            return false;
        };
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.free.push(slot);
        true
    }

    /// Empties the list, keeping the arena allocation for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.index.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Iterates keys oldest-first (exact queue order).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            list: self,
            at: self.head,
        }
    }

    /// Verifies internal link/index consistency; used by property tests.
    /// Returns the keys in order if consistent, panics otherwise.
    pub fn check_links(&self) -> Vec<u64> {
        let forward: Vec<u64> = self.iter().collect();
        assert_eq!(forward.len(), self.len(), "iter length vs index length");
        // Walk backward and compare.
        let mut backward = Vec::new();
        let mut at = self.tail;
        while at != NIL {
            let node = self.nodes[at as usize];
            backward.push(node.key);
            at = node.prev;
        }
        backward.reverse();
        assert_eq!(forward, backward, "forward and backward walks disagree");
        for key in &forward {
            let slot = *self.index.get(key).expect("listed key indexed");
            assert_eq!(self.nodes[slot as usize].key, *key, "index points home");
        }
        forward
    }
}

/// Oldest-first iterator over an [`IndexedList`].
#[derive(Debug)]
pub struct Iter<'a> {
    list: &'a IndexedList,
    at: u32,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.at == NIL {
            return None;
        }
        let node = &self.list.nodes[self.at as usize];
        self.at = node.next;
        Some(node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = IndexedList::new();
        for k in [5, 3, 9, 1] {
            q.push_back(k);
        }
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![5, 3, 9, 1]);
        assert_eq!(q.front(), Some(5));
        assert_eq!(q.pop_front(), Some(5));
        assert_eq!(q.pop_front(), Some(3));
        q.push_back(7);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![9, 1, 7]);
    }

    #[test]
    fn remove_middle_head_tail() {
        let mut q = IndexedList::new();
        for k in 0..5 {
            q.push_back(k);
        }
        assert!(q.remove(2)); // middle
        assert!(q.remove(0)); // head
        assert!(q.remove(4)); // tail
        assert!(!q.remove(2)); // already gone
        assert_eq!(q.check_links(), vec![1, 3]);
    }

    #[test]
    fn slots_recycle() {
        let mut q = IndexedList::new();
        for round in 0..10 {
            for k in 0..8u64 {
                q.push_back(round * 100 + k);
            }
            for k in 0..8u64 {
                assert_eq!(q.pop_front(), Some(round * 100 + k));
            }
        }
        // Arena never grew past one round's worth of nodes.
        assert!(q.nodes.len() <= 8, "arena grew to {}", q.nodes.len());
        assert!(q.is_empty());
    }

    #[test]
    fn contains_and_len_track_membership() {
        let mut q = IndexedList::new();
        assert!(q.is_empty());
        q.push_back(42);
        assert!(q.contains(42));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(!q.contains(42));
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn default_is_equivalent_to_new() {
        // Regression: a derived Default zeroed head/tail instead of NIL.
        let mut q = IndexedList::default();
        q.push_back(3);
        q.push_back(8);
        assert_eq!(q.check_links(), vec![3, 8]);
        assert_eq!(q.pop_front(), Some(3));
        assert_eq!(q.check_links(), vec![8]);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_push_panics() {
        let mut q = IndexedList::new();
        q.push_back(1);
        q.push_back(1);
    }
}
