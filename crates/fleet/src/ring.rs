//! A consistent-hash ring mapping cluster ids to serving nodes, with
//! first-class dynamic membership.
//!
//! Each node owns `vnodes` pseudo-random points on a `u64` ring; a key is
//! served by the owner of the first point at or after its hash. Adding or
//! removing one node moves only the keys adjacent to that node's points —
//! ~`1/N` of the keyspace — which is what makes elastic scale-out/scale-in
//! cheap, while virtual nodes keep the per-node key share balanced. A
//! node's points depend only on its id, so `HashRing::new(9, v)` and
//! `HashRing::new(8, v)` + [`HashRing::add_node`]`(8)` are the same ring.

use std::fmt;

use modm_simkit::mix64;

/// Why a [`HashRing`] membership change was rejected.
///
/// Returned by the `try_*` membership methods; the panicking variants
/// format the same messages. Mid-run membership churn (tenant scripts,
/// region loss, elastic scale events) must surface these as values — a
/// control plane can decline a bad transition, a DES must never unwind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RingMembershipError {
    /// The node is already a ring member.
    AlreadyMember(usize),
    /// The node is not a ring member.
    NotAMember(usize),
    /// Removing the node would empty the ring.
    LastMember,
}

impl fmt::Display for RingMembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingMembershipError::AlreadyMember(n) => write!(f, "node {n} already on the ring"),
            RingMembershipError::NotAMember(n) => write!(f, "node {n} is not a ring member"),
            RingMembershipError::LastMember => write!(f, "cannot empty the ring"),
        }
    }
}

impl std::error::Error for RingMembershipError {}

/// A consistent-hash ring over a dynamic set of serving nodes.
///
/// # Example
///
/// ```
/// use modm_fleet::HashRing;
/// let mut ring = HashRing::new(8, 64);
/// let n = ring.node_for(42);
/// assert!(n < 8);
/// assert_eq!(n, ring.node_for(42), "placement is stable");
/// ring.add_node(8);
/// assert_eq!(ring.nodes(), 9);
/// ring.remove_node(8);
/// assert_eq!(n, ring.node_for(42), "add+remove restores placement");
/// ```
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring points sorted by position: `(position, node)`.
    points: Vec<(u64, usize)>,
    /// Member node ids, sorted.
    members: Vec<usize>,
    vnodes: usize,
}

impl HashRing {
    /// Default virtual nodes per physical node.
    pub const DEFAULT_VNODES: usize = 64;

    /// Builds a ring over nodes `0..nodes` with `vnodes` virtual points
    /// per node.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `vnodes` is zero.
    pub fn new(nodes: usize, vnodes: usize) -> Self {
        assert!(nodes > 0, "ring needs at least one node");
        assert!(vnodes > 0, "ring needs at least one virtual node");
        let mut ring = HashRing {
            points: Vec::with_capacity(nodes * vnodes),
            members: (0..nodes).collect(),
            vnodes,
        };
        for node in 0..nodes {
            ring.points
                .extend((0..vnodes).map(|r| (Self::point(node, r), node)));
        }
        ring.points.sort_unstable();
        ring
    }

    /// The position of virtual point `r` of `node`. Domain-separate ring
    /// points from lookup keys: without the tag, a small key k collides
    /// with node 0's vnode input `0 << 32 | k`, hashes to exactly that
    /// ring point, and every small key lands on node 0.
    fn point(node: usize, r: usize) -> u64 {
        const POINT_TAG: u64 = 0x5249_4E47_504F_494E; // "RING POIN"
        mix64(POINT_TAG ^ ((node as u64) << 32 | r as u64))
    }

    /// Number of member nodes.
    pub fn nodes(&self) -> usize {
        self.members.len()
    }

    /// True when `node` is a ring member.
    pub fn contains(&self, node: usize) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Adds `node` to the ring. Its virtual points depend only on its id,
    /// so re-adding a previously removed node restores its exact keyspace
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already a member.
    pub fn add_node(&mut self, node: usize) {
        if let Err(e) = self.try_add_node(node) {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`HashRing::add_node`].
    ///
    /// # Errors
    ///
    /// Returns [`RingMembershipError::AlreadyMember`] if `node` is already
    /// on the ring; the ring is unchanged on error.
    pub fn try_add_node(&mut self, node: usize) -> Result<(), RingMembershipError> {
        let pos = match self.members.binary_search(&node) {
            Ok(_) => return Err(RingMembershipError::AlreadyMember(node)),
            Err(pos) => pos,
        };
        self.members.insert(pos, node);
        self.points
            .extend((0..self.vnodes).map(|r| (Self::point(node, r), node)));
        self.points.sort_unstable();
        Ok(())
    }

    /// Removes `node` from the ring; its keyspace slice falls to the ring
    /// successors of its virtual points.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a member, or if it is the last one.
    pub fn remove_node(&mut self, node: usize) {
        if let Err(e) = self.try_remove_node(node) {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`HashRing::remove_node`].
    ///
    /// # Errors
    ///
    /// Returns [`RingMembershipError::LastMember`] if `node` is the only
    /// member, [`RingMembershipError::NotAMember`] if it is not one; the
    /// ring is unchanged on error.
    pub fn try_remove_node(&mut self, node: usize) -> Result<(), RingMembershipError> {
        if self.members.len() <= 1 {
            return Err(RingMembershipError::LastMember);
        }
        let pos = self
            .members
            .binary_search(&node)
            .map_err(|_| RingMembershipError::NotAMember(node))?;
        self.members.remove(pos);
        self.points.retain(|&(_, n)| n != node);
        Ok(())
    }

    /// The node owning `key`.
    pub fn node_for(&self, key: u64) -> usize {
        let h = mix64(key);
        // First point at or after the hash, wrapping at the ring's end.
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, node) = self.points[idx % self.points.len()];
        node
    }

    /// The first two *distinct* nodes on the ring at or after `key`'s
    /// hash: the owner and its ring successor (`None` on a 1-node ring).
    /// The successor is where the owner's keys fall on removal — the spill
    /// target for load-aware hybrid routing, and the handoff destination
    /// when the owner drains.
    pub fn two_for(&self, key: u64) -> (usize, Option<usize>) {
        let h = mix64(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        let (_, primary) = self.points[start % n];
        for step in 1..n {
            let (_, node) = self.points[(start + step) % n];
            if node != primary {
                return (primary, Some(node));
            }
        }
        (primary, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_nodes_roughly_evenly() {
        let ring = HashRing::new(8, HashRing::DEFAULT_VNODES);
        let mut counts = vec![0usize; 8];
        for key in 0..8_000u64 {
            counts[ring.node_for(key)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 0, "every node owns keys: {counts:?}");
        assert!(max < 3 * min, "imbalance too high: {counts:?}");
    }

    #[test]
    fn growing_the_ring_moves_few_keys() {
        let a = HashRing::new(8, 64);
        let b = HashRing::new(9, 64);
        let moved = (0..10_000u64)
            .filter(|&k| a.node_for(k) != b.node_for(k))
            .count();
        // Ideal churn on 8 -> 9 nodes is 1/9 of keys (~1111); allow slack
        // for vnode placement variance.
        assert!(moved < 2_500, "moved = {moved}");
    }

    #[test]
    fn add_node_equals_constructed_ring() {
        let mut grown = HashRing::new(8, 64);
        grown.add_node(8);
        let built = HashRing::new(9, 64);
        assert!((0..5_000u64).all(|k| grown.node_for(k) == built.node_for(k)));
    }

    #[test]
    fn remove_node_moves_only_the_victims_keys() {
        let full = HashRing::new(8, 64);
        let mut shrunk = full.clone();
        shrunk.remove_node(3);
        let total = 10_000u64;
        let mut moved = 0;
        for k in 0..total {
            let before = full.node_for(k);
            let after = shrunk.node_for(k);
            if before == 3 {
                assert_ne!(after, 3, "removed node owns nothing");
            } else {
                assert_eq!(before, after, "survivors keep their keys");
            }
            if before != after {
                moved += 1;
            }
        }
        // Only ~1/8 of keys (the removed node's share) may remap.
        assert!(moved < total as usize / 4, "moved = {moved}");
    }

    #[test]
    fn removed_keys_fall_to_ring_successor() {
        let full = HashRing::new(8, 64);
        let mut shrunk = full.clone();
        shrunk.remove_node(5);
        for k in 0..4_000u64 {
            let (primary, second) = full.two_for(k);
            if primary == 5 {
                assert_eq!(
                    shrunk.node_for(k),
                    second.expect("8-node ring has a successor"),
                    "key {k} falls to its ring successor"
                );
            }
        }
    }

    #[test]
    fn readding_restores_placement() {
        let original = HashRing::new(6, 32);
        let mut ring = original.clone();
        ring.remove_node(2);
        ring.add_node(2);
        assert!((0..3_000u64).all(|k| ring.node_for(k) == original.node_for(k)));
        assert_eq!(ring.nodes(), 6);
        assert!((0..6).all(|node| ring.contains(node)));
    }

    #[test]
    fn two_for_returns_distinct_nodes() {
        let ring = HashRing::new(4, 16);
        for k in 0..500u64 {
            let (a, b) = ring.two_for(k);
            let b = b.expect("4 nodes have successors");
            assert_ne!(a, b);
            assert_eq!(a, ring.node_for(k));
        }
    }

    #[test]
    fn single_node_ring() {
        let ring = HashRing::new(1, 4);
        assert!((0..100u64).all(|k| ring.node_for(k) == 0));
        assert_eq!(ring.two_for(7), (0, None));
    }

    #[test]
    #[should_panic(expected = "cannot empty the ring")]
    fn removing_last_node_rejected() {
        let mut ring = HashRing::new(1, 4);
        ring.remove_node(0);
    }

    #[test]
    #[should_panic(expected = "already on the ring")]
    fn double_add_rejected() {
        let mut ring = HashRing::new(2, 4);
        ring.add_node(1);
    }

    #[test]
    fn try_membership_reports_typed_errors_and_leaves_ring_intact() {
        let mut ring = HashRing::new(2, 4);
        let before = ring.clone();
        assert_eq!(
            ring.try_add_node(1).unwrap_err(),
            RingMembershipError::AlreadyMember(1)
        );
        assert_eq!(
            ring.try_remove_node(7).unwrap_err(),
            RingMembershipError::NotAMember(7)
        );
        assert_eq!(ring.nodes(), before.nodes(), "rejected ops are no-ops");
        assert!((0..500u64).all(|k| ring.node_for(k) == before.node_for(k)));

        let mut single = HashRing::new(1, 4);
        assert_eq!(
            single.try_remove_node(0).unwrap_err(),
            RingMembershipError::LastMember
        );
        assert!(ring.try_add_node(2).is_ok());
        assert!(ring.try_remove_node(2).is_ok());
        assert_eq!(ring.nodes(), 2);
    }
}
