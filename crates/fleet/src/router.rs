//! The fleet front-end: pluggable request-to-node routing policies over a
//! dynamic node set.
//!
//! The router sees every request before any node does, exactly like the
//! front-end load balancer of a production deployment. Four policies:
//!
//! * [`RoutingPolicy::RoundRobin`] — classic rotation; ignores both load
//!   and semantics.
//! * [`RoutingPolicy::LeastLoaded`] — picks the node with the smallest
//!   outstanding backlog (queued + in-flight work), the "join the shortest
//!   queue" baseline.
//! * [`RoutingPolicy::CacheAffinity`] — consistent-hashes the prompt
//!   embedding's coarse semantic cluster onto the node ring, so similar
//!   prompts land on the same shard and its cache keeps the session's
//!   images. This is the fleet-level analogue of MoDM's single-node cache
//!   locality argument.
//! * [`RoutingPolicy::HybridAffinity`] — cache-affinity with load-aware
//!   spill: when the primary shard's backlog exceeds
//!   [`Router::DEFAULT_SPILL_THRESHOLD`] × the mean and the ring successor
//!   is less loaded, the request goes to the successor instead. Trades a
//!   sliver of hit rate for bounded skew at high node counts.
//!
//! Membership is dynamic: a control plane can [`Router::add_node`] /
//! [`Router::remove_node`] mid-run, and every policy immediately routes
//! over the new active set — the primitive behind elastic scale-out,
//! draining and crash handling in `modm-controlplane`.

use std::collections::HashMap;
use std::fmt;

use modm_diffusion::{GeneratedImage, ImageId};
use modm_embedding::{Embedding, IndexPolicy};

use crate::affinity::{LeaderVerdict, SemanticClusterer};
use crate::ring::HashRing;

/// Why a [`Router`] configuration was rejected.
///
/// Returned by [`RoutingConfig::try_build`] and the `try_*` membership
/// edits; the panicking variants format the same messages.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RouterConfigError {
    /// The fleet had zero nodes.
    NoNodes,
    /// The consistent-hash ring had zero virtual nodes per node.
    NoVnodes,
    /// The hybrid-affinity spill threshold was below 1.0 (spilling below
    /// the mean would invert the policy).
    SpillThresholdBelowMean(f64),
    /// A membership change tried to admit a node that is already active.
    NodeAlreadyActive(usize),
    /// A membership change named a node that is not active.
    NodeNotActive(usize),
    /// A membership change would have emptied the active set.
    LastActiveNode,
}

impl fmt::Display for RouterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterConfigError::NoNodes => write!(f, "fleet needs at least one node"),
            RouterConfigError::NoVnodes => write!(f, "ring needs at least one virtual node"),
            RouterConfigError::SpillThresholdBelowMean(t) => {
                write!(f, "spill threshold below the mean: {t}")
            }
            RouterConfigError::NodeAlreadyActive(n) => write!(f, "node {n} already active"),
            RouterConfigError::NodeNotActive(n) => write!(f, "node {n} is not active"),
            RouterConfigError::LastActiveNode => {
                write!(f, "cannot remove the last active node")
            }
        }
    }
}

impl std::error::Error for RouterConfigError {}

/// One validated builder for every [`Router`] knob; [`Router::new`] is
/// its all-defaults shorthand.
///
/// # Example
///
/// ```
/// use modm_fleet::{RoutingConfig, RoutingPolicy};
/// use modm_embedding::IndexPolicy;
///
/// let router = RoutingConfig::new(RoutingPolicy::HybridAffinity, 16)
///     .spill_threshold(2.0)
///     .index_policy(IndexPolicy::Approx)
///     .try_build()
///     .expect("valid config");
/// assert_eq!(router.nodes(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingConfig {
    policy: RoutingPolicy,
    nodes: usize,
    vnodes: usize,
    spill_threshold: f64,
    clusterer: Option<SemanticClusterer>,
    index_policy: Option<IndexPolicy>,
}

impl RoutingConfig {
    /// Starts a config for `nodes` nodes under `policy`, with default
    /// affinity parameters ([`SemanticClusterer::DEFAULT_THRESHOLD`],
    /// [`HashRing::DEFAULT_VNODES`],
    /// [`Router::DEFAULT_SPILL_THRESHOLD`], exact leader probe).
    pub fn new(policy: RoutingPolicy, nodes: usize) -> Self {
        RoutingConfig {
            policy,
            nodes,
            vnodes: HashRing::DEFAULT_VNODES,
            spill_threshold: Router::DEFAULT_SPILL_THRESHOLD,
            clusterer: None,
            index_policy: None,
        }
    }

    /// Overrides the virtual nodes per node on the affinity ring.
    pub fn vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Overrides the hybrid-affinity spill threshold (multiple of the
    /// mean active backlog above which the primary spills).
    pub fn spill_threshold(mut self, threshold: f64) -> Self {
        self.spill_threshold = threshold;
        self
    }

    /// Supplies a pre-built (possibly pre-warmed) clusterer instead of
    /// the default one.
    pub fn clusterer(mut self, clusterer: SemanticClusterer) -> Self {
        self.clusterer = Some(clusterer);
        self
    }

    /// Selects the leader-probe backend. Applies to the default clusterer
    /// or to one supplied via [`RoutingConfig::clusterer`] (rebuilding its
    /// sidecar if it was pre-warmed); when omitted, a supplied clusterer
    /// keeps whatever policy it was built with.
    pub fn index_policy(mut self, policy: IndexPolicy) -> Self {
        self.index_policy = Some(policy);
        self
    }

    /// Validates every knob and builds the router.
    ///
    /// # Errors
    ///
    /// [`RouterConfigError::NoNodes`] for zero nodes,
    /// [`RouterConfigError::NoVnodes`] for zero virtual nodes, and
    /// [`RouterConfigError::SpillThresholdBelowMean`] for a spill
    /// threshold below 1.0.
    pub fn try_build(self) -> Result<Router, RouterConfigError> {
        if self.nodes == 0 {
            return Err(RouterConfigError::NoNodes);
        }
        if self.vnodes == 0 {
            return Err(RouterConfigError::NoVnodes);
        }
        if self.spill_threshold < 1.0 {
            return Err(RouterConfigError::SpillThresholdBelowMean(
                self.spill_threshold,
            ));
        }
        let mut clusterer = self
            .clusterer
            .unwrap_or_else(SemanticClusterer::default_config);
        if let Some(policy) = self.index_policy {
            clusterer.set_index_policy(policy);
        }
        Ok(Router {
            policy: self.policy,
            active: (0..self.nodes).collect(),
            rr_next: 0,
            clusterer,
            ring: HashRing::new(self.nodes, self.vnodes),
            routed: vec![0; self.nodes],
            spill_threshold: self.spill_threshold,
            verdicts: HashMap::new(),
            visit: 0,
        })
    }

    /// Panicking variant of [`RoutingConfig::try_build`].
    ///
    /// # Panics
    ///
    /// Panics on any error [`RoutingConfig::try_build`] reports.
    pub fn build(self) -> Router {
        match self.try_build() {
            Ok(router) => router,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Which routing policy the fleet front-end runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// Rotate assignments over nodes.
    RoundRobin,
    /// Route to the node with the smallest current backlog.
    LeastLoaded,
    /// Consistent-hash the prompt's coarse semantic cluster to a node.
    #[default]
    CacheAffinity,
    /// Cache-affinity with load-aware spill to the second ring choice.
    HybridAffinity,
}

impl RoutingPolicy {
    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoaded => "least-loaded",
            RoutingPolicy::CacheAffinity => "cache-affinity",
            RoutingPolicy::HybridAffinity => "hybrid-affinity",
        }
    }
}

/// The front-end router: assigns each request to one of the active nodes.
///
/// Node ids are stable identifiers (they double as shard indexes); the
/// *active* set — the nodes receiving new traffic — can change over time.
/// `loads` slices passed to [`Router::route`] are indexed by node id and
/// must cover every active id.
///
/// # Example
///
/// ```
/// use modm_fleet::{Router, RoutingPolicy};
/// use modm_embedding::{SemanticSpace, TextEncoder};
///
/// let enc = TextEncoder::new(SemanticSpace::default());
/// let mut router = Router::new(RoutingPolicy::CacheAffinity, 4);
/// let e = enc.encode("crystal harbor at dawn");
/// let n1 = router.route(&e, &[0.0; 4]);
/// let n2 = router.route(&e, &[0.0; 4]);
/// assert_eq!(n1, n2, "affinity routing is stable per prompt");
/// ```
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutingPolicy,
    /// Active node ids, sorted ascending.
    active: Vec<usize>,
    /// Monotone rotation counter for round-robin.
    rr_next: usize,
    clusterer: SemanticClusterer,
    ring: HashRing,
    /// Requests routed per node id (grows as nodes are added).
    routed: Vec<u64>,
    spill_threshold: f64,
    /// Each migrated image's last exact leader verdict, stamped with the
    /// migration pass that placed it (see [`Router::shard_for_image`]).
    verdicts: HashMap<ImageId, (LeaderVerdict, u64)>,
    /// The current migration pass; [`Router::sweeping_verdicts`] starts
    /// a new one.
    visit: u64,
}

impl Router {
    /// Hybrid-affinity spill point: the primary shard spills to its ring
    /// successor once its backlog exceeds this multiple of the mean active
    /// backlog. 1.5 keeps spills rare enough that the hit rate stays near
    /// pure affinity while capping the worst-case skew.
    pub const DEFAULT_SPILL_THRESHOLD: f64 = 1.5;

    /// Creates a router over nodes `0..nodes` with default affinity
    /// parameters ([`SemanticClusterer::DEFAULT_THRESHOLD`] join
    /// threshold, [`HashRing::DEFAULT_VNODES`] virtual nodes).
    ///
    /// Equivalent to `RoutingConfig::new(policy, nodes).build()`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(policy: RoutingPolicy, nodes: usize) -> Self {
        RoutingConfig::new(policy, nodes).build()
    }

    /// The routing policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Number of nodes currently receiving traffic.
    pub fn nodes(&self) -> usize {
        self.active.len()
    }

    /// Active node ids, ascending.
    pub fn active_nodes(&self) -> &[usize] {
        &self.active
    }

    /// True when `node` is in the active set.
    pub fn is_active(&self, node: usize) -> bool {
        self.active.binary_search(&node).is_ok()
    }

    /// Admits `node` into the active set (and onto the affinity ring) —
    /// the control plane calls this when a node finishes warming.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already active.
    pub fn add_node(&mut self, node: usize) {
        if let Err(e) = self.try_add_node(node) {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`Router::add_node`].
    ///
    /// # Errors
    ///
    /// Returns [`RouterConfigError::NodeAlreadyActive`] if `node` is
    /// already in the active set; the router is unchanged on error.
    pub fn try_add_node(&mut self, node: usize) -> Result<(), RouterConfigError> {
        let pos = match self.active.binary_search(&node) {
            Ok(_) => return Err(RouterConfigError::NodeAlreadyActive(node)),
            Err(pos) => pos,
        };
        self.active.insert(pos, node);
        if !self.ring.contains(node) {
            self.ring
                .try_add_node(node)
                .expect("active set and ring agree on membership");
        }
        if self.routed.len() <= node {
            self.routed.resize(node + 1, 0);
        }
        Ok(())
    }

    /// Removes `node` from the active set and the affinity ring: no new
    /// requests will route to it, and its keyspace slice falls to its ring
    /// successors — the first step of draining or crash handling.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not active, or if it is the last active node.
    pub fn remove_node(&mut self, node: usize) {
        if let Err(e) = self.try_remove_node(node) {
            panic!("{e}");
        }
    }

    /// Fallible variant of [`Router::remove_node`].
    ///
    /// # Errors
    ///
    /// Returns [`RouterConfigError::LastActiveNode`] if `node` is the only
    /// active node, [`RouterConfigError::NodeNotActive`] if it is not
    /// active; the router is unchanged on error.
    pub fn try_remove_node(&mut self, node: usize) -> Result<(), RouterConfigError> {
        if self.active.len() <= 1 {
            return Err(RouterConfigError::LastActiveNode);
        }
        let pos = self
            .active
            .binary_search(&node)
            .map_err(|_| RouterConfigError::NodeNotActive(node))?;
        self.active.remove(pos);
        self.ring
            .try_remove_node(node)
            .expect("active set and ring agree on membership");
        Ok(())
    }

    /// The affinity clusterer behind [`Router::shard_for`].
    pub fn clusterer(&self) -> &SemanticClusterer {
        &self.clusterer
    }

    /// Requests routed to each node id so far.
    pub fn routed_per_node(&self) -> &[u64] {
        &self.routed
    }

    /// Max-over-mean of the per-node routed counts over nodes that saw
    /// any traffic-eligible id (1.0 = perfectly even). Zero before any
    /// request was routed.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.routed.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = *self.routed.iter().max().expect("non-empty") as f64;
        max / (total as f64 / self.active.len() as f64)
    }

    /// The shard the affinity mapping assigns to `embedding`, independent
    /// of the active policy. This is the placement function shard
    /// rebalancing and drain handoff use. (Mutable because the online
    /// clusterer may mint a new leader for a first-seen semantic
    /// neighborhood.)
    pub fn shard_for(&mut self, embedding: &Embedding) -> usize {
        self.ring.node_for(self.clusterer.cluster_of(embedding))
    }

    /// [`Router::shard_for`] of a resident image's embedding, resumed
    /// from the leader verdict its last placement left: only leaders
    /// minted since are scored, and the answer is bit-identical to
    /// `shard_for(&image.embedding)`. Shard migration re-places the same
    /// images on every membership change, which is where this pays.
    ///
    /// Verdicts are keyed by [`ImageId`], so every image placed through
    /// one router must carry a distinct id for its embedding. Ids are
    /// unique per `Sampler`, and each tier runs one sampler per run.
    pub fn shard_for_image(&mut self, image: &GeneratedImage) -> usize {
        let mut verdict = self.verdicts.get(&image.id).map(|&(v, _)| v);
        let cluster = self
            .clusterer
            .cluster_of_since(&image.embedding, &mut verdict);
        match verdict {
            Some(v) => {
                self.verdicts.insert(image.id, (v, self.visit));
            }
            None => {
                self.verdicts.remove(&image.id);
            }
        }
        self.ring.node_for(cluster)
    }

    /// Leader verdicts currently kept for migrated images.
    pub fn num_verdicts(&self) -> usize {
        self.verdicts.len()
    }

    /// Runs `pull`, a migration pass that places every resident image
    /// off one shard through [`Router::shard_for_image`], then drops the
    /// verdicts of images it did not place: those are no longer resident.
    pub(crate) fn sweeping_verdicts<R>(&mut self, pull: impl FnOnce(&mut Router) -> R) -> R {
        self.visit += 1;
        let out = pull(self);
        let visit = self.visit;
        self.verdicts.retain(|_, &mut (_, placed)| placed == visit);
        out
    }

    /// Drops the verdicts of images `resident` rejects.
    pub(crate) fn retain_verdicts(&mut self, mut resident: impl FnMut(ImageId) -> bool) {
        self.verdicts.retain(|&id, _| resident(id));
    }

    /// Whether [`Router::route`] reads its `loads` argument. Pure
    /// affinity and round-robin never do, so callers maintaining an
    /// expensive load snapshot can skip collecting it.
    pub fn needs_loads(&self) -> bool {
        matches!(
            self.policy,
            RoutingPolicy::LeastLoaded | RoutingPolicy::HybridAffinity
        )
    }

    /// Routes one request. `loads` is the per-node-id outstanding backlog
    /// (queued plus in-flight work, in any consistent unit); the
    /// load-aware policies consult it. Policies for which
    /// [`Router::needs_loads`] is false ignore it (an empty slice is
    /// fine).
    ///
    /// # Panics
    ///
    /// Panics if the policy consults loads and `loads` does not cover
    /// every active node id.
    pub fn route(&mut self, embedding: &Embedding, loads: &[f64]) -> usize {
        assert!(
            !self.needs_loads() || self.active.last().is_none_or(|&max| max < loads.len()),
            "loads must cover every active node id"
        );
        modm_simkit::profile::timed(modm_simkit::profile::Subsystem::Routing, || {
            self.route_inner(embedding, loads)
        })
    }

    fn route_inner(&mut self, embedding: &Embedding, loads: &[f64]) -> usize {
        let node = match self.policy {
            RoutingPolicy::RoundRobin => {
                let n = self.active[self.rr_next % self.active.len()];
                self.rr_next = (self.rr_next + 1) % self.active.len();
                n
            }
            RoutingPolicy::LeastLoaded => {
                let mut best = self.active[0];
                let mut best_load = f64::INFINITY;
                for &i in &self.active {
                    if loads[i] < best_load {
                        best_load = loads[i];
                        best = i;
                    }
                }
                best
            }
            RoutingPolicy::CacheAffinity => self.shard_for(embedding),
            RoutingPolicy::HybridAffinity => {
                let cluster = self.clusterer.cluster_of(embedding);
                let (primary, second) = self.ring.two_for(cluster);
                match second {
                    Some(second) if self.should_spill(loads, primary, second) => second,
                    _ => primary,
                }
            }
        };
        self.routed[node] += 1;
        node
    }

    /// Hybrid-affinity spill test: the primary is hot relative to the
    /// active mean *and* the successor is actually less loaded. The
    /// `max(1.0)` floor keeps a near-idle fleet on pure affinity, where
    /// skew is harmless and locality is everything.
    fn should_spill(&self, loads: &[f64], primary: usize, second: usize) -> bool {
        let mean = self.active.iter().map(|&i| loads[i]).sum::<f64>() / self.active.len() as f64;
        loads[primary] > self.spill_threshold * mean.max(1.0) && loads[second] < loads[primary]
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
    fn round_robin_rotates() {
        let enc = encoder();
        let e = enc.encode("any prompt at all");
        let mut r = Router::new(RoutingPolicy::RoundRobin, 3);
        let seq: Vec<usize> = (0..6).map(|_| r.route(&e, &[0.0; 3])).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
        assert!((r.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_loaded_picks_minimum() {
        let enc = encoder();
        let e = enc.encode("another prompt");
        let mut r = Router::new(RoutingPolicy::LeastLoaded, 4);
        assert_eq!(r.route(&e, &[3.0, 1.0, 2.0, 5.0]), 1);
        assert_eq!(r.route(&e, &[0.5, 1.0, 0.5, 5.0]), 0, "ties go low");
    }

    #[test]
    fn affinity_groups_similar_prompts() {
        let enc = encoder();
        let mut r = Router::new(RoutingPolicy::CacheAffinity, 8);
        let base = "ancient dragon soaring mountains dusk oil painting moody";
        let mut grouped = 0;
        let n = 100;
        for i in 0..n {
            let a = r.route(&enc.encode(&format!("{base} golden")), &[0.0; 8]);
            let b = r.route(&enc.encode(&format!("{base} var{i}")), &[0.0; 8]);
            if a == b {
                grouped += 1;
            }
        }
        assert!(
            grouped * 100 / n >= 70,
            "session co-location = {grouped}/{n}"
        );
    }

    #[test]
    fn affinity_uses_every_node_on_diverse_traffic() {
        let enc = encoder();
        let mut r = Router::new(RoutingPolicy::CacheAffinity, 8);
        for i in 0..800 {
            let e = enc.encode(&format!("distinct scene {i} tokens {}", i * 17));
            r.route(&e, &[0.0; 8]);
        }
        assert!(
            r.routed_per_node().iter().all(|&c| c > 0),
            "every node sees traffic: {:?}",
            r.routed_per_node()
        );
    }

    #[test]
    fn hybrid_stays_on_primary_when_balanced() {
        let enc = encoder();
        let mut affinity = Router::new(RoutingPolicy::CacheAffinity, 8);
        let mut hybrid = Router::new(RoutingPolicy::HybridAffinity, 8);
        for i in 0..200 {
            let e = enc.encode(&format!("steady scene {i} tokens {}", i * 13));
            // Balanced, near-idle fleet: hybrid must match pure affinity.
            assert_eq!(hybrid.route(&e, &[0.5; 8]), affinity.route(&e, &[0.5; 8]));
        }
    }

    #[test]
    fn hybrid_spills_from_overloaded_primary() {
        let enc = encoder();
        let mut probe = Router::new(RoutingPolicy::CacheAffinity, 8);
        let mut hybrid = Router::new(RoutingPolicy::HybridAffinity, 8);
        let e = enc.encode("volcanic archipelago sunrise fresco");
        let primary = probe.route(&e, &[0.0; 8]);
        // Load the primary far above the mean: hybrid must divert, and to
        // a consistent successor (so the spilled session still co-locates).
        let mut loads = [1.0; 8];
        loads[primary] = 40.0;
        let spill = hybrid.route(&e, &loads);
        assert_ne!(spill, primary, "hot primary must spill");
        assert_eq!(hybrid.route(&e, &loads), spill, "spill target is stable");
        // Relieve the primary: traffic returns home.
        loads[primary] = 1.0;
        assert_eq!(hybrid.route(&e, &loads), primary);
    }

    #[test]
    fn membership_changes_reroute_traffic() {
        let enc = encoder();
        let mut r = Router::new(RoutingPolicy::CacheAffinity, 4);
        let e = enc.encode("lighthouse keeper stormy night etching");
        let home = r.route(&e, &[0.0; 4]);
        r.remove_node(home);
        assert!(!r.is_active(home));
        let fallback = r.route(&e, &[0.0; 4]);
        assert_ne!(fallback, home, "removed node receives nothing");
        // Re-adding restores the original placement (ring points are
        // id-deterministic).
        r.add_node(home);
        assert_eq!(r.route(&e, &[0.0; 4]), home);
    }

    #[test]
    fn round_robin_skips_removed_nodes() {
        let enc = encoder();
        let e = enc.encode("any prompt");
        let mut r = Router::new(RoutingPolicy::RoundRobin, 3);
        r.remove_node(1);
        let seq: Vec<usize> = (0..4).map(|_| r.route(&e, &[0.0; 3])).collect();
        assert!(seq.iter().all(|&n| n != 1), "{seq:?}");
    }

    #[test]
    fn add_node_grows_routed_counters() {
        let enc = encoder();
        let e = enc.encode("prompt");
        let mut r = Router::new(RoutingPolicy::RoundRobin, 2);
        r.add_node(5);
        for _ in 0..6 {
            r.route(&e, &[0.0; 6]);
        }
        assert_eq!(r.routed_per_node()[5], 2, "new id is rotated in");
    }

    #[test]
    #[should_panic(expected = "last active node")]
    fn removing_last_node_rejected() {
        let mut r = Router::new(RoutingPolicy::RoundRobin, 1);
        r.remove_node(0);
    }

    #[test]
    fn try_constructors_report_typed_errors() {
        // The error paths of the former fallible constructors, through the
        // one builder: a supplied clusterer does not bypass validation.
        let affinity = |vnodes| {
            RoutingConfig::new(RoutingPolicy::CacheAffinity, 4)
                .clusterer(SemanticClusterer::default_config())
                .vnodes(vnodes)
                .try_build()
        };
        assert_eq!(affinity(0).unwrap_err(), RouterConfigError::NoVnodes);
        assert!(affinity(HashRing::DEFAULT_VNODES).is_ok());
        assert_eq!(
            RoutingConfig::new(RoutingPolicy::HybridAffinity, 4)
                .clusterer(SemanticClusterer::default_config())
                .spill_threshold(0.5)
                .try_build()
                .unwrap_err(),
            RouterConfigError::SpillThresholdBelowMean(0.5)
        );
        assert!(RoutingConfig::new(RoutingPolicy::HybridAffinity, 4)
            .spill_threshold(1.0)
            .try_build()
            .is_ok());
    }

    #[test]
    fn routing_config_validates_every_knob() {
        assert_eq!(
            RoutingConfig::new(RoutingPolicy::RoundRobin, 0)
                .try_build()
                .unwrap_err(),
            RouterConfigError::NoNodes
        );
        assert_eq!(
            RoutingConfig::new(RoutingPolicy::CacheAffinity, 4)
                .vnodes(0)
                .try_build()
                .unwrap_err(),
            RouterConfigError::NoVnodes
        );
        assert_eq!(
            RoutingConfig::new(RoutingPolicy::HybridAffinity, 4)
                .spill_threshold(0.5)
                .try_build()
                .unwrap_err(),
            RouterConfigError::SpillThresholdBelowMean(0.5)
        );
        let r = RoutingConfig::new(RoutingPolicy::CacheAffinity, 4)
            .index_policy(IndexPolicy::Approx)
            .try_build()
            .expect("valid");
        assert_eq!(r.nodes(), 4);
    }

    #[test]
    fn routing_config_approx_agrees_with_exact_routing() {
        // The headline property behind the approximate leader probe: on a
        // session-heavy stream, per-request node choices agree with the
        // exact scan on >= 95% of decisions.
        let enc = encoder();
        let mut exact = RoutingConfig::new(RoutingPolicy::CacheAffinity, 16).build();
        let mut approx = RoutingConfig::new(RoutingPolicy::CacheAffinity, 16)
            .index_policy(IndexPolicy::Approx)
            .build();
        let mut agree = 0;
        let total = 800;
        for i in 0..total {
            let base = i % 200;
            let e = enc.encode(&format!(
                "world{base} biome{base} hero{base} deed{base} hour{base} medium{base} \
                 mood{base} prop{base} tone{base} lens{base} visit{}",
                i / 200
            ));
            if exact.route(&e, &[0.0; 16]) == approx.route(&e, &[0.0; 16]) {
                agree += 1;
            }
        }
        assert!(agree * 100 / total >= 95, "agreement {agree}/{total}");
    }

    #[test]
    fn try_membership_reports_typed_errors_and_leaves_router_intact() {
        let enc = encoder();
        let e = enc.encode("membership probe prompt");
        let mut r = Router::new(RoutingPolicy::CacheAffinity, 3);
        let home = r.route(&e, &[0.0; 3]);
        assert_eq!(
            r.try_add_node(1).unwrap_err(),
            RouterConfigError::NodeAlreadyActive(1)
        );
        assert_eq!(
            r.try_remove_node(9).unwrap_err(),
            RouterConfigError::NodeNotActive(9)
        );
        assert_eq!(r.active_nodes(), &[0, 1, 2], "rejected ops are no-ops");
        assert_eq!(r.route(&e, &[0.0; 3]), home, "routing is undisturbed");

        let mut single = Router::new(RoutingPolicy::RoundRobin, 1);
        assert_eq!(
            single.try_remove_node(0).unwrap_err(),
            RouterConfigError::LastActiveNode
        );
        assert!(r.try_add_node(3).is_ok());
        assert!(r.try_remove_node(3).is_ok());
        assert_eq!(r.nodes(), 3);
    }
}
