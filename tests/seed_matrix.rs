//! Seed-matrix equivalence suite for the O(1) DES rebuild.
//!
//! PR 9 swapped the simulator's inner structures — positional deque
//! scans in the cache became arena-backed intrusive lists, the event
//! queue grew a front-slot fast path, and the affinity clusterer moved
//! to a flat matrix with cached norms — under a strict contract: every
//! run stays bit-identical. These tests pin that contract from both
//! ends, swept across the CI seed matrix:
//!
//! * **reference models** — the rebuilt structures replayed op-for-op
//!   against naive models with the documented semantics (a stably
//!   sorted vector for the event queue, a `VecDeque` for the intrusive
//!   list, an admission-ordered linear scan for the clusterer, and a
//!   row-at-a-time serial scan for the lane-blocked flat index, compared
//!   on similarity bits);
//! * **run-to-run determinism** — every serving tier (single node,
//!   fleet, elastic, scenario) executed twice per seed and compared on
//!   its full debug rendering, so any hidden iteration-order or
//!   float-reassociation drift fails loudly.

use std::collections::VecDeque;

use modm::cache::IndexedList;
use modm::cluster::GpuKind;
use modm::controlplane::{FaultInjector, FleetEventKind};
use modm::core::MoDMConfig;
use modm::deploy::{Deployment, LifecyclePlan, ServingBackend};
use modm::embedding::{Embedding, EmbeddingIndex, IndexPolicy};
use modm::fleet::{Fleet, LeaderVerdict, Router, RoutingConfig, RoutingPolicy, SemanticClusterer};
use modm::scenario::RetryPolicy;
use modm::simkit::{EventQueue, SimRng, SimTime};
use modm::workload::TraceBuilder;
use modm_experiments::elastic::{diurnal_trace, elastic_fleet, node_config, predictive};
use modm_experiments::scenarios::storm_scenario_for;

/// Seeds the equivalence sweeps run under. Defaults to `[1]`; CI's
/// seed-matrix job widens the sweep with e.g. `MODM_TEST_SEEDS="1 7 42"`.
fn sweep_seeds() -> Vec<u64> {
    match std::env::var("MODM_TEST_SEEDS") {
        Ok(s) => {
            let seeds: Vec<u64> = s
                .split_whitespace()
                .map(|tok| tok.parse().expect("MODM_TEST_SEEDS: u64 seeds"))
                .collect();
            assert!(!seeds.is_empty(), "MODM_TEST_SEEDS set but empty");
            seeds
        }
        Err(_) => vec![1],
    }
}

/// Reference model for [`EventQueue`]: a vector stably ordered by
/// `(time, insertion sequence)`, with the same monotonic-clock clamp on
/// pop.
#[derive(Default)]
struct NaiveQueue {
    entries: Vec<(SimTime, u64, u32)>,
    next_seq: u64,
    last_popped: SimTime,
}

impl NaiveQueue {
    fn schedule(&mut self, at: SimTime, payload: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((at, seq, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.entries.remove(best);
        let at = at.max(self.last_popped);
        self.last_popped = at;
        Some((at, payload))
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

#[test]
fn event_queue_matches_stably_sorted_reference() {
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9) ^ 0xE7E7);
        let mut queue = EventQueue::new();
        let mut model = NaiveQueue::default();
        let mut payload = 0u32;
        for step in 0..4_000 {
            // A small time palette forces frequent exact ties, the case
            // where only the insertion sequence keeps order defined.
            let action = rng.index(5);
            if action < 3 {
                let at = SimTime::from_secs_f64(rng.index(8) as f64 * 0.5);
                queue.schedule(at, payload);
                model.schedule(at, payload);
                payload += 1;
            } else if action < 4 {
                assert_eq!(
                    queue.pop(),
                    model.pop(),
                    "seed {seed}: pop diverged at step {step}"
                );
            } else if rng.chance(0.02) {
                queue.clear();
                model.clear();
            }
            assert_eq!(queue.len(), model.entries.len(), "seed {seed}, step {step}");
            assert_eq!(queue.is_empty(), model.entries.is_empty());
        }
        // Drain: the full remaining order must match, ties and all.
        while let Some(expected) = model.pop() {
            assert_eq!(queue.pop(), Some(expected), "seed {seed}: drain diverged");
        }
        assert!(queue.pop().is_none());
    }
}

#[test]
fn indexed_list_matches_deque_reference_under_arbitrary_ops() {
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x51_7C_C1) ^ 0xBEEF);
        let mut list = IndexedList::new();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next_key = 0u64;
        for step in 0..6_000 {
            match rng.index(8) {
                0..=2 => {
                    list.push_back(next_key);
                    model.push_back(next_key);
                    next_key += 1;
                }
                3 => {
                    assert_eq!(
                        list.pop_front(),
                        model.pop_front(),
                        "seed {seed}, step {step}"
                    );
                }
                4..=5 => {
                    // Remove a random *resident* key half the time, a
                    // random absent key otherwise.
                    let key = if !model.is_empty() && rng.chance(0.5) {
                        model[rng.index(model.len())]
                    } else {
                        next_key + 1 + rng.index(16) as u64
                    };
                    let in_model = model.iter().position(|&k| k == key);
                    if let Some(i) = in_model {
                        model.remove(i);
                    }
                    assert_eq!(
                        list.remove(key),
                        in_model.is_some(),
                        "seed {seed}, step {step}"
                    );
                }
                6 => {
                    let key = if !model.is_empty() && rng.chance(0.5) {
                        model[rng.index(model.len())]
                    } else {
                        next_key + 1
                    };
                    assert_eq!(list.contains(key), model.contains(&key));
                }
                _ => {
                    if rng.chance(0.05) {
                        list.clear();
                        model.clear();
                    }
                }
            }
            assert_eq!(list.len(), model.len(), "seed {seed}, step {step}");
            assert_eq!(list.front(), model.front().copied());
            if step % 64 == 0 {
                // Full link-integrity walk: forward pointers, backward
                // pointers and the key index must all agree.
                let walked = list.check_links();
                assert!(
                    walked.iter().copied().eq(model.iter().copied()),
                    "seed {seed}, step {step}: links {walked:?} vs model {model:?}"
                );
            }
        }
        assert!(
            list.iter().eq(model.iter().copied()),
            "seed {seed}: final order"
        );
    }
}

/// Reference model for [`SemanticClusterer`]: leaders in admission
/// order, probed with [`Embedding::cosine`], first strict maximum wins,
/// oldest leader retired when the table is full.
struct NaiveClusterer {
    threshold: f64,
    max_leaders: usize,
    leaders: VecDeque<(u64, Embedding)>,
    next_id: u64,
}

impl NaiveClusterer {
    fn new(threshold: f64, max_leaders: usize) -> Self {
        NaiveClusterer {
            threshold,
            max_leaders,
            leaders: VecDeque::new(),
            next_id: 0,
        }
    }

    /// The first strict maximum over the live leaders.
    fn best(&self, query: &Embedding) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for (id, leader) in &self.leaders {
            let sim = query.cosine(leader);
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((*id, sim));
            }
        }
        best
    }

    fn cluster_of(&mut self, query: &Embedding) -> u64 {
        if let Some((id, sim)) = self.best(query) {
            if sim >= self.threshold {
                return id;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.leaders.push_back((id, query.clone()));
        if self.leaders.len() > self.max_leaders {
            self.leaders.pop_front();
        }
        id
    }
}

#[test]
fn clusterer_matches_naive_admission_order_scan() {
    // (leader bound, base directions): a table barely past one 8-slot
    // block, and one spanning 13 blocks (not a multiple of 8). Both see
    // more bases than slots, so the ring keeps wrapping.
    for (max_leaders, num_bases) in [(12, 24), (100, 160)] {
        for seed in sweep_seeds() {
            let mut rng = SimRng::seed_from(seed.wrapping_mul(0xA5A5) ^ 0xC10C);
            let threshold = 0.7;
            let mut fast = SemanticClusterer::new(threshold, max_leaders);
            let mut naive = NaiveClusterer::new(threshold, max_leaders);
            // Base directions plus jitter: enough reuse to exercise joins,
            // enough novelty to exercise ring retirement.
            let dim = 16;
            let bases: Vec<Vec<f64>> = (0..num_bases)
                .map(|_| (0..dim).map(|_| rng.uniform_in(-1.0, 1.0)).collect())
                .collect();
            for step in 0..3_000 {
                let base = &bases[rng.index(bases.len())];
                let v: Vec<f64> = base.iter().map(|x| x + rng.uniform_in(-0.4, 0.4)).collect();
                let e = Embedding::from_vec(v);
                assert_eq!(
                    fast.cluster_of(&e),
                    naive.cluster_of(&e),
                    "seed {seed}, {max_leaders} leaders: assignment diverged at step {step}"
                );
            }
            assert_eq!(fast.num_leaders(), naive.leaders.len(), "seed {seed}");
            assert!(
                naive.next_id as usize > max_leaders,
                "seed {seed}: the {max_leaders}-leader ring never wrapped"
            );
        }
    }
}

/// A small-integer embedding: exact dot products and norms, so leaders
/// related by a coordinate swap tie bit-for-bit against a query that is
/// symmetric in those coordinates.
fn integer_embedding(rng: &mut SimRng, dim: usize) -> Embedding {
    let mut v = vec![0.0; dim];
    for _ in 0..2 + rng.index(2) {
        v[rng.index(dim)] += (1 + rng.index(3)) as f64;
    }
    Embedding::from_vec(v)
}

#[test]
fn clusterer_verdicts_match_naive_full_scan() {
    // A resident pool re-placed through persisted verdicts, interleaved
    // with fresh queries that mint. Every answer, every verdict and
    // every mint must match the naive admission-order scan. The
    // 12-leader table retires verdict leaders constantly; the integer
    // embeddings make duplicate-score ties between leaders common, so
    // the extension's strict `>` is pinned too.
    for (max_leaders, num_bases) in [(12, 24), (100, 160)] {
        for integer in [false, true] {
            for seed in sweep_seeds() {
                let mut rng = SimRng::seed_from(seed.wrapping_mul(0x5EED) ^ 0x7E4D);
                let threshold = 0.7;
                let mut fast = SemanticClusterer::new(threshold, max_leaders);
                let mut naive = NaiveClusterer::new(threshold, max_leaders);
                let dim = 16;
                let bases: Vec<Vec<f64>> = (0..num_bases)
                    .map(|_| (0..dim).map(|_| rng.uniform_in(-1.0, 1.0)).collect())
                    .collect();
                let fresh = |rng: &mut SimRng| {
                    if !integer {
                        let base = &bases[rng.index(bases.len())];
                        Embedding::from_vec(
                            base.iter().map(|x| x + rng.uniform_in(-0.4, 0.4)).collect(),
                        )
                    } else if rng.index(50) == 0 {
                        // Scores 0 against every leader, so it mints but
                        // its verdict stays with the oldest leader.
                        Embedding::from_vec(vec![0.0; dim])
                    } else {
                        integer_embedding(rng, dim)
                    }
                };
                let mut pool: Vec<(Embedding, Option<LeaderVerdict>)> = Vec::new();
                let (mut resumed, mut mints) = (0, 0);
                for step in 0..3_000 {
                    let drawn =
                        (!pool.is_empty() && rng.index(3) != 0).then(|| rng.index(pool.len()));
                    let (e, mut verdict) = match drawn {
                        Some(i) => pool[i].clone(),
                        None => (fresh(&mut rng), None),
                    };
                    resumed += usize::from(verdict.is_some());
                    let minted_before = naive.next_id;
                    let got = fast.cluster_of_since(&e, &mut verdict);
                    let want = naive.cluster_of(&e);
                    mints += usize::from(naive.next_id > minted_before);
                    let ctx = format!(
                        "seed {seed}, {max_leaders} leaders, integer {integer}, step {step}"
                    );
                    assert_eq!(got, want, "{ctx}: assignment diverged");
                    let (id, sim) = naive.best(&e).expect("a leader is live");
                    let v = verdict.expect("exact scans leave a verdict");
                    assert_eq!(v.id, id, "{ctx}: verdict leader");
                    assert_eq!(v.sim.to_bits(), sim.to_bits(), "{ctx}: verdict score");
                    assert_eq!(v.seen, naive.next_id, "{ctx}: verdict horizon");
                    match drawn {
                        Some(i) => pool[i].1 = verdict,
                        None if pool.len() < 64 => pool.push((e, verdict)),
                        // A fresh image evicts a random resident.
                        None => {
                            let i = rng.index(pool.len());
                            pool[i] = (e, verdict);
                        }
                    }
                }
                assert_eq!(fast.num_leaders(), naive.leaders.len(), "seed {seed}");
                assert!(
                    naive.next_id as usize > max_leaders,
                    "seed {seed}: the {max_leaders}-leader ring never wrapped"
                );
                assert!(
                    resumed > 1_000 && mints > 0,
                    "seed {seed}: {resumed} resumed, {mints} mints"
                );
            }
        }
    }
}

/// Reference model for [`EmbeddingIndex`]: one row per slot, scored one
/// at a time with a serial fold from `0.0` (then clamped), live slots
/// compared in slot order with the first strict maximum winning. A
/// replaced key keeps its slot; removed slots are recycled last-freed
/// first, as the index documents.
#[derive(Default)]
struct NaiveFlatIndex {
    slots: Vec<Option<(u64, Vec<f64>)>>,
    free: Vec<usize>,
}

impl NaiveFlatIndex {
    fn insert(&mut self, key: u64, e: &Embedding) {
        let row = e.as_slice().to_vec();
        if let Some(slot) = self.slot_of(key) {
            self.slots[slot] = Some((key, row));
        } else if let Some(slot) = self.free.pop() {
            self.slots[slot] = Some((key, row));
        } else {
            self.slots.push(Some((key, row)));
        }
    }

    fn remove(&mut self, key: u64) -> bool {
        let Some(slot) = self.slot_of(key) else {
            return false;
        };
        self.slots[slot] = None;
        self.free.push(slot);
        true
    }

    fn slot_of(&self, key: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|(k, _)| *k == key))
    }

    fn scored(&self, q: &Embedding) -> Vec<(u64, f64)> {
        self.slots
            .iter()
            .flatten()
            .map(|(key, row)| {
                let dot = q
                    .as_slice()
                    .iter()
                    .zip(row)
                    .fold(0.0, |acc, (x, y)| acc + x * y);
                (*key, dot.clamp(-1.0, 1.0))
            })
            .collect()
    }

    fn nearest(&self, q: &Embedding) -> Option<(u64, f64)> {
        let mut best: Option<(u64, f64)> = None;
        for (key, sim) in self.scored(q) {
            if best.is_none_or(|(_, b)| sim > b) {
                best = Some((key, sim));
            }
        }
        best
    }

    fn top_k(&self, q: &Embedding, k: usize) -> Vec<(u64, f64)> {
        let mut hits = self.scored(q);
        hits.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN sim"));
        hits.truncate(k);
        hits
    }
}

/// Neighbors as `(key, similarity bits)`, so a one-ulp drift fails.
fn bits(hits: impl IntoIterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
    hits.into_iter().map(|(k, s)| (k, s.to_bits())).collect()
}

#[test]
fn flat_index_matches_serial_slot_order_reference() {
    for seed in sweep_seeds() {
        for dim in [2, 16, 64] {
            let mut rng = SimRng::seed_from(seed.wrapping_mul(0x1D_E7) ^ dim as u64);
            let mut index: EmbeddingIndex<u64> = EmbeddingIndex::new();
            let mut model = NaiveFlatIndex::default();
            // A small palette of rows, reused on purpose: duplicate rows
            // tie exactly, where only slot order decides the winner.
            let palette: Vec<Embedding> = (0..6)
                .map(|_| Embedding::from_vec((0..dim).map(|_| rng.standard_normal()).collect()))
                .collect();
            let fresh = |rng: &mut SimRng| {
                if rng.chance(0.3) {
                    palette[rng.index(palette.len())].clone()
                } else {
                    Embedding::from_vec((0..dim).map(|_| rng.standard_normal()).collect())
                }
            };
            let mut next_key = 0u64;
            let mut live: Vec<u64> = Vec::new();
            for step in 0..1_500 {
                match rng.index(10) {
                    0..=3 => {
                        let e = fresh(&mut rng);
                        index.insert(next_key, e.clone());
                        model.insert(next_key, &e);
                        live.push(next_key);
                        next_key += 1;
                    }
                    4 if !live.is_empty() => {
                        // Replace in place.
                        let key = live[rng.index(live.len())];
                        let e = fresh(&mut rng);
                        index.insert(key, e.clone());
                        model.insert(key, &e);
                    }
                    5..=6 => {
                        // Remove a live key (freeing a slot for recycling)
                        // or an absent one.
                        let key = if !live.is_empty() && rng.chance(0.8) {
                            live.swap_remove(rng.index(live.len()))
                        } else {
                            next_key + 1
                        };
                        assert_eq!(index.remove(&key), model.remove(key), "step {step}");
                    }
                    _ => {
                        let q = if rng.chance(0.5) {
                            palette[rng.index(palette.len())].clone()
                        } else {
                            fresh(&mut rng)
                        };
                        let ctx = format!("seed {seed}, dim {dim}, step {step}");
                        assert_eq!(
                            bits(index.nearest(&q).map(|n| (n.key, n.similarity))),
                            bits(model.nearest(&q)),
                            "{ctx}: nearest"
                        );
                        let k = 1 + rng.index(12);
                        assert_eq!(
                            bits(index.top_k(&q, k).iter().map(|n| (n.key, n.similarity))),
                            bits(model.top_k(&q, k)),
                            "{ctx}: top_{k}"
                        );
                    }
                }
                assert_eq!(index.len(), live.len(), "step {step}");
            }
            assert!(
                !model.slots.len().is_multiple_of(8),
                "seed {seed}, dim {dim}: end on a partial block ({} slots)",
                model.slots.len()
            );
        }
    }
}

#[test]
fn single_and_fleet_tiers_are_bit_identical_run_to_run() {
    for seed in sweep_seeds() {
        let trace = TraceBuilder::diffusion_db(seed)
            .requests(300)
            .rate_per_min(30.0)
            .build();
        let config = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 4)
            .cache_capacity(400)
            .index_policy(IndexPolicy::Exact)
            .build();

        let single = |trace| {
            let mut outcome = Deployment::single(config.clone()).run(trace);
            format!("{:?}", outcome.summary(2.0))
        };
        assert_eq!(single(&trace), single(&trace), "seed {seed}: single tier");

        // `Exact` is the default: a builder that never mentions the index
        // policy must produce the byte-identical run.
        let default_config = MoDMConfig::builder()
            .gpus(GpuKind::Mi210, 4)
            .cache_capacity(400)
            .build();
        let default_run = {
            let mut outcome = Deployment::single(default_config).run(&trace);
            format!("{:?}", outcome.summary(2.0))
        };
        assert_eq!(
            single(&trace),
            default_run,
            "seed {seed}: Exact must be the default index policy"
        );

        for policy in [RoutingPolicy::CacheAffinity, RoutingPolicy::HybridAffinity] {
            let fleet_run = |trace| {
                let fleet = Fleet::new(config.clone(), Router::new(policy, 4));
                format!("{:?}", fleet.run(trace))
            };
            assert_eq!(
                fleet_run(&trace),
                fleet_run(&trace),
                "seed {seed}: fleet tier under {}",
                policy.name()
            );
        }
    }
}

#[test]
fn elastic_and_scenario_tiers_are_bit_identical_run_to_run() {
    for seed in sweep_seeds() {
        let trace = diurnal_trace(seed, 400);
        let elastic = |trace| {
            let mut scaler = predictive();
            format!("{:?}", elastic_fleet(6, 3, 6).run(trace, &mut scaler))
        };
        assert_eq!(
            elastic(&trace),
            elastic(&trace),
            "seed {seed}: elastic tier"
        );

        let scenario = || {
            format!(
                "{:?}",
                storm_scenario_for(seed, RetryPolicy::honoring(), true).run()
            )
        };
        assert_eq!(scenario(), scenario(), "seed {seed}: scenario tier");
    }
}

#[test]
fn elastic_run_with_scale_ups_and_crashes_is_bit_identical_run_to_run() {
    // Scale-ups pull owned entries onto the new shard, and the ownership
    // predicate routes through the clusterer, which mints leaders as it
    // goes: if the donor cache evaluated that predicate in hash-map order,
    // leader ids (and so routing) would differ between two runs in one
    // process, since every `HashMap` there draws fresh hash keys.
    for seed in sweep_seeds() {
        let trace = diurnal_trace(seed, 2_000);
        let horizon = trace
            .requests()
            .last()
            .expect("non-empty")
            .arrival
            .as_mins_f64();
        let crashes = [0.3 * horizon, 0.6 * horizon];
        let run = || {
            let mut outcome = Deployment::elastic(
                node_config(),
                predictive(),
                LifecyclePlan::new(3, 2, 8),
                FaultInjector::at(&crashes, 5.0),
            )
            .run(&trace);
            let events = &outcome.as_elastic().expect("elastic tier").events;
            assert!(
                events.iter().any(|e| matches!(
                    e.kind,
                    FleetEventKind::NodeActive { prewarmed, .. } if prewarmed > 0
                )),
                "seed {seed}: the run must scale up and pull entries"
            );
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.kind, FleetEventKind::Crash { .. })),
                "seed {seed}: the run must crash a node"
            );
            outcome.summary(2.0)
        };
        assert_eq!(run(), run(), "seed {seed}: elastic tier with crashes");
    }
}

#[test]
fn approx_routing_agrees_with_exact_across_seed_matrix() {
    // The approximate leader probe is an opt-in speed/fidelity trade; the
    // contract pinned here is that across the CI seed matrix it lands
    // each request on the same node as the exact scan at least 95% of the
    // time (the verify-before-mint fallback bounds the divergence to f32
    // rounding at the admission threshold).
    for seed in sweep_seeds() {
        let trace = TraceBuilder::diffusion_db(seed ^ 0xA99A)
            .requests(600)
            .rate_per_min(60.0)
            .build();
        let encoder = modm::embedding::TextEncoder::new(modm::embedding::SemanticSpace::default());
        let nodes = 8;
        let mut exact = RoutingConfig::new(RoutingPolicy::CacheAffinity, nodes)
            .index_policy(IndexPolicy::Exact)
            .build();
        let mut approx = RoutingConfig::new(RoutingPolicy::CacheAffinity, nodes)
            .index_policy(IndexPolicy::Approx)
            .build();
        let loads = vec![0.0f64; nodes];
        let mut agree = 0usize;
        for req in trace.iter() {
            let e = encoder.encode(&req.prompt);
            if exact.route(&e, &loads) == approx.route(&e, &loads) {
                agree += 1;
            }
        }
        let frac = agree as f64 / trace.len() as f64;
        assert!(
            frac >= 0.95,
            "seed {seed}: approx routing agreement {frac:.3} < 0.95"
        );
    }
}
