//! Property-style tests over the core data structures and invariants.
//!
//! The build runs fully offline (no `proptest`), so properties are checked
//! over deterministic seeded case sweeps: every test draws its inputs from
//! a fixed-seed [`SimRng`] stream, giving wide input coverage with exact
//! reproducibility — a failing case is re-run by its printed seed.

use modm::cache::{CacheConfig, ImageCache, MaintenancePolicy};
use modm::core::{
    k_decision, FairQueue, KDecision, PidController, TenancyPolicy, TenantShare, TokenBucket,
};
use modm::diffusion::{ModelId, NoiseSchedule, QualityModel, Sampler, TOTAL_STEPS};
use modm::embedding::{
    Embedding, EmbeddingIndex, IndexPolicy, InvertedIndex, SemanticSpace, TextEncoder,
};
use modm::numerics::{cosine_similarity, frechet_distance, GaussianStats};
use modm::simkit::{EventQueue, Percentiles, SimDuration, SimRng, SimTime};
use modm::workload::{QosClass, TenantId};

/// Seeds the seeded-sweep properties run under. Defaults to `[1]`; CI's
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

const ALL_POLICIES: [MaintenancePolicy; 4] = [
    MaintenancePolicy::Fifo,
    MaintenancePolicy::Lru,
    MaintenancePolicy::Utility,
    MaintenancePolicy::S3Fifo,
];

fn random_vec(rng: &mut SimRng, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| rng.uniform_in(-10.0, 10.0)).collect()
}

struct CacheFixture {
    sampler: Sampler,
    text: TextEncoder,
    rng: SimRng,
}

impl CacheFixture {
    fn new(seed: u64) -> Self {
        let space = SemanticSpace::default();
        CacheFixture {
            sampler: Sampler::new(QualityModel::new(space.clone(), 1, 6.29)),
            text: TextEncoder::new(space),
            rng: SimRng::seed_from(seed),
        }
    }

    fn image(&mut self, prompt: &str) -> modm::diffusion::GeneratedImage {
        let e = self.text.encode(prompt);
        self.sampler.generate(ModelId::Sd35Large, &e, &mut self.rng)
    }
}

#[test]
fn cosine_always_in_unit_interval_and_symmetric() {
    let mut rng = SimRng::seed_from(101);
    for case in 0..256 {
        let a = random_vec(&mut rng, 8);
        let b = random_vec(&mut rng, 8);
        let c1 = cosine_similarity(&a, &b);
        let c2 = cosine_similarity(&b, &a);
        assert!((-1.0..=1.0).contains(&c1), "case {case}: cosine {c1}");
        assert!((c1 - c2).abs() < 1e-12, "case {case}: asymmetric");
    }
}

#[test]
fn event_queue_delivers_in_time_order() {
    let mut rng = SimRng::seed_from(102);
    for case in 0..64 {
        let n = 1 + rng.index(200);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_micros(rng.index(1_000_000) as u64), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "case {case}: time went backwards");
            last = at;
        }
    }
}

#[test]
fn percentiles_bounded_by_extremes() {
    let mut rng = SimRng::seed_from(103);
    for case in 0..64 {
        let n = 1 + rng.index(200);
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform_in(-1e6, 1e6)).collect();
        let q = rng.uniform();
        let mut p = Percentiles::new();
        for &x in &xs {
            p.record(x);
        }
        let v = p.quantile(q).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            v >= lo - 1e-9 && v <= hi + 1e-9,
            "case {case}: {v} not in [{lo}, {hi}]"
        );
    }
}

#[test]
fn schedules_monotone_and_bounded() {
    for step in 0..=TOTAL_STEPS {
        for s in [
            NoiseSchedule::RectifiedFlow,
            NoiseSchedule::Cosine,
            NoiseSchedule::Karras,
        ] {
            let sigma = s.sigma_at(step, TOTAL_STEPS);
            assert!((0.0..=1.0).contains(&sigma));
            if step > 0 {
                assert!(sigma <= s.sigma_at(step - 1, TOTAL_STEPS) + 1e-12);
            }
        }
    }
}

#[test]
fn k_decision_monotone_and_discrete() {
    let mut rng = SimRng::seed_from(105);
    let k_of = |s: f64| match k_decision(s) {
        KDecision::Miss => 0,
        KDecision::Hit { k } => k,
    };
    for case in 0..512 {
        let s1 = rng.uniform_in(0.0, 0.5);
        let s2 = s1 + rng.uniform_in(0.0, 0.2);
        assert!(k_of(s2) >= k_of(s1), "case {case}: k not monotone");
        let k = k_of(s1);
        assert!(
            k == 0 || modm::diffusion::K_CHOICES.contains(&k),
            "case {case}: k = {k} off the ladder"
        );
    }
}

#[test]
fn cache_capacity_never_exceeded_under_any_policy() {
    // The first cache invariant: no interleaving of inserts and
    // retrievals pushes any policy past its configured capacity.
    for (pi, policy) in ALL_POLICIES.into_iter().enumerate() {
        let mut f = CacheFixture::new(9 + pi as u64);
        let mut case_rng = SimRng::seed_from(200 + pi as u64);
        for case in 0..8 {
            let capacity = 1 + case_rng.index(30);
            let inserts = 1 + case_rng.index(80);
            let mut cache = ImageCache::new(CacheConfig::with_policy(capacity, policy));
            for i in 0..inserts {
                // Random interleaved retrievals exercise promotion paths
                // (LRU recency, utility hit counts, S3-FIFO frequencies).
                if case_rng.chance(0.3) && i > 0 {
                    let probe = f
                        .text
                        .encode(&format!("prompt number {}", case_rng.index(i)));
                    let _ = cache.retrieve(SimTime::from_micros(i as u64), &probe, 0.25);
                }
                let e = format!("prompt number {i}");
                cache.insert(SimTime::from_micros(i as u64), f.image(&e));
                assert!(
                    cache.len() <= capacity,
                    "{policy:?} case {case}: {} > {capacity}",
                    cache.len()
                );
            }
            assert_eq!(cache.len(), inserts.min(capacity), "{policy:?} case {case}");
        }
    }
}

#[test]
fn eviction_order_matches_policy_semantics() {
    // The second cache invariant, checked against the observable entry
    // state: whichever entry the policy's comparator ranks lowest is the
    // one that disappears on the next insert.
    let mut case_rng = SimRng::seed_from(300);
    for case in 0..12 {
        let capacity = 3 + case_rng.index(6);
        for policy in [
            MaintenancePolicy::Fifo,
            MaintenancePolicy::Lru,
            MaintenancePolicy::Utility,
        ] {
            let mut f = CacheFixture::new(40 + case);
            let mut cache = ImageCache::new(CacheConfig::with_policy(capacity, policy));
            let mut prompts = Vec::new();
            for i in 0..capacity {
                let p = format!("distinct scene {case} number {i} tokens {}", i * 13);
                cache.insert(SimTime::from_secs_f64(i as f64), f.image(&p));
                prompts.push(p);
            }
            // Touch a random subset so recency/utility orders diverge
            // from insertion order.
            for t in 0..capacity * 2 {
                let pick = case_rng.index(capacity);
                let _ = cache.retrieve(
                    SimTime::from_secs_f64(100.0 + t as f64),
                    &f.text.encode(&prompts[pick]),
                    0.25,
                );
            }
            // Predict the victim from the public entry state.
            let expected = match policy {
                MaintenancePolicy::Fifo => cache
                    .iter()
                    .min_by_key(|e| e.cached_at)
                    .map(|e| e.image.id.0)
                    .unwrap(),
                MaintenancePolicy::Lru => cache
                    .iter()
                    .min_by_key(|e| (e.last_used, e.image.id.0))
                    .map(|e| e.image.id.0)
                    .unwrap(),
                MaintenancePolicy::Utility => cache
                    .iter()
                    .min_by_key(|e| (e.hit_count, e.cached_at, e.image.id.0))
                    .map(|e| e.image.id.0)
                    .unwrap(),
                MaintenancePolicy::S3Fifo => unreachable!(),
            };
            cache.insert(
                SimTime::from_secs_f64(1_000.0),
                f.image(&format!("overflow trigger {case}")),
            );
            assert!(
                cache.iter().all(|e| e.image.id.0 != expected),
                "{policy:?} case {case}: expected victim {expected} survived"
            );
        }
    }
}

#[test]
fn s3fifo_evicts_cold_before_protected() {
    // S3-FIFO's semantics: an entry retrieved while probationary is
    // promoted and outlives any never-retrieved entry inserted alongside.
    for case in 0..8u64 {
        let mut f = CacheFixture::new(60 + case);
        let capacity = 6;
        let mut cache = ImageCache::new(CacheConfig::with_policy(
            capacity,
            MaintenancePolicy::S3Fifo,
        ));
        // Alignment jitter makes a minority of images irretrievable even
        // by their own prompt at the 0.25 threshold; pick a hot image
        // that is solidly above it so the test isolates eviction order.
        let mut found = None;
        for i in 0..64 {
            let p = format!("protected landmark {case} citadel aurora variant {i}");
            let img = f.image(&p);
            let q = f.text.encode(&p);
            let mut probe = ImageCache::new(CacheConfig::fifo(1));
            probe.insert(SimTime::ZERO, img.clone());
            if probe.peek(&q, 0.27).is_some() {
                found = Some((p, img));
                break;
            }
        }
        let (hot, hot_img) = found.expect("some image retrieves its own prompt");
        let cold = format!("cold filler {case} pebble mist");
        cache.insert(SimTime::from_secs_f64(0.0), hot_img);
        cache.insert(SimTime::from_secs_f64(1.0), f.image(&cold));
        assert!(cache
            .retrieve(SimTime::from_secs_f64(2.0), &f.text.encode(&hot), 0.25)
            .is_some());
        for i in 0..capacity * 3 {
            let p = format!("flood {case} item {i} transient");
            cache.insert(SimTime::from_secs_f64(3.0 + i as f64), f.image(&p));
        }
        let now = SimTime::from_secs_f64(100.0);
        assert!(
            cache.retrieve(now, &f.text.encode(&hot), 0.25).is_some(),
            "case {case}: promoted entry evicted"
        );
        assert!(
            cache.retrieve(now, &f.text.encode(&cold), 0.25).is_none(),
            "case {case}: cold entry outlived the flood"
        );
    }
}

#[test]
fn cache_index_selection_respects_policy() {
    // The third cache invariant: the backend is exactly what the
    // [`IndexPolicy`] dictates, for every maintenance policy and at any
    // capacity. The default is the exact flat scan even for very large
    // caches; only an explicit `Approx` picks the inverted index.
    for policy in ALL_POLICIES {
        for capacity in [64, 19_999, 20_000, 100_000] {
            let default = ImageCache::new(CacheConfig::with_policy(capacity, policy));
            assert_eq!(
                default.index_backend(),
                "flat",
                "{policy:?}: default at capacity {capacity}"
            );
            let approx = ImageCache::new(
                CacheConfig::with_policy(capacity, policy).with_index_policy(IndexPolicy::Approx),
            );
            assert_eq!(
                approx.index_backend(),
                "inverted",
                "{policy:?}: Approx at capacity {capacity}"
            );
        }
    }
    // Both backends serve the same near-duplicate retrievals.
    let mut f = CacheFixture::new(77);
    let mut flat_cache = ImageCache::new(CacheConfig::fifo(256));
    let mut inv_cache =
        ImageCache::new(CacheConfig::fifo(256).with_index_policy(IndexPolicy::Approx));
    for i in 0..40 {
        let p = format!("indexed vista {i} basalt shoreline {}", i * 7);
        flat_cache.insert(SimTime::ZERO, f.image(&p));
        inv_cache.insert(SimTime::ZERO, f.image(&p));
    }
    let now = SimTime::from_secs_f64(1.0);
    for i in 0..40 {
        let q = f
            .text
            .encode(&format!("indexed vista {i} basalt shoreline {}", i * 7));
        assert!(
            flat_cache.retrieve(now, &q, 0.2).is_some(),
            "flat miss at {i}"
        );
        assert!(
            inv_cache.retrieve(now, &q, 0.2).is_some(),
            "inverted miss at {i}"
        );
    }
}

#[test]
fn approx_cache_decisions_agree_with_exact() {
    // Seeded-sweep property: across a session-style stream, the inverted
    // index's hit/miss decisions agree with the exact flat scan on at
    // least 95% of retrievals (the verify-on-miss floor makes misses
    // exact; residual divergence is f32-vs-f64 rounding at the floor).
    for seed in sweep_seeds() {
        let mut f = CacheFixture::new(0x1DD0 ^ seed);
        let mut exact = ImageCache::new(CacheConfig::fifo(512));
        let mut approx =
            ImageCache::new(CacheConfig::fifo(512).with_index_policy(IndexPolicy::Approx));
        let mut case_rng = SimRng::seed_from(0xCAFE ^ seed);
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..400 {
            let session = case_rng.index(24);
            let p = format!("tenant {session} scene {} weathered archway", i % 7);
            let now = SimTime::from_secs_f64(i as f64);
            let q = f.text.encode(&p);
            let e_hit = exact.retrieve(now, &q, 0.25).is_some();
            let a_hit = approx.retrieve(now, &q, 0.25).is_some();
            total += 1;
            if e_hit == a_hit {
                agree += 1;
            }
            if !e_hit {
                let img = f.image(&p);
                exact.insert(now, img.clone());
                approx.insert(now, img);
            }
        }
        let frac = agree as f64 / total as f64;
        assert!(
            frac >= 0.95,
            "seed {seed}: approx/exact cache agreement {frac:.3} < 0.95"
        );
    }
}

#[test]
fn retrieval_respects_threshold() {
    for seed in 0..24u64 {
        let mut f = CacheFixture::new(seed);
        let mut case_rng = SimRng::seed_from(400 + seed);
        let threshold = case_rng.uniform_in(0.0, 0.32);
        let mut cache = ImageCache::new(CacheConfig::fifo(16));
        for i in 0..16 {
            cache.insert(SimTime::ZERO, f.image(&format!("cached item {i} {seed}")));
        }
        let q = f.text.encode("a completely different query prompt");
        if let Some(hit) = cache.retrieve(SimTime::ZERO, &q, threshold) {
            assert!(hit.similarity >= threshold, "seed {seed}");
        }
    }
}

/// Asserts that the inverted index's hit/miss verdict equals the exact
/// scan's at the cache-hit floor and at floors just under and just over
/// the exact best similarity. The last two put the probed best below the
/// floor, so the verify-on-miss fallback must decide. Floors within f32
/// rounding of the exact best are skipped: the backend is exact to f32
/// precision, not to the last f64 bit.
fn assert_floor_verdicts_match(
    inv: &InvertedIndex<u64>,
    flat: &EmbeddingIndex<u64>,
    q: &Embedding,
    ctx: &str,
) {
    let exact = flat.nearest(q);
    let mut floors = vec![0.25];
    if let Some(best) = exact {
        floors.extend([best.similarity - 1e-3, best.similarity + 1e-3]);
    }
    for floor in floors {
        if exact.is_some_and(|b| (b.similarity - floor).abs() < 1e-5) {
            continue;
        }
        let approx = inv.nearest_with_floor(q, floor);
        assert_eq!(approx.is_some(), exact.is_some(), "{ctx}: emptiness");
        assert_eq!(
            approx.is_some_and(|n| n.similarity >= floor),
            exact.is_some_and(|n| n.similarity >= floor),
            "{ctx}: verdict at floor {floor:.4} (approx {approx:?}, exact {exact:?})"
        );
        if let (Some(a), Some(b)) = (approx, exact) {
            assert!(
                a.similarity <= b.similarity + 1e-5,
                "{ctx}: probe outscored exact"
            );
        }
    }
}

#[test]
fn inverted_floor_verdicts_match_exact_on_adversarial_inputs() {
    // Seeded sweep over inputs built to defeat the anchored buckets: the
    // verify-on-miss floor must keep every hit/miss verdict exact anyway.
    let space = SemanticSpace::default();
    let dim = space.dim();
    let text = TextEncoder::new(space);
    let gaussian =
        |rng: &mut SimRng| Embedding::from_vec((0..dim).map(|_| rng.standard_normal()).collect());
    let antipode = |e: &Embedding| Embedding::from_vec(e.as_slice().iter().map(|x| -x).collect());
    let near = |e: &Embedding, rng: &mut SimRng| {
        Embedding::from_vec(
            e.as_slice()
                .iter()
                .map(|x| x + 0.02 * rng.standard_normal())
                .collect(),
        )
    };
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(0xAD7E ^ seed);
        for case in 0..8 {
            let n = 8 + rng.index(40);

            // Duplicate rows: every third key shares one row. Queries: the
            // row itself, a near duplicate, and its antipode.
            let mut inv = InvertedIndex::new(dim, 16, 4);
            let mut flat = EmbeddingIndex::new();
            let dup = gaussian(&mut rng);
            for k in 0..n as u64 {
                let e = if k % 3 == 0 {
                    dup.clone()
                } else {
                    gaussian(&mut rng)
                };
                inv.insert(k, &e);
                flat.insert(k, &e);
            }
            let ctx = format!("seed {seed} case {case} duplicates");
            for q in [dup.clone(), near(&dup, &mut rng), antipode(&dup)] {
                assert_floor_verdicts_match(&inv, &flat, &q, &ctx);
            }

            // Antipodal queries against distinct rows: the best exact
            // match sits far below the hit floor.
            for k in 0..n as u64 {
                let row = gaussian(&mut rng);
                let ctx = format!("seed {seed} case {case} antipode {k}");
                let mut inv = InvertedIndex::new(dim, 16, 4);
                let mut flat = EmbeddingIndex::new();
                inv.insert(k, &row);
                flat.insert(k, &row);
                assert_floor_verdicts_match(&inv, &flat, &antipode(&row), &ctx);
            }

            // Every row anchored into one bucket: self-queries must still
            // hit although most of them probe other buckets.
            let anchor = gaussian(&mut rng);
            let mut inv = InvertedIndex::new(dim, 16, 4);
            let mut flat = EmbeddingIndex::new();
            let rows: Vec<Embedding> = (0..n)
                .map(|i| text.encode(&format!("anchored {i} cobalt tokens {}", i * 11 + case)))
                .collect();
            for (k, e) in rows.iter().enumerate() {
                inv.insert_anchored(k as u64, &anchor, e);
                flat.insert(k as u64, e);
            }
            let ctx = format!("seed {seed} case {case} one bucket");
            for q in rows.iter().chain([&anchor, &gaussian(&mut rng)]) {
                assert_floor_verdicts_match(&inv, &flat, q, &ctx);
            }

            // All probed buckets empty: rows near the query are anchored at
            // its antipode, whose bucket is the query's least similar
            // centroid and so never among its top four of sixteen.
            let q = gaussian(&mut rng);
            let far = antipode(&q);
            let mut inv = InvertedIndex::new(dim, 16, 4);
            let mut flat = EmbeddingIndex::new();
            for k in 0..n as u64 {
                let e = if k % 2 == 0 {
                    near(&q, &mut rng)
                } else {
                    gaussian(&mut rng)
                };
                inv.insert_anchored(k, &far, &e);
                flat.insert(k, &e);
            }
            assert!(
                inv.nearest(&q).is_none(),
                "seed {seed} case {case}: a probed bucket is populated"
            );
            let ctx = format!("seed {seed} case {case} empty probes");
            assert_floor_verdicts_match(&inv, &flat, &q, &ctx);

            // Probing every bucket makes the index exact: self-queries
            // agree with the flat scan to f32 precision.
            let mut inv = InvertedIndex::new(dim, 16, 16);
            let mut flat = EmbeddingIndex::new();
            let rows: Vec<Embedding> = (0..n)
                .map(|i| text.encode(&format!("item {i} distinct tokens {}", i * 7 + case)))
                .collect();
            for (k, e) in rows.iter().enumerate() {
                inv.insert(k as u64, e);
                flat.insert(k as u64, e);
            }
            let q = &rows[rng.index(n)];
            let a = inv.nearest(q).unwrap();
            let b = flat.nearest(q).unwrap();
            assert!(
                (a.similarity - b.similarity).abs() < 1e-6,
                "seed {seed} case {case}: full probe {} vs exact {}",
                a.similarity,
                b.similarity
            );
        }
    }
}

#[test]
fn pid_output_bounded_by_gain_times_error() {
    let mut rng = SimRng::seed_from(106);
    for case in 0..256 {
        let target = rng.uniform_in(-50.0, 50.0);
        let current = rng.uniform_in(-50.0, 50.0);
        let mut pid = PidController::paper_tuned();
        let out = pid.compute(target, current);
        let err = (target - current).abs();
        // First step: |out| <= (kp + ki + kd) * |err|.
        assert!(out.abs() <= 0.7 * err + 1e-9, "case {case}");
    }
}

#[test]
fn quality_factor_monotone_in_similarity() {
    let mut rng = SimRng::seed_from(107);
    for case in 0..128 {
        let k = modm::diffusion::K_CHOICES[rng.index(6)];
        let s = rng.uniform_in(0.05, 0.35);
        let q1 = QualityModel::expected_quality_factor(ModelId::Sdxl, ModelId::Sd35Large, s, k);
        let q2 =
            QualityModel::expected_quality_factor(ModelId::Sdxl, ModelId::Sd35Large, s + 0.01, k);
        assert!(q2 >= q1, "case {case}");
        assert!(q1 > 0.0, "case {case}");
    }
}

#[test]
fn frechet_nonnegative_and_symmetric() {
    let sample = |seed: u64| {
        let mut rng = SimRng::seed_from(seed);
        let mut g = GaussianStats::new(4);
        for _ in 0..300 {
            let v: Vec<f64> = (0..4)
                .map(|_| seed as f64 % 3.0 + (1.0 + (seed % 2) as f64) * rng.standard_normal())
                .collect();
            g.record(&v);
        }
        g
    };
    let mut rng = SimRng::seed_from(108);
    for case in 0..12 {
        let seed_a = rng.index(100) as u64;
        let seed_b = rng.index(100) as u64;
        let a = sample(seed_a);
        let b = sample(seed_b);
        let d1 = frechet_distance(&a, &b).unwrap();
        let d2 = frechet_distance(&b, &a).unwrap();
        assert!(d1 >= 0.0, "case {case}");
        assert!((d1 - d2).abs() < 1e-6, "case {case}");
        if seed_a == seed_b {
            assert!(d1 < 1e-6, "case {case}");
        }
    }
}

#[test]
fn fair_queue_is_work_conserving_and_conserves_items() {
    // Random push/pop interleavings over random tenants, classes and
    // weights: the queue never refuses work while non-empty, never
    // invents or loses items, and its length accounting stays exact.
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(0xFA1_0000 ^ seed);
        for case in 0..24 {
            let tenants: Vec<TenantShare> = (0..1 + rng.index(4))
                .map(|i| TenantShare::new(TenantId(i as u16), 0.25 + rng.uniform_in(0.0, 4.0)))
                .collect();
            let n_tenants = tenants.len();
            let policy = if rng.chance(0.5) {
                TenancyPolicy::weighted_fair(tenants)
            } else {
                TenancyPolicy::fifo()
            };
            let mut q: FairQueue<u64> = FairQueue::new(&policy);
            let mut pushed = 0u64;
            let mut popped = 0u64;
            let mut clock = 0.0;
            for _ in 0..400 {
                clock += rng.uniform_in(0.0, 5.0);
                let now = SimTime::from_secs_f64(clock);
                if rng.chance(0.55) {
                    let tenant = TenantId(rng.index(n_tenants) as u16);
                    let qos = QosClass::ALL[rng.index(3)];
                    q.push(now, tenant, qos, pushed);
                    pushed += 1;
                } else if q.is_empty() {
                    assert_eq!(q.pop(now), None, "seed {seed} case {case}");
                } else {
                    assert!(
                        q.pop(now).is_some(),
                        "seed {seed} case {case}: refused work while non-empty"
                    );
                    popped += 1;
                }
                assert_eq!(q.len() as u64, pushed - popped, "seed {seed} case {case}");
            }
            // Drain the remainder: still work-conserving to the last item.
            let now = SimTime::from_secs_f64(clock + 1.0);
            while !q.is_empty() {
                assert!(q.pop(now).is_some(), "seed {seed} case {case}: drain");
                popped += 1;
            }
            assert_eq!(pushed, popped, "seed {seed} case {case}: conservation");
        }
    }
}

#[test]
fn fair_queue_weighted_shares_within_tolerance() {
    // With every tenant continuously backlogged in one class, service
    // counts over a long run converge to the configured weights.
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(0xFA1_1000 ^ seed);
        for case in 0..6 {
            let n = 2 + rng.index(3);
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + rng.index(5) as f64).collect();
            let shares: Vec<TenantShare> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| TenantShare::new(TenantId(i as u16), w))
                .collect();
            let mut q: FairQueue<usize> = FairQueue::new(&TenancyPolicy::weighted_fair(shares));
            let now = SimTime::ZERO;
            // Deep backlog for everyone (same arrival time: no aging).
            let per_tenant = 600;
            for k in 0..per_tenant {
                for t in 0..n {
                    q.push(now, TenantId(t as u16), QosClass::Standard, t * 10_000 + k);
                }
            }
            // Serve only while every queue stays backlogged: the heaviest
            // tenant drains fastest (a `max_w/total_w` share), so stop at
            // 80% of the serves that would run it dry.
            let total_w: f64 = weights.iter().sum();
            let max_w = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let serves = ((per_tenant as f64 * 0.8) * total_w / max_w) as usize;
            let mut counts = vec![0usize; n];
            for _ in 0..serves.min(n * per_tenant) {
                let item = q.pop(now).expect("backlogged");
                counts[item / 10_000] += 1;
            }
            let served: usize = counts.iter().sum();
            for (t, (&count, &w)) in counts.iter().zip(&weights).enumerate() {
                let expect = served as f64 * w / total_w;
                let rel = (count as f64 - expect).abs() / expect;
                assert!(
                    rel < 0.05,
                    "seed {seed} case {case} tenant {t}: share {count} vs expected \
                     {expect:.1} (weights {weights:?})"
                );
            }
        }
    }
}

#[test]
fn fair_queue_never_starves_positive_weight_tenants_under_priority_bursts() {
    // Under an interactive burst that permanently outruns the service
    // rate, pure strict priority starves a best-effort tenant *forever*
    // (shown with an effectively infinite aging threshold); with a finite
    // threshold the same tenant keeps making steady progress, in FIFO
    // order, on every seed.
    for seed in sweep_seeds() {
        for case in 0..4u64 {
            let drive = |aging_secs: f64| {
                let mut rng = SimRng::seed_from((0xFA1_2000 ^ seed).wrapping_add(case));
                let policy = TenancyPolicy::weighted_fair(vec![
                    TenantShare::new(TenantId(1), 1.0 + rng.index(4) as f64),
                    TenantShare::new(TenantId(2), 1.0),
                ])
                .with_aging_threshold(SimDuration::from_secs_f64(aging_secs));
                let mut q: FairQueue<(u64, f64)> = FairQueue::new(&policy);
                let mut clock = 0.0;
                let mut submitted_low = 0u64;
                let mut served_low = 0u64;
                for _round in 0..400 {
                    clock += 1.0;
                    let now = SimTime::from_secs_f64(clock);
                    // The interactive burst never lets up (1–2 per round)...
                    for _ in 0..1 + rng.index(2) {
                        q.push(now, TenantId(1), QosClass::Interactive, (u64::MAX, clock));
                    }
                    // ...while the best-effort tenant trickles in.
                    if rng.chance(0.3) {
                        q.push(
                            now,
                            TenantId(2),
                            QosClass::BestEffort,
                            (submitted_low, clock),
                        );
                        submitted_low += 1;
                    }
                    // One serve per round: strictly slower than the
                    // interactive load alone, so the high class is never
                    // drained and priority alone would starve tenant 2.
                    if let Some((id, _)) = q.pop(now) {
                        if id != u64::MAX {
                            assert_eq!(id, served_low, "seed {seed} case {case}: low FIFO order");
                            served_low += 1;
                        }
                    }
                }
                (submitted_low, served_low)
            };
            // Effectively infinite threshold: strict priority starves.
            let (_, starved) = drive(1e12);
            assert_eq!(
                starved, 0,
                "seed {seed} case {case}: without aging the burst must starve tenant 2"
            );
            // Finite threshold: steady progress. Once waits exceed the
            // threshold, aged items are served oldest-first (arrival
            // order), so tenant 2's slice of the service rate tracks its
            // ~1/6 arrival share; require at least 20% of its submissions
            // served within the run.
            let (submitted, served) = drive(40.0);
            assert!(
                served * 5 >= submitted,
                "seed {seed} case {case}: best-effort starved with aging on \
                 ({served}/{submitted} served)"
            );
        }
    }
}

#[test]
fn fair_queue_fifo_discipline_and_single_tenant_wfq_preserve_arrival_order() {
    // The tenant-neutrality property at the queue level: the FIFO
    // discipline ignores tags entirely, and WFQ with one tenant
    // degenerates to exact FIFO — the invariant the cross-tier
    // equivalence tests in tests/deploy.rs build on.
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(0xFA1_3000 ^ seed);
        for (label, policy) in [
            ("fifo", TenancyPolicy::fifo()),
            (
                "single-tenant wfq",
                TenancyPolicy::weighted_fair(vec![TenantShare::new(TenantId(0), 2.0)]),
            ),
        ] {
            let mut q: FairQueue<u64> = FairQueue::new(&policy);
            let mut next = 0u64;
            let mut expect = 0u64;
            let mut clock = 0.0;
            for _ in 0..300 {
                clock += rng.uniform_in(0.0, 3.0);
                let now = SimTime::from_secs_f64(clock);
                if rng.chance(0.5) {
                    // Under the FIFO discipline the tags may vary freely;
                    // under single-tenant WFQ everything is tenant 0.
                    let tenant = if label == "fifo" {
                        TenantId(rng.index(3) as u16)
                    } else {
                        TenantId(0)
                    };
                    let qos = if label == "fifo" {
                        QosClass::ALL[rng.index(3)]
                    } else {
                        QosClass::Standard
                    };
                    q.push(now, tenant, qos, next);
                    next += 1;
                } else if let Some(got) = q.pop(now) {
                    assert_eq!(got, expect, "seed {seed} {label}: arrival order broken");
                    expect += 1;
                }
            }
        }
    }
}

#[test]
fn token_bucket_conforms_to_rate_under_any_arrival_pattern() {
    // Rate conformance: whatever the arrival pattern, admissions over
    // any window starting from a full bucket are bounded by burst +
    // rate * elapsed (the classic token-bucket envelope).
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(0x70CE_0000 ^ seed);
        for case in 0..16 {
            let rate_per_min = 1.0 + rng.uniform_in(0.0, 120.0);
            let burst = 1.0 + rng.index(20) as f64;
            let mut bucket = TokenBucket::new(rate_per_min, burst);
            let mut clock = 0.0;
            let mut admitted = 0u64;
            for _ in 0..600 {
                // Bursty pattern: mostly tight clumps, occasional gaps.
                clock += if rng.chance(0.8) {
                    rng.uniform_in(0.0, 0.4)
                } else {
                    rng.uniform_in(0.0, 30.0)
                };
                if bucket.try_admit(SimTime::from_secs_f64(clock)) {
                    admitted += 1;
                }
            }
            let envelope = burst + rate_per_min / 60.0 * clock;
            assert!(
                (admitted as f64) <= envelope + 1e-9,
                "seed {seed} case {case}: {admitted} admitted exceeds \
                 envelope {envelope:.2} (rate {rate_per_min}/min, burst {burst})"
            );
        }
    }
}

#[test]
fn token_bucket_burst_cap_holds_after_any_idle_period() {
    // Burst cap: no idle period, however long, banks more than `burst`
    // instantaneous admissions.
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(0x70CE_1000 ^ seed);
        for case in 0..16 {
            let rate_per_min = 1.0 + rng.uniform_in(0.0, 60.0);
            let burst = (1 + rng.index(10)) as f64;
            let mut bucket = TokenBucket::new(rate_per_min, burst);
            // Drain whatever is available, idle a random (possibly huge)
            // period, then hammer the bucket at one instant.
            let mut clock = rng.uniform_in(0.0, 10.0);
            while bucket.try_admit(SimTime::from_secs_f64(clock)) {}
            clock += rng.uniform_in(0.0, 100_000.0);
            let now = SimTime::from_secs_f64(clock);
            let mut instantaneous = 0u64;
            while bucket.try_admit(now) {
                instantaneous += 1;
            }
            assert!(
                instantaneous <= burst as u64,
                "seed {seed} case {case}: {instantaneous} > burst {burst}"
            );
        }
    }
}

#[test]
fn token_bucket_never_refuses_at_or_below_rate() {
    // Refusal only above rate: arrivals spaced at (or wider than) the
    // refill interval are always admitted, from any starting state.
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(0x70CE_2000 ^ seed);
        for case in 0..16 {
            let rate_per_min = 1.0 + rng.uniform_in(0.0, 120.0);
            let interval = 60.0 / rate_per_min;
            let mut bucket = TokenBucket::new(rate_per_min, 1.0 + rng.index(8) as f64);
            let mut clock = 0.0;
            for i in 0..400 {
                clock += interval * rng.uniform_in(1.0, 3.0);
                assert!(
                    bucket.try_admit(SimTime::from_secs_f64(clock)),
                    "seed {seed} case {case}: refusal at request {i} \
                     despite arrivals at/below the sustained rate"
                );
            }
        }
    }
}

#[test]
fn fair_queue_gpu_cost_shares_track_charged_cost_within_tolerance() {
    // The GPU-time-weighted fairness property: with every tenant
    // continuously backlogged and items charged random steps_for-like
    // costs, the *cost* served per tenant (not the request count)
    // converges to the configured weights.
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(0xFA1_4000 ^ seed);
        for case in 0..6 {
            let n = 2 + rng.index(3);
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + rng.index(4) as f64).collect();
            let shares: Vec<TenantShare> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| TenantShare::new(TenantId(i as u16), w))
                .collect();
            let mut q: FairQueue<(usize, u64)> =
                FairQueue::new(&TenancyPolicy::weighted_fair(shares));
            let now = SimTime::ZERO;
            // Deep backlog: per-item costs drawn from the steps_for
            // range (a k=50 hit on SD3.5-Large costs ~6 steps, a miss
            // 50), tracked per tenant for the expected totals.
            let per_tenant = 400;
            let mut queued_cost = vec![0.0f64; n];
            for _ in 0..per_tenant {
                for (t, queued) in queued_cost.iter_mut().enumerate() {
                    let cost = (5 + rng.index(46)) as u64;
                    *queued += cost as f64;
                    q.push_weighted(
                        now,
                        TenantId(t as u16),
                        QosClass::Standard,
                        cost as f64,
                        (t, cost),
                    );
                }
            }
            // Serve while every tenant stays backlogged: the heaviest
            // tenant drains its cost fastest, so stop at 70% of the
            // cost-serves that would run it dry.
            let total_w: f64 = weights.iter().sum();
            let max_w = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min_queued = queued_cost.iter().cloned().fold(f64::INFINITY, f64::min);
            let budget = min_queued * 0.7 * total_w / max_w;
            let mut served_cost = vec![0.0f64; n];
            let mut total_served = 0.0;
            while total_served < budget {
                let (t, cost) = q.pop(now).expect("backlogged");
                served_cost[t] += cost as f64;
                total_served += cost as f64;
            }
            for (t, (&served, &w)) in served_cost.iter().zip(&weights).enumerate() {
                let expect = total_served * w / total_w;
                let rel = (served - expect).abs() / expect;
                assert!(
                    rel < 0.06,
                    "seed {seed} case {case} tenant {t}: served cost {served:.0} vs \
                     expected {expect:.0} (weights {weights:?})"
                );
            }
        }
    }
}

#[test]
fn serving_conserves_requests() {
    use modm::cluster::GpuKind;
    use modm::controlplane::ServingSystem;
    use modm::core::MoDMConfig;
    use modm::workload::TraceBuilder;
    let mut rng = SimRng::seed_from(109);
    for case in 0..12 {
        let n = 20 + rng.index(100);
        let rate = rng.uniform_in(2.0, 40.0);
        let seed = rng.index(20) as u64;
        let t = TraceBuilder::diffusion_db(seed)
            .requests(n)
            .rate_per_min(rate)
            .build();
        let r = ServingSystem::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 4)
                .cache_capacity(500)
                .build(),
        )
        .run(&t);
        assert_eq!(r.completed(), n as u64, "case {case}");
        assert_eq!(r.hits + r.misses, n as u64, "case {case}");
        let k_total: u64 = r.k_histogram.iter().sum();
        assert_eq!(k_total, r.hits, "case {case}");
    }
}

#[test]
fn fleet_conserves_requests_property() {
    use modm::cluster::GpuKind;
    use modm::controlplane::Fleet;
    use modm::core::MoDMConfig;
    use modm::fleet::{Router, RoutingPolicy};
    use modm::workload::TraceBuilder;
    let mut rng = SimRng::seed_from(110);
    for case in 0..6 {
        let n = 40 + rng.index(120);
        let nodes = 1 + rng.index(6);
        let policy = [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastLoaded,
            RoutingPolicy::CacheAffinity,
        ][rng.index(3)];
        let t = TraceBuilder::diffusion_db(case)
            .requests(n)
            .rate_per_min(10.0)
            .build();
        let fleet = Fleet::new(
            MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 2)
                .cache_capacity(200)
                .build(),
            Router::new(policy, nodes),
        );
        let r = fleet.run(&t);
        assert_eq!(
            r.completed, n as u64,
            "case {case} ({policy:?}, {nodes} nodes)"
        );
        assert_eq!(r.hits + r.misses, n as u64, "case {case}");
    }
}

#[test]
fn cache_counters_agree_with_scheduler_decisions_under_overload() {
    // Admission runs before the cache decision, so only admitted requests
    // probe the cache: its own lookup and hit counters equal the
    // scheduler's hit/miss decisions in the node reports (shed work
    // included, since it was routed before it was shed) even while token
    // buckets refuse.
    use modm::cluster::GpuKind;
    use modm::core::{MoDMConfig, ServingReport};
    use modm::deploy::{DeployOptions, Deployment, ServingBackend};
    use modm::fleet::{Router, RoutingPolicy};
    use modm::workload::{TenantMix, TraceBuilder};
    let (mut rejected, mut shed) = (0, 0);
    for seed in sweep_seeds() {
        let mut rng = SimRng::seed_from(seed ^ 0x4147_5245); // "AGRE"
        for case in 0..3 {
            let n = 150 + rng.index(150);
            let nodes = 2 + rng.index(3);
            let policy = [
                RoutingPolicy::RoundRobin,
                RoutingPolicy::LeastLoaded,
                RoutingPolicy::CacheAffinity,
                RoutingPolicy::HybridAffinity,
            ][rng.index(4)];
            let config = MoDMConfig::builder()
                .gpus(GpuKind::Mi210, 1 + rng.index(3))
                .cache_capacity(100 + rng.index(200))
                .tenancy(
                    TenancyPolicy::weighted_fair(vec![
                        TenantShare::new(TenantId(1), 4.0),
                        TenantShare::new(TenantId(2), 1.0),
                    ])
                    .with_rate_limit(TenantId(2), rng.uniform_in(1.0, 6.0), 2.0)
                    .with_queue_budget(SimDuration::from_secs_f64(rng.uniform_in(60.0, 300.0))),
                )
                .build();
            let trace = TraceBuilder::diffusion_db(rng.index(1_000) as u64)
                .requests(n)
                .tenants(vec![
                    TenantMix::new(TenantId(1), QosClass::Interactive, 4.0),
                    TenantMix::new(TenantId(2), QosClass::BestEffort, 16.0),
                ])
                .build();
            let options = DeployOptions {
                warmup: rng.index(40),
                saturate: rng.index(2) == 0,
            };
            let deployments = [
                Deployment::single(config.clone()),
                Deployment::fleet(config, Router::new(policy, nodes)),
            ];
            for mut deployment in deployments {
                let mut outcome = deployment.run_with(&trace, options);
                let summary = outcome.summary(2.0);
                let nodes: Vec<&ServingReport> = match (outcome.as_single(), outcome.as_fleet()) {
                    (Some(report), _) => vec![report],
                    (_, Some(report)) => report.nodes.iter().map(|n| &n.report).collect(),
                    _ => unreachable!("single or fixed fleet"),
                };
                let sum = |count: fn(&ServingReport) -> u64| nodes.iter().map(|r| count(r)).sum();
                let lookups: u64 = sum(|r| r.cache_stats.lookups());
                let cache_hits: u64 = sum(|r| r.cache_stats.hits());
                let (decided_hits, decided_misses): (u64, u64) =
                    (sum(|r| r.hits), sum(|r| r.misses));
                let label = format!("seed {seed} case {case} {:?} ({policy:?})", summary.tier);
                assert_eq!(lookups, decided_hits + decided_misses, "{label}");
                assert_eq!(cache_hits, decided_hits, "{label}");
                // The summary counts each completion once; shed work was
                // decided but never completes.
                assert_eq!(summary.hits + summary.misses, summary.completed, "{label}");
                assert!(summary.hits <= decided_hits, "{label}");
                rejected += summary.rejected;
                shed += summary.shed;
            }
        }
    }
    assert!(rejected > 0, "the sweep must exercise refusals");
    assert!(shed > 0, "the sweep must exercise sheds");
}
