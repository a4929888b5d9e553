//! Cross-crate integration tests: the full architecture of Fig. 1
//! exercised through the public API of the umbrella crate.

use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::mobility::{PoiCategory, PoiSet, SpatialDistribution};
use privacy_lbs::server::{refine_knn, refine_nn, refine_range, PublicObject};
use privacy_lbs::system::{EngineConfig, ShardedEngine, SimulationConfig, SimulationEngine};

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn pois(n: usize) -> Vec<PublicObject> {
    PoiSet::generate_category(
        world(),
        n,
        PoiCategory::GasStation,
        &SpatialDistribution::Uniform,
        5,
    )
    .pois()
    .iter()
    .map(|p| PublicObject::new(p.id, p.pos, 0))
    .collect()
}

/// User `i`'s place on a 20 × 20 lattice: what its device knows.
fn lattice_position(i: u64) -> Point {
    Point::new(
        0.025 + 0.05 * (i % 20) as f64,
        0.025 + 0.05 * (i / 20) as f64,
    )
}

/// An engine on a `grid_side` cloaking grid with 400 users of
/// requirement `k` placed on the lattice and `n_pois` gas stations.
fn lattice_engine(grid_side: u32, k: u32, n_pois: usize) -> ShardedEngine {
    let cfg = EngineConfig {
        grid_side,
        ..EngineConfig::new(world())
    };
    let mut engine = ShardedEngine::new(cfg, 1);
    engine.load_public(pois(n_pois));
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(k)).unwrap();
    for i in 0..400u64 {
        engine.register(i, profile.clone());
    }
    let rows: Vec<_> = (0..400u64)
        .map(|i| (i, lattice_position(i), SimTime::ZERO))
        .collect();
    engine.process_updates(&rows);
    engine
}

/// The core privacy invariant, end to end: with k > 1 the server never
/// receives a record that pinpoints a user, and every stored region was
/// k-anonymous when produced.
#[test]
fn server_never_sees_exact_locations() {
    let mut engine = lattice_engine(64, 10, 100);
    let rows: Vec<_> = (0..400u64)
        .map(|i| (i, lattice_position(i), SimTime::from_secs(1.0)))
        .collect();
    for (i, update) in (0..400u64).zip(engine.process_updates(&rows)) {
        let update = update.unwrap();
        assert!(
            update.region.area() > 0.0,
            "user {i}: k=10 region is not a point"
        );
        assert!(update.region.achieved_k >= 10);
        // The pseudonym is not the true id.
        assert_ne!(update.pseudonym.0, i);
    }
    assert_eq!(engine.private_len(), 400);
}

/// End-to-end QoS invariant: private range, NN and kNN queries answered
/// over cloaks and refined on the device give exactly the answer a
/// brute-force scan of the public objects gives at the true position,
/// paying only candidate-set overhead.
#[test]
fn private_queries_are_exact_after_refinement() {
    let engine = lattice_engine(32, 15, 200);
    let objects = pois(200);
    for id in (0..400u64).step_by(13) {
        let pos = lattice_position(id);
        // Every object, nearest first (ties by id).
        let mut by_dist = objects.clone();
        by_dist.sort_by(|a, b| {
            a.pos
                .dist(pos)
                .total_cmp(&b.pos.dist(pos))
                .then(a.id.cmp(&b.id))
        });
        // Range query.
        let out = engine.range_query(id, SimTime::ZERO, 0.12).unwrap();
        assert!(out.region.region.contains_point(pos));
        let mut exact: Vec<u64> = refine_range(&out.candidates, pos, 0.12)
            .iter()
            .map(|o| o.id)
            .collect();
        exact.sort_unstable();
        let mut direct: Vec<u64> = objects
            .iter()
            .filter(|o| o.pos.dist(pos) <= 0.12)
            .map(|o| o.id)
            .collect();
        direct.sort_unstable();
        assert_eq!(exact, direct, "range, user {id}");
        // NN query.
        let nn = engine.nn_query(id, SimTime::ZERO).unwrap();
        let got = refine_nn(&nn.candidates, pos).unwrap();
        assert_eq!(got.pos.dist(pos), by_dist[0].pos.dist(pos), "NN, user {id}");
        // kNN query.
        let knn = engine.knn_query(id, SimTime::ZERO, 3).unwrap();
        let got = refine_knn(&knn.candidates, pos, 3);
        assert!(knn.candidates.len() >= 3);
        let dists =
            |v: &[PublicObject]| -> Vec<f64> { v.iter().map(|o| o.pos.dist(pos)).collect() };
        assert_eq!(dists(&got), dists(&by_dist[..3]), "kNN, user {id}");
    }
}

/// Greater k must not reduce privacy and must not improve QoS: the
/// monotone trade-off claim of the paper's introduction.
#[test]
fn privacy_qos_tradeoff_is_monotone() {
    let mut area_by_k = Vec::new();
    let mut cands_by_k = Vec::new();
    for k in [2u32, 10, 50, 150] {
        let engine = lattice_engine(64, k, 300);
        let mut area = 0.0;
        let mut cands = 0usize;
        let ids: Vec<u64> = (0..400).step_by(7).collect();
        for &id in &ids {
            let out = engine.nn_query(id, SimTime::ZERO).unwrap();
            area += out.region.area();
            cands += out.candidates.len();
        }
        area_by_k.push(area / ids.len() as f64);
        cands_by_k.push(cands as f64 / ids.len() as f64);
    }
    for w in area_by_k.windows(2) {
        assert!(
            w[1] >= w[0] - 1e-12,
            "cloak area grows with k: {area_by_k:?}"
        );
    }
    assert!(
        cands_by_k.last().unwrap() > cands_by_k.first().unwrap(),
        "candidate cost grows with k: {cands_by_k:?}"
    );
}

/// Public queries degrade gracefully: the count interval always
/// brackets the true count, and a public NN query spreads probability 1
/// over cloaked candidates.
#[test]
fn public_count_interval_brackets_truth() {
    let engine = lattice_engine(64, 20, 50);
    for t in 0..20 {
        let fx = (t % 5) as f64 / 6.25;
        let fy = (t / 5) as f64 / 5.0;
        let q = Rect::new_unchecked(fx, fy, (fx + 0.3).min(1.0), (fy + 0.3).min(1.0));
        let truth = (0..400u64)
            .filter(|&i| q.contains_point(lattice_position(i)))
            .count();
        let ans = engine.public_count(q);
        assert!(
            ans.certain <= truth && truth <= ans.possible,
            "rect {t}: truth {truth} outside [{}, {}]",
            ans.certain,
            ans.possible
        );
        // The PDF agrees with the interval.
        assert!(ans.probability_of(truth) > 0.0 || ans.possible == ans.certain);
    }
    let nn = engine.public_nn(Point::new(0.5, 0.5));
    assert!(!nn.candidates.is_empty());
    assert!((nn.total_probability() - 1.0).abs() < 1e-9);
}

/// A full simulated day with the paper's profile: the pipeline works
/// under temporal requirement switches without a single failure.
#[test]
fn full_day_with_paper_profile() {
    let w = Rect::new_unchecked(0.0, 0.0, 6.0, 6.0);
    let cfg = SimulationConfig {
        users: 500,
        pois: 100,
        distribution: SpatialDistribution::three_cities(&w),
        speed: (0.002, 0.01),
        tick_seconds: 2.0 * 3600.0,
        query_fraction: 0.1,
        query_radius: 0.5,
        seed: 99,
    };
    let grid = EngineConfig {
        grid_side: 64,
        refine: true,
        ..EngineConfig::new(w)
    };
    let mut engine = SimulationEngine::new(grid, cfg, PrivacyProfile::paper_example());
    let reports = engine.run(12); // 24 hours
    assert_eq!(reports.len(), 12);
    let total_updates: usize = reports.iter().map(|r| r.updates).sum();
    assert_eq!(total_updates, 500 * 12);
    // k=1000 > 500 users, so night cloaks are flagged unsatisfied —
    // best-effort, not an error.
    let night_unsat: usize = reports.iter().map(|r| r.unsatisfied).sum();
    assert!(night_unsat > 0, "night ticks are best-effort");
    // Every NN query found its nearest station on the device.
    for r in &reports {
        assert!(r.exact_answers >= r.nn_queries);
    }
}
