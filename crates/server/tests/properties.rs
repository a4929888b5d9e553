//! Property-based tests of the query-processor guarantees.
//!
//! The headline invariants: private-query candidate sets are sound for
//! *every* possible user position inside the cloak; probabilistic count
//! answers are coherent (interval brackets reality, PDF is a
//! distribution whose mean is the expected count); public NN pruning
//! never discards a possible winner.

use lbsp_geom::{uniform_point_in_rect, Point, Rect};
use lbsp_server::{
    private_nn_candidates, private_range_candidates, refine_nn, refine_range, PoissonBinomial,
    PrivateRecord, PrivateStore, PublicCountQuery, PublicNnQuery, PublicObject, PublicStore,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

prop_compose! {
    fn upoint()(x in 0.0f64..1.0, y in 0.0f64..1.0) -> Point {
        Point::new(x, y)
    }
}

prop_compose! {
    fn urect()(x0 in 0.0f64..0.9, y0 in 0.0f64..0.9, w in 0.001f64..0.3, h in 0.001f64..0.3) -> Rect {
        Rect::new_unchecked(x0, y0, (x0 + w).min(1.0), (y0 + h).min(1.0))
    }
}

fn store_of(pts: &[Point]) -> PublicStore {
    PublicStore::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| PublicObject::new(i as u64, *p, 0))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn private_range_candidates_are_sound_and_tight(
        pts in prop::collection::vec(upoint(), 1..150),
        cloak in urect(),
        radius in 0.0f64..0.3,
        seed in 0u64..1000,
    ) {
        let store = store_of(&pts);
        let candidates = private_range_candidates(&store, &cloak, radius);
        // Soundness at random in-cloak positions.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..25 {
            let pos = uniform_point_in_rect(&mut rng, &cloak);
            let exact: Vec<u64> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist(pos) <= radius)
                .map(|(i, _)| i as u64)
                .collect();
            for id in &exact {
                prop_assert!(candidates.iter().any(|c| c.id == *id));
            }
            prop_assert_eq!(refine_range(&candidates, pos, radius).len(), exact.len());
        }
        // Tightness: every candidate is within radius of the cloak.
        for c in &candidates {
            prop_assert!(
                lbsp_geom::min_dist_point_rect(c.pos, &cloak) <= radius + 1e-9
            );
        }
    }

    #[test]
    fn private_nn_candidates_are_sound(
        pts in prop::collection::vec(upoint(), 1..120),
        cloak in urect(),
        seed in 0u64..1000,
    ) {
        let store = store_of(&pts);
        let candidates = private_nn_candidates(&store, &cloak);
        prop_assert!(!candidates.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..40 {
            let pos = uniform_point_in_rect(&mut rng, &cloak);
            let best = pts
                .iter()
                .map(|p| p.dist(pos))
                .fold(f64::INFINITY, f64::min);
            let refined = refine_nn(&candidates, pos).unwrap();
            prop_assert!(
                (refined.pos.dist(pos) - best).abs() < 1e-9,
                "candidate refinement must equal the true NN distance"
            );
        }
    }

    #[test]
    fn count_answer_is_coherent(
        regions in prop::collection::vec(urect(), 0..60),
        q in urect(),
    ) {
        let mut store = PrivateStore::new();
        for (i, r) in regions.iter().enumerate() {
            store.upsert(PrivateRecord::new(i as u64, *r));
        }
        let ans = PublicCountQuery::new(q).evaluate(store.iter());
        prop_assert!(ans.certain <= ans.possible);
        prop_assert!(ans.expected >= ans.certain as f64 - 1e-9);
        prop_assert!(ans.expected <= ans.possible as f64 + 1e-9);
        // The PDF is a distribution with the right mean.
        let total: f64 = ans.pdf.pmf_vec().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!((ans.pdf.mean() - ans.expected).abs() < 1e-6);
        // Counts below `certain` or above `possible` are impossible.
        for k in 0..ans.certain {
            prop_assert!(ans.probability_of(k) < 1e-9);
        }
        prop_assert!(ans.probability_of(ans.possible + 1) == 0.0);
    }

    #[test]
    fn count_interval_brackets_any_consistent_reality(
        positions in prop::collection::vec(upoint(), 1..60),
        k_half in 0.001f64..0.2,
        q in urect(),
    ) {
        // Build cloaks that truly contain their subject (centered
        // squares, clamped), then check the interval brackets the true
        // count — the scenario a deployed server faces.
        let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
        let mut store = PrivateStore::new();
        for (i, p) in positions.iter().enumerate() {
            let cloak = Rect::centered_square(*p, k_half).unwrap().clamped_to(&world);
            store.upsert(PrivateRecord::new(i as u64, cloak));
        }
        let truth = positions.iter().filter(|p| q.contains_point(**p)).count();
        let ans = PublicCountQuery::new(q).evaluate(store.iter());
        prop_assert!(ans.certain <= truth, "certain {} > truth {}", ans.certain, truth);
        prop_assert!(truth <= ans.possible, "truth {} > possible {}", truth, ans.possible);
    }

    #[test]
    fn poisson_binomial_is_a_distribution(
        probs in prop::collection::vec(0.0f64..=1.0, 0..80),
    ) {
        let d = PoissonBinomial::new(&probs);
        let total: f64 = d.pmf_vec().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let expected: f64 = probs.iter().sum();
        prop_assert!((d.mean() - expected).abs() < 1e-6);
        prop_assert_eq!(d.trials(), probs.len());
        // Survival function is monotone decreasing.
        for k in 0..probs.len() {
            prop_assert!(d.sf(k) >= d.sf(k + 1) - 1e-12);
        }
    }

    #[test]
    fn public_nn_pruning_never_discards_a_possible_winner(
        regions in prop::collection::vec(urect(), 1..40),
        from in upoint(),
        seed in 0u64..500,
    ) {
        let mut store = PrivateStore::new();
        for (i, r) in regions.iter().enumerate() {
            store.upsert(PrivateRecord::new(i as u64, *r));
        }
        let query = PublicNnQuery::new(from).with_seed(seed);
        let kept: std::collections::HashSet<u64> = query
            .candidate_records(store.iter())
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        // Simulate true positions; the winner must always have been kept.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..50 {
            let mut best = (f64::INFINITY, 0u64);
            for (i, r) in regions.iter().enumerate() {
                let p = uniform_point_in_rect(&mut rng, r);
                let d = from.dist(p);
                if d < best.0 {
                    best = (d, i as u64);
                }
            }
            prop_assert!(
                kept.contains(&best.1),
                "winner {} was pruned (kept: {:?})",
                best.1,
                kept
            );
        }
        // Probabilities sum to ~1.
        let ans = query.evaluate(store.iter());
        prop_assert!((ans.total_probability() - 1.0).abs() < 1e-9);
    }
}
