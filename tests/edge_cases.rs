//! Adversarial and degenerate scenarios across the whole stack —
//! failure-injection coverage beyond the happy paths.

use privacy_lbs::anonymizer::{
    CloakError, CloakRequirement, CloakingAlgorithm, GridCloak, MbrCloak, NaiveCloak,
    PrivacyProfile, QuadCloak,
};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::server::{
    private_nn_candidates, private_range_candidates, refine_nn, PrivateRecord, PrivateStore,
    PublicCountQuery, PublicNnQuery, PublicObject, PublicStore,
};
use privacy_lbs::system::{wire, EngineConfig, ShardedEngine};

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn all_algorithms() -> Vec<Box<dyn CloakingAlgorithm>> {
    vec![
        Box::new(NaiveCloak::new(world(), 8)),
        Box::new(MbrCloak::new(world(), 8)),
        Box::new(QuadCloak::new(world(), 5)),
        Box::new(QuadCloak::new(world(), 5).with_neighbor_merge(true)),
        Box::new(GridCloak::new(world(), 8)),
        Box::new(GridCloak::new(world(), 8).with_refinement(true)),
    ]
}

/// A population of exactly one user: k=1 works, k=2 is best-effort.
#[test]
fn lone_user_in_the_world() {
    for mut algo in all_algorithms() {
        algo.upsert(0, Point::new(0.5, 0.5));
        let ok = algo.cloak(0, &CloakRequirement::none()).unwrap();
        assert!(ok.fully_satisfied(), "{}", algo.name());
        let best_effort = algo.cloak(0, &CloakRequirement::k_only(2)).unwrap();
        assert!(!best_effort.k_satisfied, "{}", algo.name());
        assert_eq!(best_effort.achieved_k, 1, "{}", algo.name());
        assert!(
            best_effort.region.contains_point(Point::new(0.5, 0.5)),
            "{}",
            algo.name()
        );
    }
}

/// Every user at the same point: k is trivially satisfiable but areas
/// are degenerate; a_min forces real area.
#[test]
fn fully_coincident_population() {
    for mut algo in all_algorithms() {
        for i in 0..50u64 {
            algo.upsert(i, Point::new(0.25, 0.75));
        }
        let c = algo.cloak(0, &CloakRequirement::k_only(50)).unwrap();
        assert!(c.k_satisfied, "{}", algo.name());
        let with_area = algo
            .cloak(
                0,
                &CloakRequirement {
                    k: 50,
                    a_min: 0.01,
                    a_max: f64::INFINITY,
                },
            )
            .unwrap();
        assert!(with_area.fully_satisfied(), "{}", algo.name());
        assert!(with_area.area() >= 0.01 - 1e-9, "{}", algo.name());
    }
}

/// Users exactly at world corners: cloaks stay inside the world and
/// still contain their subject.
#[test]
fn corner_users() {
    let corners = [
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.0),
        Point::new(1.0, 1.0),
    ];
    for mut algo in all_algorithms() {
        for (i, c) in corners.iter().enumerate() {
            algo.upsert(i as u64, *c);
        }
        for i in 4..20u64 {
            algo.upsert(i, Point::new(0.5, 0.5));
        }
        for (i, c) in corners.iter().enumerate() {
            let cloak = algo.cloak(i as u64, &CloakRequirement::k_only(5)).unwrap();
            assert!(world().contains_rect(&cloak.region), "{}", algo.name());
            assert!(cloak.region.contains_point(*c), "{}", algo.name());
            assert!(cloak.k_satisfied, "{}", algo.name());
        }
    }
}

/// A neighbour at a non-finite position, or just outside the world, is a
/// member of no grid cell: it neither counts in the cloak of a block it
/// is not inside nor leaves the cloak short of k. A is at (0.1, 0.1) and
/// B at (0.3, 0.1). On a 4 × 4 grid, A's block takes B's column. The
/// quad cloak's leaves are a quarter of the world a side, so it climbs to
/// A's half-world quadrant, or merges A's leaf with B's.
#[test]
fn out_of_world_neighbour_does_not_stop_a_grid_cloak_short() {
    let (a, b) = (Point::new(0.1, 0.1), Point::new(0.3, 0.1));
    let (quarter, half) = (
        Rect::new_unchecked(0.0, 0.0, 0.5, 0.25),
        Rect::new_unchecked(0.0, 0.0, 0.5, 0.5),
    );
    for neighbour in [Point::new(f64::NAN, 0.1), Point::new(-0.01, 0.1)] {
        let cloaks: [(Box<dyn CloakingAlgorithm>, Rect); 4] = [
            (Box::new(GridCloak::new(world(), 4)), quarter),
            (
                Box::new(GridCloak::new(world(), 4).with_refinement(true)),
                quarter,
            ),
            (Box::new(QuadCloak::new(world(), 2)), half),
            (
                Box::new(QuadCloak::new(world(), 2).with_neighbor_merge(true)),
                quarter,
            ),
        ];
        for (mut algo, region) in cloaks {
            algo.upsert(0, a);
            algo.upsert(1, b);
            algo.upsert(2, neighbour);
            let c = algo.cloak(0, &CloakRequirement::k_only(2)).unwrap();
            let what = format!("{}, neighbour {neighbour:?}", algo.name());
            assert!(c.k_satisfied, "{what}");
            assert_eq!(c.achieved_k, 2, "{what}");
            assert_eq!(algo.count_in_region(&c.region), 2, "{what}");
            assert_eq!(c.region, region, "{what}");
        }
    }
}

/// Contradictory profile: huge k with a tiny a_max. k wins (paper's
/// requirement 1 is the "minimum requirement"), area flag reports the
/// contradiction.
#[test]
fn contradictory_profile_is_best_effort_not_error() {
    for mut algo in all_algorithms() {
        for i in 0..100u64 {
            let x = 0.05 + 0.09 * (i % 10) as f64;
            let y = 0.05 + 0.09 * (i / 10) as f64;
            algo.upsert(i, Point::new(x, y));
        }
        let req = CloakRequirement {
            k: 80,
            a_min: 0.0,
            a_max: 1e-6,
        };
        let c = algo.cloak(0, &req).unwrap();
        assert!(c.k_satisfied, "{}: k has priority", algo.name());
        assert!(!c.area_satisfied, "{}: contradiction reported", algo.name());
    }
}

/// a_max = a_min = 0 with k = 1 degenerates to the exact point and is
/// satisfied.
#[test]
fn zero_area_bounds_with_no_privacy() {
    let mut algo = QuadCloak::new(world(), 5);
    algo.upsert(0, Point::new(0.3, 0.3));
    let req = CloakRequirement {
        k: 1,
        a_min: 0.0,
        a_max: 0.0,
    };
    let c = algo.cloak(0, &req).unwrap();
    assert!(c.fully_satisfied());
    assert_eq!(c.area(), 0.0);
}

/// Invalid requirements are rejected uniformly.
#[test]
fn invalid_requirements_error() {
    let mut algo = GridCloak::new(world(), 8);
    algo.upsert(0, Point::new(0.5, 0.5));
    for req in [
        CloakRequirement {
            k: 0,
            a_min: 0.0,
            a_max: 1.0,
        },
        CloakRequirement {
            k: 5,
            a_min: -0.1,
            a_max: 1.0,
        },
        CloakRequirement {
            k: 5,
            a_min: 0.5,
            a_max: 0.1,
        },
        CloakRequirement {
            k: 5,
            a_min: f64::NAN,
            a_max: 1.0,
        },
        CloakRequirement {
            k: 5,
            a_min: 0.0,
            a_max: f64::NAN,
        },
    ] {
        assert!(matches!(
            algo.cloak(0, &req),
            Err(CloakError::InvalidRequirement(_))
        ));
    }
}

/// Queries against an empty server and an empty world population.
#[test]
fn empty_server_queries() {
    let empty_public = PublicStore::new();
    let cloak = Rect::new_unchecked(0.2, 0.2, 0.4, 0.4);
    assert!(private_range_candidates(&empty_public, &cloak, 0.5).is_empty());
    assert!(private_nn_candidates(&empty_public, &cloak).is_empty());

    let empty_private = PrivateStore::new();
    let count = PublicCountQuery::new(world()).evaluate(empty_private.iter());
    assert_eq!(count.expected, 0.0);
    let nn = PublicNnQuery::new(Point::new(0.5, 0.5)).evaluate(empty_private.iter());
    assert!(nn.candidates.is_empty());
}

/// Private records with degenerate (point) regions work through all
/// public queries.
#[test]
fn degenerate_private_records() {
    let mut store = PrivateStore::new();
    for i in 0..10u64 {
        store.upsert(PrivateRecord::new(
            i,
            Rect::from_point(Point::new(0.1 * i as f64, 0.5)),
        ));
    }
    let count =
        PublicCountQuery::new(Rect::new_unchecked(0.0, 0.0, 0.45, 1.0)).evaluate(store.iter());
    // Points at x = 0.0..=0.4 are inside: 5 certain.
    assert_eq!(count.certain, 5);
    assert_eq!(count.possible, 5);
    assert_eq!(count.expected, 5.0);
    let nn = PublicNnQuery::new(Point::new(0.21, 0.5)).evaluate(store.iter());
    assert_eq!(nn.most_probable(), Some(2));
    assert_eq!(nn.candidates[0].probability, 1.0);
}

/// Garbage bytes never decode into wire messages, and truncation at
/// every length is rejected.
#[test]
fn wire_rejects_garbage() {
    let garbage = vec![0xFFu8; 64];
    // NaN bounds: f64 from 0xFF.. bytes is NaN -> invalid rect.
    assert!(wire::decode_cloaked_update(&garbage).is_none());
    for len in 0..wire::CLOAKED_UPDATE_LEN {
        assert!(wire::decode_cloaked_update(&garbage[..len]).is_none());
    }
    for len in 0..wire::EXACT_UPDATE_LEN {
        assert!(wire::decode_exact_update(&garbage[..len]).is_none());
    }
}

/// The engine rejects flows for unknown users but keeps serving others.
#[test]
fn partial_failures_are_isolated() {
    let mut engine = ShardedEngine::new(EngineConfig::new(world()), 1);
    engine.load_public(vec![PublicObject::new(0, Point::new(0.5, 0.5), 0)]);
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(2)).unwrap();
    engine.register(1, profile.clone());
    engine.register(2, profile);
    let rows = [
        (1, Point::new(0.4, 0.4), SimTime::ZERO),
        (99, Point::ORIGIN, SimTime::ZERO),
        (2, Point::new(0.41, 0.41), SimTime::ZERO),
    ];
    let out = engine.process_updates(&rows);
    // Unknown user errors...
    assert!(matches!(out[1], Err(CloakError::UnknownUser(99))));
    assert!(engine.nn_query(99, SimTime::ZERO).is_err());
    // ...while known users keep working.
    assert!(out[0].is_ok() && out[2].is_ok());
    let answer = engine.nn_query(1, SimTime::ZERO).unwrap();
    assert_eq!(
        refine_nn(&answer.candidates, Point::new(0.4, 0.4))
            .unwrap()
            .id,
        0
    );
}

/// Extreme k values: u32::MAX must not overflow or hang.
#[test]
fn extreme_k_is_graceful() {
    let mut algo = QuadCloak::new(world(), 5);
    for i in 0..10u64 {
        algo.upsert(i, Point::new(0.1 * i as f64, 0.5));
    }
    let c = algo.cloak(0, &CloakRequirement::k_only(u32::MAX)).unwrap();
    assert!(!c.k_satisfied);
    assert_eq!(c.region, world());
}
