//! Integration tests for user-side standing private range queries
//! (`lbsp_core`'s standing registry): the full register → move →
//! incremental refresh → deregister lifecycle, driven through the public
//! API with realistic movement sequences.

use lbsp_core::{StandingQuery, StandingQueryId, StandingRegistry};
use lbsp_geom::{Point, Rect};
use lbsp_server::{private_range_candidates, PublicObject, PublicStore};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// A 10×10 grid of public objects over the unit square.
fn grid_store() -> PublicStore {
    PublicStore::bulk_load(
        (0..100)
            .map(|i| {
                PublicObject::new(
                    i,
                    Point::new(0.05 + 0.1 * (i % 10) as f64, 0.05 + 0.1 * (i / 10) as f64),
                    0,
                )
            })
            .collect(),
    )
}

fn range(reg: &mut StandingRegistry, subject: u64, radius: f64) -> StandingQueryId {
    reg.register(StandingQuery::Range { subject, radius }, [])
}

/// The share of refreshes served from the cached candidate set.
fn reuse_rate(reg: &StandingRegistry) -> f64 {
    reg.reuses as f64 / (reg.recomputes + reg.reuses) as f64
}

fn cloak_at(x: f64, y: f64) -> Rect {
    Rect::new_unchecked(x, y, (x + 0.2).min(1.0), (y + 0.2).min(1.0))
}

/// A user walking across the world: every refresh after a *move* must
/// recompute, every refresh with an unchanged cloak must reuse, and at
/// every step the candidate set equals a from-scratch evaluation.
#[test]
fn movement_triggers_recompute_stationary_reuses() {
    let store = grid_store();
    let mut reg = StandingRegistry::new();
    let q = range(&mut reg, 1, 0.12);

    let mut recomputes_expected = 0;
    let mut reuses_expected = 0;
    for step in 0..20u32 {
        // Move on even steps, stand still on odd steps.
        let x = 0.04 * f64::from(step / 2);
        let cloak = cloak_at(x, 0.4);
        reg.on_cloak(1, &cloak, &store);
        if step % 2 == 0 {
            recomputes_expected += 1;
        } else {
            reuses_expected += 1;
        }
        assert_eq!(reg.recomputes, recomputes_expected, "step {step}");
        assert_eq!(reg.reuses, reuses_expected, "step {step}");

        let expect = private_range_candidates(&store, &cloak, 0.12);
        assert_eq!(reg.candidates(q).unwrap(), expect.as_slice(), "step {step}");
    }
    // Half the refreshes were free.
    assert!((reuse_rate(&reg) - 0.5).abs() < 1e-12);
}

/// Several users with several queries each: a cloak update refreshes
/// exactly the owner's queries (each with its own radius) and leaves
/// everyone else's cached answers untouched.
#[test]
fn refresh_is_scoped_to_the_moving_user() {
    let store = grid_store();
    let mut reg = StandingRegistry::new();
    let q_small = range(&mut reg, 1, 0.05);
    let q_large = range(&mut reg, 1, 0.3);
    let q_other = range(&mut reg, 2, 0.1);
    assert_eq!(reg.len(), 3);

    let c1 = cloak_at(0.4, 0.4);
    reg.on_cloak(1, &c1, &store);
    assert_eq!(reg.recomputes, 2, "both of user 1's queries refreshed");
    assert!(
        reg.candidates(q_other).unwrap().is_empty(),
        "user 2 untouched"
    );

    let small = reg.candidates(q_small).unwrap().len();
    let large = reg.candidates(q_large).unwrap().len();
    assert!(
        small < large,
        "a larger radius can only widen the candidate set ({small} vs {large})"
    );

    // User 2 appears far away; user 1's answers must not change.
    let before_small = reg.candidates(q_small).unwrap().to_vec();
    reg.on_cloak(2, &cloak_at(0.0, 0.0), &store);
    assert_eq!(reg.candidates(q_small).unwrap(), before_small.as_slice());
    assert_eq!(reg.recomputes, 3);
}

/// Deregistration mid-stream: the removed query stops existing, the
/// survivor keeps refreshing, and ids are never recycled.
#[test]
fn deregister_mid_stream() {
    let store = grid_store();
    let mut reg = StandingRegistry::new();
    let q1 = range(&mut reg, 1, 0.1);
    let q2 = range(&mut reg, 1, 0.1);
    reg.on_cloak(1, &cloak_at(0.4, 0.4), &store);
    assert_eq!(reg.recomputes, 2);

    assert!(reg.deregister(q1));
    assert!(!reg.deregister(q1), "double deregister is a no-op");
    assert!(reg.candidates(q1).is_none());
    assert_eq!(reg.subject(q1), None);
    assert_eq!(reg.len(), 1);

    // Subsequent movement refreshes only the survivor.
    reg.on_cloak(1, &cloak_at(0.6, 0.6), &store);
    assert_eq!(reg.recomputes, 3);
    assert!(!reg.candidates(q2).unwrap().is_empty());

    // A fresh registration gets a fresh id.
    let q3 = range(&mut reg, 3, 0.1);
    assert_ne!(q3, q1);
    assert_ne!(q3, q2);
}

/// Randomized soundness sweep: whatever the trajectory, the cached
/// candidate set always equals the from-scratch evaluation for the
/// *latest* cloak, and the reuse counters account for every refresh.
#[test]
fn cached_answers_always_match_from_scratch() {
    let store = grid_store();
    let mut rng = StdRng::seed_from_u64(99);
    let mut reg = StandingRegistry::new();
    let queries: Vec<(u64, u64)> = (0..6u64)
        .map(|user| (user, range(&mut reg, user, 0.08 + 0.02 * user as f64)))
        .collect();

    let mut refreshes = 0u64;
    for _ in 0..200 {
        let user = rng.random_range(0..6u64);
        // Quantized positions so repeated cloaks (reuses) actually occur.
        let x = f64::from(rng.random_range(0..4u32)) * 0.2;
        let y = f64::from(rng.random_range(0..4u32)) * 0.2;
        reg.on_cloak(user, &cloak_at(x, y), &store);
        refreshes += 1;

        let (_, q) = queries[user as usize];
        let radius = 0.08 + 0.02 * user as f64;
        let expect = private_range_candidates(&store, &cloak_at(x, y), radius);
        assert_eq!(reg.candidates(q).unwrap(), expect.as_slice());
    }
    assert_eq!(reg.recomputes + reg.reuses, refreshes);
    assert!(
        reg.reuses > 0,
        "quantized walk must produce repeated cloaks"
    );
    assert!(reuse_rate(&reg) > 0.0 && reuse_rate(&reg) < 1.0);
}
