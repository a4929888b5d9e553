//! Integration tests for server-side continuous query evaluation
//! (`lbsp_server::continuous`): the register → incremental
//! re-evaluation on movement → deregister lifecycle, checked against
//! from-scratch snapshot queries at every step.

use lbsp_geom::Rect;
use lbsp_server::{ContinuousRangeCount, PrivateRecord, PrivateStore, PublicCountQuery};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
    Rect::new_unchecked(x0, y0, x1, y1)
}

fn random_cloak(rng: &mut StdRng) -> Rect {
    let x0: f64 = rng.random_range(0.0..0.85);
    let y0: f64 = rng.random_range(0.0..0.85);
    let w: f64 = rng.random_range(0.02..0.15);
    let h: f64 = rng.random_range(0.02..0.15);
    rect(x0, y0, (x0 + w).min(1.0), (y0 + h).min(1.0))
}

/// A churning population — arrivals, movement, departures — against
/// three standing areas: the incrementally-maintained expected count
/// and interval equal a from-scratch evaluation after every update.
#[test]
fn incremental_equals_snapshot_under_churn() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut store = PrivateStore::new();
    let mut cont = ContinuousRangeCount::new();
    let areas = [
        rect(0.0, 0.0, 0.3, 0.3),
        rect(0.2, 0.2, 0.8, 0.8),
        rect(0.7, 0.0, 1.0, 1.0),
    ];
    let qs: Vec<_> = areas
        .iter()
        .map(|a| cont.register(*a, std::iter::empty()))
        .collect();

    for step in 0..400u64 {
        let id = rng.random_range(0..40u64);
        let departs = rng.random_range(0..10u32) == 0;
        if departs {
            if let Some(old) = store.remove(id) {
                cont.on_update(id, Some(&old), None);
            } else {
                cont.on_update(id, None, None);
            }
        } else {
            let region = random_cloak(&mut rng);
            let old = store.upsert(PrivateRecord::new(id, region));
            cont.on_update(id, old.as_ref(), Some(&region));
        }
        for (q, area) in qs.iter().zip(&areas) {
            let full = PublicCountQuery::new(*area).evaluate(store.iter());
            let inc = cont.expected(*q).unwrap();
            assert!(
                (full.expected - inc).abs() < 1e-9,
                "step {step}: incremental {inc} vs full {}",
                full.expected
            );
            let (certain, possible) = cont.interval(*q).unwrap();
            assert_eq!(possible, full.possible, "step {step}");
            assert!(certain <= possible, "step {step}");
        }
    }
    assert_eq!(cont.updates_processed(), 400);
}

/// Registering mid-stream seeds the query from the records already in
/// the store — a late subscriber sees the same count as one registered
/// from the start.
#[test]
fn late_registration_seeds_from_current_records() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = PrivateStore::new();
    let mut cont = ContinuousRangeCount::new();
    let area = rect(0.25, 0.25, 0.75, 0.75);
    let early = cont.register(area, std::iter::empty());

    for id in 0..25u64 {
        let region = random_cloak(&mut rng);
        let old = store.upsert(PrivateRecord::new(id, region));
        cont.on_update(id, old.as_ref(), Some(&region));
    }
    let late = cont.register(area, store.iter().map(|r| (r.pseudonym, r.region)));
    assert!(
        (cont.expected(early).unwrap() - cont.expected(late).unwrap()).abs() < 1e-9,
        "late subscriber must agree with the early one"
    );
    assert_eq!(cont.interval(early), cont.interval(late));

    // And they keep agreeing as the population moves on.
    for id in 0..25u64 {
        let region = random_cloak(&mut rng);
        let old = store.upsert(PrivateRecord::new(id, region));
        cont.on_update(id, old.as_ref(), Some(&region));
    }
    assert!((cont.expected(early).unwrap() - cont.expected(late).unwrap()).abs() < 1e-9);
}

/// Deregistration removes the query immediately; surviving queries keep
/// being maintained and query ids are never recycled.
#[test]
fn deregistration_stops_maintenance() {
    let mut cont = ContinuousRangeCount::new();
    let area = rect(0.0, 0.0, 1.0, 1.0);
    let q1 = cont.register(area, std::iter::empty());
    let q2 = cont.register(area, std::iter::empty());

    let r = rect(0.4, 0.4, 0.6, 0.6);
    cont.on_update(1, None, Some(&r));
    assert!((cont.expected(q1).unwrap() - 1.0).abs() < 1e-12);

    assert!(cont.deregister(q1));
    assert!(!cont.deregister(q1));
    assert_eq!(cont.expected(q1), None);
    assert_eq!(cont.len(), 1);

    // q2 still tracks updates after q1 is gone.
    cont.on_update(2, None, Some(&r));
    assert!((cont.expected(q2).unwrap() - 2.0).abs() < 1e-12);

    let q3 = cont.register(area, std::iter::empty());
    assert_ne!(q3, q1, "ids are not recycled");
    assert_ne!(q3, q2);
}

/// The PDF derived from the maintained contributions matches a snapshot
/// evaluation even after records both entered and left the area.
#[test]
fn pdf_stays_consistent_after_movement() {
    let area = rect(0.0, 0.0, 0.5, 0.5);
    let mut store = PrivateStore::new();
    let mut cont = ContinuousRangeCount::new();
    let q = cont.register(area, std::iter::empty());

    // Three records: inside, straddling, then one moves fully outside.
    let placements = [
        (0u64, rect(0.1, 0.1, 0.2, 0.2)),
        (1, rect(0.4, 0.4, 0.6, 0.6)),
        (2, rect(0.2, 0.2, 0.3, 0.3)),
        (2, rect(0.7, 0.7, 0.9, 0.9)), // record 2 leaves the area
    ];
    for (id, region) in placements {
        let old = store.upsert(PrivateRecord::new(id, region));
        cont.on_update(id, old.as_ref(), Some(&region));
    }
    let snapshot = PublicCountQuery::new(area).evaluate(store.iter());
    let live = cont.pdf(q).unwrap();
    for k in 0..=3 {
        assert!(
            (snapshot.pdf.pmf(k) - live.pmf(k)).abs() < 1e-9,
            "pmf({k}) diverged"
        );
    }
}
