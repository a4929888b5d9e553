//! Integration tests for standing count queries (`lbsp_core`'s
//! standing registry): the register → incremental re-evaluation on
//! movement → deregister lifecycle, checked against from-scratch
//! snapshot queries at every step, and a kept sum that does not depend
//! on the order of the edits behind it.

use lbsp_core::{StandingQuery, StandingQueryId, StandingRegistry};
use lbsp_geom::Rect;
use lbsp_server::{PrivateRecord, PrivateStore, PublicCountQuery};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
    Rect::new_unchecked(x0, y0, x1, y1)
}

fn count(reg: &mut StandingRegistry, area: Rect) -> StandingQueryId {
    reg.register(StandingQuery::Count { area }, [])
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
    let mut cont = StandingRegistry::new();
    let areas = [
        rect(0.0, 0.0, 0.3, 0.3),
        rect(0.2, 0.2, 0.8, 0.8),
        rect(0.7, 0.0, 1.0, 1.0),
    ];
    let qs: Vec<_> = areas.iter().map(|a| count(&mut cont, *a)).collect();

    for step in 0..400u64 {
        let id = rng.random_range(0..40u64);
        let departs = rng.random_range(0..10u32) == 0;
        if departs {
            if let Some(old) = store.remove(id) {
                cont.on_record(id, Some(&old), None, true);
            } else {
                cont.on_record(id, None, None, true);
            }
        } else {
            let region = random_cloak(&mut rng);
            let old = store.upsert(PrivateRecord::new(id, region));
            cont.on_record(id, old.as_ref(), Some(&region), true);
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
    let mut cont = StandingRegistry::new();
    let area = rect(0.25, 0.25, 0.75, 0.75);
    let early = count(&mut cont, area);

    for id in 0..25u64 {
        let region = random_cloak(&mut rng);
        let old = store.upsert(PrivateRecord::new(id, region));
        cont.on_record(id, old.as_ref(), Some(&region), true);
    }
    let seeds = store.iter().map(|r| (r.pseudonym, r.region));
    let late = cont.register(StandingQuery::Count { area }, seeds);
    assert!(
        (cont.expected(early).unwrap() - cont.expected(late).unwrap()).abs() < 1e-9,
        "late subscriber must agree with the early one"
    );
    assert_eq!(cont.interval(early), cont.interval(late));

    // And they keep agreeing as the population moves on.
    for id in 0..25u64 {
        let region = random_cloak(&mut rng);
        let old = store.upsert(PrivateRecord::new(id, region));
        cont.on_record(id, old.as_ref(), Some(&region), true);
    }
    assert!((cont.expected(early).unwrap() - cont.expected(late).unwrap()).abs() < 1e-9);
}

/// Deregistration removes the query immediately; surviving queries keep
/// being maintained and query ids are never recycled.
#[test]
fn deregistration_stops_maintenance() {
    let mut cont = StandingRegistry::new();
    let area = rect(0.0, 0.0, 1.0, 1.0);
    let q1 = count(&mut cont, area);
    let q2 = count(&mut cont, area);

    let r = rect(0.4, 0.4, 0.6, 0.6);
    cont.on_record(1, None, Some(&r), true);
    assert!((cont.expected(q1).unwrap() - 1.0).abs() < 1e-12);

    assert!(cont.deregister(q1));
    assert!(!cont.deregister(q1));
    assert_eq!(cont.expected(q1), None);
    assert_eq!(cont.len(), 1);

    // q2 still tracks updates after q1 is gone.
    cont.on_record(2, None, Some(&r), true);
    assert!((cont.expected(q2).unwrap() - 2.0).abs() < 1e-12);

    let q3 = count(&mut cont, area);
    assert_ne!(q3, q1, "ids are not recycled");
    assert_ne!(q3, q2);
}

/// The PDF derived from the maintained contributions matches a snapshot
/// evaluation even after records both entered and left the area.
#[test]
fn pdf_stays_consistent_after_movement() {
    let area = rect(0.0, 0.0, 0.5, 0.5);
    let mut store = PrivateStore::new();
    let mut cont = StandingRegistry::new();
    let q = count(&mut cont, area);

    // Three records: inside, straddling, then one moves fully outside.
    let placements = [
        (0u64, rect(0.1, 0.1, 0.2, 0.2)),
        (1, rect(0.4, 0.4, 0.6, 0.6)),
        (2, rect(0.2, 0.2, 0.3, 0.3)),
        (2, rect(0.7, 0.7, 0.9, 0.9)), // record 2 leaves the area
    ];
    for (id, region) in placements {
        let old = store.upsert(PrivateRecord::new(id, region));
        cont.on_record(id, old.as_ref(), Some(&region), true);
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

/// The kept sum is exact: the same contribution edits — arrivals,
/// moves and departures — applied in several orders (each pseudonym's
/// own edits in their order) leave bit-equal expected counts and equal
/// exported answers, however the edits of different pseudonyms
/// interleave.
#[test]
fn the_expected_count_does_not_depend_on_the_order_of_edits() {
    let mut rng = StdRng::seed_from_u64(2006);
    let areas = [rect(0.0, 0.0, 0.6, 0.6), rect(0.3, 0.2, 1.0, 0.9)];
    // Per pseudonym: its cloaks in turn, `None` a departure.
    let paths: Vec<Vec<Option<Rect>>> = (0..60)
        .map(|i| {
            let mut path: Vec<Option<Rect>> =
                (0..3).map(|_| Some(random_cloak(&mut rng))).collect();
            if i % 4 == 0 {
                path.push(None);
            }
            path
        })
        .collect();
    let replay = |order: &[usize]| {
        let mut reg = StandingRegistry::new();
        let ids: Vec<_> = areas.iter().map(|&a| count(&mut reg, a)).collect();
        let mut at = vec![0usize; paths.len()];
        for &p in order {
            let old = at[p].checked_sub(1).and_then(|s| paths[p][s]);
            reg.on_record(p as u64, old.as_ref(), paths[p][at[p]].as_ref(), true);
            at[p] += 1;
        }
        let expected: Vec<u64> = ids
            .iter()
            .map(|&q| reg.expected(q).unwrap().to_bits())
            .collect();
        let state = reg.export_state();
        let answers: Vec<_> = state.entries.into_iter().map(|e| e.entry).collect();
        (
            expected,
            answers,
            state.updates_processed,
            state.examined_total,
        )
    };
    // Pseudonym by pseudonym, step by step across pseudonyms, backwards
    // over pseudonyms, and random interleavings.
    let by_pseudonym: Vec<usize> = (0..paths.len())
        .flat_map(|p| std::iter::repeat_n(p, paths[p].len()))
        .collect();
    let by_step: Vec<usize> = (0..4)
        .flat_map(|s| {
            let paths = &paths;
            (0..paths.len()).filter(move |&p| s < paths[p].len())
        })
        .collect();
    let mut orders = vec![by_step, by_pseudonym.iter().rev().copied().collect()];
    for _ in 0..4 {
        let mut left: Vec<usize> = paths.iter().map(Vec::len).collect();
        let mut order = Vec::new();
        while let Some(p) = {
            let live: Vec<usize> = (0..paths.len()).filter(|&p| left[p] > 0).collect();
            (!live.is_empty()).then(|| live[rng.random_range(0..live.len())])
        } {
            left[p] -= 1;
            order.push(p);
        }
        orders.push(order);
    }
    let want = replay(&by_pseudonym);
    assert!(want.0.iter().all(|&bits| f64::from_bits(bits) > 1.0));
    for (i, order) in orders.iter().enumerate() {
        assert_eq!(replay(order), want, "order {i}");
    }
}
