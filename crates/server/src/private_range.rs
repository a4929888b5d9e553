//! Private range queries over public data (Fig. 5a).
//!
//! "A mobile user in the shaded area is asking about all target objects
//! within three miles of her location. Since the privacy-aware
//! location-based database server has no idea about the exact location
//! of the mobile user within the shaded area, it should return all
//! target objects that can be within three miles from ANY point in the
//! shaded area."
//!
//! The exact answer region is the Minkowski sum of the cloaked rectangle
//! with a disk of the query radius — the "rounded rectangle" of Fig. 5a.
//! The paper notes real implementations approximate it by its MBR; we
//! use the MBR as the index prefilter and then apply the exact rounded
//! test (`min_dist(point, rect) <= r`), which is both cheap and strictly
//! better than stopping at the MBR.

use crate::{PublicObject, PublicStore};
use lbsp_geom::{min_dist_point_rect, Point, Rect};

/// Candidate set for a private range query: every public object that
/// could be within `radius` of some point of `cloak`, in ascending id
/// order (the canonical wire order — independent of how the backing
/// store happens to iterate, so sequential and sharded paths agree
/// byte-for-byte).
///
/// Guarantee (tested): for any true user position inside `cloak`, every
/// object within `radius` of that position is in the returned set —
/// i.e. the candidate list always contains the full exact answer.
pub fn private_range_candidates(
    store: &PublicStore,
    cloak: &Rect,
    radius: f64,
) -> Vec<PublicObject> {
    let radius = radius.max(0.0);
    // MBR of the rounded rectangle (paper's stated approximation) as the
    // index prefilter...
    let mbr = cloak.expanded(radius).expect("radius clamped non-negative");
    // ...then the exact rounded-rectangle test, point to cloak.
    store.objects_in(&mbr, |p| min_dist_point_rect(p, cloak) <= radius)
}

/// The client-side refinement step: the mobile user filters the
/// candidate list against her exact position ("internally, the mobile
/// user will go through the candidate list to find the actual answer").
// lint: allow(taint) -- refinement runs on the user's own device; the
// exact position never leaves the trusted side of the boundary.
pub fn refine_range(
    candidates: &[PublicObject],
    true_pos: Point,
    radius: f64,
) -> Vec<PublicObject> {
    candidates
        .iter()
        .filter(|o| o.pos.dist(true_pos) <= radius)
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_geom::uniform_point_in_rect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store_grid() -> PublicStore {
        // 10x10 lattice of objects.
        let objects: Vec<_> = (0..100)
            .map(|i| {
                PublicObject::new(
                    i,
                    Point::new(0.05 + 0.1 * (i % 10) as f64, 0.05 + 0.1 * (i / 10) as f64),
                    0,
                )
            })
            .collect();
        PublicStore::bulk_load(objects)
    }

    #[test]
    fn candidates_cover_exact_answer_for_any_position() {
        let store = store_grid();
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        let radius = 0.15;
        let candidates = private_range_candidates(&store, &cloak, radius);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let pos = uniform_point_in_rect(&mut rng, &cloak);
            let exact: Vec<_> = store
                .iter()
                .filter(|o| o.pos.dist(pos) <= radius)
                .map(|o| o.id)
                .collect();
            for id in &exact {
                assert!(
                    candidates.iter().any(|c| c.id == *id),
                    "object {id} missing from candidates for position {pos}"
                );
            }
            // And refinement returns exactly the exact answer.
            let refined = refine_range(&candidates, pos, radius);
            assert_eq!(refined.len(), exact.len());
        }
    }

    #[test]
    fn candidates_are_tight_rounded_rect_not_mbr() {
        // An object near the corner of the expanded MBR but outside the
        // rounded rectangle must NOT be a candidate.
        let mut store = PublicStore::new();
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        let r = 0.1;
        // Corner of MBR: (0.3, 0.3). Distance from cloak corner (0.4,0.4)
        // is sqrt(0.02) ~ 0.141 > 0.1: inside MBR, outside rounded rect.
        store.insert(PublicObject::new(1, Point::new(0.31, 0.31), 0));
        // On-axis point at distance 0.09: a genuine candidate.
        store.insert(PublicObject::new(2, Point::new(0.31, 0.5), 0));
        let c = private_range_candidates(&store, &cloak, r);
        let ids: Vec<_> = c.iter().map(|o| o.id).collect();
        assert!(!ids.contains(&1), "MBR corner artifact must be excluded");
        assert!(ids.contains(&2));
    }

    #[test]
    fn zero_radius_returns_objects_inside_cloak() {
        let store = store_grid();
        let cloak = Rect::new_unchecked(0.0, 0.0, 0.25, 0.25);
        let c = private_range_candidates(&store, &cloak, 0.0);
        // Lattice points inside [0,0.25]^2: 0.05, 0.15, 0.25 in each axis.
        assert_eq!(c.len(), 9);
        // Negative radius clamps to zero rather than panicking.
        let neg = private_range_candidates(&store, &cloak, -1.0);
        assert_eq!(neg.len(), 9);
    }

    #[test]
    fn degenerate_cloak_reduces_to_plain_range_query() {
        let store = store_grid();
        let pos = Point::new(0.55, 0.55);
        let cloak = Rect::from_point(pos);
        let c = private_range_candidates(&store, &cloak, 0.12);
        let exact: Vec<_> = store
            .iter()
            .filter(|o| o.pos.dist(pos) <= 0.12)
            .map(|o| o.id)
            .collect();
        assert_eq!(c.len(), exact.len());
    }

    #[test]
    fn candidate_count_grows_with_cloak_area_and_radius() {
        let store = store_grid();
        let small =
            private_range_candidates(&store, &Rect::new_unchecked(0.45, 0.45, 0.55, 0.55), 0.1);
        let bigger_cloak =
            private_range_candidates(&store, &Rect::new_unchecked(0.3, 0.3, 0.7, 0.7), 0.1);
        let bigger_radius =
            private_range_candidates(&store, &Rect::new_unchecked(0.45, 0.45, 0.55, 0.55), 0.25);
        assert!(bigger_cloak.len() > small.len());
        assert!(bigger_radius.len() > small.len());
    }

    #[test]
    fn empty_store_yields_no_candidates() {
        let store = PublicStore::new();
        let c = private_range_candidates(&store, &Rect::new_unchecked(0.0, 0.0, 1.0, 1.0), 1.0);
        assert!(c.is_empty());
    }
}
