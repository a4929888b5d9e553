//! Private nearest-neighbor queries over public data (Fig. 5b).
//!
//! "The privacy-aware query processor should manage to compute the set
//! of target objects that can be nearest to ANY point in the shaded
//! area." The paper's example shows both effects our algorithm must
//! reproduce: an object *nearer to the region* can be excluded when two
//! other objects dominate it everywhere in the region (target A), while
//! farther objects must stay because some corner of the region is
//! closest to them (target D).
//!
//! Algorithm — exact range-NN candidate set:
//!
//! 1. **Min/max-dist prefilter.** Any object `o*` gives the guarantee
//!    that every point of the cloak has a neighbor within
//!    `max_dist(o*, R)`; objects with `min_dist(o, R)` beyond the best
//!    such bound can never win and are pruned with one index pass.
//! 2. **Exact refinement** (the range-NN lemma, Hu & Lee 2005): the
//!    candidate set of a convex region equals the objects *inside* it
//!    plus the NN winners along its *boundary* — a Voronoi cell is
//!    convex, so if it reaches the interior from outside it must cross
//!    the boundary. Along each rectangle edge the squared distance of
//!    every object differs only by an affine function of the edge
//!    parameter, so per-edge winners reduce to a 1-D linear feasibility
//!    test per object (O(n²) on the tiny prefiltered set).
//!
//! The result is minimal *and* sound: it contains exactly the objects
//! that are the true NN for at least one possible user position
//! (boundary ties are kept, which can only over-include).

use crate::{PublicObject, PublicStore};
use lbsp_geom::{max_dist_point_rect, min_dist_point_rect, Point, Rect};

/// Tolerance for boundary dominance ties: keeping a tied object only
/// ever over-includes, which preserves soundness.
const TIE_EPS: f64 = 1e-12;

/// Computes the exact candidate set for a private NN query: all public
/// objects that are the nearest neighbor of at least one point of
/// `cloak`, in ascending id order.
pub fn private_nn_candidates(store: &PublicStore, cloak: &Rect) -> Vec<PublicObject> {
    if store.is_empty() {
        return Vec::new();
    }
    // --- Stage 1: min/max pruning -------------------------------------
    // Seed the bound with the object nearest to the cloak's center.
    let seed = store
        .k_nearest(cloak.center(), 1)
        .pop()
        .expect("store is non-empty");
    let mut bound = max_dist_point_rect(seed.pos, cloak);
    // Gather every object that could beat the bound...
    let search = cloak.expanded(bound).expect("bound is non-negative");
    let mut pool = store.objects_in(&search, |_| true);
    // ...tighten the bound over the pool, then prune the pool with it.
    for o in &pool {
        bound = bound.min(max_dist_point_rect(o.pos, cloak));
    }
    pool.retain(|o| min_dist_point_rect(o.pos, cloak) <= bound + TIE_EPS);

    // --- Stage 2: exact refinement ------------------------------------
    let mut keep: Vec<bool> = pool.iter().map(|o| cloak.contains_point(o.pos)).collect();
    let corners = cloak.corners();
    for i in 0..4 {
        mark_edge_winners(&pool, corners[i], corners[(i + 1) % 4], &mut keep);
    }
    pool.into_iter()
        .zip(keep)
        .filter_map(|(o, k)| k.then_some(o))
        .collect()
}

/// Marks objects that are nearest neighbors of at least one point on
/// the segment `a -> b`.
///
/// With `p(t) = a + (b-a) t`, `|p(t) - o|²` has an identical `t²` term
/// for every `o`, so dominance comparisons reduce to the lines
/// `g_o(t) = β_o t + γ_o` with `β_o = 2 (b-a)·(a-o)` and
/// `γ_o = |a-o|²`. Object `o` wins somewhere on the edge iff the linear
/// system `g_o(t) <= g_{o'}(t) ∀ o'`, `0 <= t <= 1` is feasible.
fn mark_edge_winners(pool: &[PublicObject], a: Point, b: Point, keep: &mut [bool]) {
    let dir = b - a;
    let coeffs: Vec<(f64, f64)> = pool
        .iter()
        .map(|o| {
            let ao = a - o.pos;
            (
                2.0 * (dir.x * ao.x + dir.y * ao.y),
                ao.x * ao.x + ao.y * ao.y,
            )
        })
        .collect();
    for (i, &(beta_i, gamma_i)) in coeffs.iter().enumerate() {
        if keep[i] {
            continue; // already a candidate
        }
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        let mut feasible = true;
        for (j, &(beta_j, gamma_j)) in coeffs.iter().enumerate() {
            if i == j {
                continue;
            }
            let ds = beta_i - beta_j;
            let di = gamma_i - gamma_j;
            // Need ds * t + di <= TIE_EPS.
            if ds > 0.0 {
                hi = hi.min((TIE_EPS - di) / ds);
            } else if ds < 0.0 {
                lo = lo.max((TIE_EPS - di) / ds);
            } else if di > TIE_EPS {
                feasible = false;
                break;
            }
            if lo > hi {
                feasible = false;
                break;
            }
        }
        if feasible && lo <= hi {
            keep[i] = true;
        }
    }
}

/// Client-side refinement: the true nearest neighbor given the user's
/// exact position. Returns `None` on an empty candidate list.
// lint: allow(taint) -- refinement runs on the user's own device; the
// exact position never leaves the trusted side of the boundary.
pub fn refine_nn(candidates: &[PublicObject], true_pos: Point) -> Option<PublicObject> {
    candidates
        .iter()
        .min_by(|x, y| true_pos.dist_sq(x.pos).total_cmp(&true_pos.dist_sq(y.pos)))
        .copied()
}

/// Extension beyond the paper: candidate set for a private **k-NN**
/// query — all objects that can be among the `k` nearest neighbors of
/// some point of `cloak`.
///
/// Pruning bound: let `T` be the k-th smallest `max_dist(o, cloak)`
/// over all objects. For every position in the cloak there are at least
/// `k` objects within distance `T`, so an object whose `min_dist`
/// exceeds `T` can never enter any position's k-NN set. The result is
/// sound (property-tested) though not minimal — exact minimality for
/// k > 1 needs k-th-order Voronoi machinery, which the paper's
/// follow-ups also avoid. Candidates come in ascending id order.
pub fn private_knn_candidates(store: &PublicStore, cloak: &Rect, k: usize) -> Vec<PublicObject> {
    if k == 0 || store.is_empty() {
        return Vec::new();
    }
    if k >= store.len() {
        return store.iter().copied().collect();
    }
    // Seed the bound with the k objects nearest to the center: their
    // max-dists give a valid (if loose) T to collect a pool with.
    let seed_t = store
        .k_nearest(cloak.center(), k)
        .iter()
        .map(|o| max_dist_point_rect(o.pos, cloak))
        .fold(0.0f64, f64::max);
    let search = cloak.expanded(seed_t).expect("non-negative bound");
    let mut pool = store.objects_in(&search, |_| true);
    // Tighten T: the k-th smallest max_dist within the pool.
    let mut maxds: Vec<f64> = pool
        .iter()
        .map(|o| max_dist_point_rect(o.pos, cloak))
        .collect();
    maxds.sort_by(|a, b| a.total_cmp(b));
    // The pool always contains at least the k seed objects (each lies
    // within `seed_t` of the cloak), so index k-1 is in range.
    let t = maxds[k - 1].min(seed_t);
    pool.retain(|o| min_dist_point_rect(o.pos, cloak) <= t + TIE_EPS);
    pool
}

/// Client-side refinement for k-NN: the `k` true nearest neighbors from
/// the candidate list, sorted by distance.
// lint: allow(taint) -- refinement runs on the user's own device; the
// exact position never leaves the trusted side of the boundary.
pub fn refine_knn(candidates: &[PublicObject], true_pos: Point, k: usize) -> Vec<PublicObject> {
    let mut v: Vec<PublicObject> = candidates.to_vec();
    v.sort_by(|a, b| true_pos.dist_sq(a.pos).total_cmp(&true_pos.dist_sq(b.pos)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_geom::uniform_point_in_rect;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn store_from(points: &[(f64, f64)]) -> PublicStore {
        PublicStore::bulk_load(
            points
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| PublicObject::new(i as u64, Point::new(x, y), 0))
                .collect(),
        )
    }

    /// The soundness invariant: for any position in the cloak, the true
    /// NN is in the candidate set.
    fn assert_sound(store: &PublicStore, cloak: &Rect, trials: usize, seed: u64) {
        let candidates = private_nn_candidates(store, cloak);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..trials {
            let pos = uniform_point_in_rect(&mut rng, cloak);
            let true_nn = store.k_nearest(pos, 1)[0];
            assert!(
                candidates.iter().any(|c| c.id == true_nn.id),
                "true NN {} of {pos} missing (candidates: {:?})",
                true_nn.id,
                candidates.iter().map(|c| c.id).collect::<Vec<_>>()
            );
            // refine_nn agrees with a direct k-NN query.
            let refined = refine_nn(&candidates, pos).unwrap();
            assert!(
                (refined.pos.dist(pos) - true_nn.pos.dist(pos)).abs() < 1e-12,
                "refinement returns an equally-near object"
            );
        }
    }

    #[test]
    fn empty_store() {
        let store = PublicStore::new();
        assert!(private_nn_candidates(&store, &Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(refine_nn(&[], Point::ORIGIN).is_none());
    }

    #[test]
    fn single_object_is_the_candidate() {
        let store = store_from(&[(0.9, 0.9)]);
        let c = private_nn_candidates(&store, &Rect::new_unchecked(0.0, 0.0, 0.1, 0.1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn objects_inside_cloak_are_always_candidates() {
        let store = store_from(&[(0.5, 0.5), (0.52, 0.5), (0.9, 0.9)]);
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        let c = private_nn_candidates(&store, &cloak);
        let ids: Vec<_> = c.iter().map(|o| o.id).collect();
        assert!(ids.contains(&0) && ids.contains(&1));
        assert!(!ids.contains(&2), "far object dominated everywhere");
    }

    #[test]
    fn paper_effect_near_object_dominated_by_pair() {
        // Mirror of the paper's target-A effect: A is nearest to the
        // region's left edge, but B (above-left) and C (below-left)
        // together dominate it at every point of the region.
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        //       B
        //    A  [R]
        //       C
        let a = (0.30, 0.50);
        let b = (0.39, 0.58);
        let c = (0.39, 0.42);
        let store = store_from(&[a, b, c]);
        let cands = private_nn_candidates(&store, &cloak);
        let ids: Vec<_> = cands.iter().map(|o| o.id).collect();
        assert!(!ids.contains(&0), "A dominated by B and C: {ids:?}");
        assert!(ids.contains(&1) && ids.contains(&2));
        assert_sound(&store, &cloak, 300, 42);
    }

    #[test]
    fn paper_effect_far_object_kept_for_far_boundary() {
        // Target-D effect: D is farther from the region than A, but the
        // region's right boundary is nearest to D.
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        let a = (0.35, 0.5); // just left of the region
        let d = (0.75, 0.5); // farther, to the right
        let store = store_from(&[a, d]);
        let cands = private_nn_candidates(&store, &cloak);
        assert_eq!(cands.len(), 2, "both sides of the region have a winner");
        assert_sound(&store, &cloak, 200, 7);
    }

    #[test]
    fn soundness_random_configurations() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let n = 3 + (trial % 30);
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                .collect();
            let store = store_from(&pts);
            let x0 = rng.random_range(0.0..0.7);
            let y0 = rng.random_range(0.0..0.7);
            let w = rng.random_range(0.01..0.3);
            let h = rng.random_range(0.01..0.3);
            let cloak = Rect::new_unchecked(x0, y0, x0 + w, y0 + h);
            assert_sound(&store, &cloak, 100, trial as u64);
        }
    }

    #[test]
    fn minimality_every_candidate_wins_somewhere() {
        // Dense sampling: each candidate should actually be the NN of
        // some sampled point (statistically; tiny winning slivers may be
        // missed, so use a generous sample and a modest configuration).
        let store = store_from(&[(0.2, 0.5), (0.8, 0.5), (0.5, 0.2), (0.5, 0.8), (0.5, 0.5)]);
        let cloak = Rect::new_unchecked(0.3, 0.3, 0.7, 0.7);
        let cands = private_nn_candidates(&store, &cloak);
        let mut winners = std::collections::HashSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20_000 {
            let pos = uniform_point_in_rect(&mut rng, &cloak);
            winners.insert(store.k_nearest(pos, 1)[0].id);
        }
        let cand_ids: std::collections::HashSet<_> = cands.iter().map(|o| o.id).collect();
        assert_eq!(cand_ids, winners, "candidate set is exactly the winner set");
    }

    #[test]
    fn degenerate_cloak_is_plain_nn() {
        let store = store_from(&[(0.1, 0.1), (0.9, 0.9), (0.4, 0.45)]);
        let pos = Point::new(0.5, 0.5);
        let c = private_nn_candidates(&store, &Rect::from_point(pos));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].id, 2);
    }

    #[test]
    fn candidate_count_grows_with_cloak_size() {
        let mut rng = StdRng::seed_from_u64(31);
        let pts: Vec<(f64, f64)> = (0..400)
            .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let store = store_from(&pts);
        let small = private_nn_candidates(&store, &Rect::new_unchecked(0.48, 0.48, 0.52, 0.52));
        let large = private_nn_candidates(&store, &Rect::new_unchecked(0.3, 0.3, 0.7, 0.7));
        assert!(large.len() > small.len());
        // And stays far below "send everything".
        assert!(large.len() < 200, "len {}", large.len());
    }

    #[test]
    fn knn_candidates_are_sound() {
        use rand::rngs::StdRng;
        use rand::{RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let store = store_from(&pts);
        let cloak = Rect::new_unchecked(0.35, 0.45, 0.55, 0.6);
        for k in [1usize, 3, 10] {
            let cands = private_knn_candidates(&store, &cloak, k);
            assert!(cands.len() >= k);
            for _ in 0..100 {
                let pos = uniform_point_in_rect(&mut rng, &cloak);
                let true_knn = store.k_nearest(pos, k);
                for nn in &true_knn {
                    assert!(
                        cands.iter().any(|c| c.id == nn.id),
                        "k={k}: true kNN member {} missing",
                        nn.id
                    );
                }
                // Refinement returns k objects at the true distances.
                let refined = refine_knn(&cands, pos, k);
                assert_eq!(refined.len(), k);
                for (r, t) in refined.iter().zip(&true_knn) {
                    assert!((r.pos.dist(pos) - t.pos.dist(pos)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn knn_candidate_edge_cases() {
        let store = store_from(&[(0.1, 0.1), (0.9, 0.9)]);
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        assert!(private_knn_candidates(&store, &cloak, 0).is_empty());
        // k >= population returns everything.
        assert_eq!(private_knn_candidates(&store, &cloak, 2).len(), 2);
        assert_eq!(private_knn_candidates(&store, &cloak, 5).len(), 2);
        // Empty store.
        assert!(private_knn_candidates(&PublicStore::new(), &cloak, 3).is_empty());
        // k = 1 candidates are a superset of the exact NN set (the
        // order-1 bound is looser than the lower-envelope refinement).
        let exact = private_nn_candidates(&store, &cloak);
        let k1 = private_knn_candidates(&store, &cloak, 1);
        for o in exact {
            assert!(k1.iter().any(|c| c.id == o.id));
        }
    }

    #[test]
    fn knn_pruning_is_effective() {
        use rand::rngs::StdRng;
        use rand::{RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        let pts: Vec<(f64, f64)> = (0..2000)
            .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let store = store_from(&pts);
        let cloak = Rect::new_unchecked(0.48, 0.48, 0.52, 0.52);
        let cands = private_knn_candidates(&store, &cloak, 5);
        assert!(
            cands.len() < 100,
            "pruned to {} of 2000 objects",
            cands.len()
        );
    }

    #[test]
    fn coincident_objects_tie_soundly() {
        let store = store_from(&[(0.5, 0.5), (0.5, 0.5), (0.9, 0.9)]);
        let cloak = Rect::new_unchecked(0.45, 0.45, 0.55, 0.55);
        let c = private_nn_candidates(&store, &cloak);
        let ids: Vec<_> = c.iter().map(|o| o.id).collect();
        assert!(ids.contains(&0) && ids.contains(&1), "ties kept: {ids:?}");
    }
}
