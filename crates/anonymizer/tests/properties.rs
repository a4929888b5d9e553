//! Property-based tests of the cloaking invariants, across all four
//! algorithms and arbitrary populations.
//!
//! The invariants under test are the paper's three requirements from
//! Sec. 5:
//! 1. the cloaked region contains >= k users (when the population
//!    allows) and always contains the subject;
//! 2. space-dependent cloaks are a function of the occupied cell only
//!    (no reverse engineering);
//! 3. reported metadata (`achieved_k`, satisfaction flags) is truthful.

use lbsp_anonymizer::{
    CloakRequirement, CloakingAlgorithm, GridCloak, HilbertCloak, MbrCloak, NaiveCloak, QuadCloak,
    TemporalCloak,
};
use lbsp_geom::{Point, Rect, SimTime};
use proptest::prelude::*;

fn unit_world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

prop_compose! {
    fn upoint()(x in 0.0f64..1.0, y in 0.0f64..1.0) -> Point {
        Point::new(x, y)
    }
}

prop_compose! {
    /// A coordinate where the quad cloak's edge cases live: on a line of
    /// a level-0 to level-8 quadtree (the world's far edge among them),
    /// between lines, or outside the world, NaN included.
    fn quad_coord()(kind in 0u32..10, l in 0u32..=8, r in any::<u32>(), u in 0.0f64..1.0) -> f64 {
        let n = 1u32 << l;
        match kind {
            0..=3 => f64::from(r % (n + 1)) / f64::from(n),
            4..=7 => u,
            8 => 1.0,
            _ => [-0.01, 1.01, f64::NAN][r as usize % 3],
        }
    }
}

prop_compose! {
    /// An area floor: none three times in four, else up to 0.3.
    fn quad_a_min()(none in 0u32..4, a in 0.0f64..0.3) -> f64 {
        if none > 0 { 0.0 } else { a }
    }
}

/// Fig. 4a's bottom-up climb recomputed from scratch on the unit world.
/// A position's level-`l` cell is its coordinate scaled by `2^l` and
/// floored, clamped into the grid (the far edge folds into the last
/// cell). A user is a member of a cell when it lies in the closed world
/// and its own level-`l` cell is that one; every count is a scan of all
/// users. Returns the region and its count.
fn brute_force_quad(
    pts: &[Point],
    subject: usize,
    levels: u8,
    merge: bool,
    req: &CloakRequirement,
) -> (Rect, u32) {
    let p = pts[subject];
    if !req.wants_privacy() {
        return (Rect::from_point(p), 1);
    }
    let index = |v: f64, l: u8| {
        let n = 1u32 << l;
        ((v * f64::from(n)).floor().max(0.0) as u32).min(n - 1)
    };
    let in_world = |q: &Point| (0.0..=1.0).contains(&q.x) && (0.0..=1.0).contains(&q.y);
    // The block of level-`l` cells `x0 .. x1` × `y0 .. y1`, and its users.
    let block = |l: u8, [x0, y0, x1, y1]: [u32; 4]| {
        let side = 1.0 / f64::from(1u32 << l);
        let at = |i: u32| f64::from(i) * side;
        let rect = Rect::new_unchecked(at(x0), at(y0), at(x1), at(y1));
        let member = |q: &&Point| {
            in_world(q) && (x0..x1).contains(&index(q.x, l)) && (y0..y1).contains(&index(q.y, l))
        };
        (rect, pts.iter().filter(member).count() as u32)
    };
    let satisfies = |(rect, count): (Rect, u32)| count >= req.k && rect.area() >= req.a_min;
    let mut l = levels;
    loop {
        let (x, y) = (index(p.x, l), index(p.y, l));
        let cell = block(l, [x, y, x + 1, y + 1]);
        if satisfies(cell) || l == 0 {
            return cell;
        }
        if merge {
            // The cell and its sibling in the same parent, x first.
            let (px, py) = (x & !1, y & !1);
            for pair in [[px, y, px + 2, y + 1], [x, py, x + 1, py + 2]] {
                if satisfies(block(l, pair)) {
                    return block(l, pair);
                }
            }
        }
        l -= 1;
    }
}

fn algorithms(positions: &[Point]) -> Vec<Box<dyn CloakingAlgorithm>> {
    let w = unit_world();
    let mut algos: Vec<Box<dyn CloakingAlgorithm>> = vec![
        Box::new(NaiveCloak::new(w, 16)),
        Box::new(MbrCloak::new(w, 16)),
        Box::new(QuadCloak::new(w, 6)),
        Box::new(QuadCloak::new(w, 6).with_neighbor_merge(true)),
        Box::new(GridCloak::new(w, 16)),
        Box::new(GridCloak::new(w, 16).with_refinement(true)),
        Box::new(HilbertCloak::new(w, 16)),
    ];
    for a in &mut algos {
        for (i, p) in positions.iter().enumerate() {
            a.upsert(i as u64, *p);
        }
    }
    algos
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cloaks_contain_subject_and_honor_k(
        pts in prop::collection::vec(upoint(), 2..120),
        subject in 0usize..120,
        k in 1u32..40,
    ) {
        let subject = (subject % pts.len()) as u64;
        let req = CloakRequirement::k_only(k);
        for algo in algorithms(&pts) {
            let c = algo.cloak(subject, &req).unwrap();
            let name = algo.name();
            prop_assert!(
                c.region.contains_point(pts[subject as usize]),
                "{name}: subject outside region"
            );
            // achieved_k is a truthful recount.
            let recount = algo.count_in_region(&c.region) as u32;
            prop_assert_eq!(c.achieved_k, recount, "{}: achieved_k lies", name);
            // k_satisfied flag is consistent.
            prop_assert_eq!(c.k_satisfied, recount >= k, "{}: flag", name);
            // If the population suffices, k must actually be satisfied.
            if (k as usize) <= pts.len() {
                prop_assert!(c.k_satisfied, "{name}: k={k} achievable but unmet");
            }
            // Region stays within the world.
            prop_assert!(algo.world().contains_rect(&c.region), "{name}");
        }
    }

    #[test]
    fn a_min_is_respected_when_feasible(
        pts in prop::collection::vec(upoint(), 2..80),
        a_min in 0.0f64..0.5,
    ) {
        let req = CloakRequirement { k: 2, a_min, a_max: f64::INFINITY };
        for algo in algorithms(&pts) {
            let c = algo.cloak(0, &req).unwrap();
            // a_min <= 0.5 < world area, and k=2 <= population, so the
            // requirement is always feasible.
            prop_assert!(
                c.fully_satisfied(),
                "{}: area {} for a_min {}",
                algo.name(),
                c.area(),
                a_min
            );
            prop_assert!(c.area() >= a_min * (1.0 - 1e-9));
        }
    }

    #[test]
    fn space_dependent_cloaks_are_cell_pure(
        pts in prop::collection::vec(upoint(), 10..80),
        dx in 0.0f64..0.9,
        dy in 0.0f64..0.9,
        k in 2u32..10,
    ) {
        // Two subjects planted in the same leaf cell of every
        // space-dependent structure at its finest granularity: quad
        // depth 6 stops at 1/64; grid 16 with multilevel refinement
        // (max depth 4) quarters a 1/16 cell down to 1/256. Cells of
        // side 1/256 are aligned with all of those boundaries.
        let cell = 1.0 / 256.0;
        let base = Point::new((dx / cell).floor() * cell, (dy / cell).floor() * cell);
        let a = Point::new(base.x + cell * 0.25, base.y + cell * 0.25);
        let b = Point::new(base.x + cell * 0.75, base.y + cell * 0.75);
        let mut all = pts.clone();
        let ia = all.len() as u64;
        all.push(a);
        let ib = all.len() as u64;
        all.push(b);
        let req = CloakRequirement::k_only(k);
        // Only the space-partitioning cloaks are cell-pure; Hilbert is
        // reciprocal (bucket-pure) but its buckets are order-based, not
        // cell-based.
        let cell_pure = ["quad", "quad+merge", "grid", "grid+multilevel"];
        for algo in algorithms(&all)
            .into_iter()
            .filter(|a| cell_pure.contains(&a.name()))
        {
            let ca = algo.cloak(ia, &req).unwrap();
            let cb = algo.cloak(ib, &req).unwrap();
            prop_assert_eq!(
                ca.region, cb.region,
                "{}: same-cell users must share a region", algo.name()
            );
        }
    }

    #[test]
    fn larger_k_never_shrinks_region(
        pts in prop::collection::vec(upoint(), 20..100),
        subject in 0usize..100,
    ) {
        let subject = (subject % pts.len()) as u64;
        // Hilbert buckets for different k are not nested, so its areas
        // are not monotone in k; every other algorithm's are.
        for algo in algorithms(&pts)
            .into_iter()
            .filter(|a| a.name() != "hilbert")
        {
            let mut last_area = -1.0f64;
            for k in [2u32, 5, 10, 20] {
                let c = algo.cloak(subject, &CloakRequirement::k_only(k)).unwrap();
                prop_assert!(
                    c.area() >= last_area - 1e-12,
                    "{}: area shrank from {} to {} at k={}",
                    algo.name(),
                    last_area,
                    c.area(),
                    k
                );
                last_area = c.area();
            }
        }
    }

    #[test]
    fn quad_cloak_matches_a_brute_force_climb(
        pts in prop::collection::vec((quad_coord(), quad_coord()), 1..60),
        subject in 0usize..60,
        k in 1u32..30,
        a_min in quad_a_min(),
    ) {
        let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let subject = subject % pts.len();
        let req = CloakRequirement { k, a_min, a_max: f64::INFINITY };
        let bits = |r: Rect| [r.min_x(), r.min_y(), r.max_x(), r.max_y()].map(f64::to_bits);
        for levels in [3u8, 4, 5, 8] {
            for merge in [false, true] {
                let mut quad = QuadCloak::new(unit_world(), levels).with_neighbor_merge(merge);
                for (i, p) in pts.iter().enumerate() {
                    quad.upsert(i as u64, *p);
                }
                let got = quad.cloak(subject as u64, &req).unwrap();
                let (region, achieved_k) = brute_force_quad(&pts, subject, levels, merge, &req);
                let what = format!("levels {levels} merge {merge}: {got:?} vs {region:?}");
                prop_assert_eq!(bits(got.region), bits(region), "{}", what);
                prop_assert_eq!(got.achieved_k, achieved_k, "{}", what);
            }
        }
    }

    #[test]
    fn hilbert_reciprocity_holds_for_arbitrary_populations(
        pts in prop::collection::vec(upoint(), 4..80),
        k in 2u32..12,
    ) {
        prop_assume!(pts.len() >= k as usize);
        let mut algo = HilbertCloak::new(unit_world(), 16);
        for (i, p) in pts.iter().enumerate() {
            algo.upsert(i as u64, *p);
        }
        let req = CloakRequirement::k_only(k);
        // Group users by the region they receive; every group (anonymity
        // set) must have at least k members, and each member's own
        // location must lie inside the shared region.
        let mut groups: std::collections::HashMap<String, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, p) in pts.iter().enumerate() {
            let c = algo.cloak(i as u64, &req).unwrap();
            prop_assert!(c.region.contains_point(*p));
            groups.entry(format!("{:?}", c.region)).or_default().push(i);
        }
        for (region, members) in &groups {
            prop_assert!(
                members.len() >= k as usize,
                "anonymity set {region} has only {} members",
                members.len()
            );
        }
    }

    #[test]
    fn temporal_cloak_releases_are_valid(
        pts in prop::collection::vec(upoint(), 1..60),
        subject in upoint(),
        k in 2u32..10,
        max_area in 0.0001f64..1.0,
        max_delay in 0.0f64..100.0,
    ) {
        let mut quad = QuadCloak::new(unit_world(), 6);
        for (i, p) in pts.iter().enumerate() {
            quad.upsert(i as u64 + 1, *p);
        }
        let mut tc = TemporalCloak::new(quad, max_area, max_delay);
        let req = CloakRequirement::k_only(k);
        let submitted = SimTime::ZERO;
        let immediate = tc.submit(0, subject, req, submitted).unwrap();
        if let Some(rel) = immediate {
            // Immediate releases satisfy both bounds and carry no delay.
            prop_assert!(rel.region.k_satisfied);
            prop_assert!(rel.region.area() <= max_area * (1.0 + 1e-9));
            prop_assert_eq!(rel.delay(), 0.0);
        } else {
            prop_assert_eq!(tc.pending(), 1);
            // Tick past the deadline: the update must release, best
            // effort or not, with a delay of at least max_delay.
            let late = SimTime::from_secs(max_delay + 1.0);
            let released = tc.tick(late);
            prop_assert_eq!(released.len(), 1);
            let rel = released[0];
            prop_assert!(rel.delay() >= max_delay);
            prop_assert!(rel.region.region.contains_point(
                tc.inner().location(0).expect("subject present")
            ));
            prop_assert_eq!(tc.pending(), 0);
        }
    }

    #[test]
    fn updates_relocate_cloaks(
        pts in prop::collection::vec(upoint(), 10..60),
        to in upoint(),
    ) {
        for mut algo in algorithms(&pts) {
            algo.upsert(0, to);
            let c = algo.cloak(0, &CloakRequirement::k_only(3)).unwrap();
            prop_assert!(
                c.region.contains_point(to),
                "{}: cloak follows the update",
                algo.name()
            );
        }
    }
}
