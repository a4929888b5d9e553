//! Space-dependent fixed-grid cloaking (Fig. 4b).
//!
//! "The whole space is partitioned into fixed grid cells. For each mobile
//! user m, the location anonymizer locates the grid cell g in which m
//! lies ... If [g satisfies the profile], g is returned as the spatial
//! cloaked area. Otherwise, g is merged with other adjacent grid cells
//! till the location anonymizer satisfies the user privacy profile."
//! — Sec. 5.2
//!
//! Merging grows an axis-aligned block of cells around the user's cell,
//! expanding one row or column at a time toward the denser side. The
//! expansion decision uses only cell-level *counts*, never the user's
//! exact position, so the output remains a function of the occupied cell
//! — reverse-engineering safe, like all space-dependent cloaks.
//!
//! The paper also notes g may satisfy the profile "with a very relaxed
//! area ... thus, g can be partitioned again into other fixed grids.
//! Keeping fixed multi-level grids would be an optimization". The
//! [`GridCloak::with_refinement`] option implements that: when the block
//! is a single cell with ample slack, the cloak descends into the
//! quadrant holding the user's sub-cell while the requirement still
//! holds. Every count is read from [`SubCellCounts`], by sub-cell
//! membership (see [`cloak_with_counts`]); the cloak keeps each user's
//! position in a map of its own and reports every move to the counts.
//! That pair, [`CountedUsers`], is the quadtree cloak's bookkeeping too.

use crate::cloak::{finalize_region, CloakRequirement, CloakedRegion, CloakingAlgorithm};
use crate::{CloakError, UserId};
use lbsp_geom::{Point, Rect};
use lbsp_index::{CellCounts, SubCellCounts, SubSpan, SUB_SIDE};
use std::collections::HashMap;

/// Fixed-grid cloak with rectangular neighbor merging.
#[derive(Debug, Clone)]
pub struct GridCloak {
    users: CountedUsers,
    refine: bool,
}

/// The bookkeeping of a cloak that reads sub-cell counts: each user's
/// position, and the counts every move is reported to. It answers the
/// [`CloakingAlgorithm`] methods that are not the cloak itself.
#[derive(Debug, Clone)]
pub(crate) struct CountedUsers {
    counts: SubCellCounts,
    positions: HashMap<UserId, Point>,
}

impl CountedUsers {
    /// No users, over a `side × side` grid on `world`.
    pub(crate) fn new(world: Rect, side: u32) -> CountedUsers {
        CountedUsers {
            counts: SubCellCounts::new(world, side, side),
            positions: HashMap::new(),
        }
    }

    /// The counts of the users' sub-cells.
    pub(crate) fn counts(&self) -> &SubCellCounts {
        &self.counts
    }

    pub(crate) fn upsert(&mut self, id: UserId, p: Point) {
        let old = self.positions.insert(id, p);
        self.counts.shift(old, Some(p));
    }

    pub(crate) fn remove(&mut self, id: UserId) -> bool {
        let old = self.positions.remove(&id);
        self.counts.shift(old, None);
        old.is_some()
    }

    pub(crate) fn location(&self, id: UserId) -> Option<Point> {
        self.positions.get(&id).copied()
    }

    pub(crate) fn population(&self) -> usize {
        self.positions.len()
    }

    /// Counts as the cloaks do, by sub-cell membership: the users whose
    /// sub-cell lies wholly inside `region` (or, for a point, the users
    /// exactly at it, by a scan of every position: no cloak asks this),
    /// so it recounts a cloak's `achieved_k` exactly.
    pub(crate) fn count_in_region(&self, region: &Rect) -> usize {
        if region.width() == 0.0 && region.height() == 0.0 {
            let at = |p: &&Point| region.contains_point(**p);
            return self.positions.values().filter(at).count();
        }
        self.counts.count_in_rect(region)
    }
}

/// Expands the cell block `block` by one column (`axis` 0) or row
/// (`axis` 1) on the side whose strip holds more users, the low side on
/// a tie or when the high side is the world's edge. Returns `None` when
/// the block already spans the world along `axis`.
fn expand_once<C: CellCounts>(counts: &C, block: SubSpan, axis: usize) -> Option<SubSpan> {
    let strip = |from: u32| {
        let mut s = block;
        s.lo[axis] = from;
        s.hi[axis] = from + SUB_SIDE;
        s
    };
    let (lo, hi) = (block.lo[axis], block.hi[axis]);
    let grow_low = match (lo > 0, hi < counts.lattice().extent()[axis]) {
        (false, false) => return None,
        (true, true) => counts.count(strip(lo - SUB_SIDE)) >= counts.count(strip(hi)),
        (low, _) => low,
    };
    let mut grown = block;
    if grow_low {
        grown.lo[axis] -= SUB_SIDE;
    } else {
        grown.hi[axis] += SUB_SIDE;
    }
    Some(grown)
}

/// Multi-level descent from the subject's cell `region`, holding `count`
/// users: repeatedly quarter it, following the quadrant that holds the
/// subject's sub-cell `sub`, while `(k, a_min)` still holds — at most
/// down to that one sub-cell (1/16 cell → 1/256 on a 16×16 grid).
fn refine_region<C: CellCounts>(
    counts: &C,
    sub: [u32; 2],
    (mut region, mut count): (Rect, usize),
    req: &CloakRequirement,
) -> CloakedRegion {
    let lattice = counts.lattice();
    for depth in 1..=SUB_SIDE.trailing_zeros() {
        let quadrant = SubSpan::around(sub, SUB_SIDE >> depth);
        let rect = lattice.rect(quadrant);
        if rect.area() < req.a_min {
            break;
        }
        let inside = counts.count(quadrant);
        if inside < req.k as usize {
            break;
        }
        (region, count) = (rect, inside);
    }
    finalize_region(region, count as u32, req)
}

/// The full fixed-grid merge (and optional multi-level refinement)
/// against any [`CellCounts`] view.
///
/// This is [`GridCloak::cloak`] with the user lookup factored out: the
/// caller supplies the subject's exact position and a count view — the
/// concurrent engine's [`SubCellCounts`], or a test's brute-force
/// counter. The position only picks the subject's sub-cell; every
/// decision after that reads integer counts of lattice blocks, and every
/// rectangle is built from its block, so any two views reporting equal
/// counts produce bit-identical regions — the property the engine's
/// equivalence tests assert. `achieved_k` is the count of the returned
/// block, by sub-cell membership; with no privacy requested the region
/// is the subject's point, and `achieved_k` is the subject alone.
///
/// `req` must already be validated ([`CloakRequirement::validate`]).
pub fn cloak_with_counts<C: CellCounts>(
    counts: &C,
    pos: Point,
    req: &CloakRequirement,
    refine: bool,
) -> CloakedRegion {
    if !req.wants_privacy() {
        return finalize_region(Rect::from_point(pos), 1, req);
    }
    let sub = counts.lattice().sub_of(pos);
    let cell = SubSpan::around(sub, SUB_SIDE);
    let mut block = cell;
    let mut axis = 0;
    loop {
        let count = counts.count(block);
        let rect = counts.lattice().rect(block);
        if count >= req.k as usize && rect.area() >= req.a_min {
            if refine && block == cell {
                return refine_region(counts, sub, (rect, count), req);
            }
            return finalize_region(rect, count as u32, req);
        }
        // Alternate growth axes so blocks stay near-square.
        match expand_once(counts, block, axis).or_else(|| expand_once(counts, block, 1 - axis)) {
            Some(grown) => {
                block = grown;
                axis = 1 - axis;
            }
            // Block spans the world: best effort.
            None => return finalize_region(rect, count as u32, req),
        }
    }
}

impl GridCloak {
    /// Creates the cloak over `world` with `side × side` cells.
    pub fn new(world: Rect, side: u32) -> GridCloak {
        GridCloak {
            users: CountedUsers::new(world, side),
            refine: false,
        }
    }

    /// Enables multi-level refinement (descend into sub-cells while the
    /// requirement still holds).
    pub fn with_refinement(mut self, enabled: bool) -> GridCloak {
        self.refine = enabled;
        self
    }

    /// `true` when refinement is enabled.
    pub fn refinement_enabled(&self) -> bool {
        self.refine
    }
}

impl CloakingAlgorithm for GridCloak {
    fn name(&self) -> &'static str {
        if self.refine {
            "grid+multilevel"
        } else {
            "grid"
        }
    }

    fn world(&self) -> Rect {
        self.users.counts().lattice().world()
    }

    fn upsert(&mut self, id: UserId, p: Point) {
        self.users.upsert(id, p);
    }

    fn remove(&mut self, id: UserId) -> bool {
        self.users.remove(id)
    }

    fn location(&self, id: UserId) -> Option<Point> {
        self.users.location(id)
    }

    fn population(&self) -> usize {
        self.users.population()
    }

    fn count_in_region(&self, region: &Rect) -> usize {
        self.users.count_in_region(region)
    }

    /// Same grid cell (and requirement) => same merge expansion and the
    /// same refinement descent path boundaries... almost: refinement
    /// descends toward the *user's* quadrant, so only the unrefined
    /// variant is shareable at cell granularity.
    fn sharing_key(&self, id: UserId) -> Option<u64> {
        if self.refine {
            return None;
        }
        let lattice = self.users.counts().lattice();
        let c = lattice.cell_of(self.users.location(id)?);
        Some(u64::from(c.iy) * u64::from(lattice.nx()) + u64::from(c.ix))
    }

    fn cloak(&self, id: UserId, req: &CloakRequirement) -> Result<CloakedRegion, CloakError> {
        req.validate()?;
        let pos = self.location(id).ok_or(CloakError::UnknownUser(id))?;
        Ok(cloak_with_counts(
            self.users.counts(),
            pos,
            req,
            self.refine,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn populated(side: u32) -> GridCloak {
        let mut c = GridCloak::new(world(), side);
        for i in 0..100u64 {
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            c.upsert(i, Point::new(x, y));
        }
        c
    }

    #[test]
    fn single_cell_suffices_when_dense() {
        // 10x10 lattice on an 8x8 grid: each cell holds >= 1 user; the
        // cell containing (0.55, 0.55) holds at least one. k=1 with a_min
        // 0 short-circuits, so ask for the cell with k=2.
        let c = populated(4); // 4x4 grid: each cell holds ~6 users
        let r = c.cloak(55, &CloakRequirement::k_only(2)).unwrap();
        assert!(r.k_satisfied);
        assert!((r.region.width() - 0.25).abs() < 1e-9, "one 4x4 cell");
    }

    #[test]
    fn merges_until_k_satisfied() {
        let c = populated(8);
        for k in [5u32, 20, 60] {
            let r = c.cloak(55, &CloakRequirement::k_only(k)).unwrap();
            assert!(r.k_satisfied, "k={k}");
            assert!(r.achieved_k >= k);
            assert!(r.region.contains_point(Point::new(0.55, 0.55)));
            // Region is cell-aligned: bounds are multiples of 1/8.
            for v in [
                r.region.min_x(),
                r.region.min_y(),
                r.region.max_x(),
                r.region.max_y(),
            ] {
                let scaled = v * 8.0;
                assert!((scaled - scaled.round()).abs() < 1e-9, "bound {v}");
            }
        }
    }

    #[test]
    fn position_independent_within_cell() {
        let mut c = GridCloak::new(world(), 4);
        c.upsert(1, Point::new(0.30, 0.30));
        c.upsert(2, Point::new(0.45, 0.45)); // same 4x4 cell (cell [0.25,0.5)^2)
        for i in 3..20u64 {
            c.upsert(i, Point::new(0.9, 0.9));
        }
        let req = CloakRequirement::k_only(2);
        assert_eq!(
            c.cloak(1, &req).unwrap().region,
            c.cloak(2, &req).unwrap().region
        );
    }

    #[test]
    fn a_min_expands_past_single_cell() {
        let c = populated(8);
        let req = CloakRequirement {
            k: 2,
            a_min: 0.1,
            a_max: f64::INFINITY,
        };
        let r = c.cloak(55, &req).unwrap();
        assert!(r.area() >= 0.1 - 1e-9);
        assert!(r.fully_satisfied());
    }

    #[test]
    fn impossible_k_returns_whole_world() {
        let c = populated(8);
        let r = c.cloak(0, &CloakRequirement::k_only(500)).unwrap();
        assert!(!r.k_satisfied);
        assert_eq!(r.region, world());
    }

    #[test]
    fn refinement_shrinks_relaxed_cells() {
        // Coarse 2x2 grid: a single cell holds ~25 users. With k=2 the
        // plain cloak returns the whole 0.5x0.5 cell; refinement should
        // descend toward the user.
        let plain = populated(2);
        let refined = populated(2).with_refinement(true);
        let req = CloakRequirement::k_only(2);
        let a = plain.cloak(55, &req).unwrap();
        let b = refined.cloak(55, &req).unwrap();
        assert!(b.k_satisfied);
        assert!(
            b.area() < a.area(),
            "refined {} < plain {}",
            b.area(),
            a.area()
        );
        assert!(b.region.contains_point(Point::new(0.55, 0.55)));
        assert!(b.achieved_k >= 2);
    }

    #[test]
    fn refinement_respects_a_min() {
        let refined = populated(2).with_refinement(true);
        let req = CloakRequirement {
            k: 2,
            a_min: 0.25,
            a_max: f64::INFINITY,
        };
        let r = refined.cloak(55, &req).unwrap();
        assert!(r.area() >= 0.25 - 1e-9, "a_min stops the descent");
    }

    #[test]
    fn expansion_prefers_denser_side() {
        // All extra users sit to the right of the subject's cell; the
        // merged block should extend right, not left.
        let mut c = GridCloak::new(world(), 4);
        c.upsert(0, Point::new(0.30, 0.55)); // subject, cell column 1
        for i in 1..10u64 {
            c.upsert(i, Point::new(0.60, 0.55)); // column 2
        }
        let r = c.cloak(0, &CloakRequirement::k_only(5)).unwrap();
        assert!(r.k_satisfied);
        assert!(r.region.max_x() > 0.5, "block extended toward density");
        assert!(r.region.contains_point(Point::new(0.30, 0.55)));
    }

    #[test]
    fn unknown_user_and_no_privacy() {
        let c = populated(4);
        assert!(matches!(
            c.cloak(777, &CloakRequirement::k_only(2)),
            Err(CloakError::UnknownUser(777))
        ));
        let r = c.cloak(0, &CloakRequirement::none()).unwrap();
        assert_eq!(r.area(), 0.0);
        assert!(r.fully_satisfied());
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(GridCloak::new(world(), 4).name(), "grid");
        assert_eq!(
            GridCloak::new(world(), 4).with_refinement(true).name(),
            "grid+multilevel"
        );
    }

    /// The grid cloak as Fig. 4b draws it, in rectangles: a block is the
    /// union of its cells' rectangles, a quadrant is half a rectangle
    /// each way, and every count is a recount of the rectangle through
    /// `count_in_region`. Unit world only.
    fn cloak_by_rectangles(
        c: &GridCloak,
        side: u32,
        pos: Point,
        req: &CloakRequirement,
    ) -> CloakedRegion {
        let count = |r: &Rect| c.count_in_region(r) as u32;
        if !req.wants_privacy() {
            return finalize_region(Rect::from_point(pos), 1, req);
        }
        let w = 1.0 / f64::from(side);
        let block = |[x0, y0, x1, y1]: [u32; 4]| {
            let at = |i: u32| f64::from(i) * w;
            Rect::new_unchecked(at(x0), at(y0), at(x1 + 1), at(y1 + 1))
        };
        let cell = |v: f64| ((v / w).floor() as u32).min(side - 1);
        let mut b = [cell(pos.x), cell(pos.y), cell(pos.x), cell(pos.y)];
        let mut axis = 0;
        loop {
            let mut rect = block(b);
            let mut n = count(&rect);
            if n >= req.k && rect.area() >= req.a_min {
                if c.refine && b[0] == b[2] && b[1] == b[3] {
                    for _ in 0..SUB_SIDE.trailing_zeros() {
                        let sub = rect.quadrants()[rect.quadrant_of(pos)];
                        if sub.area() < req.a_min || count(&sub) < req.k {
                            break;
                        }
                        (rect, n) = (sub, count(&sub));
                    }
                }
                return finalize_region(rect, n, req);
            }
            // One column or row more, toward the fuller strip.
            let grow = |a: usize| {
                let (lo, hi) = (b[a], b[a + 2]);
                let strip = |i: u32| {
                    let mut s = b;
                    (s[a], s[a + 2]) = (i, i);
                    count(&block(s))
                };
                let low = match (lo > 0, hi + 1 < side) {
                    (false, false) => return None,
                    (true, true) => strip(lo - 1) >= strip(hi + 1),
                    (low, _) => low,
                };
                let mut g = b;
                if low {
                    g[a] -= 1;
                } else {
                    g[a + 2] += 1;
                }
                Some(g)
            };
            match grow(axis).or_else(|| grow(1 - axis)) {
                Some(g) => (b, axis) = (g, 1 - axis),
                None => return finalize_region(rect, n, req),
            }
        }
    }

    #[test]
    fn cloaks_are_bit_equal_to_the_recounting_reference() {
        let bits = |r: &CloakedRegion| {
            let g = r.region;
            (
                [g.min_x(), g.min_y(), g.max_x(), g.max_y()].map(f64::to_bits),
                r.achieved_k,
                r.k_satisfied,
                r.area_satisfied,
            )
        };
        for side in [2u32, 4, 8, 16] {
            let mut c = populated(side);
            // Users on cell and quadrant edges, where a closed rectangle
            // holds users its block does not: the recount must go by
            // sub-cell membership too.
            for (i, v) in [0.5, 0.25, 0.75, 0.625, 1.0].into_iter().enumerate() {
                c.upsert(100 + i as u64, Point::new(v, 0.5));
                c.upsert(110 + i as u64, Point::new(v, v));
            }
            for refine in [false, true] {
                c.refine = refine;
                for id in (0..100u64).step_by(3).chain(100..105).chain(110..115) {
                    for (k, a_min) in [
                        (1, 0.0),
                        (2, 0.0),
                        (3, 0.002),
                        (7, 0.0),
                        (30, 0.05),
                        (500, 0.0),
                    ] {
                        let req = CloakRequirement {
                            k,
                            a_min,
                            a_max: f64::INFINITY,
                        };
                        let pos = c.location(id).unwrap();
                        let got = c.cloak(id, &req).unwrap();
                        let want = cloak_by_rectangles(&c, side, pos, &req);
                        assert_eq!(bits(&got), bits(&want), "side {side} user {id} k {k}");
                    }
                }
            }
        }
    }
}
