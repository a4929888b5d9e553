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
//! is a single cell with ample slack, the cloak descends into the 2×2
//! sub-cell containing the user while the requirement still holds.

use crate::cloak::{finalize_region, CloakRequirement, CloakedRegion, CloakingAlgorithm};
use crate::{CloakError, UserId};
use lbsp_geom::{Point, Rect};
use lbsp_index::{CellCoord, CellCounts, UniformGrid};

/// Default multi-level refinement depth: a cell quarters at most this
/// many times (1/16 cell → 1/256 at depth 4 on a 16×16 grid).
pub const DEFAULT_MAX_REFINE_DEPTH: u8 = 4;

/// Fixed-grid cloak with rectangular neighbor merging.
#[derive(Debug, Clone)]
pub struct GridCloak {
    grid: UniformGrid,
    refine: bool,
    max_refine_depth: u8,
}

/// Expands the block `[c0, c1]` by one row/column on the side whose
/// strip holds more users (ties and walls resolved deterministically).
/// Returns `None` when the block already spans the whole grid.
fn expand_once<C: CellCounts>(
    counts: &C,
    c0: CellCoord,
    c1: CellCoord,
    grow_x: bool,
) -> Option<(CellCoord, CellCoord)> {
    let nx = counts.nx();
    let ny = counts.ny();
    if grow_x {
        let can_left = c0.ix > 0;
        let can_right = c1.ix + 1 < nx;
        match (can_left, can_right) {
            (false, false) => None,
            (true, false) => Some((
                CellCoord {
                    ix: c0.ix - 1,
                    ..c0
                },
                c1,
            )),
            (false, true) => Some((
                c0,
                CellCoord {
                    ix: c1.ix + 1,
                    ..c1
                },
            )),
            (true, true) => {
                let left = counts.block_count(
                    CellCoord {
                        ix: c0.ix - 1,
                        iy: c0.iy,
                    },
                    CellCoord {
                        ix: c0.ix - 1,
                        iy: c1.iy,
                    },
                );
                let right = counts.block_count(
                    CellCoord {
                        ix: c1.ix + 1,
                        iy: c0.iy,
                    },
                    CellCoord {
                        ix: c1.ix + 1,
                        iy: c1.iy,
                    },
                );
                if left >= right {
                    Some((
                        CellCoord {
                            ix: c0.ix - 1,
                            ..c0
                        },
                        c1,
                    ))
                } else {
                    Some((
                        c0,
                        CellCoord {
                            ix: c1.ix + 1,
                            ..c1
                        },
                    ))
                }
            }
        }
    } else {
        let can_down = c0.iy > 0;
        let can_up = c1.iy + 1 < ny;
        match (can_down, can_up) {
            (false, false) => None,
            (true, false) => Some((
                CellCoord {
                    iy: c0.iy - 1,
                    ..c0
                },
                c1,
            )),
            (false, true) => Some((
                c0,
                CellCoord {
                    iy: c1.iy + 1,
                    ..c1
                },
            )),
            (true, true) => {
                let down = counts.block_count(
                    CellCoord {
                        ix: c0.ix,
                        iy: c0.iy - 1,
                    },
                    CellCoord {
                        ix: c1.ix,
                        iy: c0.iy - 1,
                    },
                );
                let up = counts.block_count(
                    CellCoord {
                        ix: c0.ix,
                        iy: c1.iy + 1,
                    },
                    CellCoord {
                        ix: c1.ix,
                        iy: c1.iy + 1,
                    },
                );
                if down >= up {
                    Some((
                        CellCoord {
                            iy: c0.iy - 1,
                            ..c0
                        },
                        c1,
                    ))
                } else {
                    Some((
                        c0,
                        CellCoord {
                            iy: c1.iy + 1,
                            ..c1
                        },
                    ))
                }
            }
        }
    }
}

/// Multi-level descent: repeatedly quarter the region, following the
/// quadrant that contains the user, while `(k, a_min)` still holds.
/// Returns the region with its population when the descent counted it,
/// i.e. when at least one quadrant was accepted.
fn refine_region<C: CellCounts>(
    counts: &C,
    mut region: Rect,
    pos: Point,
    req: &CloakRequirement,
    max_depth: u8,
) -> (Rect, Option<usize>) {
    let mut counted = None;
    for _ in 0..max_depth {
        let sub = region.quadrants()[region.quadrant_of(pos)];
        if sub.area() < req.a_min {
            break;
        }
        let inside = counts.count_in_rect(&sub);
        if inside < req.k as usize {
            break;
        }
        region = sub;
        counted = Some(inside);
    }
    (region, counted)
}

/// The full fixed-grid merge (and optional multi-level refinement)
/// against any [`CellCounts`] view.
///
/// This is [`GridCloak::cloak`] with the user lookup factored out: the
/// caller supplies the subject's exact position and a count view — the
/// concurrent engine's [`UniformGrid`], or a test's brute-force counter.
/// Because the algorithm consumes only integer cell counts and
/// cell-aligned rectangles, any two views reporting identical counts
/// produce bit-identical regions — the property the engine's
/// equivalence tests assert.
///
/// `req` must already be validated ([`CloakRequirement::validate`]).
pub fn cloak_with_counts<C: CellCounts>(
    counts: &C,
    pos: Point,
    req: &CloakRequirement,
    refine: bool,
    max_refine_depth: u8,
) -> CloakedRegion {
    if !req.wants_privacy() {
        let region = Rect::from_point(pos);
        let k = counts.count_in_rect(&region) as u32;
        return finalize_region(region, k.max(1), req);
    }
    let start = counts.cell_of(pos);
    let (mut c0, mut c1) = (start, start);
    let mut grow_x = true;
    loop {
        let count = counts.block_count(c0, c1) as u32;
        let rect = counts.block_rect(c0, c1);
        if count >= req.k && rect.area() >= req.a_min {
            let (rect, counted) = if refine && c0 == c1 {
                refine_region(counts, rect, pos, req, max_refine_depth)
            } else {
                (rect, None)
            };
            // `count` is no substitute: it goes by cell membership, and
            // a closed rectangle also holds the users on its far edges.
            let achieved = counted.unwrap_or_else(|| counts.count_in_rect(&rect)) as u32;
            return finalize_region(rect, achieved, req);
        }
        // Alternate growth axes so blocks stay near-square.
        match expand_once(counts, c0, c1, grow_x).or_else(|| expand_once(counts, c0, c1, !grow_x)) {
            Some((n0, n1)) => {
                c0 = n0;
                c1 = n1;
                grow_x = !grow_x;
            }
            None => {
                // Block spans the world: best effort.
                return finalize_region(rect, count, req);
            }
        }
    }
}

impl GridCloak {
    /// Creates the cloak over `world` with `side × side` cells.
    pub fn new(world: Rect, side: u32) -> GridCloak {
        GridCloak {
            grid: UniformGrid::new(world, side, side),
            refine: false,
            max_refine_depth: DEFAULT_MAX_REFINE_DEPTH,
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

    /// The refinement descent limit in force.
    pub fn max_refine_depth(&self) -> u8 {
        self.max_refine_depth
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
        self.grid.world()
    }

    fn upsert(&mut self, id: UserId, p: Point) {
        self.grid.insert(id, p);
    }

    fn remove(&mut self, id: UserId) -> bool {
        self.grid.remove(id).is_some()
    }

    fn location(&self, id: UserId) -> Option<Point> {
        self.grid.location(id)
    }

    fn population(&self) -> usize {
        self.grid.len()
    }

    fn count_in_region(&self, region: &Rect) -> usize {
        self.grid.count_in_rect(region)
    }

    /// Same grid cell (and requirement) => same merge expansion and the
    /// same refinement descent path boundaries... almost: refinement
    /// descends toward the *user's* quadrant, so only the unrefined
    /// variant is shareable at cell granularity.
    fn sharing_key(&self, id: UserId) -> Option<u64> {
        if self.refine {
            return None;
        }
        let p = self.grid.location(id)?;
        let c = self.grid.cell_of(p);
        Some(u64::from(c.iy) * u64::from(self.grid.nx()) + u64::from(c.ix))
    }

    fn cloak(&self, id: UserId, req: &CloakRequirement) -> Result<CloakedRegion, CloakError> {
        req.validate()?;
        let pos = self.grid.location(id).ok_or(CloakError::UnknownUser(id))?;
        Ok(cloak_with_counts(
            &self.grid,
            pos,
            req,
            self.refine,
            self.max_refine_depth,
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

    /// `cloak_with_counts` as it was before the descent handed its last
    /// count back: the achieved k is always counted again.
    fn cloak_recounting(
        counts: &UniformGrid,
        pos: Point,
        req: &CloakRequirement,
        refine: bool,
    ) -> CloakedRegion {
        if !req.wants_privacy() {
            let region = Rect::from_point(pos);
            let k = counts.count_in_rect(&region) as u32;
            return finalize_region(region, k.max(1), req);
        }
        let start = counts.cell_of(pos);
        let (mut c0, mut c1, mut grow_x) = (start, start, true);
        loop {
            let count = counts.block_count(c0, c1) as u32;
            let mut rect = counts.block_rect(c0, c1);
            if count >= req.k && rect.area() >= req.a_min {
                if refine && c0 == c1 {
                    for _ in 0..DEFAULT_MAX_REFINE_DEPTH {
                        let sub = rect.quadrants()[rect.quadrant_of(pos)];
                        if sub.area() >= req.a_min && counts.count_in_rect(&sub) >= req.k as usize {
                            rect = sub;
                        } else {
                            break;
                        }
                    }
                }
                return finalize_region(rect, counts.count_in_rect(&rect) as u32, req);
            }
            match expand_once(counts, c0, c1, grow_x)
                .or_else(|| expand_once(counts, c0, c1, !grow_x))
            {
                Some(grown) => {
                    (c0, c1) = grown;
                    grow_x = !grow_x;
                }
                None => return finalize_region(rect, count, req),
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
            // and a cell block disagree on who is inside.
            for (i, v) in [0.5, 0.25, 0.75, 0.625, 1.0].into_iter().enumerate() {
                c.upsert(100 + i as u64, Point::new(v, 0.5));
                c.upsert(110 + i as u64, Point::new(v, v));
            }
            for refine in [false, true] {
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
                        let got =
                            cloak_with_counts(&c.grid, pos, &req, refine, DEFAULT_MAX_REFINE_DEPTH);
                        let want = cloak_recounting(&c.grid, pos, &req, refine);
                        assert_eq!(bits(&got), bits(&want), "side {side} user {id} k {k}");
                    }
                }
            }
        }
    }

    /// A grid that counts the rectangle counts asked of it.
    struct CountingGrid {
        grid: UniformGrid,
        rect_counts: std::cell::Cell<usize>,
    }

    impl CellCounts for CountingGrid {
        fn world(&self) -> Rect {
            self.grid.world()
        }
        fn nx(&self) -> u32 {
            self.grid.nx()
        }
        fn ny(&self) -> u32 {
            self.grid.ny()
        }
        fn cell_of(&self, p: Point) -> CellCoord {
            self.grid.cell_of(p)
        }
        fn block_rect(&self, c0: CellCoord, c1: CellCoord) -> Rect {
            self.grid.block_rect(c0, c1)
        }
        fn block_count(&self, c0: CellCoord, c1: CellCoord) -> usize {
            self.grid.block_count(c0, c1)
        }
        fn count_in_rect(&self, r: &Rect) -> usize {
            self.rect_counts.set(self.rect_counts.get() + 1);
            self.grid.count_in_rect(r)
        }
    }

    #[test]
    fn a_refined_cloak_counts_each_quadrant_once() {
        // Subject at (0.51, 0.51) in cell [0.5, 1]^2 of a 2x2 grid; nine
        // companions placed so the k = 2 descent stops where we want.
        let subject = Point::new(0.51, 0.51);
        let rect_counts = |companions: Point| {
            let mut grid = UniformGrid::new(world(), 2, 2);
            grid.insert(0, subject);
            for i in 1..10u64 {
                grid.insert(i, companions);
            }
            let counting = CountingGrid {
                grid,
                rect_counts: std::cell::Cell::new(0),
            };
            let r = cloak_with_counts(
                &counting,
                subject,
                &CloakRequirement::k_only(2),
                true,
                DEFAULT_MAX_REFINE_DEPTH,
            );
            (r.region.width(), r.achieved_k, counting.rect_counts.get())
        };
        // Depth 0: the first quadrant is refused, then the cell itself
        // is counted — the block count would not do.
        assert_eq!(rect_counts(Point::new(0.9, 0.9)), (0.5, 10, 2));
        // Depth 2: two quadrants accepted, the third refused, no recount
        // (three counts where there were four).
        assert_eq!(rect_counts(Point::new(0.6, 0.6)), (0.125, 10, 3));
        // Depth 4, the limit: four accepted, none refused, no recount.
        assert_eq!(rect_counts(Point::new(0.511, 0.511)), (0.03125, 10, 4));
    }
}
