//! Space-dependent quadtree cloaking (Fig. 4a).
//!
//! "The location anonymizer starts from the whole space and checks if it
//! satisfies the mobile user requirements ... [and] will keep
//! partitioning the space into four quadrants till it encounters a
//! quadrant that does not satisfy the user requirements. In this case,
//! the latest quadrant that has satisfied the user requirements is
//! returned as the spatial cloaked area." — Sec. 5.2
//!
//! We run the equivalent bottom-up search (the Casper formulation):
//! start at the leaf cell containing the user and climb until the cell
//! satisfies `(k, A_min)`. Every quadtree cell is an aligned block of a
//! [`SubCellCounts`](lbsp_index::SubCellCounts) lattice, the count view
//! the fixed-grid cloak reads: the leaves of a `levels`-deep tree are
//! its `2^levels × 2^levels` sub-cells, over `2^(levels − 4)` cells a
//! side, and a tree shallower than four levels tiles its one cell into
//! `2^levels` blocks of sub-cells a side. Users count by sub-cell
//! membership, as for the grid cloak: one outside the world is a member
//! of no cell. Because cell boundaries are fixed in space, the returned
//! region is a function of *which cell* the user occupies, never of the
//! exact position inside it — this is what defeats reverse engineering
//! ("it is almost impossible to reveal any information about the exact
//! location information").
//!
//! An optional *neighbor merge* first tries the union of the cell with
//! its horizontal or vertical sibling before climbing a full level — the
//! optimization the follow-up Casper system adopted — which shrinks
//! cloaks by up to 2× at the same privacy level (measured in E4).

use crate::cloak::{finalize_region, CloakRequirement, CloakedRegion, CloakingAlgorithm};
use crate::grid_cloak::CountedUsers;
use crate::{CloakError, UserId};
use lbsp_geom::{Point, Rect};
use lbsp_index::{SubSpan, SUB_SIDE};

/// Bottom-up quadtree cloak.
#[derive(Debug, Clone)]
pub struct QuadCloak {
    users: CountedUsers,
    levels: u8,
    neighbor_merge: bool,
}

impl QuadCloak {
    /// Creates the cloak over `world` with a quadtree of `levels + 1`
    /// levels (leaf grid `2^levels × 2^levels`).
    ///
    /// # Panics
    /// Panics when `levels > 15` (a 32768² leaf grid — beyond any
    /// laptop-scale workload) or when the world is degenerate.
    pub fn new(world: Rect, levels: u8) -> QuadCloak {
        assert!(levels <= 15, "quadtree depth limited to 15 levels");
        let cells = 1 << levels.saturating_sub(SUB_SIDE.trailing_zeros() as u8);
        QuadCloak {
            users: CountedUsers::new(world, cells),
            levels,
            neighbor_merge: false,
        }
    }

    /// Enables the two-cell neighbor-merge optimization.
    pub fn with_neighbor_merge(mut self, enabled: bool) -> QuadCloak {
        self.neighbor_merge = enabled;
        self
    }

    /// `true` when neighbor merging is enabled.
    pub fn neighbor_merge_enabled(&self) -> bool {
        self.neighbor_merge
    }

    /// The level-`level` cell holding sub-cell `sub`; level 0 is the
    /// whole lattice.
    fn cell(&self, sub: [u32; 2], level: u8) -> SubSpan {
        SubSpan::around(sub, self.users.counts().lattice().extent()[0] >> level)
    }

    /// Tries merging `cell` with its sibling along x, then along y;
    /// returns the first merged rect that satisfies `req`, with its
    /// count. Either pair is half of the cell's parent, so both have the
    /// same area and x wins the tie. Only siblings within the same parent
    /// are considered, so the merged region is still a deterministic
    /// function of the cell.
    fn try_neighbor_merge(&self, cell: SubSpan, req: &CloakRequirement) -> Option<(Rect, usize)> {
        let counts = self.users.counts();
        let side = cell.hi[0] - cell.lo[0];
        (0..2).find_map(|axis| {
            let mut pair = cell;
            pair.lo[axis] -= cell.lo[axis] % (2 * side);
            pair.hi[axis] = pair.lo[axis] + 2 * side;
            let (rect, count) = (counts.lattice().rect(pair), counts.count(pair));
            (count >= req.k as usize && rect.area() >= req.a_min).then_some((rect, count))
        })
    }
}

impl CloakingAlgorithm for QuadCloak {
    fn name(&self) -> &'static str {
        if self.neighbor_merge {
            "quad+merge"
        } else {
            "quad"
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

    /// The bottom-up climb is a pure function of the leaf cell (and the
    /// requirement), for both the plain and neighbor-merge variants.
    fn sharing_key(&self, id: UserId) -> Option<u64> {
        let lattice = self.users.counts().lattice();
        let leaf_side = lattice.extent()[0] >> self.levels;
        let [ix, iy] = lattice
            .sub_of(self.location(id)?)
            .map(|v| u64::from(v / leaf_side));
        Some((iy << self.levels) + ix)
    }

    fn cloak(&self, id: UserId, req: &CloakRequirement) -> Result<CloakedRegion, CloakError> {
        req.validate()?;
        let pos = self.location(id).ok_or(CloakError::UnknownUser(id))?;
        if !req.wants_privacy() {
            return Ok(finalize_region(Rect::from_point(pos), 1, req));
        }
        let counts = self.users.counts();
        let sub = counts.lattice().sub_of(pos);
        // Climb from the leaf cell toward the root.
        let mut level = self.levels;
        loop {
            let cell = self.cell(sub, level);
            let (rect, count) = (counts.lattice().rect(cell), counts.count(cell));
            // Satisfied, or the whole world is not: best effort.
            if (count >= req.k as usize && rect.area() >= req.a_min) || level == 0 {
                return Ok(finalize_region(rect, count as u32, req));
            }
            if self.neighbor_merge {
                if let Some((rect, count)) = self.try_neighbor_merge(cell, req) {
                    return Ok(finalize_region(rect, count as u32, req));
                }
            }
            level -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn populated(levels: u8) -> QuadCloak {
        let mut c = QuadCloak::new(world(), levels);
        for i in 0..100u64 {
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            c.upsert(i, Point::new(x, y));
        }
        c
    }

    #[test]
    fn satisfies_k_with_cell_aligned_region() {
        let c = populated(5);
        for k in [2u32, 10, 50] {
            let r = c.cloak(55, &CloakRequirement::k_only(k)).unwrap();
            assert!(r.k_satisfied, "k={k}");
            assert!(r.achieved_k >= k);
            // Cell-aligned: width is world/2^l for some level l.
            let w = r.region.width();
            let level = (1.0 / w).log2();
            assert!(
                (level - level.round()).abs() < 1e-9,
                "width {w} is a power-of-two fraction"
            );
            assert!(r.region.contains_point(Point::new(0.55, 0.55)));
        }
    }

    #[test]
    fn region_is_position_independent_within_cell() {
        // Two users in the same leaf cell with the same requirement must
        // receive the identical region — the no-reverse-engineering
        // property.
        let mut c = QuadCloak::new(world(), 3); // leaf cells are 1/8 wide
        c.upsert(1, Point::new(0.51, 0.51));
        c.upsert(2, Point::new(0.56, 0.56)); // same 1/8-cell as user 1
        for i in 3..30u64 {
            c.upsert(i, Point::new(0.9, 0.9));
        }
        let req = CloakRequirement::k_only(2);
        let r1 = c.cloak(1, &req).unwrap();
        let r2 = c.cloak(2, &req).unwrap();
        assert_eq!(r1.region, r2.region);
    }

    #[test]
    fn a_min_forces_larger_cells() {
        let c = populated(5);
        let req = CloakRequirement {
            k: 2,
            a_min: 0.2,
            a_max: f64::INFINITY,
        };
        let r = c.cloak(55, &req).unwrap();
        assert!(r.area() >= 0.2);
        assert!(r.fully_satisfied());
    }

    #[test]
    fn impossible_k_returns_best_effort_root() {
        let c = populated(4);
        let r = c.cloak(0, &CloakRequirement::k_only(1000)).unwrap();
        assert!(!r.k_satisfied);
        assert_eq!(r.region, world());
        assert_eq!(r.achieved_k, 100);
    }

    #[test]
    fn neighbor_merge_never_larger_than_plain() {
        let plain = populated(5);
        let merged = populated(5).with_neighbor_merge(true);
        for id in [0u64, 33, 55, 99] {
            for k in [2u32, 5, 20, 60] {
                let req = CloakRequirement::k_only(k);
                let a = plain.cloak(id, &req).unwrap();
                let b = merged.cloak(id, &req).unwrap();
                assert!(b.k_satisfied == a.k_satisfied);
                assert!(
                    b.area() <= a.area() + 1e-12,
                    "id={id} k={k}: merge {} vs plain {}",
                    b.area(),
                    a.area()
                );
                assert!(b.achieved_k >= k.min(a.achieved_k));
            }
        }
    }

    #[test]
    fn merge_regions_still_contain_subject() {
        let c = populated(5).with_neighbor_merge(true);
        for id in 0..100u64 {
            let pos = c.location(id).unwrap();
            let r = c.cloak(id, &CloakRequirement::k_only(7)).unwrap();
            assert!(r.region.contains_point(pos), "id {id}");
            assert!(r.k_satisfied);
        }
    }

    #[test]
    fn no_privacy_short_circuit_and_unknown_user() {
        let c = populated(4);
        let r = c.cloak(1, &CloakRequirement::none()).unwrap();
        assert_eq!(r.area(), 0.0);
        assert!(matches!(
            c.cloak(555, &CloakRequirement::k_only(5)),
            Err(CloakError::UnknownUser(555))
        ));
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(QuadCloak::new(world(), 3).name(), "quad");
        assert_eq!(
            QuadCloak::new(world(), 3).with_neighbor_merge(true).name(),
            "quad+merge"
        );
    }
}
