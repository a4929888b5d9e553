//! Read-only cell-count views over uniform grids.
//!
//! Space-dependent cloaking (Fig. 4b) consumes a grid only through its
//! *counts*: how many users occupy a cell block, how many fall inside a
//! candidate rectangle. [`CellCounts`] captures exactly that surface, so
//! the same merge/refine algorithm can run against one [`UniformGrid`]
//! or against [`SummedGrids`] — a zero-copy view summing several grids
//! of identical geometry.
//!
//! `SummedGrids` is the substrate of the sharded engine: each shard
//! keeps a private `UniformGrid` over the *whole* world holding only its
//! own users, and cloaking sums per-cell counts across shards. Integer
//! sums are associative and order-independent, so a cloak computed
//! through the summed view is bit-identical to one computed over a
//! single grid holding the union of the populations.

use crate::grid::{CellCoord, UniformGrid};
use lbsp_geom::{Point, Rect};

/// The count surface a space-dependent cloak consumes from a grid.
///
/// Implementations must agree on geometry: `cell_of` / `block_rect`
/// must be pure functions of the world rectangle and `(nx, ny)`, and
/// the count methods must report exact (not approximate) occupancy.
pub trait CellCounts {
    /// The world rectangle the cells tile.
    fn world(&self) -> Rect;

    /// Number of columns.
    fn nx(&self) -> u32;

    /// Number of rows.
    fn ny(&self) -> u32;

    /// Cell containing `p` (out-of-world points clamp to border cells).
    fn cell_of(&self, p: Point) -> CellCoord;

    /// Geometric extent of the cell block `[c0..=c1]` in both axes.
    fn block_rect(&self, c0: CellCoord, c1: CellCoord) -> Rect;

    /// Number of objects inside the cell block `[c0..=c1]` in both axes.
    fn block_count(&self, c0: CellCoord, c1: CellCoord) -> usize;

    /// Exact number of objects whose location lies inside `r`.
    fn count_in_rect(&self, r: &Rect) -> usize;
}

impl CellCounts for UniformGrid {
    fn world(&self) -> Rect {
        UniformGrid::world(self)
    }
    fn nx(&self) -> u32 {
        UniformGrid::nx(self)
    }
    fn ny(&self) -> u32 {
        UniformGrid::ny(self)
    }
    fn cell_of(&self, p: Point) -> CellCoord {
        UniformGrid::cell_of(self, p)
    }
    fn block_rect(&self, c0: CellCoord, c1: CellCoord) -> Rect {
        UniformGrid::block_rect(self, c0, c1)
    }
    fn block_count(&self, c0: CellCoord, c1: CellCoord) -> usize {
        UniformGrid::block_count(self, c0, c1)
    }
    fn count_in_rect(&self, r: &Rect) -> usize {
        UniformGrid::count_in_rect(self, r)
    }
}

/// A view over several grids of identical geometry whose counts are the
/// per-cell sums of the member grids' counts.
///
/// Geometry queries delegate to the first grid; count queries sum over
/// all members. Because every member tiles the same world with the same
/// `(nx, ny)`, the sum over disjoint populations equals the count a
/// single merged grid would report.
pub struct SummedGrids<'a> {
    grids: Vec<&'a UniformGrid>,
}

impl<'a> SummedGrids<'a> {
    /// Builds the view.
    ///
    /// # Panics
    /// Panics when `grids` is empty or the members disagree on world
    /// rectangle or cell resolution — summing counts across mismatched
    /// geometries would be meaningless.
    pub fn new(grids: Vec<&'a UniformGrid>) -> SummedGrids<'a> {
        assert!(!grids.is_empty(), "SummedGrids needs at least one grid");
        let first = grids[0];
        for g in &grids[1..] {
            assert!(
                g.world() == first.world() && g.nx() == first.nx() && g.ny() == first.ny(),
                "SummedGrids members must share geometry"
            );
        }
        SummedGrids { grids }
    }

    /// Total population across all member grids.
    pub fn len(&self) -> usize {
        self.grids.iter().map(|g| g.len()).sum()
    }

    /// `true` when every member grid is empty.
    pub fn is_empty(&self) -> bool {
        self.grids.iter().all(|g| g.is_empty())
    }
}

impl CellCounts for SummedGrids<'_> {
    fn world(&self) -> Rect {
        self.grids[0].world()
    }
    fn nx(&self) -> u32 {
        self.grids[0].nx()
    }
    fn ny(&self) -> u32 {
        self.grids[0].ny()
    }
    fn cell_of(&self, p: Point) -> CellCoord {
        self.grids[0].cell_of(p)
    }
    fn block_rect(&self, c0: CellCoord, c1: CellCoord) -> Rect {
        self.grids[0].block_rect(c0, c1)
    }
    fn block_count(&self, c0: CellCoord, c1: CellCoord) -> usize {
        self.grids.iter().map(|g| g.block_count(c0, c1)).sum()
    }
    fn count_in_rect(&self, r: &Rect) -> usize {
        self.grids.iter().map(|g| g.count_in_rect(r)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    /// Splits a population across 3 shard grids by x-stripe and checks
    /// every count query agrees with a single grid holding the union.
    #[test]
    fn summed_counts_match_single_grid() {
        let mut merged = UniformGrid::new(unit_world(), 8, 8);
        let mut shards = [
            UniformGrid::new(unit_world(), 8, 8),
            UniformGrid::new(unit_world(), 8, 8),
            UniformGrid::new(unit_world(), 8, 8),
        ];
        for i in 0..200u64 {
            let p = Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.71) % 1.0);
            merged.insert(i, p);
            let s = ((p.x * 3.0) as usize).min(2);
            shards[s].insert(i, p);
        }
        let view = SummedGrids::new(shards.iter().collect());
        assert_eq!(view.len(), merged.len());
        for iy in 0..8 {
            for ix in 0..8 {
                let c = CellCoord { ix, iy };
                assert_eq!(view.block_count(c, c), merged.block_count(c, c));
            }
        }
        let lo = CellCoord { ix: 1, iy: 2 };
        let hi = CellCoord { ix: 6, iy: 7 };
        assert_eq!(view.block_count(lo, hi), merged.block_count(lo, hi));
        assert_eq!(view.block_rect(lo, hi), merged.block_rect(lo, hi));
        let r = Rect::new_unchecked(0.13, 0.2, 0.77, 0.9);
        assert_eq!(view.count_in_rect(&r), merged.count_in_rect(&r));
        // Geometry is the single grid's geometry.
        assert_eq!(
            view.cell_of(Point::new(0.5, 0.5)),
            merged.cell_of(Point::new(0.5, 0.5))
        );
        assert_eq!(CellCounts::world(&view), UniformGrid::world(&merged));
    }

    #[test]
    #[should_panic(expected = "share geometry")]
    fn mismatched_geometry_panics() {
        let a = UniformGrid::new(unit_world(), 4, 4);
        let b = UniformGrid::new(unit_world(), 8, 8);
        SummedGrids::new(vec![&a, &b]);
    }

    #[test]
    #[should_panic(expected = "at least one grid")]
    fn empty_view_panics() {
        SummedGrids::new(Vec::new());
    }
}
