//! The read-only cell-count surface of a uniform grid.
//!
//! Space-dependent cloaking (Fig. 4b) consumes a grid only through its
//! *counts*: how many users occupy a cell block, how many fall inside a
//! candidate rectangle. [`CellCounts`] captures exactly that surface, so
//! the same merge/refine algorithm runs against a [`UniformGrid`] — the
//! sequential `GridCloak`'s and the concurrent engine's alike — and
//! against test doubles that count by brute force.

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
