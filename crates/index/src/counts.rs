//! The sub-cell count view a space-dependent cloak reads.
//!
//! Space-dependent cloaking (Fig. 4b) asks a grid only how many users
//! occupy a block of cells, and, when it refines, how many occupy one
//! quadrant of a cell. Casper, this paper's follow-up, answers both from
//! counts alone, and so does [`SubCellCounts`]: each grid cell is tiled
//! into `SUB_SIDE × SUB_SIDE` sub-cells, every question is a block of
//! that [`Lattice`] in integer coordinates, and the view keeps one `u32`
//! per sub-cell of an occupied cell and one per cell. It holds counts
//! only: no ids and no positions. Its caller keeps each user's position
//! and reports a move as `(old, new)` points, which is four counter
//! bumps; a refined quadrant sums at most 8 rows of 8 counters straight
//! off one cell's array, and a cell block sums one total per cell.
//!
//! Users count by *membership*: a user inside the lattice is in exactly
//! one sub-cell, the one whose lattice lines bracket its position, and a
//! user outside it (out of the world, or non-finite) is in none. So
//! every user a span counts lies in the closed rectangle the lattice
//! builds from that span, in any world; one on its far edge belongs to
//! the next span and is not counted.

use lbsp_geom::{Point, Rect};

/// Sub-cells per cell side: four quarterings, the grid cloak's
/// refinement depth.
pub const SUB_SIDE: u32 = 16;

/// Sub-cells per cell side, as an index.
const SIDE: usize = SUB_SIDE as usize;

/// A block of sub-cells: columns `lo[0] .. hi[0]` and rows
/// `lo[1] .. hi[1]` (half-open, in lattice coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubSpan {
    /// Lowest column and row in the block.
    pub lo: [u32; 2],
    /// One past the highest column and row in the block.
    pub hi: [u32; 2],
}

impl SubSpan {
    /// The `side × side` block aligned to multiples of `side` that holds
    /// sub-cell `sub`: the sub-cell itself for side 1, its cell for
    /// [`SUB_SIDE`], and a quadrant of that cell in between.
    pub fn around(sub: [u32; 2], side: u32) -> SubSpan {
        let lo = sub.map(|v| v - v % side);
        SubSpan {
            lo,
            hi: lo.map(|v| v + side),
        }
    }
}

/// A cell of a [`Lattice`]: column `ix` and row `iy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellCoord {
    /// Column index, `0 .. nx`.
    pub ix: u32,
    /// Row index, `0 .. ny`.
    pub iy: u32,
}

/// The geometry of a grid of `nx × ny` cells over a world rectangle, each
/// cell tiled into `SUB_SIDE × SUB_SIDE` sub-cells.
#[derive(Debug, Clone, Copy)]
pub struct Lattice {
    world: Rect,
    /// World corner, per axis.
    origin: [f64; 2],
    /// Cell side, per axis.
    cell: [f64; 2],
    /// Cells per axis.
    cells: [u32; 2],
    /// The last lattice line, per axis, as [`Self::rect`] draws it.
    far: [f64; 2],
}

impl Lattice {
    /// The lattice of an `nx × ny` grid over `world`.
    ///
    /// # Panics
    /// Panics when `nx` or `ny` is zero or the world rectangle is
    /// degenerate (zero width or height).
    pub fn new(world: Rect, nx: u32, ny: u32) -> Lattice {
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        assert!(
            world.width() > 0.0 && world.height() > 0.0,
            "grid world must have positive area"
        );
        let mut lattice = Lattice {
            world,
            origin: [world.min_x(), world.min_y()],
            cell: [world.width() / nx as f64, world.height() / ny as f64],
            cells: [nx, ny],
            far: [0.0; 2],
        };
        lattice.far = [0, 1].map(|a| lattice.edge(a, lattice.extent()[a]));
        lattice
    }

    /// The world rectangle the cells tile.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// Number of columns of cells.
    pub fn nx(&self) -> u32 {
        self.cells[0]
    }

    /// Sub-cells per axis: `nx · SUB_SIDE` and `ny · SUB_SIDE`.
    pub fn extent(&self) -> [u32; 2] {
        self.cells.map(|n| n * SUB_SIDE)
    }

    /// The sub-cell whose lattice lines bracket `p` (line `i` ≤ `p` <
    /// line `i + 1`), out-of-world coordinates clamped to the border (a
    /// NaN one to 0).
    pub fn sub_of(&self, p: Point) -> [u32; 2] {
        let extent = self.extent();
        let axis = |a: usize, v: f64| {
            let f = (v - self.origin[a]) / self.cell[a] * f64::from(SUB_SIDE);
            let i = (f.floor().max(0.0) as u32).min(extent[a] - 1);
            // Rounding (a few ulps of `f`) may floor `v` one line off the
            // lines `rect` draws.
            if i > 0 && v < self.edge(a, i) {
                i - 1
            } else if i + 1 < extent[a] && v >= self.edge(a, i + 1) {
                i + 1
            } else {
                i
            }
        };
        [axis(0, p.x), axis(1, p.y)]
    }

    /// `true` when `p` lies in the closed rectangle the lattice covers,
    /// the only points that are members of a sub-cell.
    pub fn holds(&self, p: Point) -> bool {
        let v = [p.x, p.y];
        (0..2).all(|a| self.origin[a] <= v[a] && v[a] <= self.far[a])
    }

    /// The cell holding `p`'s sub-cell.
    pub fn cell_of(&self, p: Point) -> CellCoord {
        let [x, y] = self.sub_of(p);
        CellCoord {
            ix: x / SUB_SIDE,
            iy: y / SUB_SIDE,
        }
    }

    /// Coordinate of lattice line `i` on `axis`. Monotone in `i`, and a
    /// cell line `SUB_SIDE · c` lands on `origin + cell · c` exactly.
    fn edge(&self, axis: usize, i: u32) -> f64 {
        self.origin[axis] + self.cell[axis] * (f64::from(i) / f64::from(SUB_SIDE))
    }

    /// The rectangle covering `span`.
    pub fn rect(&self, span: SubSpan) -> Rect {
        Rect::new_unchecked(
            self.edge(0, span.lo[0]),
            self.edge(1, span.lo[1]),
            self.edge(0, span.hi[0]),
            self.edge(1, span.hi[1]),
        )
    }

    /// The sub-cells whose rectangle lies wholly inside `r`: the inverse
    /// of [`Self::rect`], so `span_inside(&rect(s)) == s` for any span.
    fn span_inside(&self, r: &Rect) -> SubSpan {
        let bounds = [(r.min_x(), r.max_x()), (r.min_y(), r.max_y())];
        let mut span = SubSpan {
            lo: [0; 2],
            hi: [0; 2],
        };
        for (axis, (lo, hi)) in bounds.into_iter().enumerate() {
            // Sub-cell `i` is inside when lines `i` and `i + 1` are.
            span.lo[axis] = self.lines_where(axis, |e| e < lo);
            span.hi[axis] = self.lines_where(axis, |e| e <= hi).saturating_sub(1);
        }
        span
    }

    /// How many of `axis`'s lattice lines satisfy `below`, a predicate
    /// that holds on a prefix of them (they are monotone): a bisection.
    fn lines_where(&self, axis: usize, below: impl Fn(f64) -> bool) -> u32 {
        let (mut lo, mut hi) = (0, self.extent()[axis] + 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if below(self.edge(axis, mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The count surface a space-dependent cloak consumes: a lattice, and
/// how many users are members of any block of it.
pub trait CellCounts {
    /// The lattice the counts are kept on.
    fn lattice(&self) -> &Lattice;

    /// Number of users whose sub-cell lies in `span`.
    fn count(&self, span: SubSpan) -> usize;
}

/// Per-sub-cell user counts over a [`Lattice`]: counts only. The caller
/// keeps each user's position and reports every move through
/// [`Self::shift`]; the view never learns who is where.
#[derive(Debug, Clone)]
pub struct SubCellCounts {
    lattice: Lattice,
    /// Per cell, row-major: its `SUB_SIDE` rows of `SUB_SIDE` counters,
    /// allocated when the cell first gets a member and kept after. Memory
    /// follows the occupied cells, not the grid's area.
    subs: Vec<Option<Box<[[u32; SIDE]; SIDE]>>>,
    /// Per-cell totals, row-major.
    totals: Vec<u32>,
}

impl SubCellCounts {
    /// An empty view over an `nx × ny` grid on `world`.
    ///
    /// # Panics
    /// As [`Lattice::new`].
    pub fn new(world: Rect, nx: u32, ny: u32) -> SubCellCounts {
        let lattice = Lattice::new(world, nx, ny);
        let cells = nx as usize * ny as usize;
        SubCellCounts {
            lattice,
            subs: vec![None; cells],
            totals: vec![0; cells],
        }
    }

    /// The lattice the counts are kept on.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Moves one user from `old` to `new`: `None` for no position, so
    /// `(None, Some(p))` adds a user and `(Some(p), None)` removes one.
    /// `old` must be the position last shifted in for that user.
    pub fn shift(&mut self, old: Option<Point>, new: Option<Point>) {
        if let Some(p) = old {
            self.bump(p, false);
        }
        if let Some(p) = new {
            self.bump(p, true);
        }
    }

    /// Counts `p` in (or out of) its cell and sub-cell; a position
    /// outside the lattice is a member of neither.
    fn bump(&mut self, p: Point, up: bool) {
        if !self.lattice.holds(p) {
            return;
        }
        let [x, y] = self.lattice.sub_of(p);
        let cell = (y / SUB_SIDE) as usize * self.lattice.nx() as usize + (x / SUB_SIDE) as usize;
        let subs = self.subs[cell].get_or_insert_with(|| Box::new([[0; SIDE]; SIDE]));
        let sub = &mut subs[(y % SUB_SIDE) as usize][(x % SUB_SIDE) as usize];
        if up {
            self.totals[cell] += 1;
            *sub += 1;
        } else {
            debug_assert!(self.totals[cell] > 0 && *sub > 0, "count underflow");
            self.totals[cell] -= 1;
            *sub -= 1;
        }
    }

    /// Number of users whose sub-cell lies in `span`. A block inside one
    /// cell (every refinement quadrant) sums that cell's counters; a
    /// block of whole cells (every block the merge step asks about) sums
    /// their totals; any other block sums its counters cell by cell.
    pub fn count(&self, span: SubSpan) -> usize {
        let ([x0, y0], [x1, y1]) = (span.lo, span.hi);
        if x0 >= x1 || y0 >= y1 {
            return 0;
        }
        let extent = self.lattice.extent();
        debug_assert!(x1 <= extent[0] && y1 <= extent[1]);
        let (cx, cy) = (x0 / SUB_SIDE, y0 / SUB_SIDE);
        let (w, h) = (x1 - cx * SUB_SIDE, y1 - cy * SUB_SIDE);
        // Inside `x0`'s cell, and smaller than that whole cell.
        if w <= SUB_SIDE && h <= SUB_SIDE && (x1 - x0 < SUB_SIDE || y1 - y0 < SUB_SIDE) {
            return self.in_cell([cx, cy], span) as usize;
        }
        let (hx, hy) = (x1.div_ceil(SUB_SIDE), y1.div_ceil(SUB_SIDE));
        let nx = self.lattice.nx() as usize;
        let mut n = 0;
        if [x0, y0, x1, y1].iter().all(|v| v % SUB_SIDE == 0) {
            for row in (cy..hy).map(|y| y as usize * nx) {
                n += self.totals[row + cx as usize..row + hx as usize]
                    .iter()
                    .sum::<u32>();
            }
        } else {
            for y in cy..hy {
                for x in cx..hx {
                    n += self.in_cell([x, y], span);
                }
            }
        }
        n as usize
    }

    /// The members of cell `[cx, cy]` whose sub-cell lies in `span`,
    /// summed straight off the cell's counters, a row at a time.
    #[inline]
    fn in_cell(&self, [cx, cy]: [u32; 2], span: SubSpan) -> u32 {
        let cell = cy as usize * self.lattice.nx() as usize + cx as usize;
        let Some(subs) = &self.subs[cell] else {
            return 0;
        };
        let (bx, by) = (cx * SUB_SIDE, cy * SUB_SIDE);
        let x0 = (span.lo[0].max(bx) - bx) as usize;
        let x1 = (span.hi[0].min(bx + SUB_SIDE) - bx) as usize;
        let y0 = (span.lo[1].max(by) - by) as usize;
        let y1 = (span.hi[1].min(by + SUB_SIDE) - by) as usize;
        let mut n = 0;
        for row in &subs[y0..y1] {
            n += row[x0..x1].iter().sum::<u32>();
        }
        n
    }

    /// Number of users counted in `r`: those whose sub-cell lies wholly
    /// inside it. On a rectangle [`Lattice::rect`] built this equals
    /// [`Self::count`] of its span; a rectangle of zero width or height
    /// holds no sub-cell and counts none.
    pub fn count_in_rect(&self, r: &Rect) -> usize {
        self.count(self.lattice.span_inside(r))
    }
}

impl CellCounts for SubCellCounts {
    fn lattice(&self) -> &Lattice {
        &self.lattice
    }
    fn count(&self, span: SubSpan) -> usize {
        SubCellCounts::count(self, span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> SubCellCounts {
        SubCellCounts::new(Rect::new_unchecked(0.0, 0.0, 1.0, 1.0), 4, 4)
    }

    #[test]
    fn moves_keep_counts() {
        let mut v = view();
        let (a, b) = (Point::new(0.1, 0.1), Point::new(0.9, 0.9));
        v.shift(None, Some(a));
        v.shift(Some(a), Some(b));
        let cell = |p: Point| SubSpan::around(v.lattice().sub_of(p), SUB_SIDE);
        assert_eq!(v.count(cell(a)), 0);
        assert_eq!(v.count(cell(b)), 1);
        v.shift(Some(b), None);
        assert_eq!(v.count_in_rect(&v.lattice().world()), 0);
    }

    #[test]
    fn members_count_by_sub_cell_not_by_closed_rectangle() {
        let mut v = view();
        // On the far edge of cell (0, 0): a member of cell (1, 0).
        v.shift(None, Some(Point::new(0.25, 0.1)));
        // On the world's far corner: a member of the last cell.
        v.shift(None, Some(Point::new(1.0, 1.0)));
        // Out of the world, or non-finite: a member of no cell.
        v.shift(None, Some(Point::new(-0.01, 0.1)));
        v.shift(None, Some(Point::new(f64::NAN, 0.1)));
        let first = v.lattice().rect(SubSpan::around([0, 0], SUB_SIDE));
        assert_eq!(first, Rect::new_unchecked(0.0, 0.0, 0.25, 0.25));
        assert_eq!(v.count_in_rect(&first), 0);
        assert_eq!(
            v.count_in_rect(&Rect::new_unchecked(-1.0, -1.0, 2.0, 2.0)),
            2
        );
        // A point holds no sub-cell, even where a user stands.
        assert_eq!(v.count_in_rect(&Rect::from_point(Point::new(0.25, 0.1))), 0);
    }

    #[test]
    fn counters_follow_the_occupied_cells() {
        let mut v = SubCellCounts::new(Rect::new_unchecked(0.0, 0.0, 1.0, 1.0), 1024, 1024);
        for x in [0.1, 0.1, 0.7, -0.5] {
            v.shift(None, Some(Point::new(x, 0.3)));
        }
        assert_eq!(v.subs.iter().flatten().count(), 2);
        let cell = SubSpan::around(v.lattice().sub_of(Point::new(0.1, 0.3)), SUB_SIDE);
        assert_eq!(v.count(cell), 2);
    }

    #[test]
    fn members_lie_between_the_lines_their_rectangles_draw() {
        // A world whose lattice lines are inexact in binary: the floor of
        // the scaled coordinate can land a line off, and membership must
        // follow the lines `rect` draws instead.
        let lat = Lattice::new(Rect::new_unchecked(-0.3, 0.1, 0.8, 1.7), 6, 6);
        for i in 0..96 {
            let unit = lat.rect(SubSpan::around([i, i], 1));
            for v in [unit.min_x(), unit.max_x()] {
                let ulp = v.abs() * f64::EPSILON;
                for x in [v - ulp, v, v + ulp] {
                    let p = Point::new(x, 0.5);
                    if !lat.holds(p) {
                        continue;
                    }
                    let sub = SubSpan::around(lat.sub_of(p), 1);
                    let r = lat.rect(sub);
                    assert!(r.min_x() <= x && (x < r.max_x() || sub.hi[0] == 96));
                }
            }
        }
    }

    #[test]
    fn a_span_rectangle_maps_back_to_its_span() {
        // A world whose cell width is inexact in binary.
        let v = SubCellCounts::new(Rect::new_unchecked(-0.3, 0.1, 0.8, 1.7), 6, 6);
        let lat = v.lattice();
        for (lo, hi) in [(0, 1), (3, 17), (16, 32), (0, 96), (95, 96), (37, 38)] {
            let span = SubSpan {
                lo: [lo, 96 - hi],
                hi: [hi, 96 - lo],
            };
            assert_eq!(lat.span_inside(&lat.rect(span)), span);
        }
    }
}
