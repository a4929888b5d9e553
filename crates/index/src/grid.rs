//! Fixed uniform grid index over point objects.
//!
//! This is the space partitioning of Fig. 4b: the world is divided into
//! `nx × ny` equal cells. The grid stores every object's exact location in
//! a per-cell bucket, plus a reverse map from object id to location so
//! updates and removals are O(1) expected. The fixed-grid cloaking
//! algorithm and the anonymizer's occupancy statistics are built on it.
//!
//! Each cell's bucket is an adaptive quadtree over integer *sub-cell*
//! coordinates (`SUB_SIDE` per cell side): sparse cells stay one
//! bucket, crowded ones split, and every split node stores its count.
//! A rectangle query adds the stored count of every node strictly
//! inside the rectangle's sub-cell span, skips nodes strictly outside
//! it, and is left with the ring of leaves the rectangle's edges fall
//! in. Every leaf keeps a box holding all of its points (grown on
//! insert, recomputed on removal, on split and on merge), so a ring leaf
//! whose box misses the closed rectangle counts 0 and one whose box
//! lies inside it counts all, both without reading a point; only a leaf
//! the rectangle's edge actually cuts is scanned. A count costs
//! O(cut leaves), not O(crowd in the cell).
//!
//! Every verdict equals a scan. Sub-cell coordinates come from `floor`
//! and a clamp, both monotone, so "strictly inside the span" implies
//! "inside the rectangle" for any rectangle and any world (see
//! `Tiling::sub_of`); and a leaf's box is a superset of its points, so
//! a box outside (inside) the rectangle has every point outside
//! (inside) it. A non-finite point gives its leaf a NaN box, which
//! passes neither test, so that leaf is always scanned.

use crate::ObjectId;
use lbsp_geom::{Point, Rect};
use std::collections::HashMap;

/// Discrete cell coordinate `(ix, iy)` within a [`UniformGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellCoord {
    /// Column index, `0 .. nx`.
    pub ix: u32,
    /// Row index, `0 .. ny`.
    pub iy: u32,
}

/// Sub-cells per cell side, as a power of two. Four levels match the
/// grid cloak's refinement depth, whose rectangles are the hot queries.
/// Like the two thresholds below it changes speed only, never an answer.
const SUB_BITS: u32 = 4;
const SUB_SIDE: u64 = 1 << SUB_BITS;
/// A leaf spanning more than one sub-cell splits when it grows past this.
const SPLIT_ABOVE: usize = 32;
/// A split node collapses back into one leaf when it shrinks to this
/// (well below [`SPLIT_ABOVE`], so a crowd hovering at the threshold
/// does not split and merge on every move).
const MERGE_AT: usize = SPLIT_ABOVE / 4;

/// The grid's geometry: how points map to cells and sub-cells.
#[derive(Debug, Clone, Copy)]
struct Tiling {
    world: Rect,
    nx: u32,
    ny: u32,
    cell_w: f64,
    cell_h: f64,
}

impl Tiling {
    /// Global sub-cell coordinate of `p`: `0 .. nx * SUB_SIDE` by
    /// `0 .. ny * SUB_SIDE`, out-of-world points clamped to the border.
    /// The cell of `p` is this shifted right by [`SUB_BITS`].
    ///
    /// Each axis is a composition of monotone steps (subtract, divide
    /// by a positive width, scale, `floor`, clamp), so for a rectangle
    /// `[x0, x1]` with `a0 = sub(x0)`, `a1 = sub(x1)`: a point with
    /// `a0 < sub(x) < a1` has `x0 < x < x1` (were `x <= x0`, monotonicity
    /// would give `sub(x) <= a0`), and a point with `sub(x) < a0` or
    /// `sub(x) > a1` lies outside. Rounding error in the arithmetic moves
    /// which sub-cell a value lands in, never this implication.
    fn sub_of(&self, p: Point) -> (u64, u64) {
        let fx = (p.x - self.world.min_x()) / self.cell_w * SUB_SIDE as f64;
        let fy = (p.y - self.world.min_y()) / self.cell_h * SUB_SIDE as f64;
        (
            (fx.floor().max(0.0) as u64).min(u64::from(self.nx) * SUB_SIDE - 1),
            (fy.floor().max(0.0) as u64).min(u64::from(self.ny) * SUB_SIDE - 1),
        )
    }

    /// `r` in sub-cell coordinates; `None` when `r` can hold no point.
    fn span_of(&self, r: &Rect) -> Option<Span> {
        // An inverted or NaN-edged rectangle holds no point, but its
        // corners would still map to a span.
        if !(r.min_x() <= r.max_x() && r.min_y() <= r.max_y()) {
            return None;
        }
        let (x0, y0) = self.sub_of(Point::new(r.min_x(), r.min_y()));
        let (x1, y1) = self.sub_of(Point::new(r.max_x(), r.max_y()));
        // A low edge that is the smallest value of its own sub-cell (a
        // cell-aligned rectangle, as the cloak's are) has that sub-cell
        // wholly above it too: a smaller `x` is at most the next value
        // down, whose sub-cell is lower.
        let below = Point::new(r.min_x().next_down(), r.min_y().next_down());
        let (bx, by) = self.sub_of(below);
        Some(Span {
            rect: *r,
            x0,
            y0,
            x1,
            y1,
            in_x0: x0 + u64::from(bx == x0),
            in_y0: y0 + u64::from(by == y0),
        })
    }
}

/// A rectangle in sub-cell coordinates: the closed range its corners
/// map to, and per axis the first coordinate known to lie wholly above
/// the rectangle's low edge; and the rectangle itself, for leaf boxes.
struct Span {
    rect: Rect,
    x0: u64,
    y0: u64,
    x1: u64,
    y1: u64,
    in_x0: u64,
    in_y0: u64,
}

/// What a rectangle walk reports: a whole subtree known to lie inside,
/// or a leaf on the ring the rectangle's edges fall in, whose points the
/// caller must test.
enum Found<'a> {
    Inside(&'a Node),
    Ring(&'a [(ObjectId, Point)]),
}

/// One cell's bucket: a quadtree over the cell's sub-cells. A node of
/// side `size` sub-cells has children of side `size / 2`, indexed
/// `2 * (upper half in y) + (upper half in x)`.
#[derive(Debug, Clone)]
enum Node {
    Leaf(Leaf),
    Split { count: usize, kids: Box<[Node; 4]> },
}

/// A quadtree leaf: its points and a box holding every one of them.
#[derive(Debug, Clone)]
struct Leaf {
    pts: Vec<(ObjectId, Point)>,
    /// Smallest box holding `pts`.
    bbox: LeafBox,
}

/// An axis-aligned box by its low and high corners. Unlike a [`Rect`]
/// it may be inverted (the box of no point) or NaN (the box of a leaf
/// holding a non-finite point).
#[derive(Debug, Clone, Copy)]
struct LeafBox {
    lo: Point,
    hi: Point,
}

impl LeafBox {
    /// The box of no point: it misses every rectangle.
    const EMPTY: LeafBox = LeafBox {
        lo: Point::new(f64::INFINITY, f64::INFINITY),
        hi: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };
    /// Every comparison with NaN is false, so this box neither misses
    /// nor lies inside any rectangle: its leaf is always scanned.
    const NAN: LeafBox = LeafBox {
        lo: Point::new(f64::NAN, f64::NAN),
        hi: Point::new(f64::NAN, f64::NAN),
    };

    /// The box grown to hold `p`. NaN sticks, which `f64::min` would not.
    fn grown(self, p: Point) -> LeafBox {
        if !p.is_finite() || self.lo.x.is_nan() {
            return LeafBox::NAN;
        }
        LeafBox {
            lo: Point::new(self.lo.x.min(p.x), self.lo.y.min(p.y)),
            hi: Point::new(self.hi.x.max(p.x), self.hi.y.max(p.y)),
        }
    }

    /// `true` when no point of the box is in the closed rectangle `r`.
    fn misses(&self, r: &Rect) -> bool {
        self.hi.x < r.min_x()
            || self.lo.x > r.max_x()
            || self.hi.y < r.min_y()
            || self.lo.y > r.max_y()
    }

    /// `true` when every point of the box is in the closed rectangle `r`.
    fn inside(&self, r: &Rect) -> bool {
        r.min_x() <= self.lo.x
            && self.hi.x <= r.max_x()
            && r.min_y() <= self.lo.y
            && self.hi.y <= r.max_y()
    }
}

impl Leaf {
    fn new(pts: Vec<(ObjectId, Point)>) -> Leaf {
        let bbox = pts.iter().fold(LeafBox::EMPTY, |b, &(_, p)| b.grown(p));
        Leaf { pts, bbox }
    }

    fn push(&mut self, id: ObjectId, p: Point) {
        self.pts.push((id, p));
        self.bbox = self.bbox.grown(p);
    }

    /// Removes `id` and recomputes the box from the points left.
    fn remove(&mut self, id: ObjectId) {
        let pos = self
            .pts
            .iter()
            .position(|(oid, _)| *oid == id)
            .expect("a located object is in the leaf of its sub-cell");
        self.pts.swap_remove(pos);
        *self = Leaf::new(std::mem::take(&mut self.pts));
    }
}

/// Child of a node with half-side `half` holding sub-cell `(x, y)`.
#[inline]
fn quadrant(x: u64, y: u64, half: u64) -> usize {
    usize::from(y & half != 0) * 2 + usize::from(x & half != 0)
}

impl Node {
    fn count(&self) -> usize {
        match self {
            Node::Leaf(leaf) => leaf.pts.len(),
            Node::Split { count, .. } => *count,
        }
    }

    fn for_each_leaf<'a, F: FnMut(&'a Leaf)>(&'a self, f: &mut F) {
        match self {
            Node::Leaf(leaf) => f(leaf),
            Node::Split { kids, .. } => kids.iter().for_each(|k| k.for_each_leaf(f)),
        }
    }

    fn for_each<F: FnMut(ObjectId, Point)>(&self, f: &mut F) {
        match self {
            Node::Leaf(leaf) => leaf.pts.iter().for_each(|&(id, p)| f(id, p)),
            Node::Split { kids, .. } => kids.iter().for_each(|k| k.for_each(f)),
        }
    }

    /// Splits an over-full leaf of side `size` (and any child the split
    /// leaves over-full) by its entries' sub-cell coordinates.
    fn split_if_crowded(&mut self, size: u64, tiling: &Tiling) {
        let Node::Leaf(leaf) = self else { return };
        if leaf.pts.len() <= SPLIT_ABOVE || size == 1 {
            return;
        }
        let half = size / 2;
        let mut parts: [Vec<(ObjectId, Point)>; 4] = Default::default();
        for &(id, p) in &leaf.pts {
            let (x, y) = tiling.sub_of(p);
            parts[quadrant(x, y, half)].push((id, p));
        }
        let count = leaf.pts.len();
        let mut kids = Box::new(parts.map(|v| Node::Leaf(Leaf::new(v))));
        for kid in kids.iter_mut() {
            kid.split_if_crowded(half, tiling);
        }
        *self = Node::Split { count, kids };
    }

    /// Reports the parts of this node (origin `(x0, y0)`, side `size`,
    /// in global sub-cell coordinates) that `span` does not rule out. A
    /// ring leaf is settled by its box where the box allows.
    fn visit_span<'a, V: FnMut(Found<'a>)>(
        &'a self,
        (x0, y0): (u64, u64),
        size: u64,
        span: &Span,
        visit: &mut V,
    ) {
        let (x1, y1) = (x0 + size - 1, y0 + size - 1);
        if x1 < span.x0 || x0 > span.x1 || y1 < span.y0 || y0 > span.y1 {
            return;
        }
        if x0 >= span.in_x0 && x1 < span.x1 && y0 >= span.in_y0 && y1 < span.y1 {
            return visit(Found::Inside(self));
        }
        match self {
            Node::Leaf(leaf) => {
                if !leaf.bbox.misses(&span.rect) {
                    visit(if leaf.bbox.inside(&span.rect) {
                        Found::Inside(self)
                    } else {
                        Found::Ring(&leaf.pts)
                    });
                }
            }
            Node::Split { kids, .. } => {
                let half = size / 2;
                for (i, kid) in kids.iter().enumerate() {
                    let origin = (x0 + (i as u64 & 1) * half, y0 + (i as u64 >> 1) * half);
                    kid.visit_span(origin, half, span, visit);
                }
            }
        }
    }
}

/// A fixed uniform grid over a world rectangle, indexing point objects.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    tiling: Tiling,
    cells: Vec<Node>,
    locations: HashMap<ObjectId, Point>,
}

impl UniformGrid {
    /// Creates an empty grid of `nx × ny` cells over `world`.
    ///
    /// # Panics
    /// Panics when `nx` or `ny` is zero or the world rectangle is
    /// degenerate (zero width or height) — a grid over a degenerate world
    /// has no meaningful cells.
    pub fn new(world: Rect, nx: u32, ny: u32) -> UniformGrid {
        assert!(nx > 0 && ny > 0, "grid must have at least one cell");
        assert!(
            world.width() > 0.0 && world.height() > 0.0,
            "grid world must have positive area"
        );
        UniformGrid {
            tiling: Tiling {
                world,
                nx,
                ny,
                cell_w: world.width() / nx as f64,
                cell_h: world.height() / ny as f64,
            },
            cells: vec![Node::Leaf(Leaf::new(Vec::new())); (nx as usize) * (ny as usize)],
            locations: HashMap::new(),
        }
    }

    /// The world rectangle the grid covers.
    #[inline]
    pub fn world(&self) -> Rect {
        self.tiling.world
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.tiling.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.tiling.ny
    }

    /// Total number of indexed objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// `true` when no objects are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Cell containing `p`. Points outside the world clamp to the nearest
    /// border cell, so every finite point maps to a valid cell.
    pub fn cell_of(&self, p: Point) -> CellCoord {
        let (x, y) = self.tiling.sub_of(p);
        CellCoord {
            ix: (x >> SUB_BITS) as u32,
            iy: (y >> SUB_BITS) as u32,
        }
    }

    /// Geometric extent of the cell at `c`.
    ///
    /// # Panics
    /// Panics when `c` is out of range.
    pub fn cell_rect(&self, c: CellCoord) -> Rect {
        let t = &self.tiling;
        assert!(c.ix < t.nx && c.iy < t.ny, "cell out of range");
        let x0 = t.world.min_x() + t.cell_w * c.ix as f64;
        let y0 = t.world.min_y() + t.cell_h * c.iy as f64;
        Rect::new_unchecked(x0, y0, x0 + t.cell_w, y0 + t.cell_h)
    }

    /// Geometric extent of the axis-aligned block of cells
    /// `[c0.ix..=c1.ix] × [c0.iy..=c1.iy]` (used by the merge step of the
    /// grid cloak).
    pub fn block_rect(&self, c0: CellCoord, c1: CellCoord) -> Rect {
        let a = self.cell_rect(c0);
        let b = self.cell_rect(c1);
        a.union(&b)
    }

    /// Index into `cells` of cell `(ix, iy)`.
    #[inline]
    fn cell_index(&self, ix: u64, iy: u64) -> usize {
        iy as usize * self.tiling.nx as usize + ix as usize
    }

    /// Inserts (or moves) an object. Returns the previous location when
    /// the object was already indexed.
    pub fn insert(&mut self, id: ObjectId, p: Point) -> Option<Point> {
        let prev = self.remove(id);
        let tiling = self.tiling;
        let (x, y) = tiling.sub_of(p);
        let idx = self.cell_index(x >> SUB_BITS, y >> SUB_BITS);
        let mut node = &mut self.cells[idx];
        let mut size = SUB_SIDE;
        loop {
            match node {
                Node::Split { count, kids } => {
                    *count += 1;
                    size /= 2;
                    node = &mut kids[quadrant(x, y, size)];
                }
                Node::Leaf(leaf) => {
                    leaf.push(id, p);
                    break;
                }
            }
        }
        node.split_if_crowded(size, &tiling);
        self.locations.insert(id, p);
        prev
    }

    /// Removes an object, returning its location when present.
    pub fn remove(&mut self, id: ObjectId) -> Option<Point> {
        let p = self.locations.remove(&id)?;
        let (x, y) = self.tiling.sub_of(p);
        let idx = self.cell_index(x >> SUB_BITS, y >> SUB_BITS);
        let mut node = &mut self.cells[idx];
        let mut size = SUB_SIDE;
        loop {
            if matches!(node, Node::Split { count, .. } if *count - 1 <= MERGE_AT) {
                let mut all = Vec::with_capacity(node.count());
                node.for_each(&mut |id, p| all.push((id, p)));
                *node = Node::Leaf(Leaf::new(all));
            }
            match node {
                Node::Split { count, kids } => {
                    *count -= 1;
                    size /= 2;
                    node = &mut kids[quadrant(x, y, size)];
                }
                Node::Leaf(leaf) => {
                    leaf.remove(id);
                    return Some(p);
                }
            }
        }
    }

    /// Current location of an object.
    #[inline]
    pub fn location(&self, id: ObjectId) -> Option<Point> {
        self.locations.get(&id).copied()
    }

    /// Number of objects whose location falls in cell `c`.
    pub fn cell_count(&self, c: CellCoord) -> usize {
        self.cells[self.cell_index(u64::from(c.ix), u64::from(c.iy))].count()
    }

    /// Number of objects inside the cell block `[c0..=c1]` in both axes.
    pub fn block_count(&self, c0: CellCoord, c1: CellCoord) -> usize {
        let mut n = 0;
        for iy in c0.iy..=c1.iy.min(self.tiling.ny - 1) {
            for ix in c0.ix..=c1.ix.min(self.tiling.nx - 1) {
                n += self.cell_count(CellCoord { ix, iy });
            }
        }
        n
    }

    /// Exact count of objects whose location lies inside `r`.
    pub fn count_in_rect(&self, r: &Rect) -> usize {
        let mut n = 0;
        self.visit_rect(r, &mut |found| {
            n += match found {
                Found::Inside(node) => node.count(),
                Found::Ring(v) => v.iter().filter(|(_, p)| r.contains_point(*p)).count(),
            }
        });
        n
    }

    /// Collects `(id, point)` for all objects inside `r`.
    pub fn query_rect(&self, r: &Rect) -> Vec<(ObjectId, Point)> {
        let mut out = Vec::new();
        self.for_each_in_rect(r, |id, p| out.push((id, p)));
        out
    }

    /// Visits every object inside `r`, testing only the points in the
    /// sub-cells `r`'s edges fall in.
    pub fn for_each_in_rect<F: FnMut(ObjectId, Point)>(&self, r: &Rect, mut f: F) {
        self.visit_rect(r, &mut |found| match found {
            Found::Inside(node) => node.for_each(&mut f),
            Found::Ring(v) => {
                for &(id, p) in v {
                    if r.contains_point(p) {
                        f(id, p);
                    }
                }
            }
        });
    }

    fn visit_rect<'a, V: FnMut(Found<'a>)>(&'a self, r: &Rect, visit: &mut V) {
        let Some(span) = self.tiling.span_of(r) else {
            return;
        };
        let (ix0, ix1) = (span.x0 >> SUB_BITS, span.x1 >> SUB_BITS);
        for iy in (span.y0 >> SUB_BITS)..=(span.y1 >> SUB_BITS) {
            let row = &self.cells[self.cell_index(ix0, iy)..=self.cell_index(ix1, iy)];
            for (ix, cell) in (ix0..).zip(row) {
                // A wide rectangle over a sparse grid is mostly empty
                // cells: skip them before the walk's span tests.
                if cell.count() > 0 {
                    cell.visit_span((ix << SUB_BITS, iy << SUB_BITS), SUB_SIDE, &span, visit);
                }
            }
        }
    }

    /// Checks that every quadtree leaf's box holds all of the leaf's
    /// points (NaN for a non-finite one), the one invariant the box
    /// verdicts rest on. For tests; `Err` names the first point outside
    /// its leaf's box.
    #[doc(hidden)]
    pub fn check_leaf_boxes(&self) -> Result<(), String> {
        let mut bad = None;
        for cell in &self.cells {
            cell.for_each_leaf(&mut |leaf| {
                let b = &leaf.bbox;
                for &(id, p) in &leaf.pts {
                    let held =
                        b.lo.x.is_nan() || (p.is_finite() && !b.misses(&Rect::from_point(p)));
                    if !held && bad.is_none() {
                        bad = Some(format!("object {id} at {p:?} outside its leaf box {b:?}"));
                    }
                }
            });
        }
        bad.map_or(Ok(()), Err)
    }

    /// The `k` nearest indexed objects to `p` (excluding ids for which
    /// `exclude` returns true), by expanding ring search over cells.
    ///
    /// Returns fewer than `k` when the index holds fewer matching objects.
    /// Results are sorted by ascending distance.
    pub fn k_nearest<F: Fn(ObjectId) -> bool>(
        &self,
        p: Point,
        k: usize,
        exclude: F,
    ) -> Vec<(ObjectId, Point)> {
        if k == 0 {
            return Vec::new();
        }
        let center = self.cell_of(p);
        let t = &self.tiling;
        let max_ring = t.nx.max(t.ny) as i64;
        let mut found: Vec<(f64, ObjectId, Point)> = Vec::new();
        let mut ring: i64 = 0;
        loop {
            for (ix, iy) in ring_cells(center, ring, t.nx, t.ny) {
                self.cells[self.cell_index(u64::from(ix), u64::from(iy))].for_each(&mut |id, q| {
                    if !exclude(id) {
                        found.push((p.dist_sq(q), id, q));
                    }
                });
            }
            // Termination: after scanning every cell within Chebyshev
            // distance `ring`, any unseen object lies at Euclidean
            // distance >= ring * min(cell side). Once the k-th best found
            // distance is within that safe radius, no unseen object can
            // displace it.
            let done = if found.len() >= k {
                found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let kth = found[k - 1].0.sqrt();
                let safe_radius = ring as f64 * t.cell_w.min(t.cell_h);
                kth <= safe_radius
            } else {
                false
            };
            if done || ring > max_ring {
                found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                found.truncate(k);
                return found.into_iter().map(|(_, id, q)| (id, q)).collect();
            }
            ring += 1;
        }
    }

    /// Iterates over all indexed `(id, point)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.locations.iter().map(|(&id, &p)| (id, p))
    }
}

/// Yields the cell coordinates on the square ring at Chebyshev distance
/// `ring` around `center`, clipped to the grid bounds. Ring 0 is the
/// center cell itself.
fn ring_cells(center: CellCoord, ring: i64, nx: u32, ny: u32) -> impl Iterator<Item = (u32, u32)> {
    let cx = center.ix as i64;
    let cy = center.iy as i64;
    let mut cells: Vec<(u32, u32)> = Vec::new();
    if ring == 0 {
        cells.push((center.ix, center.iy));
    } else {
        let lo_x = cx - ring;
        let hi_x = cx + ring;
        let lo_y = cy - ring;
        let hi_y = cy + ring;
        let mut push = |x: i64, y: i64| {
            if x >= 0 && y >= 0 && (x as u32) < nx && (y as u32) < ny {
                cells.push((x as u32, y as u32));
            }
        };
        for x in lo_x..=hi_x {
            push(x, lo_y);
            push(x, hi_y);
        }
        for y in (lo_y + 1)..hi_y {
            push(lo_x, y);
            push(hi_x, y);
        }
    }
    cells.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_geom::approx_eq;

    fn unit_world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn grid4() -> UniformGrid {
        UniformGrid::new(unit_world(), 4, 4)
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_panics() {
        UniformGrid::new(unit_world(), 0, 4);
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn degenerate_world_panics() {
        UniformGrid::new(Rect::from_point(Point::ORIGIN), 1, 1);
    }

    #[test]
    fn cell_of_maps_points_to_cells() {
        let g = grid4();
        assert_eq!(g.cell_of(Point::new(0.1, 0.1)), CellCoord { ix: 0, iy: 0 });
        assert_eq!(g.cell_of(Point::new(0.9, 0.9)), CellCoord { ix: 3, iy: 3 });
        // The world max corner clamps into the last cell.
        assert_eq!(g.cell_of(Point::new(1.0, 1.0)), CellCoord { ix: 3, iy: 3 });
        // Out-of-world points clamp to border cells.
        assert_eq!(g.cell_of(Point::new(-5.0, 0.5)), CellCoord { ix: 0, iy: 2 });
        assert_eq!(g.cell_of(Point::new(5.0, 0.5)), CellCoord { ix: 3, iy: 2 });
    }

    #[test]
    fn cell_rect_tiles_world() {
        let g = grid4();
        let mut total = 0.0;
        for iy in 0..4 {
            for ix in 0..4 {
                let r = g.cell_rect(CellCoord { ix, iy });
                total += r.area();
                assert!(g.world().contains_rect(&r));
            }
        }
        assert!(approx_eq(total, 1.0));
    }

    #[test]
    fn insert_remove_update_roundtrip() {
        let mut g = grid4();
        assert_eq!(g.insert(1, Point::new(0.1, 0.1)), None);
        assert_eq!(g.len(), 1);
        assert_eq!(g.location(1), Some(Point::new(0.1, 0.1)));
        // Moving returns the previous position and relocates the bucket.
        let prev = g.insert(1, Point::new(0.9, 0.9));
        assert_eq!(prev, Some(Point::new(0.1, 0.1)));
        assert_eq!(g.len(), 1);
        assert_eq!(g.cell_count(CellCoord { ix: 0, iy: 0 }), 0);
        assert_eq!(g.cell_count(CellCoord { ix: 3, iy: 3 }), 1);
        assert_eq!(g.remove(1), Some(Point::new(0.9, 0.9)));
        assert!(g.is_empty());
        assert_eq!(g.remove(1), None);
    }

    #[test]
    fn count_and_query_rect() {
        let mut g = grid4();
        let pts = [
            (1, Point::new(0.05, 0.05)),
            (2, Point::new(0.30, 0.30)),
            (3, Point::new(0.55, 0.55)),
            (4, Point::new(0.95, 0.95)),
        ];
        for (id, p) in pts {
            g.insert(id, p);
        }
        let r = Rect::new_unchecked(0.0, 0.0, 0.5, 0.5);
        assert_eq!(g.count_in_rect(&r), 2);
        let mut ids: Vec<_> = g.query_rect(&r).into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        // Rect boundaries are inclusive.
        let edge = Rect::new_unchecked(0.05, 0.05, 0.05, 0.05);
        assert_eq!(g.count_in_rect(&edge), 1);
    }

    #[test]
    fn block_count_and_rect() {
        let mut g = grid4();
        g.insert(1, Point::new(0.1, 0.1));
        g.insert(2, Point::new(0.3, 0.1));
        g.insert(3, Point::new(0.9, 0.9));
        let c0 = CellCoord { ix: 0, iy: 0 };
        let c1 = CellCoord { ix: 1, iy: 0 };
        assert_eq!(g.block_count(c0, c1), 2);
        let r = g.block_rect(c0, c1);
        assert!(approx_eq(r.area(), 0.125));
        assert_eq!(
            g.block_count(CellCoord { ix: 0, iy: 0 }, CellCoord { ix: 3, iy: 3 }),
            3
        );
    }

    #[test]
    fn k_nearest_finds_true_neighbors() {
        let mut g = UniformGrid::new(unit_world(), 8, 8);
        // A diagonal line of points.
        for i in 0..10u64 {
            let t = i as f64 / 10.0;
            g.insert(i, Point::new(t, t));
        }
        let q = Point::new(0.31, 0.31);
        let nn = g.k_nearest(q, 3, |_| false);
        assert_eq!(nn.len(), 3);
        let ids: Vec<_> = nn.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![3, 4, 2], "sorted by distance from 0.31");
        // Distances are non-decreasing.
        for w in nn.windows(2) {
            assert!(q.dist(w[0].1) <= q.dist(w[1].1) + 1e-12);
        }
    }

    #[test]
    fn k_nearest_respects_exclusion_and_small_population() {
        let mut g = grid4();
        g.insert(1, Point::new(0.5, 0.5));
        g.insert(2, Point::new(0.6, 0.5));
        let nn = g.k_nearest(Point::new(0.5, 0.5), 5, |id| id == 1);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].0, 2);
        assert!(g.k_nearest(Point::new(0.5, 0.5), 0, |_| false).is_empty());
    }

    #[test]
    fn k_nearest_brute_force_agreement() {
        use rand::rngs::StdRng;
        use rand::{RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut g = UniformGrid::new(unit_world(), 16, 16);
        let mut pts = Vec::new();
        for id in 0..200u64 {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            g.insert(id, p);
            pts.push((id, p));
        }
        for trial in 0..20 {
            let q = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            let k = 1 + trial % 10;
            let got: Vec<_> = g.k_nearest(q, k, |_| false);
            let mut brute = pts.clone();
            brute.sort_by(|a, b| q.dist_sq(a.1).total_cmp(&q.dist_sq(b.1)));
            // Compare distances (ids may tie).
            for (i, (_, p)) in got.iter().enumerate() {
                assert!(
                    approx_eq(q.dist(*p), q.dist(brute[i].1)),
                    "k={k} rank {i}: {} vs {}",
                    q.dist(*p),
                    q.dist(brute[i].1)
                );
            }
            assert_eq!(got.len(), k);
        }
    }

    #[test]
    fn iter_visits_everything() {
        let mut g = grid4();
        for id in 0..10u64 {
            g.insert(id, Point::new(0.05 * id as f64, 0.05 * id as f64));
        }
        let mut ids: Vec<_> = g.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10u64).collect::<Vec<_>>());
    }
}
