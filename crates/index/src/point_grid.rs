//! Packed point grid: the index under the server's public data.
//!
//! Public objects (gas stations, restaurants, police cars) are points,
//! bulk loaded and rarely edited, and the query that reads them most is
//! a rectangle (the MBR of Fig. 5a's rounded rectangle). So the index is
//! a static uniform grid over the points' box, sized at about
//! [`PER_CELL`] points a cell — the space partitioning the paper's
//! Fig. 4b and Casper use for users. Cells are laid out row-major in
//! one packed array of `(point, slot)` entries with an offset per cell,
//! so a rectangle reads one contiguous run per grid row it overlaps, and
//! `k` nearest neighbours are a ring search over the same cells.
//!
//! Cell membership is exact: each axis keeps its inner cell edges, and a
//! coordinate belongs to the cell whose edges bracket it. A point beyond
//! the box (moved away after the load, an outlier, or infinite) clamps
//! into a border cell, and one with a NaN coordinate sits in cell 0,
//! which every search reads. No answer depends on the box: it only sets
//! how the points spread over the cells. It leaves out one point in
//! [`TRIM`] at each end of each axis, so a few far outliers cannot crowd
//! the rest into a few cells; data skewed throughout still can (the
//! `index_micro` bench's `public/outlier` and `three_cities` cases).

use lbsp_geom::{min_dist_point_rect, Point, Rect};
use std::cmp::Ordering;

/// Points per cell the grid is sized for.
const PER_CELL: usize = 2;

/// One point in `TRIM` at each end of each axis lies outside the box.
const TRIM: usize = 256;

/// One axis of the grid: `n` cells split by `n - 1` inner edges.
#[derive(Debug, Clone)]
struct Axis {
    /// Low end of the box on this axis.
    lo: f64,
    /// Cells per unit, for the first guess at a cell.
    inv: f64,
    /// `edges[i]` is the low edge of cell `i + 1`; non-decreasing.
    edges: Vec<f64>,
}

impl Axis {
    /// `n` equal cells over `[lo, lo + span]`; `n` is 1 unless `span` is
    /// positive and finite.
    fn new(lo: f64, span: f64, n: usize) -> Axis {
        let side = span / n as f64;
        Axis {
            lo,
            inv: n as f64 / span,
            edges: (1..n).map(|i| lo + i as f64 * side).collect(),
        }
    }

    /// Number of cells.
    #[inline]
    fn cells(&self) -> usize {
        self.edges.len() + 1
    }

    /// The cell whose edges bracket `v`: the last cell whose low edge is
    /// at most `v`, cell 0 below the first edge (and for NaN). The
    /// arithmetic guess is corrected against the stored edges, so every
    /// `v` in cell `c` satisfies `edges[c - 1] <= v < edges[c]`.
    #[inline]
    fn cell(&self, v: f64) -> usize {
        // Saturating casts: below the box (and NaN) is 0, above is max.
        let mut c = (((v - self.lo) * self.inv) as usize).min(self.edges.len());
        while c > 0 && v < self.edges[c - 1] {
            c -= 1;
        }
        while c < self.edges.len() && v >= self.edges[c] {
            c += 1;
        }
        c
    }

    /// Low end and span of the finite `values` less one in [`TRIM`] at
    /// each end: a span of 0 when there is none, or when it overflows.
    fn extent(values: impl Iterator<Item = f64>) -> (f64, f64) {
        let mut v: Vec<f64> = values.filter(|v| v.is_finite()).collect();
        if v.is_empty() {
            return (0.0, 0.0);
        }
        let (t, last) = (v.len() / TRIM, v.len() - 1);
        let lo = *v.select_nth_unstable_by(t, f64::total_cmp).1;
        let hi = *v.select_nth_unstable_by(last - t, f64::total_cmp).1;
        if (hi - lo).is_finite() {
            (lo, hi - lo)
        } else {
            (0.0, 0.0)
        }
    }
}

/// A point and the caller's slot for it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    pos: Point,
    slot: u32,
}

/// A static uniform grid over points, each carrying a `u32` slot.
///
/// Built once over a slice of points (the slot of a point is its index);
/// a point moves in place with [`PointGrid::move_point`]. Searches return
/// slots: [`PointGrid::for_each_in`] in no particular order,
/// [`PointGrid::k_nearest`] nearest first with equal distances in
/// ascending slot order.
#[derive(Debug, Clone)]
pub struct PointGrid {
    x: Axis,
    y: Axis,
    /// `starts[c] .. starts[c + 1]` is cell `c`'s run of `entries`;
    /// cells are row-major.
    starts: Vec<u32>,
    entries: Vec<Entry>,
}

impl Default for PointGrid {
    fn default() -> PointGrid {
        PointGrid::new(&[])
    }
}

impl PointGrid {
    /// Builds the grid over `points`; the slot of `points[i]` is `i`.
    ///
    /// # Panics
    /// Panics when there are more than `u32::MAX` points.
    pub fn new(points: &[Point]) -> PointGrid {
        let n = u32::try_from(points.len()).expect("at most u32::MAX points");
        let (x_lo, w) = Axis::extent(points.iter().map(|p| p.x));
        let (y_lo, h) = Axis::extent(points.iter().map(|p| p.y));
        let target = (points.len() / PER_CELL).max(1);
        // Near-square cells: columns over rows follows the box's aspect,
        // and a box with no height is one row.
        let nx = match (w > 0.0, h > 0.0) {
            (_, true) => ((target as f64 * w / h).sqrt().round() as usize).clamp(1, target),
            (true, false) => target,
            (false, false) => 1,
        };
        let ny = if h > 0.0 { target.div_ceil(nx) } else { 1 };
        let mut grid = PointGrid {
            x: Axis::new(x_lo, w, nx),
            y: Axis::new(y_lo, h, ny),
            starts: vec![0; nx * ny + 1],
            entries: Vec::with_capacity(points.len()),
        };
        let cells: Vec<usize> = points.iter().map(|&p| grid.cell_of(p)).collect();
        for &c in &cells {
            grid.starts[c + 1] += 1;
        }
        for c in 1..grid.starts.len() {
            grid.starts[c] += grid.starts[c - 1];
        }
        // A stable sort by cell: each cell's run in slot order.
        let mut slots: Vec<u32> = (0..n).collect();
        slots.sort_by_key(|&slot| cells[slot as usize]);
        let entries = slots.into_iter().map(|slot| Entry {
            pos: points[slot as usize],
            slot,
        });
        grid.entries.extend(entries);
        grid
    }

    /// The cell holding `p`: row-major index of its column and row, and
    /// cell 0 for a NaN coordinate.
    #[inline]
    fn cell_of(&self, p: Point) -> usize {
        if p.x.is_nan() || p.y.is_nan() {
            return 0;
        }
        self.y.cell(p.y) * self.x.cells() + self.x.cell(p.x)
    }

    /// The entries of cells `from ..= to` (row-major indices).
    #[inline]
    fn run(&self, from: usize, to: usize) -> &[Entry] {
        &self.entries[self.starts[from] as usize..self.starts[to + 1] as usize]
    }

    /// Visits the point and slot of every entry inside the closed
    /// rectangle `r`, one run of cells per row it overlaps.
    #[inline]
    pub fn for_each_in(&self, r: &Rect, mut f: impl FnMut(Point, u32)) {
        let nx = self.x.cells();
        let (x0, x1) = (self.x.cell(r.min_x()), self.x.cell(r.max_x()));
        for row in self.y.cell(r.min_y())..=self.y.cell(r.max_y()) {
            for e in self.run(row * nx + x0, row * nx + x1) {
                if r.contains_point(e.pos) {
                    f(e.pos, e.slot);
                }
            }
        }
    }

    /// Slots of the `k` points nearest to `q` (fewer when the grid holds
    /// fewer), nearest first, equal distances in ascending slot order.
    /// The distance is [`min_dist_point_rect`] from `q` to the point's
    /// degenerate rectangle.
    ///
    /// Rings of cells around `q`'s cell are read until the `k`-th
    /// distance found is strictly below the distance to every cell not
    /// yet read, so an unread point can neither be nearer nor tie.
    pub fn k_nearest(&self, q: Point, k: usize) -> Vec<u32> {
        if k == 0 {
            return Vec::new();
        }
        let dist = |p: Point| min_dist_point_rect(q, &Rect::from_point(p));
        let before = |a: &(f64, u32), b: &(f64, u32)| {
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) == Ordering::Less
        };
        // The k best so far, in order.
        let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
        let offer = |best: &mut Vec<(f64, u32)>, run: &[Entry]| {
            for e in run {
                let key = (dist(e.pos), e.slot);
                if best.len() < k || before(&key, &best[k - 1]) {
                    let at = best.partition_point(|b| before(b, &key));
                    best.insert(at, key);
                    best.truncate(k);
                }
            }
        };
        // Cell 0 also holds every point with a NaN coordinate, whose
        // distance no cell edge bounds: read it first, skip it below.
        offer(&mut best, self.run(0, 0));
        let (nx, ny) = (self.x.cells(), self.y.cells());
        let (cx, cy) = (self.x.cell(q.x), self.y.cell(q.y));
        for ring in 0.. {
            let (x0, x1) = (cx.saturating_sub(ring), (cx + ring).min(nx - 1));
            let (y0, y1) = (cy.saturating_sub(ring), (cy + ring).min(ny - 1));
            for row in y0..=y1 {
                let at = row * nx;
                if row + ring == cy || row == cy + ring {
                    offer(&mut best, self.run((at + x0).max(1), at + x1));
                } else {
                    if cx >= ring && at + x0 > 0 {
                        offer(&mut best, self.run(at + x0, at + x0));
                    }
                    if cx + ring < nx {
                        offer(&mut best, self.run(at + x1, at + x1));
                    }
                }
            }
            // Every unread point lies past a side of the block read, on
            // the far side of an edge from `q`; rounding is monotone, so
            // its distance is at least that edge's.
            let unread = [
                (x0 > 0).then(|| Point::new(self.x.edges[x0 - 1], q.y)),
                (x1 + 1 < nx).then(|| Point::new(self.x.edges[x1], q.y)),
                (y0 > 0).then(|| Point::new(q.x, self.y.edges[y0 - 1])),
                (y1 + 1 < ny).then(|| Point::new(q.x, self.y.edges[y1])),
            ];
            if unread.iter().all(Option::is_none) {
                break;
            }
            let bound = unread
                .into_iter()
                .flatten()
                .map(dist)
                .fold(f64::INFINITY, f64::min);
            if best.len() == k && best[k - 1].0 < bound {
                break;
            }
        }
        best.into_iter().map(|(_, slot)| slot).collect()
    }

    /// Moves the entry of `slot` from `from` (where it is) to `to`: in
    /// place within a cell, otherwise by shifting the entries between
    /// the two cells' runs one place.
    ///
    /// # Panics
    /// Panics when `slot` is not at `from`.
    pub fn move_point(&mut self, slot: u32, from: Point, to: Point) {
        let (a, b) = (self.cell_of(from), self.cell_of(to));
        let at = self.starts[a] as usize
            + self
                .run(a, a)
                .iter()
                .position(|e| e.slot == slot)
                .expect("a point is in the cell of its position");
        let entry = Entry { pos: to, slot };
        match a.cmp(&b) {
            Ordering::Equal => self.entries[at] = entry,
            Ordering::Less => {
                // Cells a+1 ..= b shift down one place; the entry ends
                // their run, as the last of cell b.
                let end = self.starts[b + 1] as usize;
                self.entries[at..end].rotate_left(1);
                self.entries[end - 1] = entry;
                for s in &mut self.starts[a + 1..=b] {
                    *s -= 1;
                }
            }
            Ordering::Greater => {
                // Cells b+1 ..= a shift up one place; the entry takes
                // the first place of their old run, now the last of b.
                let start = self.starts[b + 1] as usize;
                self.entries[start..=at].rotate_right(1);
                self.entries[start] = entry;
                for s in &mut self.starts[b + 1..=a] {
                    *s += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_nearest(points: &[Point], q: Point, k: usize) -> Vec<u32> {
        let mut keyed: Vec<(f64, u32)> = (0..)
            .zip(points)
            .map(|(slot, &p)| (min_dist_point_rect(q, &Rect::from_point(p)), slot))
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        keyed.into_iter().take(k).map(|(_, s)| s).collect()
    }

    fn brute_in(points: &[Point], r: &Rect) -> Vec<u32> {
        (0..)
            .zip(points)
            .filter(|(_, p)| r.contains_point(**p))
            .map(|(s, _)| s)
            .collect()
    }

    fn sorted_in(g: &PointGrid, r: &Rect) -> Vec<u32> {
        let mut v = Vec::new();
        g.for_each_in(r, |_, s| v.push(s));
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_grid_answers_nothing() {
        let g = PointGrid::default();
        assert!(g.k_nearest(Point::ORIGIN, 3).is_empty());
        assert!(sorted_in(&g, &Rect::new_unchecked(-1.0, -1.0, 1.0, 1.0)).is_empty());
    }

    #[test]
    fn sized_near_two_points_a_cell_with_the_box_aspect() {
        let pts: Vec<Point> = (0..1000)
            .map(|i| Point::new(f64::from(i % 50) / 49.0, f64::from(i / 50) / 19.0 * 0.4))
            .collect();
        let g = PointGrid::new(&pts);
        let (nx, ny) = (g.x.cells(), g.y.cells());
        assert!((500..=540).contains(&(nx * ny)), "{nx} x {ny}");
        assert!(nx > 2 * ny, "a wide box gets more columns: {nx} x {ny}");
        assert_eq!(g.starts.len(), nx * ny + 1);
    }

    #[test]
    fn cells_follow_their_edges_at_every_boundary() {
        // Boxes whose edges the multiply-and-truncate guess misplaces by
        // one somewhere (non-dyadic corners and sides, large offsets).
        for lo in [0.1, -3.3, 1e6 + 0.7] {
            for span in [0.7, 1.3, 1e-3] {
                for n in [3, 7, 31, 100] {
                    let axis = Axis::new(lo, span, n);
                    for (i, &e) in axis.edges.iter().enumerate() {
                        assert_eq!(axis.cell(e), i + 1, "{lo} + {span} / {n}");
                        assert_eq!(axis.cell(e.next_down()), i, "{lo} + {span} / {n}");
                    }
                }
            }
        }
        let pts: Vec<Point> = (0..64)
            .map(|i| Point::new(f64::from(i) / 63.0, 0.5))
            .collect();
        let g = PointGrid::new(&pts);
        assert_eq!(g.x.cell(f64::NEG_INFINITY), 0);
        assert_eq!(g.x.cell(f64::INFINITY), g.x.cells() - 1);
        assert_eq!(g.x.cell(f64::NAN), 0);
    }

    #[test]
    fn moves_keep_every_run_and_answer_exact() {
        let mut pts: Vec<Point> = (0..40u32)
            .map(|i| Point::new(f64::from(i % 8) / 7.0, f64::from(i / 8) / 4.0))
            .collect();
        let mut g = PointGrid::new(&pts);
        let far = [
            Point::new(0.5, 0.5),
            Point::new(-3.0, 0.25),
            Point::new(0.0, 0.0),
            Point::new(2.0, 9.0),
            Point::new(f64::NAN, 0.5),
            Point::new(0.75, f64::INFINITY),
            Point::new(1.0, 1.0),
        ];
        for step in 0..200usize {
            let slot = (step * 7) % pts.len();
            let to = if step % 3 == 0 {
                far[step % far.len()]
            } else {
                Point::new((step % 11) as f64 / 10.0, (step % 13) as f64 / 12.0)
            };
            g.move_point(slot as u32, pts[slot], to);
            pts[slot] = to;
            for c in 0..g.starts.len() - 1 {
                for e in g.run(c, c) {
                    assert_eq!(g.cell_of(e.pos), c, "entry {} is in its cell", e.slot);
                }
            }
            let q = Point::new((step % 5) as f64 / 4.0, (step % 9) as f64 / 8.0);
            for k in [1, 4, 40] {
                assert_eq!(g.k_nearest(q, k), brute_nearest(&pts, q, k), "step {step}");
            }
            let r = Rect::new_unchecked(q.x - 0.3, q.y - 0.2, q.x + 0.25, q.y + 0.5);
            assert_eq!(sorted_in(&g, &r), brute_in(&pts, &r));
        }
    }

    #[test]
    fn a_far_point_stays_out_of_the_box() {
        // 1,000 points over the unit square and one a thousand units
        // away: the box is the square's, the far point clamps into the
        // corner cell and every answer stays exact.
        let mut pts: Vec<Point> = (0..1000)
            .map(|i| Point::new(f64::from(i % 40) / 39.0, f64::from(i / 40) / 24.0))
            .collect();
        pts.push(Point::new(1000.0, 1000.0));
        let g = PointGrid::new(&pts);
        let (nx, ny) = (g.x.cells(), g.y.cells());
        assert!((480..=520).contains(&(nx * ny)), "{nx} x {ny}");
        assert!(g.x.edges.last().is_some_and(|&e| e < 1.0));
        assert!(g.y.edges.last().is_some_and(|&e| e < 1.0));
        let fullest = (0..nx * ny).map(|c| g.run(c, c).len()).max();
        assert!(fullest <= Some(8), "fullest cell {fullest:?}");
        for q in [
            Point::new(0.5, 0.5),
            Point::new(999.0, 999.5),
            Point::new(1.2, 0.9),
        ] {
            for k in [1, 3, 1001] {
                assert_eq!(g.k_nearest(q, k), brute_nearest(&pts, q, k));
            }
        }
        for r in [
            Rect::new_unchecked(0.9, 0.9, 2000.0, 2000.0),
            Rect::new_unchecked(0.2, 0.3, 0.4, 0.35),
        ] {
            assert_eq!(sorted_in(&g, &r), brute_in(&pts, &r));
        }
    }

    #[test]
    fn every_point_on_one_spot_is_one_cell() {
        let pts = vec![Point::new(0.3, 0.3); 9];
        let g = PointGrid::new(&pts);
        assert_eq!(g.starts, vec![0, 9]);
        assert_eq!(g.k_nearest(Point::new(5.0, 5.0), 4), vec![0, 1, 2, 3]);
        let on = Rect::from_point(Point::new(0.3, 0.3));
        assert_eq!(sorted_in(&g, &on), (0..9).collect::<Vec<_>>());
    }
}
