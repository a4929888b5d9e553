//! Fixed uniform grid index over point objects.
//!
//! This is the space partitioning of Fig. 4b: the world is divided into
//! `nx × ny` equal cells. The grid stores every object's exact location in
//! a per-cell bucket, plus a reverse map from object id to location so
//! updates and removals are O(1) expected. A rectangle query scans the
//! buckets of the cells it overlaps and tests each point against the
//! closed rectangle. The naive, MBR and Hilbert cloaks, k-NN search and
//! the bottom level of [`crate::PyramidGrid`] are built on it; the grid
//! cloak itself reads counts only, from [`crate::SubCellCounts`].

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

/// A fixed uniform grid over a world rectangle, indexing point objects.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    world: Rect,
    nx: u32,
    ny: u32,
    cell_w: f64,
    cell_h: f64,
    buckets: Vec<Vec<(ObjectId, Point)>>,
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
            world,
            nx,
            ny,
            cell_w: world.width() / nx as f64,
            cell_h: world.height() / ny as f64,
            buckets: vec![Vec::new(); (nx as usize) * (ny as usize)],
            locations: HashMap::new(),
        }
    }

    /// The world rectangle the grid covers.
    #[inline]
    pub fn world(&self) -> Rect {
        self.world
    }

    /// Number of columns.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
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
        let fx = (p.x - self.world.min_x()) / self.cell_w;
        let fy = (p.y - self.world.min_y()) / self.cell_h;
        CellCoord {
            ix: (fx.floor().max(0.0) as u32).min(self.nx - 1),
            iy: (fy.floor().max(0.0) as u32).min(self.ny - 1),
        }
    }

    /// Geometric extent of the cell at `c`.
    ///
    /// # Panics
    /// Panics when `c` is out of range.
    pub fn cell_rect(&self, c: CellCoord) -> Rect {
        assert!(c.ix < self.nx && c.iy < self.ny, "cell out of range");
        let x0 = self.world.min_x() + self.cell_w * c.ix as f64;
        let y0 = self.world.min_y() + self.cell_h * c.iy as f64;
        Rect::new_unchecked(x0, y0, x0 + self.cell_w, y0 + self.cell_h)
    }

    #[inline]
    fn bucket_index(&self, c: CellCoord) -> usize {
        c.iy as usize * self.nx as usize + c.ix as usize
    }

    /// Inserts (or moves) an object. Returns the previous location when
    /// the object was already indexed.
    pub fn insert(&mut self, id: ObjectId, p: Point) -> Option<Point> {
        let prev = self.remove(id);
        let c = self.cell_of(p);
        let idx = self.bucket_index(c);
        self.buckets[idx].push((id, p));
        self.locations.insert(id, p);
        prev
    }

    /// Removes an object, returning its location when present.
    pub fn remove(&mut self, id: ObjectId) -> Option<Point> {
        let p = self.locations.remove(&id)?;
        let c = self.cell_of(p);
        let idx = self.bucket_index(c);
        let bucket = &mut self.buckets[idx];
        if let Some(pos) = bucket.iter().position(|(oid, _)| *oid == id) {
            bucket.swap_remove(pos);
        }
        Some(p)
    }

    /// Current location of an object.
    #[inline]
    pub fn location(&self, id: ObjectId) -> Option<Point> {
        self.locations.get(&id).copied()
    }

    /// Number of objects whose location falls in cell `c`.
    pub fn cell_count(&self, c: CellCoord) -> usize {
        self.buckets[self.bucket_index(c)].len()
    }

    /// Objects in cell `c` as `(id, point)` pairs.
    pub fn cell_objects(&self, c: CellCoord) -> &[(ObjectId, Point)] {
        &self.buckets[self.bucket_index(c)]
    }

    /// Exact count of objects whose location lies inside `r`.
    pub fn count_in_rect(&self, r: &Rect) -> usize {
        let mut n = 0;
        self.for_each_in_rect(r, |_, _| n += 1);
        n
    }

    /// Collects `(id, point)` for all objects inside `r`.
    pub fn query_rect(&self, r: &Rect) -> Vec<(ObjectId, Point)> {
        let mut out = Vec::new();
        self.for_each_in_rect(r, |id, p| out.push((id, p)));
        out
    }

    /// Visits every object inside `r`, scanning only the overlapping cells.
    pub fn for_each_in_rect<F: FnMut(ObjectId, Point)>(&self, r: &Rect, mut f: F) {
        let lo = self.cell_of(Point::new(r.min_x(), r.min_y()));
        let hi = self.cell_of(Point::new(r.max_x(), r.max_y()));
        for iy in lo.iy..=hi.iy {
            for ix in lo.ix..=hi.ix {
                for &(id, p) in self.cell_objects(CellCoord { ix, iy }) {
                    if r.contains_point(p) {
                        f(id, p);
                    }
                }
            }
        }
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
        let max_ring = self.nx.max(self.ny) as i64;
        let mut found: Vec<(f64, ObjectId, Point)> = Vec::new();
        let mut ring: i64 = 0;
        loop {
            for (ix, iy) in ring_cells(center, ring, self.nx, self.ny) {
                for &(id, q) in self.cell_objects(CellCoord { ix, iy }) {
                    if exclude(id) {
                        continue;
                    }
                    found.push((p.dist_sq(q), id, q));
                }
            }
            // Termination: after scanning every cell within Chebyshev
            // distance `ring`, any unseen object lies at Euclidean
            // distance >= ring * min(cell side). Once the k-th best found
            // distance is within that safe radius, no unseen object can
            // displace it.
            let done = if found.len() >= k {
                found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let kth = found[k - 1].0.sqrt();
                let safe_radius = ring as f64 * self.cell_w.min(self.cell_h);
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
