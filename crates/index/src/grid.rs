//! Fixed uniform grid index over point objects that move.
//!
//! The world is divided into `nx × ny` equal cells. The grid stores every
//! object's exact location in a per-cell bucket, plus a reverse map from
//! object id to location, so an insert, a move or a removal is O(1)
//! expected. A rectangle count scans the buckets of the cells it overlaps
//! and tests each point against the closed rectangle; a k-NN search
//! scans rings of cells outward. The naive, MBR and Hilbert cloaks are
//! built on it; the space-dependent cloaks read counts only, from
//! [`crate::SubCellCounts`], and the public store's points, which rarely
//! move, sit in the packed [`crate::PointGrid`].

use crate::ObjectId;
use lbsp_geom::{Point, Rect};
use std::collections::HashMap;

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

    /// Cell `[ix, iy]` containing `p`. Points outside the world clamp to
    /// the nearest border cell, so every point maps to a valid cell.
    fn cell_of(&self, p: Point) -> [u32; 2] {
        let fx = (p.x - self.world.min_x()) / self.cell_w;
        let fy = (p.y - self.world.min_y()) / self.cell_h;
        [
            (fx.floor().max(0.0) as u32).min(self.nx - 1),
            (fy.floor().max(0.0) as u32).min(self.ny - 1),
        ]
    }

    #[inline]
    fn bucket_index(&self, [ix, iy]: [u32; 2]) -> usize {
        iy as usize * self.nx as usize + ix as usize
    }

    /// Objects in cell `c` as `(id, point)` pairs.
    fn cell_objects(&self, c: [u32; 2]) -> &[(ObjectId, Point)] {
        &self.buckets[self.bucket_index(c)]
    }

    /// Inserts (or moves) an object. Returns the previous location when
    /// the object was already indexed.
    pub fn insert(&mut self, id: ObjectId, p: Point) -> Option<Point> {
        let prev = self.remove(id);
        let idx = self.bucket_index(self.cell_of(p));
        self.buckets[idx].push((id, p));
        self.locations.insert(id, p);
        prev
    }

    /// Removes an object, returning its location when present.
    pub fn remove(&mut self, id: ObjectId) -> Option<Point> {
        let p = self.locations.remove(&id)?;
        let idx = self.bucket_index(self.cell_of(p));
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

    /// Exact count of objects whose location lies inside `r`, scanning
    /// only the overlapping cells.
    pub fn count_in_rect(&self, r: &Rect) -> usize {
        let [x0, y0] = self.cell_of(Point::new(r.min_x(), r.min_y()));
        let [x1, y1] = self.cell_of(Point::new(r.max_x(), r.max_y()));
        let mut n = 0;
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                let inside = |(_, p): &&(ObjectId, Point)| r.contains_point(*p);
                n += self.cell_objects([ix, iy]).iter().filter(inside).count();
            }
        }
        n
    }

    /// The `k` nearest indexed objects to `p`, by expanding ring search
    /// over cells.
    ///
    /// Returns fewer than `k` when the index holds fewer objects. Results
    /// are sorted by ascending distance.
    pub fn k_nearest(&self, p: Point, k: usize) -> Vec<(ObjectId, Point)> {
        if k == 0 {
            return Vec::new();
        }
        let center = self.cell_of(p);
        let max_ring = self.nx.max(self.ny) as i64;
        let mut found: Vec<(f64, ObjectId, Point)> = Vec::new();
        let mut ring: i64 = 0;
        loop {
            for c in ring_cells(center, ring, self.nx, self.ny) {
                for &(id, q) in self.cell_objects(c) {
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
}

/// Yields the cells on the square ring at Chebyshev distance `ring`
/// around `center`, clipped to the grid bounds. Ring 0 is the center
/// cell itself.
fn ring_cells(center: [u32; 2], ring: i64, nx: u32, ny: u32) -> impl Iterator<Item = [u32; 2]> {
    let [cx, cy] = center.map(i64::from);
    let mut cells: Vec<[u32; 2]> = Vec::new();
    if ring == 0 {
        cells.push(center);
    } else {
        let lo_x = cx - ring;
        let hi_x = cx + ring;
        let lo_y = cy - ring;
        let hi_y = cy + ring;
        let mut push = |x: i64, y: i64| {
            if x >= 0 && y >= 0 && (x as u32) < nx && (y as u32) < ny {
                cells.push([x as u32, y as u32]);
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
        assert_eq!(g.cell_of(Point::new(0.1, 0.1)), [0, 0]);
        assert_eq!(g.cell_of(Point::new(0.9, 0.9)), [3, 3]);
        // The world max corner clamps into the last cell.
        assert_eq!(g.cell_of(Point::new(1.0, 1.0)), [3, 3]);
        // Out-of-world points clamp to border cells.
        assert_eq!(g.cell_of(Point::new(-5.0, 0.5)), [0, 2]);
        assert_eq!(g.cell_of(Point::new(5.0, 0.5)), [3, 2]);
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
        assert!(g.cell_objects([0, 0]).is_empty());
        assert_eq!(g.cell_objects([3, 3]), [(1, Point::new(0.9, 0.9))]);
        assert_eq!(g.remove(1), Some(Point::new(0.9, 0.9)));
        assert!(g.is_empty());
        assert_eq!(g.remove(1), None);
    }

    #[test]
    fn count_in_rect_is_closed() {
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
        let nn = g.k_nearest(q, 3);
        assert_eq!(nn.len(), 3);
        let ids: Vec<_> = nn.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![3, 4, 2], "sorted by distance from 0.31");
        // Distances are non-decreasing.
        for w in nn.windows(2) {
            assert!(q.dist(w[0].1) <= q.dist(w[1].1) + 1e-12);
        }
    }

    #[test]
    fn k_nearest_on_a_small_population() {
        let mut g = grid4();
        g.insert(1, Point::new(0.5, 0.5));
        g.insert(2, Point::new(0.6, 0.5));
        let nn = g.k_nearest(Point::new(0.5, 0.5), 5);
        assert_eq!(nn, [(1, Point::new(0.5, 0.5)), (2, Point::new(0.6, 0.5))]);
        assert!(g.k_nearest(Point::new(0.5, 0.5), 0).is_empty());
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
            let got: Vec<_> = g.k_nearest(q, k);
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
}
