//! Property-based tests: every index must agree with brute force on
//! arbitrary point sets and query shapes.

use lbsp_geom::{Point, Rect};
use lbsp_index::{CellCoord, PointQuadTree, PyramidCell, PyramidGrid, RTree, UniformGrid};
use proptest::prelude::*;

fn unit_world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

prop_compose! {
    fn upoint()(x in 0.0f64..1.0, y in 0.0f64..1.0) -> Point {
        Point::new(x, y)
    }
}

prop_compose! {
    fn urect()(x0 in 0.0f64..1.0, y0 in 0.0f64..1.0, w in 0.0f64..1.0, h in 0.0f64..1.0) -> Rect {
        Rect::new_unchecked(x0, y0, (x0 + w).min(1.0), (y0 + h).min(1.0))
    }
}

/// The count surface of a `UniformGrid` recomputed from a flat list,
/// with the cell formula written out independently of the grid's.
struct BruteGrid {
    world: Rect,
    side: u32,
    pts: Vec<(u64, Point)>,
}

impl BruteGrid {
    fn upsert(&mut self, id: u64, p: Point) {
        self.remove(id);
        self.pts.push((id, p));
    }

    fn remove(&mut self, id: u64) {
        self.pts.retain(|&(i, _)| i != id);
    }

    fn cell_of(&self, p: Point) -> (u32, u32) {
        let w = self.world.width() / self.side as f64;
        let h = self.world.height() / self.side as f64;
        let fx = ((p.x - self.world.min_x()) / w).floor().max(0.0);
        let fy = ((p.y - self.world.min_y()) / h).floor().max(0.0);
        (
            (fx as u32).min(self.side - 1),
            (fy as u32).min(self.side - 1),
        )
    }

    fn in_rect(&self, r: &Rect) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .pts
            .iter()
            .filter(|(_, p)| r.contains_point(*p))
            .map(|&(id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn block_count(&self, c0: CellCoord, c1: CellCoord) -> usize {
        self.pts
            .iter()
            .filter(|(_, p)| {
                let (ix, iy) = self.cell_of(*p);
                (c0.ix..=c1.ix).contains(&ix) && (c0.iy..=c1.iy).contains(&iy)
            })
            .count()
    }
}

/// Compares every count surface of `g` with `brute` over `rects` plus
/// the rectangles a cloak asks about: each occupied cell, its block with
/// a neighbour, all four quadrants at each refinement depth 1–4 along
/// the descent to a point, the point itself, and the world. Checks the
/// leaf boxes first: the count verdicts are only as exact as they are.
fn assert_grid_matches(g: &UniformGrid, brute: &BruteGrid, rects: &[Rect]) -> Result<(), String> {
    g.check_leaf_boxes()?;
    let side = brute.side;
    let mut rects = rects.to_vec();
    rects.push(brute.world);
    rects.push(Rect::new_unchecked(-1e9, -1e9, 1e9, 1e9));
    for &(_, p) in brute.pts.iter().take(6) {
        rects.push(Rect::from_point(p));
        let (ix, iy) = brute.cell_of(p);
        let c = CellCoord { ix, iy };
        if g.cell_of(p) != c {
            return Err(format!("cell_of({p:?}) = {:?}, brute {c:?}", g.cell_of(p)));
        }
        let hi = CellCoord {
            ix: (ix + 1).min(side - 1),
            iy: (iy + 2).min(side - 1),
        };
        rects.push(g.block_rect(c, hi));
        let mut region = g.cell_rect(c);
        rects.push(region);
        for _ in 1..=4 {
            let quads = region.quadrants();
            rects.extend(quads);
            region = quads[region.quadrant_of(p)];
        }
    }
    for r in &rects {
        let want = brute.in_rect(r);
        if g.count_in_rect(r) != want.len() {
            return Err(format!(
                "count_in_rect({r:?}) = {}, brute {}",
                g.count_in_rect(r),
                want.len()
            ));
        }
        let mut got: Vec<u64> = g.query_rect(r).into_iter().map(|(id, _)| id).collect();
        got.sort_unstable();
        if got != want {
            return Err(format!("query_rect({r:?}) = {got:?}, brute {want:?}"));
        }
    }
    let mut total = 0;
    for iy in 0..side {
        for ix in 0..side {
            let c = CellCoord { ix, iy };
            let want = brute.block_count(c, c);
            if g.cell_count(c) != want {
                return Err(format!(
                    "cell_count({c:?}) = {}, brute {want}",
                    g.cell_count(c)
                ));
            }
            total += want;
        }
    }
    let (lo, hi) = (
        CellCoord { ix: 1, iy: 0 },
        CellCoord {
            ix: side - 1,
            iy: side / 2,
        },
    );
    if g.block_count(lo, hi) != brute.block_count(lo, hi) {
        return Err(format!("block_count({lo:?}, {hi:?})"));
    }
    if total != g.len() || g.len() != brute.pts.len() {
        return Err(format!("len {} vs cells {total}", g.len()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_count_matches_brute_force(
        pts in prop::collection::vec(upoint(), 0..200),
        q in urect(),
        side in 1u32..20,
    ) {
        let mut g = UniformGrid::new(unit_world(), side, side);
        for (i, p) in pts.iter().enumerate() {
            g.insert(i as u64, *p);
        }
        let brute = pts.iter().filter(|p| q.contains_point(**p)).count();
        prop_assert_eq!(g.count_in_rect(&q), brute);
        prop_assert_eq!(g.query_rect(&q).len(), brute);
        prop_assert_eq!(g.len(), pts.len());
    }

    #[test]
    fn grid_sub_cell_index_matches_brute_force_under_edits(
        steps in prop::collection::vec((0u64..160, 0u8..9, -0.04f64..1.04, -0.04f64..1.04), 0..400),
        corners in prop::collection::vec((-0.04f64..1.04, -0.04f64..1.04, 0.0f64..0.6, 0.0f64..0.6, 0u8..2), 1..8),
        geometry in 0usize..4,
        removal_heavy in any::<bool>(),
    ) {
        // A step is `(id, mode, tx, ty)`: `mode` decides how the draw
        // `(tx, ty)` becomes a point — snapped onto the half-sub-cell
        // lattice (every second value is exactly a sub-cell edge, every
        // 32nd a cell edge), squeezed into one "hot" cell so it crosses
        // the split threshold, left raw (some out of the world), made
        // non-finite (NaN or infinite in one or both coordinates), or a
        // removal. In the removal-heavy mode five modes of nine remove,
        // so crowds thin out, merge, and leaf boxes shrink. Sides are a
        // power of two and not; worlds are dyadic, E2's 6x6-mile city,
        // and one whose cell width is inexact.
        let (world, side) = [
            (unit_world(), 16u32),
            (Rect::new_unchecked(0.0, 0.0, 6.0, 6.0), 10),
            (Rect::new_unchecked(-0.3, 0.1, 0.8, 1.7), 6),
            (unit_world(), 6),
        ][geometry];
        let lattice = f64::from(side * 32);
        let snap = |t: f64| (t * lattice).round() / lattice;
        let at = |tx: f64, ty: f64| {
            Point::new(
                world.min_x() + tx * world.width(),
                world.min_y() + ty * world.height(),
            )
        };
        let rects: Vec<Rect> = corners
            .iter()
            .map(|&(tx, ty, w, h, snapped)| {
                let (a, b) = if snapped == 1 {
                    (at(snap(tx), snap(ty)), at(snap(tx + w), snap(ty + h)))
                } else {
                    (at(tx, ty), at(tx + w, ty + h))
                };
                Rect::new_unchecked(a.x, a.y, b.x, b.y)
            })
            .collect();
        let mut g = UniformGrid::new(world, side, side);
        let mut brute = BruteGrid { world, side, pts: Vec::new() };
        let hot = |t: f64| (1.0 + t.clamp(0.0, 0.999)) / f64::from(side);
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let pick = |t: f64| odd[((t + 0.04) * 100.0) as usize % 3];
        for (i, &(id, mode, tx, ty)) in steps.iter().enumerate() {
            let p = match mode {
                0 => None,
                1..=4 if removal_heavy => None,
                1 => Some(at(snap(tx), snap(ty))),
                2 => Some(at(snap(tx), ty)),
                3..=5 => Some(at(hot(tx), hot(ty))),
                6 => Some(at(snap(hot(tx)), snap(hot(ty)))),
                7 => Some(at(tx, ty)),
                _ if ty < 0.5 => Some(Point::new(pick(tx), at(tx, ty).y)),
                _ => Some(Point::new(pick(tx), pick(ty))),
            };
            let prev = brute.pts.iter().find(|&&(i, _)| i == id).map(|&(_, p)| p);
            // By bits: a NaN position equals itself.
            let bits = |p: Option<Point>| p.map(|p| (p.x.to_bits(), p.y.to_bits()));
            match p {
                Some(p) => {
                    prop_assert_eq!(bits(g.insert(id, p)), bits(prev));
                    brute.upsert(id, p);
                }
                None => {
                    prop_assert_eq!(bits(g.remove(id)), bits(prev));
                    brute.remove(id);
                }
            }
            if i % 97 == 96 {
                prop_assert_eq!(assert_grid_matches(&g, &brute, &rects), Ok(()), "after step {}", i);
            }
        }
        prop_assert_eq!(assert_grid_matches(&g, &brute, &rects), Ok(()));
        // Empty the hot cell again: a grid that split and merged must
        // answer like one that never held the crowd.
        let hot_cell = brute.cell_of(at(hot(0.5), hot(0.5)));
        let crowd: Vec<u64> = brute
            .pts
            .iter()
            .filter(|(_, p)| brute.cell_of(*p) == hot_cell)
            .map(|&(id, _)| id)
            .collect();
        for id in crowd {
            prop_assert!(g.remove(id).is_some());
            brute.remove(id);
        }
        prop_assert_eq!(assert_grid_matches(&g, &brute, &rects), Ok(()));
        let mut fresh = UniformGrid::new(world, side, side);
        for &(id, p) in &brute.pts {
            fresh.insert(id, p);
        }
        prop_assert_eq!(assert_grid_matches(&fresh, &brute, &rects), Ok(()));
    }

    #[test]
    fn grid_knn_matches_brute_force(
        pts in prop::collection::vec(upoint(), 1..150),
        q in upoint(),
        k in 1usize..20,
    ) {
        let mut g = UniformGrid::new(unit_world(), 8, 8);
        for (i, p) in pts.iter().enumerate() {
            g.insert(i as u64, *p);
        }
        let got = g.k_nearest(q, k, |_| false);
        let mut brute: Vec<f64> = pts.iter().map(|p| q.dist(*p)).collect();
        brute.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(got.len(), k.min(pts.len()));
        for (i, (_, p)) in got.iter().enumerate() {
            prop_assert!((q.dist(*p) - brute[i]).abs() < 1e-9, "rank {}", i);
        }
    }

    #[test]
    fn grid_remove_then_absent(
        pts in prop::collection::vec(upoint(), 1..100),
        victim in 0usize..100,
    ) {
        let mut g = UniformGrid::new(unit_world(), 6, 6);
        for (i, p) in pts.iter().enumerate() {
            g.insert(i as u64, *p);
        }
        let victim = victim % pts.len();
        prop_assert!(g.remove(victim as u64).is_some());
        prop_assert!(g.location(victim as u64).is_none());
        prop_assert_eq!(g.len(), pts.len() - 1);
        prop_assert!(g.remove(victim as u64).is_none());
    }

    #[test]
    fn pyramid_counts_conserved_across_levels(
        pts in prop::collection::vec(upoint(), 0..150),
        levels in 1u8..6,
    ) {
        let mut p = PyramidGrid::new(unit_world(), levels);
        for (i, pt) in pts.iter().enumerate() {
            p.insert(i as u64, *pt);
        }
        for level in 0..=levels {
            let side = p.side(level);
            let mut total = 0u32;
            for iy in 0..side {
                for ix in 0..side {
                    total += p.count(PyramidCell { level, ix, iy });
                }
            }
            prop_assert_eq!(total as usize, pts.len(), "level {}", level);
        }
    }

    #[test]
    fn pyramid_moves_preserve_counts(
        pts in prop::collection::vec((upoint(), upoint()), 1..80),
    ) {
        let mut p = PyramidGrid::new(unit_world(), 4);
        for (i, (a, _)) in pts.iter().enumerate() {
            p.insert(i as u64, *a);
        }
        for (i, (_, b)) in pts.iter().enumerate() {
            p.insert(i as u64, *b);
        }
        prop_assert_eq!(p.len(), pts.len());
        prop_assert_eq!(
            p.count(PyramidCell { level: 0, ix: 0, iy: 0 }) as usize,
            pts.len()
        );
        // The cell of each final position contains it.
        for (i, (_, b)) in pts.iter().enumerate() {
            prop_assert_eq!(p.location(i as u64), Some(*b));
            let leaf = p.leaf_cell_of(*b);
            prop_assert!(p.count(leaf) >= 1);
            prop_assert!(p.cell_rect(leaf).contains_point(*b));
        }
    }

    #[test]
    fn quadtree_matches_brute_force(
        pts in prop::collection::vec(upoint(), 0..200),
        q in urect(),
        cap in 1usize..16,
    ) {
        let mut t = PointQuadTree::new(unit_world(), cap);
        for (i, p) in pts.iter().enumerate() {
            t.insert(i as u64, *p);
        }
        let brute = pts.iter().filter(|p| q.contains_point(**p)).count();
        prop_assert_eq!(t.count_in_rect(&q), brute);
        prop_assert_eq!(t.len(), pts.len());
        // Path to any point is nested and ends in a region containing it.
        if let Some(p) = pts.first() {
            let path = t.path_to_leaf(*p);
            prop_assert!(!path.is_empty());
            prop_assert!(path.last().unwrap().0.contains_point(*p));
        }
    }

    #[test]
    fn quadtree_insert_remove_roundtrip(
        pts in prop::collection::vec(upoint(), 1..100),
    ) {
        let mut t = PointQuadTree::new(unit_world(), 4);
        for (i, p) in pts.iter().enumerate() {
            t.insert(i as u64, *p);
        }
        // Remove every other point; counts must track.
        let mut expected = pts.len();
        for (i, p) in pts.iter().enumerate().step_by(2) {
            prop_assert!(t.remove(i as u64, *p));
            expected -= 1;
            prop_assert_eq!(t.len(), expected);
        }
        let remaining = t.count_in_rect(&unit_world());
        prop_assert_eq!(remaining, expected);
    }

    #[test]
    fn rtree_search_matches_brute_force(
        pts in prop::collection::vec(upoint(), 0..300),
        q in urect(),
    ) {
        let entries: Vec<(Rect, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (Rect::from_point(*p), i as u64))
            .collect();
        let t = RTree::bulk_load(entries);
        let brute = pts.iter().filter(|p| q.contains_point(**p)).count();
        prop_assert_eq!(t.search_rect(&q).len(), brute);
    }

    #[test]
    fn rtree_knn_matches_brute_force(
        pts in prop::collection::vec(upoint(), 1..200),
        q in upoint(),
        k in 1usize..10,
    ) {
        let mut t = RTree::new();
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(*p, i as u64);
        }
        let got = t.k_nearest(q, k);
        let mut brute: Vec<f64> = pts.iter().map(|p| q.dist(*p)).collect();
        brute.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(got.len(), k.min(pts.len()));
        for (i, nb) in got.iter().enumerate() {
            prop_assert!((nb.dist - brute[i]).abs() < 1e-9, "rank {}", i);
        }
    }

    #[test]
    fn rtree_rect_entry_knn_matches_brute_force(
        rects in prop::collection::vec(urect(), 1..100),
        q in upoint(),
        k in 1usize..8,
    ) {
        // Cloaked private records are rect entries; k_nearest must rank
        // them by min-dist to the query point.
        let mut t = RTree::new();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        let got = t.k_nearest(q, k);
        let mut brute: Vec<f64> = rects
            .iter()
            .map(|r| lbsp_geom::min_dist_point_rect(q, r))
            .collect();
        brute.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(got.len(), k.min(rects.len()));
        for (i, nb) in got.iter().enumerate() {
            prop_assert!((nb.dist - brute[i]).abs() < 1e-9, "rank {}", i);
        }
    }

    #[test]
    fn rtree_dynamic_inserts_and_removals_stay_consistent(
        pts in prop::collection::vec(upoint(), 1..150),
        q in urect(),
    ) {
        let mut t = RTree::new();
        for (i, p) in pts.iter().enumerate() {
            t.insert_point(*p, i as u64);
        }
        // Remove the first third.
        let cut = pts.len() / 3;
        for (i, p) in pts.iter().take(cut).enumerate() {
            prop_assert!(t.remove_point(*p, i as u64));
        }
        prop_assert_eq!(t.len(), pts.len() - cut);
        let brute = pts
            .iter()
            .enumerate()
            .skip(cut)
            .filter(|(_, p)| q.contains_point(**p))
            .count();
        prop_assert_eq!(t.search_rect(&q).len(), brute);
    }
}
