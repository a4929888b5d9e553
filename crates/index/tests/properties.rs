//! Property-based tests: every index must agree with brute force on
//! arbitrary point sets and query shapes.

use lbsp_geom::{min_dist_point_rect, Point, Rect};
use lbsp_index::{PointGrid, SubCellCounts, SubSpan, UniformGrid, SUB_SIDE};
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

prop_compose! {
    /// A point of a coarse lattice reaching past the unit square (equal
    /// distances, shared positions, moves beyond a grid's box), or any
    /// point of the square.
    fn gpoint()(on_lattice in any::<bool>(), i in -2i32..11, j in -2i32..11, p in upoint()) -> Point {
        if on_lattice {
            Point::new(f64::from(i) / 8.0, f64::from(j) / 8.0)
        } else {
            p
        }
    }
}

prop_compose! {
    /// An edit of a [`PointGrid`]'s points: `(0, _, p)` inserts `p`,
    /// `(1, i, _)` removes a point, `(2, i, p)` moves one to `p`.
    fn grid_edit()(kind in 0u8..3, i in any::<usize>(), p in gpoint()) -> (u8, usize, Point) {
        (kind, i, p)
    }
}

/// A population kept as a flat list, counted by sub-cell membership with
/// the lattice formula written out independently of the view's. It also
/// keeps the id → position bookkeeping the count view leaves to its
/// caller: [`Self::moved`] makes a step's `(old, new)` pair.
struct BruteGrid {
    world: Rect,
    side: u32,
    pts: Vec<(u64, Point)>,
}

impl BruteGrid {
    /// Moves `id` to `p` (`None` removes it); returns its position
    /// before, for the view's shift.
    fn moved(&mut self, id: u64, p: Option<Point>) -> Option<Point> {
        let at = self.pts.iter().position(|&(i, _)| i == id);
        let old = at.map(|i| self.pts.remove(i).1);
        self.pts.extend(p.map(|p| (id, p)));
        old
    }

    /// Sub-cells per axis.
    fn n(&self) -> usize {
        (self.side * SUB_SIDE) as usize
    }

    /// The sub-cell a point is a member of: per axis the `i` with line
    /// `i` ≤ `v` < line `i + 1` (the last sub-cell closed), found by
    /// walking the lines; none for a point outside them or non-finite.
    fn sub_of(&self, p: Point) -> Option<(usize, usize)> {
        let n = self.n();
        let at = |v: f64, min: f64, len: f64| {
            let line =
                |i: usize| min + len / f64::from(self.side) * (i as f64 / f64::from(SUB_SIDE));
            (0..n).find(|&i| line(i) <= v && (v < line(i + 1) || (i + 1 == n && v == line(n))))
        };
        Some((
            at(p.x, self.world.min_x(), self.world.width())?,
            at(p.y, self.world.min_y(), self.world.height())?,
        ))
    }

    /// Members per sub-cell, row-major, as prefix sums: entry
    /// `(y, x)` of the `(n + 1)²` table counts the members left of column
    /// `x` and below row `y`.
    fn prefix(&self) -> Vec<usize> {
        let n = self.n();
        let mut t = vec![0; (n + 1) * (n + 1)];
        for &(_, p) in &self.pts {
            if let Some((x, y)) = self.sub_of(p) {
                t[(y + 1) * (n + 1) + x + 1] += 1;
            }
        }
        for y in 1..=n {
            for x in 1..=n {
                t[y * (n + 1) + x] += t[y * (n + 1) + x - 1] + t[(y - 1) * (n + 1) + x]
                    - t[(y - 1) * (n + 1) + x - 1];
            }
        }
        t
    }
}

/// Members of `span` by the prefix table of [`BruteGrid::prefix`].
fn brute_count(t: &[usize], n: usize, s: SubSpan) -> usize {
    let at = |x: u32, y: u32| t[y as usize * (n + 1) + x as usize];
    at(s.hi[0], s.hi[1]) + at(s.lo[0], s.lo[1]) - at(s.lo[0], s.hi[1]) - at(s.hi[0], s.lo[1])
}

/// Compares the view `v` with `brute` on every cell block and every
/// quadrant at refinement depths 1–4 of every cell, each block's
/// rectangle recounted through `count_in_rect` too; then on `rects`, the
/// world, a huge rectangle and the first six users' points, each counted
/// by the sub-cells lying wholly inside it (a point holds none).
fn assert_view_matches(v: &SubCellCounts, brute: &BruteGrid, rects: &[Rect]) -> Result<(), String> {
    let (side, n, lat) = (brute.side, brute.n(), v.lattice());
    let t = brute.prefix();
    let check = |span: SubSpan| {
        let (got, want) = (v.count(span), brute_count(&t, n, span));
        if got != want {
            return Err(format!("count({span:?}) = {got}, brute {want}"));
        }
        Ok(got)
    };
    let cells = |a: u32, b: u32| (a * SUB_SIDE, (b + 1) * SUB_SIDE);
    for (x0, x1) in (0..side).flat_map(|a| (a..side).map(move |b| cells(a, b))) {
        for (y0, y1) in (0..side).flat_map(|a| (a..side).map(move |b| cells(a, b))) {
            let block = SubSpan {
                lo: [x0, y0],
                hi: [x1, y1],
            };
            let got = check(block)?;
            let rect = lat.rect(block);
            if v.count_in_rect(&rect) != got {
                return Err(format!("count_in_rect({rect:?}) is not its block's count"));
            }
        }
    }
    for depth in 1..=4 {
        let q = SUB_SIDE >> depth;
        for y in (0..side * SUB_SIDE).step_by(q as usize) {
            for x in (0..side * SUB_SIDE).step_by(q as usize) {
                check(SubSpan::around([x, y], q))?;
            }
        }
    }
    let mut rects = rects.to_vec();
    rects.push(brute.world);
    rects.push(Rect::new_unchecked(-1e9, -1e9, 1e9, 1e9));
    rects.extend(brute.pts.iter().take(6).map(|&(_, p)| Rect::from_point(p)));
    for r in &rects {
        // Per axis, the sub-cells whose extent lies inside `r`.
        let unit = |i: u32| lat.rect(SubSpan::around([i, i], 1));
        let xs: Vec<u32> = (0..n as u32)
            .filter(|&i| r.min_x() <= unit(i).min_x() && unit(i).max_x() <= r.max_x())
            .collect();
        let ys: Vec<u32> = (0..n as u32)
            .filter(|&i| r.min_y() <= unit(i).min_y() && unit(i).max_y() <= r.max_y())
            .collect();
        let want: usize = xs
            .iter()
            .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
            .map(|(x, y)| brute_count(&t, n, SubSpan::around([x, y], 1)))
            .sum();
        if v.count_in_rect(r) != want {
            return Err(format!(
                "count_in_rect({r:?}) = {}, brute {want}",
                v.count_in_rect(r)
            ));
        }
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
        prop_assert_eq!(g.len(), pts.len());
    }

    #[test]
    fn sub_cell_counts_match_brute_force_membership_under_edits(
        steps in prop::collection::vec((0u64..160, 0u8..9, -0.04f64..1.04, -0.04f64..1.04), 0..400),
        corners in prop::collection::vec((-0.04f64..1.04, -0.04f64..1.04, 0.0f64..0.6, 0.0f64..0.6, 0u8..2), 1..8),
        geometry in 0usize..4,
        removal_heavy in any::<bool>(),
    ) {
        // A step is `(id, mode, tx, ty)`: `mode` decides how the draw
        // `(tx, ty)` becomes a point — snapped onto the half-sub-cell
        // lattice (every second value is exactly a sub-cell edge, every
        // 32nd a cell edge), squeezed into one "hot" cell, left raw (some
        // out of the world), made non-finite (NaN or infinite in one or
        // both coordinates) — a member of no sub-cell either way — or a
        // removal. In the removal-heavy mode five modes of nine remove,
        // so counters go back down to zero and an underflow would show.
        // Sides are a power of two and not; worlds are dyadic, E2's
        // 6x6-mile city, and one whose cell width is inexact.
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
        let mut g = SubCellCounts::new(world, side, side);
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
            let prev = brute.moved(id, p);
            g.shift(prev, p);
            if i % 97 == 96 {
                prop_assert_eq!(assert_view_matches(&g, &brute, &rects), Ok(()), "after step {}", i);
            }
        }
        prop_assert_eq!(assert_view_matches(&g, &brute, &rects), Ok(()));
        // Empty the hot cell again: the view must answer like one that
        // never held the crowd.
        let s = SUB_SIDE as usize;
        let cell = |p: Point| brute.sub_of(p).map(|(x, y)| (x / s, y / s));
        let hot_cell = cell(at(hot(0.5), hot(0.5)));
        let crowd: Vec<u64> = brute
            .pts
            .iter()
            .filter(|(_, p)| cell(*p) == hot_cell)
            .map(|&(id, _)| id)
            .collect();
        for id in crowd {
            let prev = brute.moved(id, None);
            prop_assert!(prev.is_some());
            g.shift(prev, None);
        }
        prop_assert_eq!(assert_view_matches(&g, &brute, &rects), Ok(()));
        let mut fresh = SubCellCounts::new(world, side, side);
        for &(_, p) in &brute.pts {
            fresh.shift(None, Some(p));
        }
        prop_assert_eq!(assert_view_matches(&fresh, &brute, &rects), Ok(()));
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
        let got = g.k_nearest(q, k);
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
    fn point_grid_matches_brute_force_under_edits(
        pts in prop::collection::vec(gpoint(), 0..120),
        edits in prop::collection::vec(grid_edit(), 0..24),
        queries in prop::collection::vec((gpoint(), 0.0f64..0.6, 0.0f64..0.6), 1..4),
    ) {
        // Slots are indices, as in the public store: an insert or a
        // removal rebuilds the grid (slots after a removal shift down),
        // a move shifts the entry between cells.
        let mut pts = pts;
        let mut g = PointGrid::new(&pts);
        for step in 0..=edits.len() {
            for &(q, w, h) in &queries {
                let r = Rect::new_unchecked(q.x, q.y, q.x + w, q.y + h);
                let mut got = Vec::new();
                g.for_each_in(&r, |p, slot| got.push((slot, p)));
                got.sort_by_key(|&(slot, _)| slot);
                let want: Vec<(u32, Point)> = (0..)
                    .zip(pts.iter().copied())
                    .filter(|(_, p)| r.contains_point(*p))
                    .collect();
                prop_assert_eq!(got, want, "step {} range {:?}", step, r);
                for k in [1, 2, 5, 13] {
                    let mut by_dist: Vec<(f64, u32)> = (0..)
                        .zip(&pts)
                        .map(|(slot, p)| (min_dist_point_rect(q, &Rect::from_point(*p)), slot))
                        .collect();
                    by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let want: Vec<u32> = by_dist.iter().take(k).map(|&(_, s)| s).collect();
                    prop_assert_eq!(g.k_nearest(q, k), want, "step {} k {} at {:?}", step, k, q);
                }
            }
            let Some(&(kind, i, p)) = edits.get(step) else {
                break;
            };
            match kind {
                0 => {
                    pts.push(p);
                    g = PointGrid::new(&pts);
                }
                1 if !pts.is_empty() => {
                    pts.remove(i % pts.len());
                    g = PointGrid::new(&pts);
                }
                _ if !pts.is_empty() => {
                    let at = i % pts.len();
                    g.move_point(at as u32, pts[at], p);
                    pts[at] = p;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn point_grid_with_far_outliers_matches_brute_force(
        pts in prop::collection::vec(upoint(), 256..700),
        far in prop::collection::vec((-1e4f64..1e4, -1e4f64..1e4), 1..4),
        queries in prop::collection::vec(gpoint(), 1..4),
    ) {
        // Enough points that the box leaves the far ones out: they sit
        // in border cells, and every answer still matches a scan.
        let mut pts = pts;
        pts.extend(far.iter().map(|&(x, y)| Point::new(x, y)));
        let g = PointGrid::new(&pts);
        let targets = queries.into_iter().chain(far.iter().map(|&(x, y)| Point::new(x, y)));
        for q in targets {
            for r in [
                Rect::new_unchecked(q.x - 0.1, q.y - 0.1, q.x + 0.2, q.y + 0.1),
                Rect::new_unchecked(q.x.min(0.5), q.y.min(0.5), q.x.max(0.5), q.y.max(0.5)),
            ] {
                let mut got = Vec::new();
                g.for_each_in(&r, |_, slot| got.push(slot));
                got.sort_unstable();
                let want: Vec<u32> = (0..)
                    .zip(&pts)
                    .filter(|(_, p)| r.contains_point(**p))
                    .map(|(slot, _)| slot)
                    .collect();
                prop_assert_eq!(got, want, "range {:?}", r);
            }
            for k in [1, 7] {
                let mut by_dist: Vec<(f64, u32)> = (0..)
                    .zip(&pts)
                    .map(|(slot, p)| (min_dist_point_rect(q, &Rect::from_point(*p)), slot))
                    .collect();
                by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let want: Vec<u32> = by_dist.iter().take(k).map(|&(_, s)| s).collect();
                prop_assert_eq!(g.k_nearest(q, k), want, "k {} at {:?}", k, q);
            }
        }
    }
}
