//! Min/max distance functions between points and rectangles.
//!
//! These four functions carry the whole query-processing layer:
//!
//! * Private NN queries (Fig. 5b) prune a public object `o` when another
//!   object `o'` satisfies `max_dist(R, o') < min_dist(R, o)` for the
//!   cloaked region `R` — then no point of `R` can have `o` as its NN.
//! * Public NN queries (Fig. 6b) prune a cloaked private object `A` when
//!   another cloaked object `D` satisfies
//!   `max_dist(q, D) < min_dist(q, A)` for the query point `q`.
//! * The public store's k-nearest search ranks objects by
//!   `min_dist_point_rect`, and bounds the cells it has not read with it.

use crate::{Point, Rect};

/// Minimum Euclidean distance from point `p` to any point of `r`
/// (zero when `p` is inside `r`).
#[inline]
pub fn min_dist_point_rect(p: Point, r: &Rect) -> f64 {
    let dx = (r.min_x() - p.x).max(0.0).max(p.x - r.max_x());
    let dy = (r.min_y() - p.y).max(0.0).max(p.y - r.max_y());
    (dx * dx + dy * dy).sqrt()
}

/// Maximum Euclidean distance from point `p` to any point of `r`
/// (always attained at one of the four corners).
#[inline]
pub fn max_dist_point_rect(p: Point, r: &Rect) -> f64 {
    let dx = (p.x - r.min_x()).abs().max((p.x - r.max_x()).abs());
    let dy = (p.y - r.min_y()).abs().max((p.y - r.max_y()).abs());
    (dx * dx + dy * dy).sqrt()
}

/// Minimum distance between any pair of points drawn from `a` and `b`
/// (zero when the rectangles intersect).
#[inline]
pub fn min_dist_rect_rect(a: &Rect, b: &Rect) -> f64 {
    let dx = (a.min_x() - b.max_x()).max(0.0).max(b.min_x() - a.max_x());
    let dy = (a.min_y() - b.max_y()).max(0.0).max(b.min_y() - a.max_y());
    (dx * dx + dy * dy).sqrt()
}

/// Maximum distance between any pair of points drawn from `a` and `b`
/// (always attained at a corner pair).
#[inline]
pub fn max_dist_rect_rect(a: &Rect, b: &Rect) -> f64 {
    let dx = (a.max_x() - b.min_x())
        .abs()
        .max((b.max_x() - a.min_x()).abs());
    let dy = (a.max_y() - b.min_y())
        .abs()
        .max((b.max_y() - a.min_y()).abs());
    (dx * dx + dy * dy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn unit() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn point_inside_has_zero_min_dist() {
        assert!(approx_eq(
            min_dist_point_rect(Point::new(0.5, 0.5), &unit()),
            0.0
        ));
        assert!(approx_eq(
            min_dist_point_rect(Point::new(0.0, 0.5), &unit()),
            0.0
        ));
    }

    #[test]
    fn min_dist_axis_and_corner_cases() {
        // Straight out along x.
        assert!(approx_eq(
            min_dist_point_rect(Point::new(2.0, 0.5), &unit()),
            1.0
        ));
        // Diagonal from corner: (2,2) to (1,1).
        assert!(approx_eq(
            min_dist_point_rect(Point::new(2.0, 2.0), &unit()),
            std::f64::consts::SQRT_2
        ));
    }

    #[test]
    fn max_dist_is_farthest_corner() {
        // From the center of the unit square, farthest corner is half diagonal.
        assert!(approx_eq(
            max_dist_point_rect(Point::new(0.5, 0.5), &unit()),
            std::f64::consts::SQRT_2 / 2.0
        ));
        // From (2, 0.5): farthest corner is (0,0) or (0,1): sqrt(4+0.25).
        assert!(approx_eq(
            max_dist_point_rect(Point::new(2.0, 0.5), &unit()),
            (4.25f64).sqrt()
        ));
    }

    #[test]
    fn rect_rect_min_dist_zero_when_intersecting() {
        let a = unit();
        let b = Rect::new_unchecked(0.5, 0.5, 2.0, 2.0);
        assert!(approx_eq(min_dist_rect_rect(&a, &b), 0.0));
        // Touching rectangles also have zero distance.
        let c = Rect::new_unchecked(1.0, 0.0, 2.0, 1.0);
        assert!(approx_eq(min_dist_rect_rect(&a, &c), 0.0));
    }

    #[test]
    fn rect_rect_min_dist_separated() {
        let a = unit();
        let b = Rect::new_unchecked(3.0, 0.0, 4.0, 1.0);
        assert!(approx_eq(min_dist_rect_rect(&a, &b), 2.0));
        let c = Rect::new_unchecked(2.0, 2.0, 3.0, 3.0);
        assert!(approx_eq(
            min_dist_rect_rect(&a, &c),
            std::f64::consts::SQRT_2
        ));
    }

    #[test]
    fn rect_rect_max_dist() {
        let a = unit();
        let b = Rect::new_unchecked(2.0, 0.0, 3.0, 1.0);
        // Farthest pair: (0, 0)-(3, 1) or (0,1)-(3,0): sqrt(9+1).
        assert!(approx_eq(max_dist_rect_rect(&a, &b), (10.0f64).sqrt()));
        // Max dist of a rect to itself is its diagonal.
        assert!(approx_eq(
            max_dist_rect_rect(&a, &a),
            std::f64::consts::SQRT_2
        ));
    }

    #[test]
    fn min_never_exceeds_max() {
        let a = Rect::new_unchecked(-1.0, -2.0, 0.5, 0.0);
        let b = Rect::new_unchecked(0.0, 1.0, 4.0, 2.0);
        assert!(min_dist_rect_rect(&a, &b) <= max_dist_rect_rect(&a, &b));
        let p = Point::new(3.0, -1.0);
        assert!(min_dist_point_rect(p, &a) <= max_dist_point_rect(p, &a));
    }

    #[test]
    fn point_rect_consistency_with_degenerate_rect() {
        // A degenerate rect behaves like a point for both functions.
        let p = Point::new(1.0, 1.0);
        let q = Point::new(4.0, 5.0);
        let r = Rect::from_point(q);
        assert!(approx_eq(min_dist_point_rect(p, &r), 5.0));
        assert!(approx_eq(max_dist_point_rect(p, &r), 5.0));
    }
}
