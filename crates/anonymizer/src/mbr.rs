//! k-NN minimum-bounding-rectangle cloaking (Fig. 3b).
//!
//! "A more smart data-dependent cloaking technique ... is to construct
//! the spatial cloaked area of several point locations as their minimum
//! bounding rectangle (MBR). Although there is no direct reverse
//! engineering that can reveal the exact point location from the MBR,
//! yet the MBR encounters some information leakage. Having the MBR
//! indicates that there is at least one data point on each edge. If k is
//! small, then an adversary would guess that the exact point location is
//! on the MBR boundary." — Sec. 5.1
//!
//! The boundary attack in [`crate::attack`] quantifies exactly that: for
//! small `k`, the subject lands on the MBR boundary with probability
//! close to `4/k`.

use crate::cloak::{finalize_region, CloakRequirement, CloakedRegion, CloakingAlgorithm};
use crate::{CloakError, UserId};
use lbsp_geom::{Point, Rect};
use lbsp_index::UniformGrid;

/// k-nearest-neighbor MBR cloak backed by a uniform grid.
#[derive(Debug, Clone)]
pub struct MbrCloak {
    grid: UniformGrid,
}

impl MbrCloak {
    /// Creates the cloak over `world` with a `grid_side × grid_side`
    /// search grid.
    pub fn new(world: Rect, grid_side: u32) -> MbrCloak {
        MbrCloak {
            grid: UniformGrid::new(world, grid_side, grid_side),
        }
    }

    /// Pads `r` symmetrically so its area reaches `a_min`, clipping to
    /// the world. Each pass solves `(w + 2p)(h + 2p) = a_min` for the
    /// pad `p`; clamping at a world border can eat part of the pad, so
    /// the pass repeats until the area converges (near a corner the
    /// region keeps growing inward until `a_min` — or the whole world —
    /// is reached).
    fn pad_to_min_area(&self, mut r: Rect, a_min: f64) -> Rect {
        let world = self.grid.world();
        for _ in 0..64 {
            if r.area() >= a_min * (1.0 - 1e-12) || r == world {
                break;
            }
            let w = r.width();
            let h = r.height();
            // Quadratic 4p^2 + 2(w+h)p + (wh - a_min) = 0, positive root.
            let a = 4.0;
            let b = 2.0 * (w + h);
            let c = w * h - a_min;
            let disc = (b * b - 4.0 * a * c).max(0.0);
            let p = ((-b + disc.sqrt()) / (2.0 * a)).max(0.0);
            if p <= 0.0 {
                break;
            }
            r = r
                .expanded(p)
                .expect("pad is non-negative")
                .clamped_to(&world);
        }
        r
    }
}

impl CloakingAlgorithm for MbrCloak {
    fn name(&self) -> &'static str {
        "mbr"
    }

    fn world(&self) -> Rect {
        self.grid.world()
    }

    fn upsert(&mut self, id: UserId, p: Point) {
        self.grid.insert(id, p);
    }

    fn remove(&mut self, id: UserId) -> bool {
        self.grid.remove(id).is_some()
    }

    fn location(&self, id: UserId) -> Option<Point> {
        self.grid.location(id)
    }

    fn population(&self) -> usize {
        self.grid.len()
    }

    fn count_in_region(&self, region: &Rect) -> usize {
        self.grid.count_in_rect(region)
    }

    fn cloak(&self, id: UserId, req: &CloakRequirement) -> Result<CloakedRegion, CloakError> {
        req.validate()?;
        let pos = self.grid.location(id).ok_or(CloakError::UnknownUser(id))?;
        if !req.wants_privacy() {
            let region = Rect::from_point(pos);
            let k = self.grid.count_in_rect(&region) as u32;
            return Ok(finalize_region(region, k.max(1), req));
        }
        // The subject plus its k-1 nearest neighbors (k_nearest includes
        // the subject because it is stored in the grid).
        let members = self.grid.k_nearest(pos, req.k as usize);
        let mbr = Rect::mbr_of_points(members.iter().map(|(_, p)| *p))
            .unwrap_or_else(|| Rect::from_point(pos));
        let region = self.pad_to_min_area(mbr, req.a_min);
        let achieved = self.grid.count_in_rect(&region) as u32;
        Ok(finalize_region(region, achieved, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn populated() -> MbrCloak {
        let mut c = MbrCloak::new(world(), 16);
        for i in 0..100u64 {
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            c.upsert(i, Point::new(x, y));
        }
        c
    }

    #[test]
    fn mbr_contains_subject_and_k_users() {
        let c = populated();
        for k in [2u32, 5, 10, 30] {
            let r = c.cloak(55, &CloakRequirement::k_only(k)).unwrap();
            assert!(r.k_satisfied, "k={k}");
            assert!(r.achieved_k >= k);
            assert!(r.region.contains_point(Point::new(0.55, 0.55)));
        }
    }

    #[test]
    fn subject_is_on_boundary_for_small_k() {
        // With k=2 the MBR spans subject + 1 neighbor: both are corners,
        // i.e. boundary points — the leak the paper describes.
        let c = populated();
        let r = c.cloak(55, &CloakRequirement::k_only(2)).unwrap();
        assert!(r.region.on_boundary(Point::new(0.55, 0.55), 1e-9));
    }

    #[test]
    fn mbr_is_tighter_than_naive_square() {
        // The MBR of the k nearest points never exceeds the smallest
        // centered square holding k points.
        use crate::NaiveCloak;
        let mut naive = NaiveCloak::new(world(), 16);
        let c = populated();
        for i in 0..100u64 {
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            naive.upsert(i, Point::new(x, y));
        }
        for k in [5u32, 10, 20] {
            let m = c.cloak(55, &CloakRequirement::k_only(k)).unwrap();
            let n = naive.cloak(55, &CloakRequirement::k_only(k)).unwrap();
            assert!(
                m.area() <= n.area() + 1e-9,
                "k={k}: mbr {} vs naive {}",
                m.area(),
                n.area()
            );
        }
    }

    #[test]
    fn a_min_padding_reaches_requested_area() {
        let c = populated();
        let req = CloakRequirement {
            k: 2,
            a_min: 0.04,
            a_max: f64::INFINITY,
        };
        let r = c.cloak(55, &req).unwrap();
        assert!(r.area() >= 0.04 - 1e-9, "area {}", r.area());
        assert!(r.fully_satisfied());
        // Padding must keep the subject inside.
        assert!(r.region.contains_point(Point::new(0.55, 0.55)));
    }

    #[test]
    fn degenerate_mbr_padded_from_zero_area() {
        // k users at the same spot: MBR is a point; padding must still
        // reach a_min.
        let mut c = MbrCloak::new(world(), 8);
        for i in 0..5u64 {
            c.upsert(i, Point::new(0.5, 0.5));
        }
        let req = CloakRequirement {
            k: 5,
            a_min: 0.01,
            a_max: f64::INFINITY,
        };
        let r = c.cloak(0, &req).unwrap();
        assert!(r.area() >= 0.01 - 1e-9);
        assert!(r.k_satisfied);
    }

    #[test]
    fn k_exceeding_population_flags_unsatisfied() {
        let mut c = MbrCloak::new(world(), 8);
        c.upsert(1, Point::new(0.2, 0.2));
        c.upsert(2, Point::new(0.8, 0.8));
        let r = c.cloak(1, &CloakRequirement::k_only(10)).unwrap();
        assert!(!r.k_satisfied);
        assert_eq!(r.achieved_k, 2);
    }

    #[test]
    fn unknown_user_errors() {
        let c = MbrCloak::new(world(), 4);
        assert!(matches!(
            c.cloak(1, &CloakRequirement::k_only(2)),
            Err(CloakError::UnknownUser(1))
        ));
    }

    #[test]
    fn no_privacy_short_circuit() {
        let c = populated();
        let r = c.cloak(3, &CloakRequirement::none()).unwrap();
        assert_eq!(r.area(), 0.0);
        assert!(r.fully_satisfied());
    }
}
