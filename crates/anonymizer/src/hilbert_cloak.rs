//! Hilbert-curve cloaking with the reciprocity guarantee.
//!
//! A baseline from the same research wave as the paper (Kalnis et al.'s
//! HilbASR): map every user to a Hilbert index, sort, and cut the order
//! into consecutive buckets of `k`. A user's cloak is the MBR of its
//! bucket. Because the bucketing depends only on the *order* — not on
//! who asked — every member of a bucket receives the identical region.
//! That is *reciprocity*: the anonymity set of a query is exactly its
//! bucket, so the adversary's posterior over "who issued this" is
//! uniform over ≥ k users even with full background knowledge.
//!
//! Where it sits in the paper's taxonomy (Sec. 5): the bucket MBR is
//! data-dependent geometry, so like the MBR cloak it leaks *positional*
//! hints (some user lies on each MBR edge — visible in E4's boundary
//! column); but unlike the MBR cloak its *identity* anonymity is exactly
//! k by construction. The comparison of the three guarantees
//! (naive: none, MBR: k-ish with boundary leak, space-dependent &
//! Hilbert: k with different leak profiles) is what E4 reports.
//!
//! Index maintenance is O(log n) per update (BTreeMap); cloaking is
//! O(log n) after an O(n) lazily-amortized rebuild of the rank array
//! whenever the population changed — the batch pattern of Sec. 5.3.

use crate::cloak::{finalize_region, CloakRequirement, CloakedRegion, CloakingAlgorithm};
use crate::{CloakError, UserId};
use lbsp_geom::{hilbert_d, Point, Rect};
use lbsp_index::UniformGrid;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Hilbert order used for indexing (2^10 × 2^10 cells is finer than any
/// realistic cloak resolution while keeping indexes in `u64`).
const ORDER: u8 = 10;

/// Hilbert-order bucketing cloak (HilbASR).
#[derive(Debug)]
pub struct HilbertCloak {
    /// Count/query structure (also the exact-location store).
    grid: UniformGrid,
    /// Users ordered along the Hilbert curve.
    order: BTreeMap<(u64, UserId), Point>,
    /// Hilbert key of each user (to locate its order entry on update).
    keys: std::collections::HashMap<UserId, u64>,
    /// Lazily rebuilt rank array: the order flattened to a Vec, built
    /// by the first cloak after a change.
    ranks: OnceLock<Vec<(u64, UserId)>>,
}

impl HilbertCloak {
    /// Creates the cloak over `world`, with a `grid_side × grid_side`
    /// counting grid.
    pub fn new(world: Rect, grid_side: u32) -> HilbertCloak {
        HilbertCloak {
            grid: UniformGrid::new(world, grid_side, grid_side),
            order: BTreeMap::new(),
            keys: std::collections::HashMap::new(),
            ranks: OnceLock::new(),
        }
    }

    fn hilbert_key(&self, p: Point) -> u64 {
        let world = self.grid.world();
        let side = 1u32 << ORDER;
        let fx = ((p.x - world.min_x()) / world.width() * side as f64)
            .floor()
            .clamp(0.0, (side - 1) as f64) as u32;
        let fy = ((p.y - world.min_y()) / world.height() * side as f64)
            .floor()
            .clamp(0.0, (side - 1) as f64) as u32;
        hilbert_d(ORDER, fx, fy)
    }

    /// The bucket (as order ranks) containing `rank` under bucket size
    /// `k`: `[i*k, (i+1)*k)`, with the final partial bucket merged into
    /// its predecessor (standard HilbASR rule, keeps every bucket >= k).
    fn bucket_range(n: usize, k: usize, rank: usize) -> (usize, usize) {
        debug_assert!(k >= 1 && rank < n && n >= k);
        let buckets = n / k; // >= 1
        let i = (rank / k).min(buckets - 1);
        let start = i * k;
        let end = if i == buckets - 1 { n } else { start + k };
        (start, end)
    }

    fn ranks(&self) -> &[(u64, UserId)] {
        self.ranks
            .get_or_init(|| self.order.keys().copied().collect())
    }

    fn invalidate(&mut self) {
        self.ranks.take();
    }
}

impl CloakingAlgorithm for HilbertCloak {
    fn name(&self) -> &'static str {
        "hilbert"
    }

    fn world(&self) -> Rect {
        self.grid.world()
    }

    fn upsert(&mut self, id: UserId, p: Point) {
        if let Some(old_key) = self.keys.remove(&id) {
            self.order.remove(&(old_key, id));
        }
        let key = self.hilbert_key(p);
        self.order.insert((key, id), p);
        self.keys.insert(id, key);
        self.grid.insert(id, p);
        self.invalidate();
    }

    fn remove(&mut self, id: UserId) -> bool {
        let Some(key) = self.keys.remove(&id) else {
            return false;
        };
        self.order.remove(&(key, id));
        self.grid.remove(id);
        self.invalidate();
        true
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
        let key = *self.keys.get(&id).expect("location implies key");
        let k = req.k as usize;
        let n = self.population();
        if n < k {
            // Best effort: everyone is in one bucket (the whole order).
            let mbr = Rect::mbr_of_points(self.order.values().copied())
                .unwrap_or_else(|| Rect::from_point(pos));
            let achieved = self.grid.count_in_rect(&mbr) as u32;
            return Ok(finalize_region(mbr, achieved, req));
        }
        let ranks = self.ranks();
        let rank = ranks
            .binary_search(&(key, id))
            .expect("order and keys are in sync");
        let (start, end) = Self::bucket_range(n, k, rank);
        let region = Rect::mbr_of_points(
            ranks[start..end]
                .iter()
                .map(|(hkey, uid)| self.order[&(*hkey, *uid)]),
        )
        .expect("bucket is non-empty");
        // Deterministic a_min padding preserves reciprocity: it is a
        // function of the bucket MBR alone.
        let region = pad_rect_to_area(region, req.a_min, &self.grid.world());
        let achieved = self.grid.count_in_rect(&region) as u32;
        Ok(finalize_region(region, achieved, req))
    }
}

/// Symmetric padding of `r` to reach `a_min`, clipped to `world`
/// (iterating like `MbrCloak` so corners converge).
fn pad_rect_to_area(mut r: Rect, a_min: f64, world: &Rect) -> Rect {
    for _ in 0..64 {
        if r.area() >= a_min * (1.0 - 1e-12) || r == *world {
            break;
        }
        let w = r.width();
        let h = r.height();
        let b = 2.0 * (w + h);
        let c = w * h - a_min;
        let disc = (b * b - 16.0 * c).max(0.0);
        let p = ((-b + disc.sqrt()) / 8.0).max(0.0);
        if p <= 0.0 {
            break;
        }
        r = r.expanded(p).expect("pad non-negative").clamped_to(world);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn populated() -> HilbertCloak {
        let mut c = HilbertCloak::new(world(), 16);
        for i in 0..100u64 {
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            c.upsert(i, Point::new(x, y));
        }
        c
    }

    #[test]
    fn k_is_satisfied_and_subject_contained() {
        let c = populated();
        for k in [2u32, 7, 20, 50] {
            for id in [0u64, 33, 99] {
                let r = c.cloak(id, &CloakRequirement::k_only(k)).unwrap();
                assert!(r.k_satisfied, "k={k} id={id}");
                assert!(r.achieved_k >= k);
                assert!(r.region.contains_point(c.location(id).unwrap()));
            }
        }
    }

    #[test]
    fn reciprocity_same_bucket_same_region() {
        let c = populated();
        let req = CloakRequirement::k_only(10);
        // Collect each user's region; regions must form exactly
        // ceil-partitioned groups where every member shares the region
        // and every group holds >= 10 users.
        let mut by_region: std::collections::HashMap<String, Vec<u64>> =
            std::collections::HashMap::new();
        for id in 0..100u64 {
            let r = c.cloak(id, &req).unwrap();
            by_region
                .entry(format!("{:?}", r.region))
                .or_default()
                .push(id);
        }
        assert_eq!(by_region.len(), 10, "100 users / k=10 = 10 buckets");
        for (region, members) in &by_region {
            assert!(
                members.len() >= 10,
                "bucket {region} has only {}",
                members.len()
            );
        }
    }

    #[test]
    fn final_partial_bucket_merges() {
        let mut c = HilbertCloak::new(world(), 8);
        // 25 users, k = 10: buckets of 10, 10, and 5 -> the 5 merge into
        // the second bucket (15 members).
        for i in 0..25u64 {
            c.upsert(i, Point::new(0.04 * i as f64 + 0.01, 0.5));
        }
        let req = CloakRequirement::k_only(10);
        let mut sizes: std::collections::HashMap<String, usize> = Default::default();
        for id in 0..25u64 {
            let r = c.cloak(id, &req).unwrap();
            *sizes.entry(format!("{:?}", r.region)).or_default() += 1;
        }
        let mut counts: Vec<usize> = sizes.values().copied().collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![10, 15]);
    }

    #[test]
    fn population_below_k_is_best_effort() {
        let mut c = HilbertCloak::new(world(), 8);
        c.upsert(1, Point::new(0.2, 0.2));
        c.upsert(2, Point::new(0.8, 0.8));
        let r = c.cloak(1, &CloakRequirement::k_only(5)).unwrap();
        assert!(!r.k_satisfied);
        assert_eq!(r.achieved_k, 2);
        assert!(r.region.contains_point(Point::new(0.2, 0.2)));
        assert!(r.region.contains_point(Point::new(0.8, 0.8)));
    }

    #[test]
    fn updates_reorder_buckets() {
        let mut c = populated();
        let req = CloakRequirement::k_only(10);
        let before = c.cloak(0, &req).unwrap();
        // Move user 0 across the world; its bucket must change.
        c.upsert(0, Point::new(0.95, 0.95));
        let after = c.cloak(0, &req).unwrap();
        assert_ne!(before.region, after.region);
        assert!(after.region.contains_point(Point::new(0.95, 0.95)));
        assert!(after.k_satisfied);
        // Removal keeps the rest consistent.
        assert!(c.remove(0));
        assert!(!c.remove(0));
        let r = c.cloak(1, &req).unwrap();
        assert!(r.k_satisfied);
    }

    #[test]
    fn a_min_padding_keeps_reciprocity() {
        let c = populated();
        let req = CloakRequirement {
            k: 10,
            a_min: 0.3,
            a_max: f64::INFINITY,
        };
        let r0 = c.cloak(0, &req).unwrap();
        assert!(r0.area() >= 0.3 - 1e-9);
        // A same-bucket peer gets the identical padded region. User 0's
        // bucket is its 10 nearest order-neighbors; find one.
        let mut peer = None;
        for id in 1..100u64 {
            if c.cloak(id, &req).unwrap().region == r0.region {
                peer = Some(id);
                break;
            }
        }
        assert!(peer.is_some(), "k=10 bucket has other members");
    }

    #[test]
    fn no_privacy_short_circuit_and_unknown_user() {
        let c = populated();
        assert_eq!(c.cloak(5, &CloakRequirement::none()).unwrap().area(), 0.0);
        assert!(matches!(
            c.cloak(1000, &CloakRequirement::k_only(2)),
            Err(CloakError::UnknownUser(1000))
        ));
    }

    #[test]
    fn bucket_range_math() {
        // n=25, k=10: ranks 0..9 -> [0,10), 10..24 -> [10,25).
        assert_eq!(HilbertCloak::bucket_range(25, 10, 0), (0, 10));
        assert_eq!(HilbertCloak::bucket_range(25, 10, 9), (0, 10));
        assert_eq!(HilbertCloak::bucket_range(25, 10, 10), (10, 25));
        assert_eq!(HilbertCloak::bucket_range(25, 10, 24), (10, 25));
        // Exact division.
        assert_eq!(HilbertCloak::bucket_range(20, 10, 19), (10, 20));
        // n == k: one bucket.
        assert_eq!(HilbertCloak::bucket_range(10, 10, 3), (0, 10));
    }
}
