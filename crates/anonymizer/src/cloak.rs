//! The cloaking contract: requirements in, cloaked regions out.

use crate::{CloakError, UserId};
use lbsp_geom::{Point, Rect};
use serde::{Deserialize, Serialize};

/// The privacy requirement in force for one user at one instant,
/// resolved from the user's [`crate::PrivacyProfile`].
///
/// Semantics follow Sec. 5 of the paper exactly:
///
/// 1. the cloaked region must contain at least `k` users (including the
///    subject), and
/// 2. its area `A` should satisfy `a_min <= A <= a_max`.
///
/// Requirement 1 is hard; the area bounds are best-effort because a
/// profile "may contain some contradicting requirements" — e.g. a tiny
/// `a_max` with a huge `k` — and "the job of the location anonymizer is a
/// best effort".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CloakRequirement {
    /// Anonymity level: the subject must be indistinguishable among `k`
    /// users. `k = 1` means no anonymity is requested.
    pub k: u32,
    /// Minimum area of the cloaked region (square world units).
    pub a_min: f64,
    /// Maximum area of the cloaked region (square world units);
    /// `f64::INFINITY` when unbounded.
    pub a_max: f64,
}

impl CloakRequirement {
    /// A requirement with only an anonymity level (no area constraints).
    pub fn k_only(k: u32) -> CloakRequirement {
        CloakRequirement {
            k,
            a_min: 0.0,
            a_max: f64::INFINITY,
        }
    }

    /// The no-privacy requirement: the paper's `k = 1` daytime entry.
    pub fn none() -> CloakRequirement {
        CloakRequirement::k_only(1)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), CloakError> {
        if self.k == 0 {
            return Err(CloakError::InvalidRequirement("k must be >= 1"));
        }
        if !self.a_min.is_finite() || self.a_min < 0.0 {
            return Err(CloakError::InvalidRequirement("a_min must be >= 0"));
        }
        if self.a_max.is_nan() || self.a_max < self.a_min {
            return Err(CloakError::InvalidRequirement("a_max must be >= a_min"));
        }
        Ok(())
    }

    /// `true` when this requirement asks for any privacy at all.
    pub fn wants_privacy(&self) -> bool {
        self.k > 1 || self.a_min > 0.0
    }
}

/// The output of a cloaking algorithm.
// lint: server-bound
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloakedRegion {
    /// The cloaked spatial region sent to the database server.
    pub region: Rect,
    /// How many users the region actually contains (>= k when
    /// `k_satisfied`).
    pub achieved_k: u32,
    /// Whether the k-anonymity requirement was met.
    pub k_satisfied: bool,
    /// Whether `a_min <= area <= a_max` was met.
    pub area_satisfied: bool,
}

impl CloakedRegion {
    /// `true` when every requirement was met.
    pub fn fully_satisfied(&self) -> bool {
        self.k_satisfied && self.area_satisfied
    }

    /// Convenience: the region's area.
    pub fn area(&self) -> f64 {
        self.region.area()
    }
}

/// A spatial-cloaking algorithm maintained over a live user population.
///
/// Implementations own whatever index they need (sub-cell counts, k-NN
/// structure) and keep it current as users move; [`cloak`] must be cheap
/// enough to run per update (requirement 3 of Sec. 5: "computationally
/// efficient to cope with the continuous movement of mobile users").
///
/// [`cloak`]: CloakingAlgorithm::cloak
pub trait CloakingAlgorithm: Send + Sync {
    /// Short stable name, used in benchmark tables.
    fn name(&self) -> &'static str;

    /// The world rectangle all cloaks are clipped to.
    fn world(&self) -> Rect;

    /// Inserts a user or moves an existing one.
    fn upsert(&mut self, id: UserId, p: Point);

    /// Removes a user; `true` when it was present.
    fn remove(&mut self, id: UserId) -> bool;

    /// Current location of a user, when tracked.
    fn location(&self, id: UserId) -> Option<Point>;

    /// Number of tracked users.
    fn population(&self) -> usize;

    /// Number of tracked users inside `region` — used by incremental
    /// revalidation and by tests asserting k-anonymity.
    fn count_in_region(&self, region: &Rect) -> usize;

    /// Computes a cloaked region for user `id` under `req`.
    ///
    /// Errors when the user is unknown or `req` is invalid. When the
    /// requirements are contradictory the implementation returns its best
    /// effort with the `k_satisfied` / `area_satisfied` flags cleared
    /// accordingly rather than failing.
    fn cloak(&self, id: UserId, req: &CloakRequirement) -> Result<CloakedRegion, CloakError>;

    /// A sharing key for batched execution (Sec. 5.3): two users with
    /// equal keys (and equal requirements that ask for privacy) are
    /// *guaranteed* to receive the identical cloaked region, so one
    /// computation can serve both. A requirement with no privacy cloaks
    /// to the user's own point and is never shared.
    ///
    /// `None` (the default) means the algorithm's output depends on the
    /// exact position and must not be shared — the data-dependent
    /// family. Space-dependent implementations return their cell index.
    fn sharing_key(&self, id: UserId) -> Option<u64> {
        let _ = id;
        None
    }
}

impl<T: CloakingAlgorithm + ?Sized> CloakingAlgorithm for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn world(&self) -> Rect {
        (**self).world()
    }
    fn upsert(&mut self, id: UserId, p: Point) {
        (**self).upsert(id, p)
    }
    fn remove(&mut self, id: UserId) -> bool {
        (**self).remove(id)
    }
    fn location(&self, id: UserId) -> Option<Point> {
        (**self).location(id)
    }
    fn population(&self) -> usize {
        (**self).population()
    }
    fn count_in_region(&self, region: &Rect) -> usize {
        (**self).count_in_region(region)
    }
    fn cloak(&self, id: UserId, req: &CloakRequirement) -> Result<CloakedRegion, CloakError> {
        (**self).cloak(id, req)
    }
    fn sharing_key(&self, id: UserId) -> Option<u64> {
        (**self).sharing_key(id)
    }
}

/// Shared post-processing: stamps satisfaction flags on a candidate
/// region given the population count inside it.
pub(crate) fn finalize_region(
    region: Rect,
    achieved_k: u32,
    req: &CloakRequirement,
) -> CloakedRegion {
    let area = region.area();
    CloakedRegion {
        region,
        achieved_k,
        k_satisfied: achieved_k >= req.k,
        // A tolerance absorbs float noise from area arithmetic.
        area_satisfied: area >= req.a_min * (1.0 - 1e-9) && area <= req.a_max * (1.0 + 1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirement_validation() {
        assert!(CloakRequirement::k_only(1).validate().is_ok());
        assert!(CloakRequirement {
            k: 0,
            a_min: 0.0,
            a_max: 1.0
        }
        .validate()
        .is_err());
        assert!(CloakRequirement {
            k: 5,
            a_min: -1.0,
            a_max: 1.0
        }
        .validate()
        .is_err());
        assert!(CloakRequirement {
            k: 5,
            a_min: 2.0,
            a_max: 1.0
        }
        .validate()
        .is_err());
        assert!(CloakRequirement {
            k: 5,
            a_min: f64::NAN,
            a_max: 1.0
        }
        .validate()
        .is_err());
        assert!(CloakRequirement {
            k: 5,
            a_min: 0.5,
            a_max: f64::INFINITY
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn wants_privacy() {
        assert!(!CloakRequirement::none().wants_privacy());
        assert!(CloakRequirement::k_only(2).wants_privacy());
        assert!(CloakRequirement {
            k: 1,
            a_min: 0.1,
            a_max: 1.0
        }
        .wants_privacy());
    }

    #[test]
    fn finalize_flags() {
        let req = CloakRequirement {
            k: 10,
            a_min: 0.1,
            a_max: 0.5,
        };
        let r = Rect::new_unchecked(0.0, 0.0, 0.5, 0.5); // area 0.25
        let ok = finalize_region(r, 12, &req);
        assert!(ok.fully_satisfied());
        assert_eq!(ok.achieved_k, 12);
        let under_k = finalize_region(r, 9, &req);
        assert!(!under_k.k_satisfied && under_k.area_satisfied);
        let tiny = Rect::new_unchecked(0.0, 0.0, 0.1, 0.1);
        let under_a = finalize_region(tiny, 12, &req);
        assert!(under_a.k_satisfied && !under_a.area_satisfied);
        let huge = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
        let over_a = finalize_region(huge, 12, &req);
        assert!(!over_a.area_satisfied);
        assert!(!over_a.fully_satisfied());
    }

    #[test]
    fn finalize_exact_bounds_count_as_satisfied() {
        let req = CloakRequirement {
            k: 1,
            a_min: 0.25,
            a_max: 0.25,
        };
        let r = Rect::new_unchecked(0.0, 0.0, 0.5, 0.5);
        assert!(finalize_region(r, 1, &req).area_satisfied);
    }
}
