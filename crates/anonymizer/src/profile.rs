//! Privacy profiles of mobile users (Sec. 4 and Fig. 2).
//!
//! A profile is an ordered list of entries, each binding a time-of-day
//! interval to a `(k, A_min, A_max)` requirement. Resolution picks the
//! first entry whose interval contains the query time, falling back to a
//! no-privacy default — mirroring how a user who specified nothing shares
//! their exact location (the pre-privacy status quo the paper describes).
//!
//! In the paper a profile travels from the mobile user to the anonymizer
//! at registration time, and "mobile users have the ability to change
//! their privacy profiles at any time" — a second
//! [`crate::LocationAnonymizer::register`] replaces it. Here the only encoding
//! of a whole profile is `lbsp-core`'s codec (`Put` / `Get for
//! PrivacyProfile`), which the journal and its snapshots use. A socket
//! client's `REGISTER` frame carries a single `(k, A_min, A_max)`
//! requirement, which becomes a uniform profile. No serializer reads the
//! `serde` derives below.

use crate::{CloakError, CloakRequirement};
use lbsp_geom::{TimeInterval, TimeOfDay};
use serde::{Deserialize, Serialize};

/// One row of a privacy profile (one row of the table in Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// When this entry applies.
    pub interval: TimeInterval,
    /// The requirement in force during the interval.
    pub requirement: CloakRequirement,
}

/// A mobile user's privacy profile: temporal entries plus a default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacyProfile {
    entries: Vec<ProfileEntry>,
    /// Requirement used when no entry matches.
    default: CloakRequirement,
}

impl Default for PrivacyProfile {
    /// The no-privacy profile (k = 1, no area constraints) — what a user
    /// who registers directly with the server effectively has.
    fn default() -> Self {
        PrivacyProfile {
            entries: Vec::new(),
            default: CloakRequirement::none(),
        }
    }
}

impl PrivacyProfile {
    /// A profile with one requirement at all times.
    pub fn uniform(req: CloakRequirement) -> Result<PrivacyProfile, CloakError> {
        req.validate()?;
        Ok(PrivacyProfile {
            entries: Vec::new(),
            default: req,
        })
    }

    /// Builds a profile from entries and a default requirement,
    /// validating every requirement.
    pub fn new(
        entries: Vec<ProfileEntry>,
        default: CloakRequirement,
    ) -> Result<PrivacyProfile, CloakError> {
        default.validate()?;
        for e in &entries {
            e.requirement.validate()?;
        }
        Ok(PrivacyProfile { entries, default })
    }

    /// The exact example profile of Fig. 2, expressed in a world where
    /// one unit of area is one square mile:
    ///
    /// | Time              | k    | Min. Area | Max. Area |
    /// |-------------------|------|-----------|-----------|
    /// | 8:00 AM – 5:00 PM | 1    | —         | —         |
    /// | 5:00 PM – 10:00 PM| 100  | 1 mile    | 3 miles   |
    /// | 10:00 PM – 8:00 AM| 1000 | 5 miles   | —         |
    ///
    /// ```
    /// use lbsp_anonymizer::PrivacyProfile;
    /// use lbsp_geom::TimeOfDay;
    ///
    /// let p = PrivacyProfile::paper_example();
    /// assert_eq!(p.requirement_at(TimeOfDay::new(12, 0).unwrap()).k, 1);
    /// assert_eq!(p.requirement_at(TimeOfDay::new(19, 0).unwrap()).k, 100);
    /// assert_eq!(p.requirement_at(TimeOfDay::new(3, 0).unwrap()).k, 1000);
    /// ```
    pub fn paper_example() -> PrivacyProfile {
        let tod = |h: u32| TimeOfDay::new(h, 0).expect("static valid time");
        PrivacyProfile {
            entries: vec![
                ProfileEntry {
                    interval: TimeInterval::new(tod(8), tod(17)),
                    requirement: CloakRequirement::none(),
                },
                ProfileEntry {
                    interval: TimeInterval::new(tod(17), tod(22)),
                    requirement: CloakRequirement {
                        k: 100,
                        a_min: 1.0,
                        a_max: 3.0,
                    },
                },
                ProfileEntry {
                    interval: TimeInterval::new(tod(22), tod(8)),
                    requirement: CloakRequirement {
                        k: 1000,
                        a_min: 5.0,
                        a_max: f64::INFINITY,
                    },
                },
            ],
            default: CloakRequirement::none(),
        }
    }

    /// The profile's entries.
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// The fallback requirement.
    pub fn default_requirement(&self) -> CloakRequirement {
        self.default
    }

    /// Resolves the requirement in force at clock time `t` (first
    /// matching entry wins).
    pub fn requirement_at(&self, t: TimeOfDay) -> CloakRequirement {
        self.entries
            .iter()
            .find(|e| e.interval.contains(t))
            .map(|e| e.requirement)
            .unwrap_or(self.default)
    }

    /// `true` when some entry (or the default) requests privacy.
    pub fn ever_wants_privacy(&self) -> bool {
        self.default.wants_privacy() || self.entries.iter().any(|e| e.requirement.wants_privacy())
    }

    /// The largest `k` across all entries — what the anonymizer may use
    /// for capacity planning / billing ("charge the mobile users based on
    /// their required protection level", Sec. 5).
    pub fn max_k(&self) -> u32 {
        self.entries
            .iter()
            .map(|e| e.requirement.k)
            .chain(std::iter::once(self.default.k))
            .max()
            .unwrap_or(1)
    }

    /// Minutes of the day covered by *no* entry (and therefore served by
    /// the default requirement). Useful to audit a schedule before
    /// registration: a user who meant to be covered around the clock can
    /// check `coverage_gap_minutes() == 0`.
    pub fn coverage_gap_minutes(&self) -> u32 {
        (0..lbsp_geom::MINUTES_PER_DAY)
            .filter(|&m| {
                let t = TimeOfDay::from_minutes(m);
                !self.entries.iter().any(|e| e.interval.contains(t))
            })
            .count() as u32
    }

    /// Minutes of the day claimed by more than one entry. Overlaps are
    /// legal (first match wins) but usually a profile-authoring mistake
    /// worth surfacing.
    pub fn overlap_minutes(&self) -> u32 {
        (0..lbsp_geom::MINUTES_PER_DAY)
            .filter(|&m| {
                let t = TimeOfDay::from_minutes(m);
                self.entries
                    .iter()
                    .filter(|e| e.interval.contains(t))
                    .count()
                    > 1
            })
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tod(h: u32, m: u32) -> TimeOfDay {
        TimeOfDay::new(h, m).unwrap()
    }

    #[test]
    fn default_profile_is_no_privacy() {
        let p = PrivacyProfile::default();
        assert_eq!(p.requirement_at(tod(12, 0)), CloakRequirement::none());
        assert!(!p.ever_wants_privacy());
        assert_eq!(p.max_k(), 1);
    }

    #[test]
    fn paper_example_resolves_each_period() {
        let p = PrivacyProfile::paper_example();
        // Daytime: exact location is fine.
        let day = p.requirement_at(tod(12, 0));
        assert_eq!(day.k, 1);
        assert!(!day.wants_privacy());
        // Evening: moderate privacy with both area bounds.
        let evening = p.requirement_at(tod(19, 30));
        assert_eq!(evening.k, 100);
        assert_eq!(evening.a_min, 1.0);
        assert_eq!(evening.a_max, 3.0);
        // Night (wraps midnight): restrictive.
        for t in [tod(23, 0), tod(2, 0), tod(7, 59)] {
            let night = p.requirement_at(t);
            assert_eq!(night.k, 1000);
            assert_eq!(night.a_min, 5.0);
            assert!(night.a_max.is_infinite());
        }
        // Boundaries: 8:00 belongs to the day entry, 17:00 to evening,
        // 22:00 to night (half-open intervals).
        assert_eq!(p.requirement_at(tod(8, 0)).k, 1);
        assert_eq!(p.requirement_at(tod(17, 0)).k, 100);
        assert_eq!(p.requirement_at(tod(22, 0)).k, 1000);
        assert!(p.ever_wants_privacy());
        assert_eq!(p.max_k(), 1000);
    }

    #[test]
    fn first_matching_entry_wins() {
        let e1 = ProfileEntry {
            interval: TimeInterval::all_day(),
            requirement: CloakRequirement::k_only(10),
        };
        let e2 = ProfileEntry {
            interval: TimeInterval::all_day(),
            requirement: CloakRequirement::k_only(20),
        };
        let p = PrivacyProfile::new(vec![e1, e2], CloakRequirement::none()).unwrap();
        assert_eq!(p.requirement_at(tod(0, 0)).k, 10);
    }

    #[test]
    fn invalid_entries_rejected() {
        let bad = ProfileEntry {
            interval: TimeInterval::all_day(),
            requirement: CloakRequirement {
                k: 0,
                a_min: 0.0,
                a_max: 1.0,
            },
        };
        assert!(PrivacyProfile::new(vec![bad], CloakRequirement::none()).is_err());
        assert!(PrivacyProfile::uniform(CloakRequirement {
            k: 5,
            a_min: 3.0,
            a_max: 1.0
        })
        .is_err());
    }

    #[test]
    fn uniform_profile_applies_everywhere() {
        let p = PrivacyProfile::uniform(CloakRequirement::k_only(50)).unwrap();
        assert_eq!(p.requirement_at(tod(0, 0)).k, 50);
        assert_eq!(p.requirement_at(tod(13, 37)).k, 50);
        assert_eq!(p.max_k(), 50);
    }

    #[test]
    fn schedule_auditing() {
        // The paper's example tiles the day exactly.
        let p = PrivacyProfile::paper_example();
        assert_eq!(p.coverage_gap_minutes(), 0);
        assert_eq!(p.overlap_minutes(), 0);
        // A lone 9-17 entry leaves 16 hours uncovered.
        let nine_to_five = PrivacyProfile::new(
            vec![ProfileEntry {
                interval: TimeInterval::new(tod(9, 0), tod(17, 0)),
                requirement: CloakRequirement::k_only(10),
            }],
            CloakRequirement::none(),
        )
        .unwrap();
        assert_eq!(nine_to_five.coverage_gap_minutes(), 16 * 60);
        assert_eq!(nine_to_five.overlap_minutes(), 0);
        // Two overlapping entries are flagged.
        let overlapping = PrivacyProfile::new(
            vec![
                ProfileEntry {
                    interval: TimeInterval::new(tod(9, 0), tod(17, 0)),
                    requirement: CloakRequirement::k_only(10),
                },
                ProfileEntry {
                    interval: TimeInterval::new(tod(16, 0), tod(18, 0)),
                    requirement: CloakRequirement::k_only(20),
                },
            ],
            CloakRequirement::none(),
        )
        .unwrap();
        assert_eq!(overlapping.overlap_minutes(), 60);
        // An empty profile is all gap.
        assert_eq!(
            PrivacyProfile::default().coverage_gap_minutes(),
            lbsp_geom::MINUTES_PER_DAY
        );
    }

    #[test]
    fn profiles_serialize_roundtrip() {
        // Profiles travel from user to anonymizer; make sure serde works.
        // (Use a non-infinite a_max: JSON cannot represent infinity.)
        let p = PrivacyProfile::new(
            vec![ProfileEntry {
                interval: TimeInterval::new(tod(9, 0), tod(18, 0)),
                requirement: CloakRequirement {
                    k: 42,
                    a_min: 0.5,
                    a_max: 2.0,
                },
            }],
            CloakRequirement::none(),
        )
        .unwrap();
        // serde_json is not in the allowed dependency set; round-trip via
        // the Debug/PartialEq contract on a clone instead.
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(q.entries().len(), 1);
    }
}
