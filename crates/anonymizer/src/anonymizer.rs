//! The Location Anonymizer service (Fig. 1).
//!
//! The trusted third party: mobile users register with a privacy profile,
//! stream exact location updates in, and cloaked — pseudonymized —
//! regions come out the other side toward the database server. Nothing
//! that leaves this component carries an exact location or a true user
//! identity (unless the profile says `k = 1`, the paper's opt-out).

use crate::cloak::{CloakRequirement, CloakedRegion, CloakingAlgorithm};
use crate::{CloakError, PrivacyProfile, UserId};
use lbsp_geom::{Point, Rect, SimTime};
use std::collections::HashMap;

/// An opaque identifier that replaces the true user id on everything
/// sent to the database server ("hide the query identity", Sec. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pseudonym(pub u64);

/// A cloaked location update, as forwarded to the database server.
// lint: server-bound
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloakedUpdate {
    /// Pseudonymized identity.
    pub pseudonym: Pseudonym,
    /// The cloaked spatial region (never the exact point unless k = 1
    /// with no area requirement).
    pub region: CloakedRegion,
    /// Update timestamp.
    pub time: SimTime,
}

/// A cloaked query context, attached to spatio-temporal queries issued
/// by mobile users.
// lint: server-bound
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloakedQuery {
    /// Pseudonymized identity of the querying user.
    pub pseudonym: Pseudonym,
    /// The region standing in for the user's location.
    pub region: CloakedRegion,
    /// Query timestamp.
    pub time: SimTime,
}

/// The anonymizer: profile registry + cloaking algorithm + pseudonyms.
///
/// Generic over the cloaking algorithm so experiments can swap the four
/// variants of Sec. 5 without touching the pipeline.
pub struct LocationAnonymizer<A> {
    algo: A,
    profiles: HashMap<UserId, PrivacyProfile>,
    secret: u64,
}

/// Redacting formatter: the pseudonym secret must never reach a log
/// line, and the algorithm state holds exact user locations, so neither
/// is printed (a derived impl would leak both).
impl<A> std::fmt::Debug for LocationAnonymizer<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocationAnonymizer")
            .field("registered", &self.profiles.len())
            .field("secret", &"<redacted>")
            .finish_non_exhaustive()
    }
}

impl<A: CloakingAlgorithm> LocationAnonymizer<A> {
    /// Creates the service around a cloaking algorithm. `secret` keys
    /// the pseudonym mapping; the database server never learns it.
    pub fn new(algo: A, secret: u64) -> LocationAnonymizer<A> {
        LocationAnonymizer {
            algo,
            profiles: HashMap::new(),
            secret,
        }
    }

    /// The underlying cloaking algorithm (read access).
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// The world rectangle.
    pub fn world(&self) -> Rect {
        self.algo.world()
    }

    /// Number of registered users.
    pub fn registered(&self) -> usize {
        self.profiles.len()
    }

    /// Registers a user with a privacy profile (Sec. 4: "upon
    /// registration with the location anonymizer, mobile users should
    /// indicate their initial privacy profile"), or replaces the profile
    /// of a registered user ("mobile users have the ability to change
    /// their privacy profiles at any time").
    pub fn register(&mut self, id: UserId, profile: PrivacyProfile) {
        self.profiles.insert(id, profile);
    }

    /// The requirement in force for a user at time `t`.
    pub fn requirement_at(&self, id: UserId, t: SimTime) -> Result<CloakRequirement, CloakError> {
        let profile = self.profiles.get(&id).ok_or(CloakError::UnknownUser(id))?;
        Ok(profile.requirement_at(t.time_of_day()))
    }

    /// Stable pseudonym for a user, keyed by the anonymizer's secret.
    ///
    /// splitmix64 over `secret ^ id` — a keyed bijection on u64, so
    /// pseudonyms never collide and cannot be inverted without the
    /// secret.
    pub fn pseudonym(&self, id: UserId) -> Pseudonym {
        let mut z = self.secret ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Pseudonym(z ^ (z >> 31))
    }

    /// Processes one exact location update from an *active mode* user:
    /// updates the index, resolves the profile for the current time of
    /// day, cloaks, and emits what the database server is allowed to see.
    pub fn handle_update(
        &mut self,
        id: UserId,
        position: Point,
        time: SimTime,
    ) -> Result<CloakedUpdate, CloakError> {
        let req = {
            let profile = self.profiles.get(&id).ok_or(CloakError::UnknownUser(id))?;
            profile.requirement_at(time.time_of_day())
        };
        self.algo.upsert(id, position);
        let region = self.algo.cloak(id, &req)?;
        Ok(CloakedUpdate {
            pseudonym: self.pseudonym(id),
            region,
            time,
        })
    }

    /// Processes a whole tick of location updates at once, sharing cloak
    /// computations between users whose algorithm guarantees identical
    /// output ([`CloakingAlgorithm::sharing_key`]) — the shared-execution
    /// idea of Sec. 5.3 at the service layer.
    ///
    /// Results are in input order. Data-dependent algorithms (no sharing
    /// key) degrade gracefully to per-user cloaking, and so does a row
    /// that asks for no privacy: its region is its own point.
    pub fn handle_updates_batch(
        &mut self,
        updates: &[(UserId, Point, SimTime)],
    ) -> Vec<Result<CloakedUpdate, CloakError>> {
        // Phase 1: apply all position updates and resolve requirements.
        let mut reqs: Vec<Result<CloakRequirement, CloakError>> = Vec::with_capacity(updates.len());
        for &(id, position, time) in updates {
            match self.profiles.get(&id) {
                None => reqs.push(Err(CloakError::UnknownUser(id))),
                Some(profile) => {
                    self.algo.upsert(id, position);
                    reqs.push(Ok(profile.requirement_at(time.time_of_day())));
                }
            }
        }
        // Phase 2: one cloak per (sharing key, requirement) group.
        let mut cache: HashMap<(u64, u32, u64, u64), Result<CloakedRegion, CloakError>> =
            HashMap::new();
        updates
            .iter()
            .zip(reqs)
            .map(|(&(id, _, time), req)| {
                let req = req?;
                let key = req.wants_privacy().then(|| self.algo.sharing_key(id));
                let region = match key.flatten() {
                    Some(key) => cache
                        .entry((key, req.k, req.a_min.to_bits(), req.a_max.to_bits()))
                        .or_insert_with(|| self.algo.cloak(id, &req))
                        .clone()?,
                    None => self.algo.cloak(id, &req)?,
                };
                Ok(CloakedUpdate {
                    pseudonym: self.pseudonym(id),
                    region,
                    time,
                })
            })
            .collect()
    }

    /// Cloaks the context for a query issued by a *query mode* user.
    /// Requires the user to have sent at least one location update.
    pub fn cloak_query(&self, id: UserId, time: SimTime) -> Result<CloakedQuery, CloakError> {
        let profile = self.profiles.get(&id).ok_or(CloakError::UnknownUser(id))?;
        let req = profile.requirement_at(time.time_of_day());
        let region = self.algo.cloak(id, &req)?;
        Ok(CloakedQuery {
            pseudonym: self.pseudonym(id),
            region,
            time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridCloak, QuadCloak};

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn service() -> LocationAnonymizer<QuadCloak> {
        let mut a = LocationAnonymizer::new(QuadCloak::new(world(), 5), 0xDEADBEEF);
        for i in 0..100u64 {
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            a.register(
                i,
                PrivacyProfile::uniform(CloakRequirement::k_only(10)).unwrap(),
            );
            a.handle_update(i, Point::new(x, y), SimTime::ZERO).unwrap();
        }
        a
    }

    #[test]
    fn update_produces_k_anonymous_region() {
        let mut a = service();
        let u = a
            .handle_update(55, Point::new(0.55, 0.55), SimTime::from_hours(1.0))
            .unwrap();
        assert!(u.region.k_satisfied);
        assert!(u.region.achieved_k >= 10);
        assert!(u.region.region.contains_point(Point::new(0.55, 0.55)));
        assert_ne!(u.pseudonym.0, 55, "true id never leaves the anonymizer");
    }

    #[test]
    fn pseudonyms_are_stable_and_distinct() {
        let a = service();
        assert_eq!(a.pseudonym(1), a.pseudonym(1));
        let mut seen = std::collections::HashSet::new();
        for id in 0..1000u64 {
            assert!(seen.insert(a.pseudonym(id)), "collision at {id}");
        }
        // Different secrets give different pseudonym spaces.
        let b = LocationAnonymizer::new(QuadCloak::new(world(), 3), 42);
        assert_ne!(a.pseudonym(1), b.pseudonym(1));
    }

    #[test]
    fn unknown_user_paths() {
        let mut a = LocationAnonymizer::new(GridCloak::new(world(), 4), 7);
        assert!(matches!(
            a.handle_update(1, Point::ORIGIN, SimTime::ZERO),
            Err(CloakError::UnknownUser(1))
        ));
        assert!(matches!(
            a.cloak_query(1, SimTime::ZERO),
            Err(CloakError::UnknownUser(1))
        ));
        // Registered but never sent an update: query fails inside cloak.
        a.register(1, PrivacyProfile::default());
        assert!(matches!(
            a.cloak_query(1, SimTime::ZERO),
            Err(CloakError::UnknownUser(1))
        ));
    }

    #[test]
    fn temporal_profile_switches_requirement() {
        let mut a = LocationAnonymizer::new(QuadCloak::new(world(), 5), 9);
        for i in 0..100u64 {
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            a.register(i, PrivacyProfile::paper_example());
            a.handle_update(i, Point::new(x, y), SimTime::ZERO).unwrap();
        }
        // Noon: k = 1, exact point.
        let noon = a
            .handle_update(55, Point::new(0.55, 0.55), SimTime::from_hours(12.0))
            .unwrap();
        assert_eq!(noon.region.area(), 0.0);
        // 7 PM: k = 100 with area in [1, 3] — only the whole unit world
        // (area exactly 1) satisfies both, and it does.
        let evening = a
            .handle_update(55, Point::new(0.55, 0.55), SimTime::from_hours(19.0))
            .unwrap();
        assert!(evening.region.achieved_k >= 100);
        assert!(evening.region.fully_satisfied());
        assert!((evening.region.area() - 1.0).abs() < 1e-9);
        // Requirement resolution helper agrees.
        assert_eq!(
            a.requirement_at(55, SimTime::from_hours(19.0)).unwrap().k,
            100
        );
    }

    #[test]
    fn a_second_register_replaces_the_profile() {
        let mut a = service();
        a.register(
            3,
            PrivacyProfile::uniform(CloakRequirement::k_only(50)).unwrap(),
        );
        let q = a.cloak_query(3, SimTime::ZERO).unwrap();
        assert!(q.region.achieved_k >= 50);
        assert_eq!(a.registered(), 100);
    }

    #[test]
    fn batch_updates_match_individual_updates() {
        let mut a = service();
        let mut b = service();
        let updates: Vec<(u64, Point, SimTime)> = (0..100u64)
            .map(|i| {
                let x = 0.06 + 0.1 * (i % 10) as f64;
                let y = 0.06 + 0.1 * (i / 10) as f64;
                (i, Point::new(x, y), SimTime::from_secs(60.0))
            })
            .collect();
        // Individual path.
        let individual: Vec<_> = updates
            .iter()
            .map(|&(id, p, t)| a.handle_update(id, p, t).unwrap())
            .collect();
        // Batched path.
        let batched = b.handle_updates_batch(&updates);
        for (ind, bat) in individual.iter().zip(&batched) {
            let bat = bat.as_ref().unwrap();
            assert_eq!(ind.pseudonym, bat.pseudonym);
            assert_eq!(ind.region.region, bat.region.region);
        }
    }

    #[test]
    fn batch_reports_unknown_users_in_place() {
        let mut a = service();
        let out = a.handle_updates_batch(&[
            (1, Point::new(0.5, 0.5), SimTime::ZERO),
            (5000, Point::new(0.5, 0.5), SimTime::ZERO),
        ]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(CloakError::UnknownUser(5000))));
    }

    /// Two users who ask for no privacy, in one cell and one batch: each
    /// is reported at its own point, never at the other's.
    fn no_privacy_batch_reports_each_user_at_its_own_point<A: CloakingAlgorithm>(algo: A) {
        let mut a = LocationAnonymizer::new(algo, 3);
        let none = PrivacyProfile::uniform(CloakRequirement::none()).unwrap();
        let rows = [
            (1, Point::new(0.01, 0.01), SimTime::ZERO),
            (2, Point::new(0.02, 0.02), SimTime::ZERO),
        ];
        for &(id, _, _) in &rows {
            a.register(id, none.clone());
        }
        for (got, &(id, p, _)) in a.handle_updates_batch(&rows).iter().zip(&rows) {
            let got = got.as_ref().unwrap().region;
            assert_eq!(got.region, Rect::from_point(p), "user {id}");
            assert_eq!(got.achieved_k, 1, "user {id}");
        }
    }

    #[test]
    fn no_privacy_rows_do_not_share_a_cloak() {
        no_privacy_batch_reports_each_user_at_its_own_point(GridCloak::new(world(), 4));
        no_privacy_batch_reports_each_user_at_its_own_point(QuadCloak::new(world(), 4));
    }

    #[test]
    fn sharing_keys_are_sound_for_space_dependent_algorithms() {
        // The contract: equal sharing keys + equal requirements =>
        // identical cloaks. Verify on the quad cloak directly.
        let a = service();
        let algo = a.algorithm();
        let req = CloakRequirement::k_only(10);
        for i in 0..100u64 {
            for j in (i + 1)..100u64 {
                if algo.sharing_key(i) == algo.sharing_key(j) {
                    assert_eq!(
                        algo.cloak(i, &req).unwrap().region,
                        algo.cloak(j, &req).unwrap().region,
                        "users {i} and {j} share a key but not a region"
                    );
                }
            }
        }
    }

    #[test]
    fn query_mode_without_fresh_update_uses_last_position() {
        let a = service();
        let q = a.cloak_query(7, SimTime::ZERO).unwrap();
        assert!(q.region.k_satisfied);
        assert!(q
            .region
            .region
            .contains_point(a.algorithm().location(7).unwrap()));
    }
}
