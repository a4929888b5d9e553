//! The end-to-end privacy-aware system (Fig. 1).

use crate::journal::{Durability, DurabilitySink, DurableHook, EngineOp, JournalRecord};
use crate::obs::{MetricsRegistry, Stage};
use crate::standing::{StandingPrivateRanges, StandingQueryId};
use crate::{MobileUser, UserId, UserMode};
use lbsp_anonymizer::{
    CloakError, CloakedUpdate, CloakingAlgorithm, LocationAnonymizer, PrivacyProfile,
};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_server::{
    refine_knn, refine_nn, refine_range, ContinuousRangeCount, CountAnswer,
    PrivatePrivateCountAnswer, PrivatePrivateNnAnswer, PrivateStore, PublicNnAnswer, PublicObject,
    PublicStore, Server, ServerStats,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Outcome of a private range query, including both what the server
/// returned and what the client refined it to.
#[derive(Debug, Clone)]
pub struct RangeQueryOutcome {
    /// Candidates the server sent back (the QoS cost).
    pub candidates: Vec<PublicObject>,
    /// Exact answer after client-side refinement.
    pub exact: Vec<PublicObject>,
    /// The cloaked region the server saw.
    pub cloak: Rect,
}

/// Outcome of a private NN query.
#[derive(Debug, Clone)]
pub struct NnQueryOutcome {
    /// Candidates the server sent back.
    pub candidates: Vec<PublicObject>,
    /// The true nearest neighbor after client-side refinement.
    pub exact: Option<PublicObject>,
    /// The cloaked region the server saw.
    pub cloak: Rect,
}

/// The assembled system: anonymizer + database server + user registry.
///
/// The struct owns both sides of the trust boundary purely for
/// simulation convenience; all data flow between them goes through the
/// same typed interfaces a distributed deployment would use (see
/// [`crate::wire`]).
pub struct PrivacyAwareSystem<A> {
    anonymizer: LocationAnonymizer<A>,
    server: Server,
    standing_ranges: StandingPrivateRanges,
    users: HashMap<UserId, MobileUser>,
    /// Device-side state: each user's last exact position ("the GPS").
    device_positions: HashMap<UserId, Point>,
    /// QoS / performance instrumentation: the unified streaming
    /// registry (per-stage timing histograms, cloak area / achieved k /
    /// candidate-set histograms, cloak-failure counters) — same registry
    /// type the sharded engine and the network front-end feed.
    obs: Arc<MetricsRegistry>,
    /// Optional write-ahead journal. Unlike the sharded engine, the
    /// system never takes snapshots: the cloaking algorithm `A` is an
    /// opaque type parameter whose internal state has no canonical byte
    /// form, so recovery is always a full-log replay (the log is
    /// deterministic, so replay converges to the identical system).
    durable: Option<DurableHook>,
}

impl<A: CloakingAlgorithm> PrivacyAwareSystem<A> {
    /// Assembles the system from a cloaking algorithm and public data.
    pub fn new(algo: A, anonymizer_secret: u64, public_objects: Vec<PublicObject>) -> Self {
        PrivacyAwareSystem {
            anonymizer: LocationAnonymizer::new(algo, anonymizer_secret),
            server: Server::new(public_objects),
            standing_ranges: StandingPrivateRanges::new(),
            users: HashMap::new(),
            device_positions: HashMap::new(),
            obs: Arc::new(MetricsRegistry::new()),
            durable: None,
        }
    }

    /// The system's observability registry.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Attaches a write-ahead journal: every logical mutation is logged
    /// before it is applied. The caller writes the leading
    /// [`JournalRecord::InitSystem`] record on a fresh log and replays
    /// an existing one through [`Self::apply_op`] *before* attaching.
    /// The system never snapshots (see the `durable` field docs), so
    /// `policy.snapshot_every` is ignored here.
    pub fn attach_durability(&mut self, policy: Durability, sink: Box<dyn DurabilitySink>) {
        self.durable = Some(DurableHook::new(policy, sink));
    }

    /// Whether a durability sink is attached.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Journals one logical mutation (write-ahead). Failures are
    /// fail-stop: continuing past a lost journal write would let the
    /// system silently diverge from its log.
    fn journal_op(&mut self, build: impl FnOnce() -> EngineOp) {
        if self.durable.is_none() {
            return;
        }
        let rec = JournalRecord::Op(build());
        let hook = self.durable.as_mut().expect("durability checked above");
        let start = Instant::now();
        hook.append(&rec).expect("durability: WAL append failed");
        self.obs
            .stage(Stage::WalAppend)
            .record_duration(start.elapsed());
        if hook.policy().fsync {
            let start = Instant::now();
            hook.sync().expect("durability: WAL fsync failed");
            self.obs
                .stage(Stage::WalFsync)
                .record_duration(start.elapsed());
        }
    }

    /// Re-applies one journaled mutation during recovery (before any
    /// sink is attached, so nothing is re-journaled). Ops only the
    /// sharded engine produces (`LoadPublic`, standing installs /
    /// deregistration / drains) are ignored: a system journal never
    /// contains them.
    pub fn apply_op(&mut self, op: &EngineOp) {
        match op {
            EngineOp::RegisterUser {
                id,
                active,
                profile,
            } => self.register_user(MobileUser {
                id: *id,
                mode: if *active {
                    UserMode::Active
                } else {
                    UserMode::Passive
                },
                profile: profile.clone(),
            }),
            EngineOp::UpdateProfile { id, profile } => {
                let _ = self.update_profile(*id, profile.clone());
            }
            EngineOp::UpdateBatch { rows } => {
                for &(id, position, time) in rows {
                    let _ = self.process_update(id, position, time);
                }
            }
            EngineOp::AddStandingCount { area } => {
                self.add_standing_count(*area);
            }
            EngineOp::AddStandingRange { user, radius } => {
                self.add_standing_private_range(*user, *radius);
            }
            EngineOp::LoadPublic { .. }
            | EngineOp::InstallStandingCount { .. }
            | EngineOp::InstallStandingRange { .. }
            | EngineOp::DeregisterStanding { .. }
            | EngineOp::TakeStandingChanges
            | EngineOp::ShadowBatch { .. }
            | EngineOp::IngestCloak { .. }
            | EngineOp::HandoffOut { .. }
            | EngineOp::HandoffIn { .. } => {}
        }
    }

    /// Registers a user. Passive users are remembered but never indexed.
    pub fn register_user(&mut self, user: MobileUser) {
        self.journal_op(|| EngineOp::RegisterUser {
            id: user.id,
            active: user.is_active(),
            profile: user.profile.clone(),
        });
        if user.is_active() {
            self.anonymizer.register(user.id, user.profile.clone());
        }
        self.users.insert(user.id, user);
    }

    /// Changes a user's privacy profile at runtime.
    pub fn update_profile(
        &mut self,
        id: UserId,
        profile: PrivacyProfile,
    ) -> Result<(), CloakError> {
        // Journal before the fallible apply: the anonymizer's rejection
        // is deterministic, so replay re-rejects the same record and
        // converges to the same state.
        self.journal_op(|| EngineOp::UpdateProfile {
            id,
            profile: profile.clone(),
        });
        self.anonymizer.update_profile(id, profile.clone())?;
        if let Some(u) = self.users.get_mut(&id) {
            u.profile = profile;
        }
        Ok(())
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The anonymizer (read access, for experiments).
    pub fn anonymizer(&self) -> &LocationAnonymizer<A> {
        &self.anonymizer
    }

    /// The database server component (read access).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Per-query-class server statistics.
    pub fn server_stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// The public store (read access).
    pub fn public_store(&self) -> &PublicStore {
        self.server.public()
    }

    /// The private store as the server sees it (read access).
    pub fn private_store(&self) -> &PrivateStore {
        self.server.private()
    }

    /// Processes one device location update end to end:
    /// device → anonymizer (exact) → server (cloaked) → continuous
    /// queries. Passive users are dropped at the device.
    pub fn process_update(
        &mut self,
        id: UserId,
        position: Point,
        time: SimTime,
    ) -> Result<Option<CloakedUpdate>, CloakError> {
        match self.users.get(&id) {
            Some(u) if u.mode == UserMode::Passive => return Ok(None),
            Some(_) => {}
            None => return Err(CloakError::UnknownUser(id)),
        }
        // Journal after the passive/unknown early-outs (those mutate
        // nothing) but before the device + anonymizer state changes.
        // Cloak failures below still mutate the grid position, so the
        // row must be on disk even when the cloak errors.
        self.journal_op(|| EngineOp::UpdateBatch {
            rows: vec![(id, position, time)],
        });
        self.device_positions.insert(id, position);
        let start = Instant::now();
        let update = match self.anonymizer.handle_update(id, position, time) {
            Ok(u) => u,
            Err(e) => {
                self.obs.record_cloak_failure(e.kind_index());
                return Err(e);
            }
        };
        self.obs
            .stage(Stage::Cloak)
            .record_duration(start.elapsed());
        self.obs.cloak_area().record(update.region.area());
        self.obs
            .achieved_k()
            .record(update.region.achieved_k as f64);
        // Server side: store the cloaked record, notify standing queries.
        self.server.ingest(update.pseudonym.0, update.region.region);
        // User-side standing queries refresh off the new cloak (reusing
        // their candidate sets when the cloak did not change).
        self.standing_ranges
            .on_cloak_update(id, &update.region.region, self.server.public());
        Ok(Some(update))
    }

    /// A private range query (Fig. 5a) issued by user `id`: "find all
    /// public objects within `radius` of me", answered over the cloaked
    /// region and refined on the device.
    pub fn private_range_query(
        &mut self,
        id: UserId,
        radius: f64,
        time: SimTime,
    ) -> Result<RangeQueryOutcome, CloakError> {
        let query = self.anonymizer.cloak_query(id, time)?;
        let start = Instant::now();
        let candidates = self.server.private_range(&query.region.region, radius);
        self.obs
            .stage(Stage::PrivateQuery)
            .record_duration(start.elapsed());
        self.obs
            .candidate_set_size()
            .record(candidates.len() as f64);
        let true_pos = self.device_positions[&id];
        let exact = refine_range(&candidates, true_pos, radius);
        Ok(RangeQueryOutcome {
            candidates,
            exact,
            cloak: query.region.region,
        })
    }

    /// A private nearest-neighbor query (Fig. 5b) issued by user `id`.
    pub fn private_nn_query(
        &mut self,
        id: UserId,
        time: SimTime,
    ) -> Result<NnQueryOutcome, CloakError> {
        let query = self.anonymizer.cloak_query(id, time)?;
        let start = Instant::now();
        let candidates = self.server.private_nn(&query.region.region);
        self.obs
            .stage(Stage::PrivateQuery)
            .record_duration(start.elapsed());
        self.obs
            .candidate_set_size()
            .record(candidates.len() as f64);
        let true_pos = self.device_positions[&id];
        let exact = refine_nn(&candidates, true_pos);
        Ok(NnQueryOutcome {
            candidates,
            exact,
            cloak: query.region.region,
        })
    }

    /// A private k-nearest-neighbor query (extension of Fig. 5b):
    /// "find my `k` nearest gas stations" over the cloaked region.
    pub fn private_knn_query(
        &mut self,
        id: UserId,
        k: usize,
        time: SimTime,
    ) -> Result<RangeQueryOutcome, CloakError> {
        let query = self.anonymizer.cloak_query(id, time)?;
        let start = Instant::now();
        let candidates = self.server.private_knn(&query.region.region, k);
        self.obs
            .stage(Stage::PrivateQuery)
            .record_duration(start.elapsed());
        self.obs
            .candidate_set_size()
            .record(candidates.len() as f64);
        let true_pos = self.device_positions[&id];
        let exact = refine_knn(&candidates, true_pos, k);
        Ok(RangeQueryOutcome {
            candidates,
            exact,
            cloak: query.region.region,
        })
    }

    /// A private query over private data (Sec. 6.1's fourth cell):
    /// "who is my nearest fellow mobile user?" Both sides are cloaked;
    /// the answer is probabilistic, keyed by pseudonyms.
    pub fn private_friend_nn_query(
        &mut self,
        id: UserId,
        time: SimTime,
    ) -> Result<PrivatePrivateNnAnswer, CloakError> {
        let query = self.anonymizer.cloak_query(id, time)?;
        let start = Instant::now();
        let ans = self
            .server
            .private_friend_nn(&query.region.region, query.pseudonym.0);
        self.obs
            .stage(Stage::PrivateQuery)
            .record_duration(start.elapsed());
        Ok(ans)
    }

    /// Private-over-private range count: "how many mobile users are
    /// within `radius` of me?", with the querier cloaked too.
    pub fn private_friend_count(
        &mut self,
        id: UserId,
        radius: f64,
        time: SimTime,
    ) -> Result<PrivatePrivateCountAnswer, CloakError> {
        let query = self.anonymizer.cloak_query(id, time)?;
        let start = Instant::now();
        let ans = self
            .server
            .private_friend_count(&query.region.region, query.pseudonym.0, radius);
        self.obs
            .stage(Stage::PrivateQuery)
            .record_duration(start.elapsed());
        Ok(ans)
    }

    /// A public count query (Fig. 6a) from an untrusted party — goes
    /// straight to the server, no anonymizer involved.
    pub fn public_count_query(&mut self, area: Rect) -> CountAnswer {
        let start = Instant::now();
        let ans = self.server.public_count(area);
        self.obs
            .stage(Stage::PublicQuery)
            .record_duration(start.elapsed());
        ans
    }

    /// A public NN query (Fig. 6b) from an untrusted party.
    pub fn public_nn_query(&mut self, from: Point) -> PublicNnAnswer {
        let start = Instant::now();
        let ans = self.server.public_nn(from);
        self.obs
            .stage(Stage::PublicQuery)
            .record_duration(start.elapsed());
        ans
    }

    /// The standing-query registry.
    pub fn continuous_counts(&self) -> &ContinuousRangeCount {
        self.server.continuous()
    }

    /// Adds a standing count query; returns its id. Results are read via
    /// [`PrivacyAwareSystem::continuous_counts`].
    pub fn add_standing_count(&mut self, area: Rect) -> u64 {
        self.journal_op(|| EngineOp::AddStandingCount { area });
        self.server.add_standing_count(area)
    }

    /// Registers a standing private range query for `user`: the
    /// candidate set refreshes automatically on every cloak change and
    /// is read back with
    /// [`PrivacyAwareSystem::standing_range_candidates`].
    pub fn add_standing_private_range(&mut self, user: UserId, radius: f64) -> StandingQueryId {
        self.journal_op(|| EngineOp::AddStandingRange { user, radius });
        self.standing_ranges.register(user, radius)
    }

    /// Current candidate set of a standing private range query. The
    /// owning user refines it locally exactly like a one-shot query.
    pub fn standing_range_candidates(&self, id: StandingQueryId) -> Option<&[PublicObject]> {
        self.standing_ranges.candidates(id)
    }

    /// The standing private-range registry (for reuse-rate metrics).
    pub fn standing_ranges(&self) -> &StandingPrivateRanges {
        &self.standing_ranges
    }

    /// The current wire-level state of a standing query — the same
    /// shape [`crate::ShardedEngine::standing_state`] reports, so the
    /// sequential and sharded paths can be compared byte-for-byte
    /// through [`crate::wire::encode_standing_state`].
    pub fn standing_state(
        &self,
        kind: crate::wire::StandingKind,
        id: u64,
    ) -> Option<crate::wire::StandingState> {
        use crate::wire::{StandingCountState, StandingKind, StandingRangeState, StandingState};
        match kind {
            StandingKind::Count => {
                let counts = self.server.continuous();
                let (certain, possible) = counts.interval(id)?;
                Some(StandingState::Count(StandingCountState {
                    id,
                    seq: counts.seq(id)?,
                    expected: counts.expected(id)?,
                    certain: certain as u64,
                    possible: possible as u64,
                }))
            }
            StandingKind::Range => Some(StandingState::Range(StandingRangeState {
                id,
                seq: self.standing_ranges.seq(id)?,
                candidates: self
                    .standing_ranges
                    .candidates(id)?
                    .iter()
                    .map(|o| (o.id, o.pos))
                    .collect(),
            })),
        }
    }

    /// The true position of a user as known to the device (test/metric
    /// support; a real server has no such access).
    pub fn device_position(&self, id: UserId) -> Option<Point> {
        self.device_positions.get(&id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_anonymizer::{CloakRequirement, QuadCloak};

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn pois() -> Vec<PublicObject> {
        (0..25)
            .map(|i| {
                PublicObject::new(
                    i,
                    Point::new(0.1 + 0.2 * (i % 5) as f64, 0.1 + 0.2 * (i / 5) as f64),
                    0,
                )
            })
            .collect()
    }

    fn build(k: u32) -> PrivacyAwareSystem<QuadCloak> {
        let mut sys = PrivacyAwareSystem::new(QuadCloak::new(world(), 5), 0xACE, pois());
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(k)).unwrap();
        for i in 0..100u64 {
            sys.register_user(MobileUser::active(i, profile.clone()));
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            sys.process_update(i, Point::new(x, y), SimTime::ZERO)
                .unwrap();
        }
        sys
    }

    #[test]
    fn update_pipeline_stores_cloaked_records() {
        let sys = build(10);
        assert_eq!(sys.user_count(), 100);
        assert_eq!(sys.private_store().len(), 100);
        // Every stored region is a rectangle with k-anonymous occupancy.
        for rec in sys.private_store().iter() {
            assert!(rec.region.area() > 0.0, "k=10 regions are never points");
            assert!(sys.anonymizer().algorithm().count_in_region(&rec.region) >= 10);
        }
        assert_eq!(sys.metrics_registry().cloak_area().count(), 100);
    }

    #[test]
    fn passive_users_share_nothing() {
        let mut sys = PrivacyAwareSystem::new(QuadCloak::new(world(), 4), 1, pois());
        sys.register_user(MobileUser::passive(1));
        let out = sys
            .process_update(1, Point::new(0.5, 0.5), SimTime::ZERO)
            .unwrap();
        assert!(out.is_none());
        assert_eq!(sys.private_store().len(), 0);
        // Unregistered users error.
        assert!(matches!(
            sys.process_update(2, Point::ORIGIN, SimTime::ZERO),
            Err(CloakError::UnknownUser(2))
        ));
    }

    #[test]
    fn private_range_query_end_to_end() {
        let mut sys = build(10);
        let out = sys.private_range_query(55, 0.15, SimTime::ZERO).unwrap();
        // Soundness: exact answer (computed on the device) equals a
        // direct range query on the true position.
        let true_pos = sys.device_position(55).unwrap();
        let direct: Vec<_> = sys
            .public_store()
            .iter()
            .filter(|o| o.pos.dist(true_pos) <= 0.15)
            .map(|o| o.id)
            .collect();
        assert_eq!(out.exact.len(), direct.len());
        // The server saw a cloak, not a point.
        assert!(out.cloak.area() > 0.0);
        // QoS cost: candidates ⊇ exact.
        assert!(out.candidates.len() >= out.exact.len());
    }

    #[test]
    fn private_nn_query_end_to_end() {
        let mut sys = build(10);
        let out = sys.private_nn_query(55, SimTime::ZERO).unwrap();
        let true_pos = sys.device_position(55).unwrap();
        let direct = sys.public_store().k_nearest(true_pos, 1)[0];
        let got = out.exact.unwrap();
        assert!(
            (got.pos.dist(true_pos) - direct.pos.dist(true_pos)).abs() < 1e-12,
            "refined NN is a true nearest neighbor"
        );
        assert!(!out.candidates.is_empty());
    }

    #[test]
    fn public_queries_see_only_cloaks() {
        let mut sys = build(10);
        let ans = sys.public_count_query(Rect::new_unchecked(0.0, 0.0, 0.5, 0.5));
        // ~25 users live in that quadrant; the probabilistic count
        // should be in a plausible band around it but fuzzy.
        assert!(
            ans.expected > 5.0 && ans.expected < 60.0,
            "{}",
            ans.expected
        );
        assert!(ans.possible >= ans.certain);
        let nn = sys.public_nn_query(Point::new(0.5, 0.5));
        assert!(!nn.candidates.is_empty());
        assert!((nn.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn standing_count_tracks_updates() {
        let mut sys = build(5);
        let area = Rect::new_unchecked(0.0, 0.0, 0.3, 0.3);
        let qid = sys.add_standing_count(area);
        let before = sys.continuous_counts().expected(qid).unwrap();
        // Everyone walks to the far corner; the count must drop.
        for i in 0..100u64 {
            sys.process_update(i, Point::new(0.9, 0.9), SimTime::from_secs(10.0))
                .unwrap();
        }
        let after = sys.continuous_counts().expected(qid).unwrap();
        assert!(before > after, "{before} -> {after}");
        assert!(after < 1.0);
    }

    #[test]
    fn private_over_private_queries_end_to_end() {
        let mut sys = build(10);
        // Nearest fellow user: must return someone (399 others exist),
        // never the querier, with probabilities summing to 1.
        let nn = sys.private_friend_nn_query(55, SimTime::ZERO).unwrap();
        assert!(!nn.candidates.is_empty());
        let querier_pseudonym = sys.anonymizer().pseudonym(55).0;
        assert!(nn
            .candidates
            .iter()
            .all(|c| c.pseudonym != querier_pseudonym));
        assert!((nn.total_probability() - 1.0).abs() < 1e-9);
        // Friend count within 0.3: the lattice guarantees plenty; the
        // interval must bracket the Monte-Carlo expectation.
        let cnt = sys.private_friend_count(55, 0.3, SimTime::ZERO).unwrap();
        assert!(cnt.certain <= cnt.possible);
        assert!(cnt.expected >= cnt.certain as f64 - 1e-9);
        assert!(cnt.expected <= cnt.possible as f64 + 1e-9);
        assert!(cnt.expected > 5.0, "dense lattice: {}", cnt.expected);
    }

    #[test]
    fn standing_private_range_refreshes_on_cloak_change() {
        let mut sys = build(10);
        let q = sys.add_standing_private_range(55, 0.2);
        assert!(sys.standing_range_candidates(q).unwrap().is_empty());
        // An update inside the same cell keeps the cloak -> reuse.
        sys.process_update(55, Point::new(0.55, 0.55), SimTime::from_secs(1.0))
            .unwrap();
        let n1 = sys.standing_range_candidates(q).unwrap().len();
        assert!(n1 > 0);
        sys.process_update(55, Point::new(0.551, 0.551), SimTime::from_secs(2.0))
            .unwrap();
        assert_eq!(sys.standing_ranges().recomputes, 1, "same cloak reused");
        assert!(sys.standing_ranges().reuses >= 1);
        // A jump across the world changes the cloak -> recompute.
        sys.process_update(55, Point::new(0.05, 0.95), SimTime::from_secs(3.0))
            .unwrap();
        assert_eq!(sys.standing_ranges().recomputes, 2);
        // Candidates are sound for the *new* cloak: the true answer at
        // the new position is contained.
        let cands = sys.standing_range_candidates(q).unwrap().to_vec();
        let pos = sys.device_position(55).unwrap();
        for o in sys.public_store().iter() {
            if o.pos.dist(pos) <= 0.2 {
                assert!(cands.iter().any(|c| c.id == o.id));
            }
        }
    }

    #[test]
    fn private_knn_query_end_to_end() {
        let mut sys = build(10);
        let out = sys.private_knn_query(55, 3, SimTime::ZERO).unwrap();
        assert_eq!(out.exact.len(), 3);
        let true_pos = sys.device_position(55).unwrap();
        let direct = sys.public_store().k_nearest(true_pos, 3);
        for (got, want) in out.exact.iter().zip(&direct) {
            assert!(
                (got.pos.dist(true_pos) - want.pos.dist(true_pos)).abs() < 1e-12,
                "refined kNN matches direct kNN distances"
            );
        }
        assert!(out.candidates.len() >= 3);
    }

    #[test]
    fn profile_update_applies_to_next_cloak() {
        let mut sys = build(2);
        let small = sys.private_range_query(55, 0.1, SimTime::ZERO).unwrap();
        sys.update_profile(
            55,
            PrivacyProfile::uniform(CloakRequirement::k_only(80)).unwrap(),
        )
        .unwrap();
        let big = sys.private_range_query(55, 0.1, SimTime::ZERO).unwrap();
        assert!(big.cloak.area() > small.cloak.area());
        assert!(big.candidates.len() >= small.candidates.len());
    }
}
