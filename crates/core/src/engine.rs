//! The anonymizer/server engine.
//!
//! The paper's scalability story (Sec. 7, experiment 10) asks the
//! anonymizer and the server to "cope with the continuous movement of
//! mobile users" — an ingest-throughput problem. This module batches
//! that work while keeping every externally visible byte identical to
//! the sequential pipeline:
//!
//! * **Anonymizer side** — one record per owned user (its profile and
//!   its last position, found by one probe), a second map for the
//!   positions this engine only mirrors for a cluster peer, and one
//!   [`SubCellCounts`] view over the world's grid, as in the paper's
//!   space-dependent cloaking (Fig. 4b): a user counter per sub-cell
//!   and per cell, no ids and no positions. Every cloak reads those
//!   counts through [`cloak_with_counts`], the generic code the
//!   sequential [`lbsp_anonymizer::GridCloak`] runs on the same view, so
//!   a user counts where its sub-cell is, never by a point test. There
//!   is one cloak path, refined or not, and no per-batch cache:
//!   recomputing an unrefined cloak costs less than looking it up.
//! * **Server side** — the paper's table of cloaked records as a plain
//!   pseudonym → rectangle map, not indexed by area: it feeds the
//!   standing counts their `(old, new)` deltas and seeds, the state
//!   dumps their records, and the public queries of Fig. 6 (count and
//!   NN over the cloaked users) scan it. The private queries of Fig. 5
//!   (range, NN, kNN) cloak the querier and read the one public store;
//!   `private_range_candidates` already answers in ascending id order,
//!   the canonical wire order. The engine returns candidates; the
//!   device refines them at its true position.
//! * **Trust boundary** — everything leaving the engine flows through
//!   the typed [`crate::wire`] messages: cloaked updates and range-query
//!   requests carry pseudonyms and rectangles only, never an exact
//!   point or a true identity.
//!
//! Batches run in phases mirroring
//! [`LocationAnonymizer::handle_updates_batch`][hub]: phase 1 moves
//! each row's user through one probe of its record, phase 2 cloaks
//! every row against the settled population, phase 3 records the cloaks
//! in the private map. All three are loops on the calling thread, over
//! state the engine owns outright: no pool, no job, no lock. A row
//! costs under a microsecond (100k users, 256-row batches) and a
//! hand-off to another thread about 2 µs on one CPU (20 µs across two),
//! and the network tier already serializes requests into the engine,
//! so a worker pool bought nothing a caller could measure.
//! Queries (`range_query`, `nn_query`, `knn_query`, `public_count`,
//! `public_nn`) are `&self`.
//!
//! [hub]: lbsp_anonymizer::LocationAnonymizer::handle_updates_batch

use crate::journal::{
    self, Durability, DurabilitySink, DurableHook, EngineOp, EngineState, JournalRecord,
};
use crate::obs::{MetricsRegistry, Stage};
use crate::standing::{StandingQuery, StandingQueryId, StandingRegistry};
use crate::wire::{self, RangeQueryMsg};
use crate::UserId;
use bytes::Bytes;
use lbsp_anonymizer::{
    cloak_with_counts, CloakError, CloakRequirement, CloakedRegion, CloakedUpdate, PrivacyProfile,
    Pseudonym,
};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_index::SubCellCounts;
use lbsp_server::{
    private_knn_candidates, private_nn_candidates, private_range_candidates, CountAnswer,
    PrivateRecord, PublicCountQuery, PublicNnAnswer, PublicNnQuery, PublicObject, PublicStore,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a [`ShardedEngine`].
#[derive(Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// World rectangle all positions live in.
    pub world: Rect,
    /// Cloaking grid resolution (`grid_side × grid_side` cells), as in
    /// [`lbsp_anonymizer::GridCloak::new`].
    pub grid_side: u32,
    /// Enable the multi-level refinement optimization.
    pub refine: bool,
    /// Secret keying the pseudonym bijection.
    pub secret: u64,
}

/// Redacting formatter: `secret` keys the pseudonym bijection, so a
/// derived impl would leak it into any log line that prints the config.
impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("world", &self.world)
            .field("grid_side", &self.grid_side)
            .field("refine", &self.refine)
            .field("secret", &"<redacted>")
            .finish()
    }
}

impl EngineConfig {
    /// A reasonable default: 16×16 cloak grid, no refinement.
    pub fn new(world: Rect) -> EngineConfig {
        EngineConfig {
            world,
            grid_side: 16,
            refine: false,
            secret: 0x1BAD_B002_CAFE_F00D,
        }
    }
}

/// Per-row plan computed by phase 1 for the cloak phase.
enum RowPlan {
    Fail(CloakError),
    Cloak {
        id: UserId,
        req: CloakRequirement,
        time: SimTime,
    },
}

/// A user this engine owns: the profile it cloaks by and the position
/// it last sent, if any.
struct User {
    profile: PrivacyProfile,
    pos: Option<Point>,
}

/// The result of a private range query, on both sides of the wire.
#[derive(Debug, Clone)]
pub struct RangeQueryAnswer {
    /// The cloaked region that stood in for the querier's position.
    pub region: CloakedRegion,
    /// The anonymizer→server request message bytes.
    pub request: Bytes,
    /// Candidate objects, sorted by id (the canonical wire order).
    pub candidates: Vec<PublicObject>,
    /// The server→user candidate-list bytes.
    pub response: Bytes,
}

/// The result of a private NN or kNN query (Fig. 5b).
#[derive(Debug, Clone)]
pub struct CandidateAnswer {
    /// The cloaked region that stood in for the querier's position.
    pub region: CloakedRegion,
    /// Every object that is the nearest (one of the `k` nearest) of
    /// some point of the region: a superset the device refines at its
    /// true position with [`lbsp_server::refine_nn`] or
    /// [`lbsp_server::refine_knn`].
    pub candidates: Vec<PublicObject>,
}

/// The engine: one anonymizer grid, one private map and one public
/// store, all owned outright and written only through `&mut self`.
pub struct ShardedEngine {
    cfg: EngineConfig,
    /// Every registered user's record: one probe finds its profile and
    /// its position.
    users: HashMap<UserId, User>,
    /// Owned users with a position, so [`Self::population`] is O(1).
    placed: usize,
    /// The positions this engine only mirrors (a cluster peer owns the
    /// user). An id is a key of `users` or of `shadow`, never of both.
    shadow: HashMap<UserId, Point>,
    /// The sub-cell counts each cloak reads, over every position in
    /// `users` and `shadow`.
    anon: SubCellCounts,
    /// Every pseudonym's current cloaked rectangle. No query reads it by
    /// area, so it is a map, not a spatial index.
    private: HashMap<u64, Rect>,
    /// Standing queries: counts over the private population, maintained
    /// from per-row `(old, new)` cloak deltas, and private ranges,
    /// refreshed per updating user.
    standing: StandingRegistry,
    /// The public dataset, read by range queries and standing-range
    /// recomputes.
    public: PublicStore,
    /// Unified observability registry (shared with the network
    /// front-end when one wraps this engine). All recording paths are
    /// `&self` and lock-free, so metrics never perturb batch semantics.
    obs: Arc<MetricsRegistry>,
    /// Optional durability hook: when present, every logical mutation is
    /// journaled to the sink *before* it is applied (write-ahead), and a
    /// compacted snapshot is installed every `snapshot_every` mutations.
    /// Durability failures are fail-stop: continuing past a lost journal
    /// write would let the engine silently diverge from its log.
    durable: Option<DurableHook>,
}

impl ShardedEngine {
    /// Builds an empty engine. It runs on its caller's thread, so the
    /// thread count is one whatever `_threads` says: any value is
    /// accepted, and none starts a thread.
    pub fn new(cfg: EngineConfig, _threads: usize) -> ShardedEngine {
        ShardedEngine {
            cfg,
            users: HashMap::new(),
            placed: 0,
            shadow: HashMap::new(),
            anon: SubCellCounts::new(cfg.world, cfg.grid_side, cfg.grid_side),
            private: HashMap::new(),
            standing: StandingRegistry::new(),
            public: PublicStore::new(),
            obs: Arc::new(MetricsRegistry::new()),
            durable: None,
        }
    }

    /// Attaches a durability sink: from now on every logical mutation is
    /// appended to `sink` before being applied, and a compacted snapshot
    /// is installed every `policy.snapshot_every` mutations. The caller
    /// (normally `lbsp-store`) is responsible for writing the leading
    /// [`JournalRecord::InitEngine`] record on a fresh log and for
    /// replaying an existing log via [`Self::apply_op`] *before*
    /// attaching, so recovery ops are not re-journaled.
    pub fn attach_durability(&mut self, policy: Durability, sink: Box<dyn DurabilitySink>) {
        self.durable = Some(DurableHook::new(policy, sink));
    }

    /// Whether a durability sink is attached.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Journals one logical mutation (write-ahead: call before applying).
    /// The closure defers building the record so the non-durable path
    /// pays nothing. Failures are fail-stop by design.
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

    /// Installs a compacted snapshot when the policy's cadence is due.
    /// Called *after* each mutation is applied, so the snapshot covers
    /// the op that triggered it.
    fn maybe_snapshot(&mut self) {
        if !self.durable.as_ref().is_some_and(DurableHook::snapshot_due) {
            return;
        }
        let start = Instant::now();
        let state = journal::encode_engine_state(&self.export_state());
        let hook = self.durable.as_mut().expect("durability checked above");
        hook.install_snapshot(&state)
            .expect("durability: snapshot install failed");
        self.obs
            .stage(Stage::Snapshot)
            .record_duration(start.elapsed());
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The engine's observability registry (cloak/query stage timings,
    /// privacy/QoS value histograms, cloak-failure counters). The
    /// network front-end shares this `Arc` and adds its transport
    /// counters and stages to the same registry.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Registers a user with a privacy profile, or replaces the profile
    /// of one registered before. A user whose position this engine only
    /// mirrored keeps that position, so an id is never counted twice.
    pub fn register(&mut self, id: UserId, profile: PrivacyProfile) {
        self.journal_op(|| EngineOp::RegisterUser {
            id,
            profile: profile.clone(),
        });
        if let Some(user) = self.users.get_mut(&id) {
            user.profile = profile;
        } else {
            let pos = self.shadow.remove(&id);
            self.placed += usize::from(pos.is_some());
            self.users.insert(id, User { profile, pos });
        }
        self.maybe_snapshot();
    }

    /// Number of registered users.
    pub fn registered(&self) -> usize {
        self.users.len()
    }

    /// Number of users with a tracked location, owned or mirrored.
    pub fn population(&self) -> usize {
        self.placed + self.shadow.len()
    }

    /// Moves an owned user's record to `pos`, keeping the counts and
    /// [`Self::population`] in step.
    fn place(anon: &mut SubCellCounts, placed: &mut usize, user: &mut User, pos: Point) {
        let old = user.pos.replace(pos);
        *placed += usize::from(old.is_none());
        anon.shift(old, Some(pos));
    }

    /// Number of private records.
    pub fn private_len(&self) -> usize {
        self.private.len()
    }

    /// Loads the public-object dataset, replacing any loaded before.
    ///
    /// # Panics
    /// Panics on a duplicate object id, before anything is journaled: a
    /// logged load that cannot be applied would fail every replay too.
    pub fn load_public(&mut self, objects: Vec<PublicObject>) {
        let public = PublicStore::bulk_load(objects.clone());
        self.journal_op(|| EngineOp::LoadPublic { objects });
        self.public = public;
        self.maybe_snapshot();
    }

    /// Stable pseudonym for a user — the same keyed splitmix64 bijection
    /// as [`lbsp_anonymizer::LocationAnonymizer::pseudonym`], so the two
    /// engines agree byte-for-byte on the server hop.
    pub fn pseudonym(&self, id: UserId) -> Pseudonym {
        let mut z = self.cfg.secret ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Pseudonym(z ^ (z >> 31))
    }

    /// Processes one batch of exact location updates: phase 1 moves
    /// every row's user, phase 2 cloaks every row against the settled
    /// population, phase 3 records the cloaked regions in the private
    /// map. Results are in input order; unknown users error in place,
    /// exactly like the sequential batch path.
    pub fn process_updates(
        &mut self,
        updates: &[(UserId, Point, SimTime)],
    ) -> Vec<Result<CloakedUpdate, CloakError>> {
        // Write-ahead: the whole batch is one journal record, preserving
        // batch boundaries (duplicate-row settlement is batch-scoped, so
        // replay must re-batch alike).
        self.journal_op(|| EngineOp::UpdateBatch {
            rows: updates.to_vec(),
        });
        let plans = self.plan_rows(updates);
        let cloak_start = Instant::now();
        let results: Vec<Result<CloakedUpdate, CloakError>> = plans
            .iter()
            .map(|plan| match *plan {
                RowPlan::Fail(ref e) => Err(e.clone()),
                RowPlan::Cloak { id, ref req, time } => {
                    let pos = self.users.get(&id).and_then(|u| u.pos);
                    self.cloak_at(id, pos, req).map(|region| CloakedUpdate {
                        pseudonym: self.pseudonym(id),
                        region,
                        time,
                    })
                }
            })
            .collect();
        self.obs
            .stage(Stage::Cloak)
            .record_duration(cloak_start.elapsed());
        // Phase 3, with the rectangle each row displaced: the `old` half
        // of the standing-count delta.
        let displaced: Vec<Option<Rect>> = results
            .iter()
            .map(|res| {
                let u = res.as_ref().ok()?;
                self.private.insert(u.pseudonym.0, u.region.region)
            })
            .collect();
        // Privacy-side observability: one sample per row outcome.
        for res in &results {
            match res {
                Ok(u) => {
                    self.obs.cloak_area().record(u.region.area());
                    self.obs.achieved_k().record(f64::from(u.region.achieved_k));
                }
                Err(e) => self.obs.record_cloak_failure(e.kind_index()),
            }
        }
        // Standing-query maintenance: replay the per-row deltas in input
        // order, exactly as the sequential parts apply them (the counts
        // first, then the updating user's private ranges).
        if !self.standing.is_empty() {
            let start = Instant::now();
            for ((res, old), &(user, _, _)) in results.iter().zip(&displaced).zip(updates) {
                let Ok(u) = res else { continue };
                let region = &u.region.region;
                let fan_count =
                    self.standing
                        .on_record(u.pseudonym.0, old.as_ref(), Some(region), true);
                let fan_range = self.standing.on_cloak(user, region, &self.public);
                self.obs
                    .standing_fanout()
                    .record((fan_count + fan_range) as f64);
            }
            self.obs
                .stage(Stage::StandingUpdate)
                .record_duration(start.elapsed());
        }
        self.maybe_snapshot();
        results
    }

    /// Phase 1: one probe per row finds the user's record, which gives
    /// the row's requirement and takes its new position. Scanning in
    /// input order makes duplicate-user rows settle on the row that
    /// appears last, matching the sequential upsert order, so every row
    /// cloaks (phase 2) at its user's *final* position.
    fn plan_rows(&mut self, updates: &[(UserId, Point, SimTime)]) -> Vec<RowPlan> {
        updates
            .iter()
            .map(|&(id, pos, time)| match self.users.get_mut(&id) {
                None => RowPlan::Fail(CloakError::UnknownUser(id)),
                Some(user) => {
                    Self::place(&mut self.anon, &mut self.placed, user, pos);
                    RowPlan::Cloak {
                        id,
                        req: user.profile.requirement_at(time.time_of_day()),
                        time,
                    }
                }
            })
            .collect()
    }

    /// Cloaks owned user `id` at its recorded position `pos` under
    /// `req`: the one cloak path of batches and queries, refined or not.
    fn cloak_at(
        &self,
        id: UserId,
        pos: Option<Point>,
        req: &CloakRequirement,
    ) -> Result<CloakedRegion, CloakError> {
        req.validate()?;
        let pos = pos.ok_or(CloakError::UnknownUser(id))?;
        Ok(cloak_with_counts(&self.anon, pos, req, self.cfg.refine))
    }

    /// [`Self::process_updates`], emitting the anonymizer→server wire
    /// bytes for each successful row.
    pub fn process_updates_wire(
        &mut self,
        updates: &[(UserId, Point, SimTime)],
    ) -> Vec<Result<Bytes, CloakError>> {
        self.process_updates(updates)
            .into_iter()
            .map(|r| r.map(|u| wire::encode_cloaked_update(&u)))
            .collect()
    }

    /// Executes a private range query (Fig. 5a) for `user`: cloaks the
    /// querier and collects `private_range_candidates` from the public
    /// store, in canonical id order. Both hops are returned as wire
    /// bytes.
    pub fn range_query(
        &self,
        user: UserId,
        time: SimTime,
        radius: f64,
    ) -> Result<RangeQueryAnswer, CloakError> {
        let start = Instant::now();
        let out = self.range_query_inner(user, time, radius);
        self.obs
            .stage(Stage::PrivateQuery)
            .record_duration(start.elapsed());
        match &out {
            Ok(a) => self
                .obs
                .candidate_set_size()
                .record(a.candidates.len() as f64),
            Err(e) => self.obs.record_cloak_failure(e.kind_index()),
        }
        out
    }

    fn range_query_inner(
        &self,
        user: UserId,
        time: SimTime,
        radius: f64,
    ) -> Result<RangeQueryAnswer, CloakError> {
        let region = self.cloak_query(user, time)?;
        let msg = RangeQueryMsg {
            pseudonym: self.pseudonym(user),
            region: region.region,
            radius,
            time,
        };
        let request = wire::encode_range_query(&msg);
        // Already in ascending object id, the canonical wire order.
        let candidates = private_range_candidates(&self.public, &region.region, radius);
        let response = wire::candidate_bytes(candidates.iter().map(|o| (o.id, o.pos)));
        Ok(RangeQueryAnswer {
            region,
            request,
            candidates,
            response,
        })
    }

    /// Cloaks owned user `user` for a query at `time`, by the profile
    /// entry in force then.
    fn cloak_query(&self, user: UserId, time: SimTime) -> Result<CloakedRegion, CloakError> {
        let owned = self.users.get(&user).ok_or(CloakError::UnknownUser(user))?;
        let req = owned.profile.requirement_at(time.time_of_day());
        self.cloak_at(user, owned.pos, &req)
    }

    /// Executes a private nearest-neighbour query (Fig. 5b) for `user`:
    /// cloaks the querier as [`Self::range_query`] does and collects
    /// `private_nn_candidates` from the public store.
    pub fn nn_query(&self, user: UserId, time: SimTime) -> Result<CandidateAnswer, CloakError> {
        self.candidate_query(user, time, |cloak| {
            private_nn_candidates(&self.public, cloak)
        })
    }

    /// Executes a private k-nearest-neighbour query (Fig. 5b extended
    /// to `k`): "my `k` nearest gas stations", over the querier's cloak.
    pub fn knn_query(
        &self,
        user: UserId,
        time: SimTime,
        k: usize,
    ) -> Result<CandidateAnswer, CloakError> {
        self.candidate_query(user, time, |cloak| {
            private_knn_candidates(&self.public, cloak, k)
        })
    }

    /// Cloaks `user` and collects the candidates `collect` finds for the
    /// cloak, recording the query's time, candidate count or failure
    /// like [`Self::range_query`].
    fn candidate_query(
        &self,
        user: UserId,
        time: SimTime,
        collect: impl FnOnce(&Rect) -> Vec<PublicObject>,
    ) -> Result<CandidateAnswer, CloakError> {
        let start = Instant::now();
        let out = self.cloak_query(user, time).map(|region| CandidateAnswer {
            candidates: collect(&region.region),
            region,
        });
        self.obs
            .stage(Stage::PrivateQuery)
            .record_duration(start.elapsed());
        match &out {
            Ok(a) => self
                .obs
                .candidate_set_size()
                .record(a.candidates.len() as f64),
            Err(e) => self.obs.record_cloak_failure(e.kind_index()),
        }
        out
    }

    /// A public count query (Fig. 6a) from an untrusted party: no
    /// anonymizer involved, every cloaked record scanned. The private
    /// map is not indexed by area, so an update pays nothing for it.
    pub fn public_count(&self, area: Rect) -> CountAnswer {
        let start = Instant::now();
        let ans = PublicCountQuery::new(area).evaluate(self.cloaked_records());
        self.obs
            .stage(Stage::PublicQuery)
            .record_duration(start.elapsed());
        ans
    }

    /// A public nearest-neighbour query (Fig. 6b) from an untrusted
    /// party at `from`, over every cloaked record.
    pub fn public_nn(&self, from: Point) -> PublicNnAnswer {
        let start = Instant::now();
        let ans = PublicNnQuery::new(from).evaluate(self.cloaked_records());
        self.obs
            .stage(Stage::PublicQuery)
            .record_duration(start.elapsed());
        ans
    }

    /// Every private record, in the map's order.
    fn cloaked_records(&self) -> impl Iterator<Item = PrivateRecord> + '_ {
        self.private
            .iter()
            .map(|(&pseudonym, &region)| PrivateRecord::new(pseudonym, region))
    }

    /// Every tracked position, owned or mirrored, sorted by user id.
    fn positions(&self) -> Vec<(UserId, Point)> {
        let owned = self.users.iter().filter_map(|(&id, u)| Some((id, u.pos?)));
        let mut all: Vec<(UserId, Point)> = owned
            .chain(self.shadow.iter().map(|(&id, &p)| (id, p)))
            .collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        debug_assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "id in both maps");
        all
    }

    /// Every private record as a `(pseudonym, rectangle)` pair, in the
    /// map's order.
    fn private_records(&self) -> Vec<(u64, Rect)> {
        self.private.iter().map(|(&p, &r)| (p, r)).collect()
    }

    /// Registers a standing count query over `area`, seeded from every
    /// private record.
    pub fn add_standing_count(&mut self, area: Rect) -> u64 {
        self.add_standing(StandingQuery::Count { area })
    }

    /// Registers a standing private range query for `user` ("keep me
    /// updated on objects within `radius` of me").
    pub fn add_standing_range(&mut self, user: UserId, radius: f64) -> StandingQueryId {
        self.add_standing(StandingQuery::Range {
            subject: user,
            radius,
        })
    }

    /// Registers `query` under the registry's next id, journaled as the
    /// install of that id.
    fn add_standing(&mut self, query: StandingQuery) -> StandingQueryId {
        let id = self.standing.next_id();
        self.install_standing(id, query);
        id
    }

    /// Installs `query` under `id`, the id node 0 granted (the cluster
    /// path; local clients go through [`Self::add_standing_count`] or
    /// [`Self::add_standing_range`], which allocate). A count is seeded
    /// from the private map. Idempotent: returns `false` and changes
    /// nothing if `id` is already registered, so an ack-lost cluster
    /// frame can be replayed safely.
    pub fn install_standing(&mut self, id: StandingQueryId, query: StandingQuery) -> bool {
        if self.standing.contains(id) {
            return false;
        }
        self.journal_op(|| EngineOp::InstallStanding { id, query });
        let installed = self.standing.install(id, query, self.private_records());
        self.maybe_snapshot();
        installed
    }

    /// Drops a standing query of either kind.
    pub fn deregister_standing(&mut self, id: StandingQueryId) -> bool {
        self.journal_op(|| EngineOp::DropStanding { id });
        let hit = self.standing.deregister(id);
        self.maybe_snapshot();
        hit
    }

    /// The current wire-level state of a standing query, or `None` when
    /// no such query is registered. This is the exact payload pushed in
    /// [`wire::tag::STANDING_DELTA`] frames and returned by snapshot
    /// requests, so sequential and sharded paths can be compared
    /// byte-for-byte through [`wire::encode_standing_state`].
    pub fn standing_state(&self, id: StandingQueryId) -> Option<wire::StandingState> {
        self.standing.state(id)
    }

    /// Drains the queries whose answer changed since the last call, in
    /// ascending id order — the deterministic fan-out order for delta
    /// pushes.
    pub fn take_standing_changes(&mut self) -> Vec<StandingQueryId> {
        // Draining mutates the registry's changed set, so replay has to
        // drain at the same points — journal before applying.
        self.journal_op(|| EngineOp::TakeStandingChanges);
        let out = self.standing.take_changed();
        self.maybe_snapshot();
        out
    }

    /// Cluster mirror, the one entry point of the mirror plane: applies
    /// other nodes' exact-update rows to the position plane, then ingests
    /// the owners' cloaked replies into the private map and the standing
    /// counts — phases 1 and 3 of [`Self::process_updates`], with no
    /// cloaking, no standing-range maintenance and no replies. The
    /// router broadcasts these so every node's population (and therefore
    /// every cloak's k-count view) and every node's private records match
    /// the sequential reference. Unconditional by design: the profile
    /// lives on the owning node, not here. A row for a user this engine
    /// owns moves the owned record; any other goes to the shadow map.
    ///
    /// A count a mirrored cloak changes bumps its `seq` but queues no
    /// push: every node's counts track the full fleet, but only the
    /// owning node pushes deltas, so a mirrored change must never queue
    /// a second push here, nor discard a change this node's own batch
    /// queued. Standing *range* entries are untouched — they key on true
    /// user ids, which a pseudonymized record deliberately cannot name.
    /// One call is one journal record.
    pub fn apply_mirror(&mut self, rows: &[(UserId, Point, SimTime)], cloaks: &[CloakedUpdate]) {
        self.journal_op(|| {
            EngineOp::Mirror(wire::ResyncState {
                rows: rows.to_vec(),
                cloaks: cloaks.to_vec(),
            })
        });
        for &(id, pos, _time) in rows {
            self.mirror(id, pos);
        }
        // Same guard as the batch path, so the registry's bookkeeping
        // counters advance in lockstep with the owning node's.
        let counted = !self.standing.is_empty();
        for update in cloaks {
            let (key, region) = (update.pseudonym.0, update.region.region);
            let old = self.private.insert(key, region);
            if counted {
                let fan = self
                    .standing
                    .on_record(key, old.as_ref(), Some(&region), false);
                self.obs.standing_fanout().record(fan as f64);
            }
        }
        self.maybe_snapshot();
    }

    /// Moves `id` to `pos` in whichever map holds it: the shadow map
    /// first, the one a mirror row almost always finds.
    fn mirror(&mut self, id: UserId, pos: Point) {
        if let Some(p) = self.shadow.get_mut(&id) {
            self.anon.shift(Some(std::mem::replace(p, pos)), Some(pos));
        } else if let Some(user) = self.users.get_mut(&id) {
            Self::place(&mut self.anon, &mut self.placed, user, pos);
        } else {
            self.shadow.insert(id, pos);
            self.anon.shift(None, Some(pos));
        }
    }

    /// Cluster rejoin, donor side: dumps the two replicated planes —
    /// every tracked position and every private cloak record — in
    /// canonical (sorted) form for a [`wire::ResyncState`] transfer.
    /// The receiver installs it with one [`Self::apply_mirror`]: one
    /// journal record, idempotent for rows and same-region cloaks it
    /// already holds. Read-only: exporting is not a journaled mutation.
    /// Single-copy user state (profiles, standing ownership)
    /// deliberately stays out: it lives on exactly one node and never
    /// went stale.
    pub fn resync_export(&self) -> wire::ResyncState {
        let rows = self
            .positions()
            .into_iter()
            .map(|(id, p)| (id, p, SimTime::ZERO))
            .collect();
        let mut cloaks: Vec<CloakedUpdate> = self
            .private
            .iter()
            .map(|(&pseudonym, &region)| CloakedUpdate {
                pseudonym: Pseudonym(pseudonym),
                region: CloakedRegion {
                    region,
                    // The ingest path keys on pseudonym + region only;
                    // the quality fields are not stored, so synthetic
                    // values here are invisible downstream.
                    achieved_k: 0,
                    k_satisfied: true,
                    area_satisfied: true,
                },
                time: SimTime::ZERO,
            })
            .collect();
        cloaks.sort_unstable_by_key(|c| c.pseudonym.0);
        wire::ResyncState { rows, cloaks }
    }

    /// The standing registry (read-only), both kinds. The name predates
    /// the merged registry; `lbsbench` reads it under this name.
    pub fn standing_counts(&self) -> &StandingRegistry {
        &self.standing
    }

    /// Dumps the engine's full logical state in canonical (sorted) form.
    /// [`Self::from_state`] of this dump rebuilds an engine whose every
    /// externally visible byte — cloaks, query answers, standing-state
    /// frames — matches this one exactly: outputs never expose internal
    /// iteration order, and the standing registry dumps its entries.
    pub fn export_state(&self) -> EngineState {
        let mut profiles: Vec<(UserId, PrivacyProfile)> = self
            .users
            .iter()
            .map(|(&id, u)| (id, u.profile.clone()))
            .collect();
        profiles.sort_unstable_by_key(|&(id, _)| id);
        let positions = self.positions();
        let mut records = self.private_records();
        records.sort_unstable_by_key(|&(p, _)| p);
        let mut public: Vec<PublicObject> = self.public.iter().cloned().collect();
        public.sort_unstable_by_key(|o| o.id);
        EngineState {
            config: self.cfg,
            profiles,
            positions,
            records,
            public,
            standing: self.standing.export_state(),
        }
    }

    /// Rebuilds an engine from an exported state dump (the recovery
    /// path's snapshot base). The rebuilt engine is *not* durable; the
    /// recovery driver attaches a sink after any tail replay.
    pub fn from_state(state: &EngineState) -> ShardedEngine {
        let mut e = ShardedEngine::new(state.config, 1);
        for (id, profile) in &state.profiles {
            e.register(*id, profile.clone());
        }
        for &(id, p) in &state.positions {
            e.mirror(id, p);
        }
        e.private.extend(state.records.iter().copied());
        e.load_public(state.public.clone());
        e.standing = StandingRegistry::restore_state(&state.standing);
        e
    }

    /// Re-applies one journaled mutation during recovery. Must run
    /// *before* [`Self::attach_durability`] so replayed ops are not
    /// re-journaled.
    pub fn apply_op(&mut self, op: &EngineOp) {
        match op {
            EngineOp::RegisterUser { id, profile } => self.register(*id, profile.clone()),
            EngineOp::UpdateBatch { rows } => {
                self.process_updates(rows);
            }
            EngineOp::LoadPublic { objects } => self.load_public(objects.clone()),
            EngineOp::InstallStanding { id, query } => {
                self.install_standing(*id, *query);
            }
            EngineOp::DropStanding { id } => {
                self.deregister_standing(*id);
            }
            EngineOp::TakeStandingChanges => {
                self.take_standing_changes();
            }
            EngineOp::Mirror(state) => self.apply_mirror(&state.rows, &state.cloaks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_anonymizer::{GridCloak, LocationAnonymizer};
    use lbsp_index::{CellCounts, Lattice, SubSpan, SUB_SIDE};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn lattice_updates(n: u64) -> Vec<(UserId, Point, SimTime)> {
        (0..n)
            .map(|i| {
                let x = ((i as f64 * 0.618_033_988_749) % 1.0).min(0.999);
                let y = ((i as f64 * 0.414_213_562_373) % 1.0).min(0.999);
                (i, Point::new(x, y), SimTime::ZERO)
            })
            .collect()
    }

    fn engine() -> ShardedEngine {
        let mut e = ShardedEngine::new(EngineConfig::new(world()), 1);
        for i in 0..64u64 {
            e.register(
                i,
                PrivacyProfile::uniform(CloakRequirement::k_only(5)).unwrap(),
            );
        }
        e
    }

    /// Coordinates on the lines a cloak or an old anonymizer stripe could
    /// split at — the stripe lines 1/4, 1/2 and 3/4, the cell edges 3/16
    /// and 13/16, the sub-cell edge 67/256 — and on and just past the
    /// world's edges: a user past one counts in no cell, and its own
    /// cloak starts from the border cell.
    const EDGES: [f64; 10] = [
        -1.0 / 1024.0,
        0.0,
        3.0 / 16.0,
        0.25,
        67.0 / 256.0,
        0.5,
        0.75,
        13.0 / 16.0,
        1.0,
        1.0 + 1.0 / 1024.0,
    ];

    /// The lattice, then three waves on `EDGES`, every user on other
    /// lines than the wave before: 64 rows, 24, and 64 more with a third
    /// of the users moving a second time within the batch, across a
    /// stripe line.
    fn edge_batches() -> Vec<Vec<(UserId, Point, SimTime)>> {
        let at = |i: u64, w: u64| {
            let x = EDGES[((i + w) % 10) as usize];
            Point::new(x, EDGES[((3 * i + 7 * w) % 10) as usize])
        };
        let mut batches = vec![lattice_updates(64)];
        for (w, users) in [(1u64, 64u64), (2, 24), (3, 64)] {
            let t = SimTime::from_secs(w as f64);
            let mut batch: Vec<_> = (0..users).map(|i| (i, at(i, w), t)).collect();
            if w == 3 {
                batch.extend((0..users).step_by(3).map(|i| (i, at(i, w + 5), t)));
            }
            batches.push(batch);
        }
        batches
    }

    #[test]
    fn engine_matches_sequential_anonymizer() {
        let k5 = || PrivacyProfile::uniform(CloakRequirement::k_only(5)).unwrap();
        for refine in [false, true] {
            let cfg = EngineConfig {
                refine,
                ..EngineConfig::new(world())
            };
            let algo = GridCloak::new(world(), cfg.grid_side).with_refinement(refine);
            let mut seq = LocationAnonymizer::new(algo, cfg.secret);
            for i in 0..64u64 {
                seq.register(i, k5());
            }
            let want: Vec<Vec<Bytes>> = edge_batches()
                .iter()
                .map(|batch| {
                    let rows = seq.handle_updates_batch(batch).into_iter();
                    rows.map(|u| wire::encode_cloaked_update(&u.unwrap()))
                        .collect()
                })
                .collect();
            let mut eng = ShardedEngine::new(cfg, 1);
            for i in 0..64u64 {
                eng.register(i, k5());
            }
            for (batch, want) in edge_batches().iter().zip(&want) {
                let got: Vec<Bytes> = eng
                    .process_updates_wire(batch)
                    .into_iter()
                    .map(Result::unwrap)
                    .collect();
                assert_eq!(&got, want, "{} rows, refine {refine}", batch.len());
            }
        }
    }

    /// Test-only count surface: the engine's lattice over counts made
    /// by locating every point's sub-cell, each time it is asked.
    struct BruteCounts {
        lattice: Lattice,
        points: Vec<Point>,
    }

    impl CellCounts for BruteCounts {
        fn lattice(&self) -> &Lattice {
            &self.lattice
        }
        fn count(&self, span: SubSpan) -> usize {
            let member = |p: &&Point| {
                let sub = self.lattice.sub_of(**p);
                self.lattice.holds(**p)
                    && (0..2).all(|a| (span.lo[a]..span.hi[a]).contains(&sub[a]))
            };
            self.points.iter().filter(member).count()
        }
    }

    #[test]
    fn crowded_cell_cloaks_match_brute_force_counts() {
        // 5 500 users in cell (5, 5) of the 16x16 grid — every fourth on
        // a sub-cell corner, the edge of every quadrant that holds it —
        // and 500 spread over the world, so the refinement counts run
        // over a crowded cell.
        let cfg = EngineConfig {
            refine: true,
            ..EngineConfig::new(world())
        };
        let mut e = ShardedEngine::new(cfg, 1);
        let frac = |i: u64, step: f64| (i as f64 * step) % 1.0;
        let place = |i: u64, round: u64| {
            let (fx, fy) = (
                frac(i + 7 * round, 0.618_033_988_749),
                frac(i + 3 * round, 0.414_213_562_373),
            );
            if i >= 5_500 {
                Point::new(fx, fy)
            } else if i.is_multiple_of(4) {
                let snap = |f: f64| (f * 16.0).floor() / 16.0;
                Point::new((5.0 + snap(fx)) / 16.0, (5.0 + snap(fy)) / 16.0)
            } else {
                Point::new((5.0 + fx) / 16.0, (5.0 + fy) / 16.0)
            }
        };
        let mut positions: Vec<Point> = (0..6_000).map(|i| place(i, 0)).collect();
        for i in 0..6_000u64 {
            let req = CloakRequirement {
                k: [2, 5, 10, 25, 400][(i % 5) as usize],
                a_min: if i.is_multiple_of(7) { 1e-5 } else { 0.0 },
                a_max: f64::INFINITY,
            };
            e.register(i, PrivacyProfile::uniform(req).unwrap());
        }
        let everyone: Vec<_> = (0..6_000u64)
            .map(|i| (i, positions[i as usize], SimTime::ZERO))
            .collect();
        let movers: Vec<_> = (0..6_000u64)
            .step_by(11)
            .map(|i| (i, place(i, 1), SimTime::from_secs(1.0)))
            .collect();
        for batch in [everyone, movers] {
            let got = e.process_updates_wire(&batch);
            for &(id, p, _) in &batch {
                positions[id as usize] = p;
            }
            let brute = BruteCounts {
                lattice: Lattice::new(cfg.world, cfg.grid_side, cfg.grid_side),
                points: positions.clone(),
            };
            let crowd = brute.lattice.sub_of(Point::new(5.5 / 16.0, 5.5 / 16.0));
            assert!(brute.count(SubSpan::around(crowd, SUB_SIDE)) >= 5_000);
            // Every third row keeps the brute force affordable and still
            // meets every (k, a_min, snapped) combination.
            for (&(id, pos, time), got) in batch.iter().zip(&got).step_by(3) {
                let req = e.users[&id].profile.requirement_at(time.time_of_day());
                let want = wire::encode_cloaked_update(&CloakedUpdate {
                    pseudonym: e.pseudonym(id),
                    region: cloak_with_counts(&brute, pos, &req, true),
                    time,
                });
                assert_eq!(got.as_ref().unwrap(), &want, "user {id}");
            }
        }
    }

    #[test]
    fn an_out_of_world_neighbour_does_not_stop_a_cloak_short() {
        // On a 4 x 4 grid, A at (0.1, 0.1) with k = 2 and B one column
        // over. A neighbour at NaN or just left of the world is a member
        // of no cell, so A's block takes B's column, refined or not, and
        // counts the two users inside it.
        let (a, b) = (Point::new(0.1, 0.1), Point::new(0.3, 0.1));
        let want = Rect::new_unchecked(0.0, 0.0, 0.5, 0.25);
        for neighbour in [Point::new(f64::NAN, 0.1), Point::new(-0.01, 0.1)] {
            for refine in [false, true] {
                let cfg = EngineConfig {
                    grid_side: 4,
                    refine,
                    ..EngineConfig::new(world())
                };
                let mut e = ShardedEngine::new(cfg, 1);
                for id in 0..3 {
                    e.register(
                        id,
                        PrivacyProfile::uniform(CloakRequirement::k_only(2)).unwrap(),
                    );
                }
                let rows = [(0, a, SimTime::ZERO), (1, b, SimTime::ZERO)];
                e.process_updates(&[rows[0], rows[1], (2, neighbour, SimTime::ZERO)]);
                let got = e.process_updates(&rows[..1])[0].as_ref().unwrap().region;
                let what = format!("neighbour {neighbour:?}, refine {refine}");
                assert_eq!(got.region, want, "{what}");
                assert_eq!((got.achieved_k, got.k_satisfied), (2, true), "{what}");
                let query = e.range_query(0, SimTime::ZERO, 0.1).unwrap();
                assert_eq!(query.region, got, "{what}");
            }
        }
    }

    #[test]
    fn a_cloak_moving_across_the_world_stays_one_record() {
        let mut e = engine();
        // A point cloak: the record sits where the user does.
        e.register(
            1,
            PrivacyProfile::uniform(CloakRequirement::k_only(1)).unwrap(),
        );
        let at = |x: f64| vec![(e.pseudonym(1).0, Rect::from_point(Point::new(x, 0.5)))];
        let (before, after) = (at(0.1), at(0.9));
        e.process_updates(&[(1, Point::new(0.1, 0.5), SimTime::ZERO)]);
        assert_eq!(e.export_state().records, before);
        e.process_updates(&[(1, Point::new(0.9, 0.5), SimTime::from_secs(1.0))]);
        assert_eq!(e.population(), 1);
        assert_eq!(e.private_len(), 1, "the move replaced the record");
        assert_eq!(e.export_state().records, after, "nothing at the old place");
    }

    #[test]
    fn no_privacy_rows_are_reported_at_their_own_points() {
        // Refinement off, two users asking for no privacy in one cell and
        // one batch: each region is that user's own point.
        let mut e = ShardedEngine::new(EngineConfig::new(world()), 1);
        let none = PrivacyProfile::uniform(CloakRequirement::none()).unwrap();
        let rows = [
            (1, Point::new(0.01, 0.01), SimTime::ZERO),
            (2, Point::new(0.02, 0.02), SimTime::ZERO),
        ];
        for &(id, _, _) in &rows {
            e.register(id, none.clone());
        }
        for (got, &(id, p, _)) in e.process_updates(&rows).iter().zip(&rows) {
            let got = got.as_ref().unwrap().region;
            assert_eq!(got.region, Rect::from_point(p), "user {id}");
            assert_eq!(got.achieved_k, 1, "user {id}");
        }
    }

    #[test]
    fn ownership_states_keep_positions_counted_and_bytes_equal() {
        // A cluster node's view of user 7: first only mirrored, its
        // mirrored position moved by a later row, then owned by
        // registration. Users 0..6 are owned throughout; each is cloaked
        // with k = 8, so every cloak counts user 7 or falls short. User 7
        // holds a uniform profile or Fig. 2's: its queries at 03:00,
        // 12:00 and 19:00 are held to the reference's.
        let k8 = || PrivacyProfile::uniform(CloakRequirement::k_only(8)).unwrap();
        let cfg = EngineConfig {
            grid_side: 4,
            ..EngineConfig::new(world())
        };
        let at = |i: u64| Point::new(0.02 + 0.03 * i as f64, 0.1);
        let others: Vec<_> = (0..7).map(|i| (i, at(i), SimTime::ZERO)).collect();
        let mover = [(7, at(7), SimTime::ZERO)];
        let round_trips = |e: &ShardedEngine| {
            let state = e.export_state();
            let bytes = journal::encode_engine_state(&state);
            let back = ShardedEngine::from_state(&state).export_state();
            assert_eq!(journal::encode_engine_state(&back), bytes);
            assert_eq!(
                e.resync_export(),
                ShardedEngine::from_state(&state).resync_export()
            );
        };
        let same_cloaks = |e: &mut ShardedEngine, reference: &mut ShardedEngine| {
            let (a, b) = (
                e.process_updates_wire(&others),
                reference.process_updates_wire(&others),
            );
            assert_eq!(a, b);
            assert!(a.iter().all(Result::is_ok));
        };
        let same_queries = |e: &ShardedEngine, reference: &ShardedEngine| {
            for hour in [0.0, 3.0, 12.0, 19.0] {
                let t = SimTime::from_hours(hour);
                let query = |e: &ShardedEngine| e.range_query(7, t, 0.1).unwrap().request;
                assert_eq!(query(e), query(reference), "user 7 at {hour}:00");
            }
        };
        for profile in [k8(), PrivacyProfile::paper_example()] {
            // The reference owns user 7 from the start.
            let mut reference = ShardedEngine::new(cfg, 1);
            for i in 0..7 {
                reference.register(i, k8());
            }
            reference.register(7, profile.clone());
            let far = [(7, Point::new(0.9, 0.9), SimTime::ZERO)];
            reference.process_updates(&far);
            let mut e = ShardedEngine::new(cfg, 1);
            for i in 0..7 {
                e.register(i, k8());
            }
            // Mirrored only: counted, not registered, and not served.
            e.apply_mirror(&far, &[]);
            assert_eq!((e.population(), e.registered()), (1, 7));
            assert!(matches!(
                e.process_updates(&mover)[0],
                Err(CloakError::UnknownUser(7))
            ));
            assert!(matches!(
                e.range_query(7, SimTime::ZERO, 0.1),
                Err(CloakError::UnknownUser(7))
            ));
            round_trips(&e);
            same_cloaks(&mut e, &mut reference);
            // A later mirror row moves the mirrored position.
            e.apply_mirror(&mover, &[]);
            reference.process_updates(&mover);
            assert_eq!((e.population(), e.registered()), (8, 7));
            round_trips(&e);
            same_cloaks(&mut e, &mut reference);
            // Owned: the mirrored position is adopted, so user 7's next
            // cloak, with no update of its own, matches the reference.
            e.register(7, profile.clone());
            assert_eq!((e.population(), e.registered()), (8, 8));
            same_queries(&e, &reference);
            round_trips(&e);
            same_cloaks(&mut e, &mut reference);
            // A mirror row for an owned user moves the owned record.
            let nudged = [(7, Point::new(0.2, 0.2), SimTime::ZERO)];
            e.apply_mirror(&nudged, &[]);
            reference.process_updates(&nudged);
            assert_eq!((e.population(), e.registered()), (8, 8));
            same_queries(&e, &reference);
            assert_eq!(
                e.process_updates_wire(&mover),
                reference.process_updates_wire(&mover)
            );
            round_trips(&e);
            same_cloaks(&mut e, &mut reference);
        }
    }

    #[test]
    fn duplicate_rows_cloak_at_final_position() {
        let mut e = engine();
        // Seed a population so cloaks are k-satisfiable.
        e.process_updates(&lattice_updates(64));
        let out = e.process_updates(&[
            (1, Point::new(0.05, 0.05), SimTime::ZERO),
            (1, Point::new(0.95, 0.95), SimTime::ZERO),
        ]);
        let first = out[0].as_ref().unwrap();
        let second = out[1].as_ref().unwrap();
        // Sequential semantics: both rows cloak after all upserts, so
        // both regions contain the final position.
        assert!(first.region.region.contains_point(Point::new(0.95, 0.95)));
        assert_eq!(first.region.region, second.region.region);
    }

    #[test]
    fn unknown_users_fail_in_place() {
        let mut e = engine();
        let out = e.process_updates(&[
            (1, Point::new(0.5, 0.5), SimTime::ZERO),
            (9999, Point::new(0.5, 0.5), SimTime::ZERO),
        ]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(CloakError::UnknownUser(9999))));
        assert!(matches!(
            e.range_query(9999, SimTime::ZERO, 0.1),
            Err(CloakError::UnknownUser(9999))
        ));
    }

    #[test]
    fn range_query_answers_in_id_order() {
        let mut e = engine();
        let objects: Vec<PublicObject> = (0..40)
            .map(|i| PublicObject::new(i, Point::new(((i as f64) * 0.025).min(0.999), 0.5), 0))
            .collect();
        e.load_public(objects.clone());
        e.process_updates(&lattice_updates(64));
        let ans = e.range_query(7, SimTime::ZERO, 0.2).unwrap();
        // Candidates are sorted by id and decodable from the wire.
        let ids: Vec<u64> = ans.candidates.iter().map(|o| o.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        let decoded = wire::decode_candidates(&ans.response).unwrap();
        assert_eq!(decoded.len(), ans.candidates.len());
        // The request hop decodes to the same cloak.
        let req = wire::decode_range_query(&ans.request).unwrap();
        assert_eq!(req.region, ans.region.region);
        // Sanity: candidates match the unsharded predicate.
        let merged = PublicStore::bulk_load(objects);
        let mut expect = private_range_candidates(&merged, &ans.region.region, 0.2);
        expect.sort_unstable_by_key(|o| o.id);
        assert_eq!(ans.candidates, expect);
    }

    #[test]
    fn a_second_register_replaces_the_profile_and_the_next_cloak_grows() {
        let mut e = engine();
        e.process_updates(&lattice_updates(64));
        let small = e.nn_query(7, SimTime::ZERO).unwrap();
        e.register(
            7,
            PrivacyProfile::uniform(CloakRequirement::k_only(40)).unwrap(),
        );
        assert_eq!(e.registered(), 64);
        let big = e.nn_query(7, SimTime::ZERO).unwrap();
        assert!(big.region.area() > small.region.area());
        assert!(big.region.achieved_k >= 40);
        // The next update cloaks by the new profile too.
        let row = lattice_updates(8)[7];
        let next = e.process_updates(&[row]).pop().unwrap().unwrap();
        assert_eq!(next.region, big.region);
    }

    #[test]
    fn a_standing_range_reuses_its_candidates_while_the_cloak_is_unchanged() {
        let mut e = engine();
        let objects: Vec<PublicObject> = (0..100)
            .map(|i| {
                let p = Point::new(0.05 + 0.1 * (i % 10) as f64, 0.05 + 0.1 * (i / 10) as f64);
                PublicObject::new(i, p, 0)
            })
            .collect();
        e.load_public(objects.clone());
        e.process_updates(&lattice_updates(64));
        let q = e.add_standing_range(7, 0.2);
        assert!(e.standing_counts().candidates(q).unwrap().is_empty());
        let at = |x: f64, y: f64, t: f64| [(7, Point::new(x, y), SimTime::from_secs(t))];
        e.process_updates(&at(0.55, 0.55, 1.0));
        assert!(!e.standing_counts().candidates(q).unwrap().is_empty());
        // A move inside the same cell keeps the cloak: reuse.
        e.process_updates(&at(0.551, 0.551, 2.0));
        assert_eq!(e.standing_counts().recomputes, 1, "same cloak reused");
        assert!(e.standing_counts().reuses >= 1);
        // A jump across the world changes the cloak: recompute.
        e.process_updates(&at(0.05, 0.95, 3.0));
        assert_eq!(e.standing_counts().recomputes, 2);
        // The candidates hold the exact answer at the new position.
        let cands = e.standing_counts().candidates(q).unwrap();
        for o in objects
            .iter()
            .filter(|o| o.pos.dist(Point::new(0.05, 0.95)) <= 0.2)
        {
            assert!(cands.iter().any(|c| c.id == o.id), "object {}", o.id);
        }
    }

    #[test]
    fn a_mirrored_cloak_queues_no_push_and_keeps_a_pending_range_change() {
        let mut e = engine();
        e.load_public(
            (0..100)
                .map(|i| {
                    let p = Point::new(0.05 + 0.1 * (i % 10) as f64, 0.05 + 0.1 * (i / 10) as f64);
                    PublicObject::new(i, p, 0)
                })
                .collect(),
        );
        e.process_updates(&lattice_updates(64));
        let qc = e.add_standing_count(world());
        let qr = e.add_standing_range(7, 0.2);
        assert_ne!(qc, qr, "one id space");
        // User 7's own cloak fills its range's candidates: a change
        // queued. Its cloak stays inside the world: the count's interval
        // holds.
        e.process_updates(&[(7, Point::new(0.55, 0.55), SimTime::from_secs(1.0))]);
        let seq = |e: &ShardedEngine| e.standing_state(qc).unwrap().seq();
        let before = seq(&e);
        // A peer's user enters the count: its seq moves, but only the
        // peer pushes.
        let cloak = CloakedUpdate {
            pseudonym: Pseudonym(1 << 40),
            region: CloakedRegion {
                region: Rect::new_unchecked(0.1, 0.1, 0.2, 0.2),
                achieved_k: 5,
                k_satisfied: true,
                area_satisfied: true,
            },
            time: SimTime::from_secs(1.0),
        };
        e.apply_mirror(&[(99, Point::new(0.15, 0.15), SimTime::ZERO)], &[cloak]);
        assert_eq!(seq(&e), before + 1);
        assert_eq!(e.take_standing_changes(), vec![qr]);
    }

    #[test]
    fn private_store_tracks_ingest() {
        let mut e = engine();
        let rows = lattice_updates(64);
        let replies = e.process_updates(&rows);
        assert_eq!(e.private_len(), 64);
        // One record per user: its pseudonym and the cloak it was sent.
        let mut want: Vec<(u64, Rect)> = replies
            .iter()
            .flatten()
            .map(|u| (u.pseudonym.0, u.region.region))
            .collect();
        want.sort_unstable_by_key(|&(p, _)| p);
        assert_eq!(e.export_state().records, want);
        assert!(want.iter().all(|(_, r)| r.intersects(&world())));
    }

    #[test]
    fn standing_count_interval_matches_full_recompute() {
        use lbsp_server::{PrivateRecord, PrivateStore, PublicCountQuery};
        let mut e = engine();
        e.process_updates(&lattice_updates(64));
        let area = Rect::new_unchecked(0.1, 0.1, 0.6, 0.6);
        let qc = e.add_standing_count(area);
        e.process_updates(&lattice_updates(64));
        // Recompute over a server store built from the engine's records.
        assert_eq!(e.private_len(), 64);
        let mut store = PrivateStore::new();
        for (p, r) in e.export_state().records {
            store.upsert(PrivateRecord::new(p, r));
        }
        let full = PublicCountQuery::new(area).evaluate(store.iter());
        assert_eq!(
            e.standing_counts().interval(qc).unwrap(),
            (full.certain, full.possible)
        );
        let inc = e.standing_counts().expected(qc).unwrap();
        assert!((inc - full.expected).abs() < 1e-9);
        assert!(e.deregister_standing(qc));
        assert!(e.standing_state(qc).is_none());
    }

    #[test]
    fn state_dump_rebuilds_byte_identical_engine() {
        // Drive a full workload (public data, movement, standing queries,
        // a partial drain), dump, rebuild, and require every externally
        // visible byte to match as both engines keep evolving.
        let objects: Vec<PublicObject> = (0..40)
            .map(|i| PublicObject::new(i, Point::new(((i as f64) * 0.025).min(0.999), 0.5), 0))
            .collect();
        let mut a = engine();
        a.load_public(objects);
        a.process_updates(&lattice_updates(64));
        let qc = a.add_standing_count(Rect::new_unchecked(0.2, 0.2, 0.8, 0.8));
        let qr = a.add_standing_range(7, 0.2);
        a.process_updates(&lattice_updates(64));
        a.take_standing_changes();

        let dump = a.export_state();
        let mut b = ShardedEngine::from_state(&dump);
        // The dump itself must round-trip losslessly through the rebuild.
        assert_eq!(b.export_state(), dump);
        assert_eq!(
            journal::encode_engine_state(&b.export_state()),
            journal::encode_engine_state(&dump)
        );

        // Both engines keep producing identical wire bytes afterwards.
        let wave: Vec<(UserId, Point, SimTime)> = (0..64u64)
            .map(|i| {
                let x = (((i + 3) as f64 * 0.618_033_988_749) % 1.0).min(0.999);
                let y = (((i + 5) as f64 * 0.414_213_562_373) % 1.0).min(0.999);
                (i, Point::new(x, y), SimTime::from_secs(9.0))
            })
            .collect();
        let wa = a.process_updates_wire(&wave);
        let wb = b.process_updates_wire(&wave);
        for (x, y) in wa.iter().zip(&wb) {
            assert_eq!(x.as_ref().unwrap().to_vec(), y.as_ref().unwrap().to_vec());
        }
        for id in [qc, qr] {
            assert_eq!(
                wire::encode_standing_state(&a.standing_state(id).unwrap()),
                wire::encode_standing_state(&b.standing_state(id).unwrap())
            );
        }
        assert_eq!(a.take_standing_changes(), b.take_standing_changes());
        assert_eq!(
            a.range_query(7, SimTime::from_secs(9.0), 0.2)
                .unwrap()
                .response,
            b.range_query(7, SimTime::from_secs(9.0), 0.2)
                .unwrap()
                .response
        );
    }

    /// An in-memory sink capturing the journal stream for assertions.
    struct VecSink {
        records: Arc<Mutex<Vec<JournalRecord>>>,
        syncs: Arc<AtomicU64>,
        snapshots: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl DurabilitySink for VecSink {
        fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
            self.records.lock().unwrap().push(rec.clone());
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn snapshot(&mut self, state: &[u8]) -> std::io::Result<()> {
            self.snapshots.lock().unwrap().push(state.to_vec());
            Ok(())
        }
    }

    #[test]
    fn journaled_ops_replay_to_the_same_engine() {
        let records = Arc::new(Mutex::new(Vec::new()));
        let syncs = Arc::new(AtomicU64::new(0));
        let snapshots = Arc::new(Mutex::new(Vec::new()));
        let mut durable = engine();
        durable.attach_durability(
            Durability {
                snapshot_every: 3,
                fsync: true,
            },
            Box::new(VecSink {
                records: Arc::clone(&records),
                syncs: Arc::clone(&syncs),
                snapshots: Arc::clone(&snapshots),
            }),
        );
        durable.process_updates(&lattice_updates(64));
        let qc = durable.add_standing_count(Rect::new_unchecked(0.2, 0.2, 0.8, 0.8));
        durable.process_updates(&lattice_updates(48));
        durable.take_standing_changes();

        // Every mutation hit the log, in order, and was fsynced.
        let log = records.lock().unwrap().clone();
        assert_eq!(log.len(), 4);
        assert!(
            matches!(log[0], JournalRecord::Op(EngineOp::UpdateBatch { ref rows }) if rows.len() == 64)
        );
        assert!(matches!(
            log[1],
            JournalRecord::Op(EngineOp::InstallStanding { id: 0, .. })
        ));
        assert_eq!(syncs.load(Ordering::Relaxed), 4);
        // Cadence of 3: the 3rd logged mutation triggered one snapshot.
        assert_eq!(snapshots.lock().unwrap().len(), 1);

        // Replaying the log on a fresh engine reproduces the state.
        let mut replayed = engine();
        for rec in &log {
            if let JournalRecord::Op(op) = rec {
                replayed.apply_op(op);
            }
        }
        assert_eq!(
            journal::encode_engine_state(&replayed.export_state()),
            journal::encode_engine_state(&durable.export_state())
        );
        // ... and the snapshot taken mid-run decodes to a state that,
        // replayed forward with the remaining ops, also converges.
        let snap = snapshots.lock().unwrap()[0].clone();
        let snap_state = journal::decode_engine_state(&snap).unwrap();
        let mut from_snap = ShardedEngine::from_state(&snap_state);
        if let JournalRecord::Op(op) = &log[3] {
            from_snap.apply_op(op);
        }
        assert_eq!(
            journal::encode_engine_state(&from_snap.export_state()),
            journal::encode_engine_state(&durable.export_state())
        );
        let _ = qc;
    }

    #[test]
    fn a_batch_is_one_journal_record() {
        let records = Arc::new(Mutex::new(Vec::new()));
        let mut e = engine();
        e.attach_durability(
            Durability {
                snapshot_every: 1_000,
                fsync: false,
            },
            Box::new(VecSink {
                records: Arc::clone(&records),
                syncs: Arc::new(AtomicU64::new(0)),
                snapshots: Arc::new(Mutex::new(Vec::new())),
            }),
        );
        let rows = lattice_updates(8);
        for batch in [&rows[..1], &rows[1..3], &rows[3..]] {
            e.process_updates(batch);
        }
        // A mirrored update with its owner's cloak, as `MIRROR_UPDATE`
        // delivers it, and a resync install: one record each.
        let mut donor = engine();
        let cloak = donor.process_updates(&rows[..1]).remove(0).unwrap();
        e.apply_mirror(&[(70, Point::new(0.3, 0.3), SimTime::ZERO)], &[cloak]);
        let state = donor.resync_export();
        e.apply_mirror(&state.rows, &state.cloaks);
        let log = records.lock().unwrap();
        let sizes: Vec<(usize, usize)> = log
            .iter()
            .map(|rec| match rec {
                JournalRecord::Op(EngineOp::UpdateBatch { rows }) => (rows.len(), 0),
                JournalRecord::Op(EngineOp::Mirror(m)) => (m.rows.len(), m.cloaks.len()),
                other => panic!("only batches and mirrors were applied, got {other:?}"),
            })
            .collect();
        assert_eq!(sizes, [(1, 0), (2, 0), (5, 0), (1, 1), (1, 1)]);
        assert!(matches!(log[4], JournalRecord::Op(EngineOp::Mirror(ref m)) if *m == state));
    }
}
