//! Durability journal: the op vocabulary and bit-exact state codecs.
//!
//! The whole reproduction is in-memory; one restart silently forgets
//! every user's privacy profile, cloaked position, and standing query.
//! This module defines what a durable deployment writes down:
//!
//! * [`EngineOp`] / [`JournalRecord`] — the logical mutation vocabulary
//!   of [`crate::ShardedEngine`] and [`crate::PrivacyAwareSystem`]. One
//!   record is appended to the write-ahead log *before* the mutation is
//!   applied, so a crash loses at most work that was never acknowledged.
//! * [`EngineState`] — a bit-exact export of everything a
//!   [`crate::ShardedEngine`] needs to resume: profiles, positions,
//!   private records, public objects, and the *raw* accumulator state of
//!   both standing-query registries. Compacting the registries from ops
//!   would not do: the Neumaier `sum`/`comp` bits, the reconcile
//!   counters, and the change sequence numbers all depend on the full
//!   delta history, and the acceptance bar is byte-identical wire
//!   output after recovery.
//! * [`DurabilitySink`] — the interface the engine logs through. The
//!   file-backed implementation lives in `lbsp-store`; keeping the trait
//!   here lets the engine stay free of file I/O and lets tests inject
//!   failing or recording sinks.
//!
//! Codecs follow the [`crate::wire`] discipline: fixed-width
//! little-endian fields, strict exact-length decoding, u64 arithmetic
//! against hostile length prefixes, and no panicking path — record
//! payloads are re-read from disk, which is exactly as untrusted as the
//! network.

use crate::engine::EngineConfig;
use crate::standing::{StandingRangeEntryState, StandingRangesState};
use crate::wire::{self, StandingKind};
use crate::UserId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use lbsp_anonymizer::{CloakRequirement, CloakedUpdate, PrivacyProfile, ProfileEntry};
use lbsp_geom::{Point, Rect, SimTime, TimeInterval, TimeOfDay, MINUTES_PER_DAY};
use lbsp_server::{ContinuousCountState, PublicObject, StandingCountQueryState};

/// Durability policy: when to log and when to compact.
#[derive(Debug, Clone, Copy)]
pub struct Durability {
    /// Take a compacted snapshot after this many logged mutations
    /// (0 disables snapshotting; the log grows unboundedly).
    pub snapshot_every: u64,
    /// `fsync` the log after every append. Turning this off trades the
    /// durability of the most recent ops for throughput; recovery still
    /// restores a clean prefix either way.
    pub fsync: bool,
}

impl Default for Durability {
    fn default() -> Durability {
        Durability {
            snapshot_every: 1024,
            fsync: true,
        }
    }
}

/// Where journal records go. Implemented by `lbsp-store`'s WAL; tests
/// inject in-memory or failing sinks.
pub trait DurabilitySink: Send {
    /// Appends one record to the log (buffered; durable after
    /// [`DurabilitySink::sync`] at the latest).
    fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()>;

    /// Forces appended records to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;

    /// Installs a compacted snapshot covering every op appended so far;
    /// the sink may discard fully-covered log segments afterwards.
    fn snapshot(&mut self, state: &[u8]) -> std::io::Result<()>;
}

/// The policy + sink pair an engine or system journals through, with
/// the mutation counter that drives periodic snapshots.
pub struct DurableHook {
    policy: Durability,
    sink: Box<dyn DurabilitySink>,
    since_snapshot: u64,
}

impl DurableHook {
    /// Creates a hook from a policy and a sink.
    pub fn new(policy: Durability, sink: Box<dyn DurabilitySink>) -> DurableHook {
        DurableHook {
            policy,
            sink,
            since_snapshot: 0,
        }
    }

    /// The durability policy in force.
    pub fn policy(&self) -> Durability {
        self.policy
    }

    /// Appends one record and counts it toward the snapshot cadence.
    pub fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
        self.sink.append(rec)?;
        self.since_snapshot = self.since_snapshot.saturating_add(1);
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.sink.sync()
    }

    /// `true` when the policy calls for a snapshot now.
    pub fn snapshot_due(&self) -> bool {
        self.policy.snapshot_every > 0 && self.since_snapshot >= self.policy.snapshot_every
    }

    /// Installs a snapshot and resets the cadence counter.
    pub fn install_snapshot(&mut self, state: &[u8]) -> std::io::Result<()> {
        self.sink.snapshot(state)?;
        self.since_snapshot = 0;
        Ok(())
    }
}

impl std::fmt::Debug for DurableHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableHook")
            .field("policy", &self.policy)
            .field("since_snapshot", &self.since_snapshot)
            .finish()
    }
}

/// One logical mutation of the engine/system, as written to the log.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineOp {
    /// A user registered (or re-registered) with a privacy profile.
    RegisterUser {
        /// True user id (the journal lives on the trusted side).
        id: UserId,
        /// Active (shares locations) or passive.
        active: bool,
        /// The registered privacy profile.
        profile: PrivacyProfile,
    },
    /// One batch of exact location updates, in input order. Batch
    /// boundaries are preserved: duplicate-row settlement and the
    /// shared-execution cloak cache are batch-scoped.
    UpdateBatch {
        /// `(user, exact position, time)` rows.
        rows: Vec<(UserId, Point, SimTime)>,
    },
    /// The public-object dataset was (re)loaded.
    LoadPublic {
        /// The full object set.
        objects: Vec<PublicObject>,
    },
    /// A standing count query was registered over an area.
    AddStandingCount {
        /// The monitored area.
        area: Rect,
    },
    /// A standing private range query was registered for a user.
    AddStandingRange {
        /// Owning user.
        user: UserId,
        /// Query radius in world units.
        radius: f64,
    },
    /// Cluster mirror: a standing count query installed under the id
    /// node 0 granted (mirrors never allocate ids). Idempotent — if
    /// the id is already present the registry leaves it untouched — so
    /// an ack-lost replay of the mirror frame is a no-op.
    InstallStandingCount {
        /// The node-0-granted query id.
        id: u64,
        /// The monitored area.
        area: Rect,
    },
    /// Cluster mirror: a standing private range query installed under
    /// the id node 0 granted. Same idempotence contract as
    /// [`EngineOp::InstallStandingCount`].
    InstallStandingRange {
        /// The node-0-granted query id.
        id: u64,
        /// Owning user.
        user: UserId,
        /// Query radius in world units.
        radius: f64,
    },
    /// A standing query was deregistered.
    DeregisterStanding {
        /// Which registry the id lives in.
        kind: StandingKind,
        /// Query id within that registry.
        id: u64,
    },
    /// The changed-query sets were drained (this mutates the registries,
    /// so replay must drain at the same points).
    TakeStandingChanges,
    /// A user's privacy profile changed at runtime.
    UpdateProfile {
        /// True user id.
        id: UserId,
        /// The new profile.
        profile: PrivacyProfile,
    },
    /// Cluster mirror: another node's exact-update rows, replayed into
    /// this node's position plane only (no cloaking, no replies, no
    /// standing-query evaluation). The rows travel anonymizer-tier to
    /// anonymizer-tier — a trusted hop, like [`EngineOp::UpdateBatch`].
    ShadowBatch {
        /// `(user, exact position, time)` rows, in owner-batch order.
        rows: Vec<(UserId, Point, SimTime)>,
    },
    /// Cluster mirror: the owning node's cloaked reply for one user,
    /// relayed so every node's private store and standing-count registry
    /// see the full fleet. Carries only the pseudonymized cloaked record
    /// — never an exact point or true id.
    IngestCloak {
        /// The cloaked update, byte-identical to the owner's reply.
        update: CloakedUpdate,
    },
    /// Cluster handoff: a user's single-copy state (profile + standing
    /// range registrations) was extracted for migration to another node.
    HandoffOut {
        /// The migrating user.
        subject: UserId,
    },
    /// Cluster handoff: a migrated user's single-copy state was
    /// installed on this node.
    HandoffIn {
        /// The handoff payload, exactly as it crossed the wire.
        msg: wire::HandoffMsg,
    },
}

/// One record in the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// First record of an engine journal: the engine configuration
    /// (including the pseudonym secret — recovery must reproduce the
    /// same pseudonym bijection or every server-side key changes).
    InitEngine(EngineConfig),
    /// First record of a system journal.
    InitSystem,
    /// A logical mutation.
    Op(EngineOp),
}

// Record tags. Ops are 0x01..; init records sit high so a truncated or
// shuffled log cannot alias an op into an init.
const TAG_REGISTER_USER: u8 = 0x01;
const TAG_UPDATE_BATCH: u8 = 0x02;
const TAG_LOAD_PUBLIC: u8 = 0x03;
const TAG_ADD_STANDING_COUNT: u8 = 0x04;
const TAG_ADD_STANDING_RANGE: u8 = 0x05;
const TAG_DEREGISTER_STANDING: u8 = 0x06;
const TAG_TAKE_STANDING_CHANGES: u8 = 0x07;
const TAG_UPDATE_PROFILE: u8 = 0x08;
const TAG_SHADOW_BATCH: u8 = 0x09;
const TAG_INGEST_CLOAK: u8 = 0x0A;
const TAG_HANDOFF_OUT: u8 = 0x0B;
const TAG_HANDOFF_IN: u8 = 0x0C;
const TAG_INSTALL_STANDING: u8 = 0x0D;
const TAG_INIT_ENGINE: u8 = 0xE0;
const TAG_INIT_SYSTEM: u8 = 0xE1;

/// Version byte leading every encoded [`EngineState`]; bumped on any
/// layout change so recovery fails loudly instead of misreading state.
pub const ENGINE_STATE_VERSION: u8 = 2;

/// A bit-exact export of a [`crate::ShardedEngine`]. Every vector is
/// sorted by its id so the encoding is canonical: two engines with the
/// same logical state produce the same bytes regardless of hash-map
/// iteration order.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// The engine configuration (world, grid, refinement, secret).
    pub config: EngineConfig,
    /// Registered privacy profiles, sorted by user id.
    pub profiles: Vec<(UserId, PrivacyProfile)>,
    /// Tracked exact positions, sorted by user id.
    pub positions: Vec<(UserId, Point)>,
    /// Private (cloaked) records, sorted by pseudonym.
    pub records: Vec<(u64, Rect)>,
    /// Public objects, sorted by id.
    pub public: Vec<PublicObject>,
    /// Raw accumulator state of the standing count registry.
    pub counts: ContinuousCountState,
    /// Raw state of the standing private-range registry.
    pub ranges: StandingRangesState,
}

// ---------------------------------------------------------------------
// Strict little-endian reader (the decode half of every codec).
// ---------------------------------------------------------------------

/// A bounds-checked cursor over untrusted bytes. Every accessor returns
/// `None` instead of panicking on short input.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn done(&self) -> bool {
        self.buf.is_empty()
    }

    fn u8(&mut self) -> Option<u8> {
        if self.buf.is_empty() {
            return None;
        }
        Some(self.buf.get_u8())
    }

    fn u32(&mut self) -> Option<u32> {
        if self.buf.len() < 4 {
            return None;
        }
        Some(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Option<u64> {
        if self.buf.len() < 8 {
            return None;
        }
        Some(self.buf.get_u64_le())
    }

    fn f64(&mut self) -> Option<f64> {
        if self.buf.len() < 8 {
            return None;
        }
        Some(self.buf.get_f64_le())
    }

    fn rect(&mut self) -> Option<Rect> {
        let (x0, y0) = (self.f64()?, self.f64()?);
        let (x1, y1) = (self.f64()?, self.f64()?);
        Rect::new(x0, y0, x1, y1).ok()
    }

    fn point(&mut self) -> Option<Point> {
        Some(Point::new(self.f64()?, self.f64()?))
    }

    /// Validates a length prefix against the remaining buffer before
    /// any allocation: `n` entries of at least `min_entry` bytes each
    /// must fit in what is left, so a hostile prefix cannot force a
    /// huge `Vec::with_capacity`.
    fn guarded(&self, n: u64, min_entry: u64) -> Option<usize> {
        let need = n.checked_mul(min_entry)?;
        if need > self.buf.len() as u64 {
            return None;
        }
        usize::try_from(n).ok()
    }

    /// Reads a u32 length prefix and guards it (see [`Reader::guarded`]).
    fn len_u32(&mut self, min_entry: u64) -> Option<usize> {
        let n = u64::from(self.u32()?);
        self.guarded(n, min_entry)
    }

    /// Reads a u64 length prefix and guards it (see [`Reader::guarded`]).
    fn len_u64(&mut self, min_entry: u64) -> Option<usize> {
        let n = self.u64()?;
        self.guarded(n, min_entry)
    }
}

// ---------------------------------------------------------------------
// Privacy profile and engine config codecs
// ---------------------------------------------------------------------

fn put_requirement(b: &mut BytesMut, r: &CloakRequirement) {
    b.put_u32_le(r.k);
    b.put_f64_le(r.a_min);
    b.put_f64_le(r.a_max);
}

fn get_requirement(r: &mut Reader<'_>) -> Option<CloakRequirement> {
    let req = CloakRequirement {
        k: r.u32()?,
        a_min: r.f64()?,
        a_max: r.f64()?,
    };
    req.validate().ok()?;
    Some(req)
}

fn put_profile(b: &mut BytesMut, p: &PrivacyProfile) {
    put_requirement(b, &p.default_requirement());
    let entries = p.entries();
    let n = u32::try_from(entries.len()).unwrap_or(u32::MAX);
    b.put_u32_le(n);
    for e in entries.iter().take(n as usize) {
        b.put_u32_le(e.interval.start.minutes());
        b.put_u32_le(e.interval.end.minutes());
        put_requirement(b, &e.requirement);
    }
}

fn get_profile(r: &mut Reader<'_>) -> Option<PrivacyProfile> {
    let default = get_requirement(r)?;
    let n = r.len_u32(28)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let start = r.u32()?;
        let end = r.u32()?;
        if start >= MINUTES_PER_DAY || end >= MINUTES_PER_DAY {
            return None;
        }
        entries.push(ProfileEntry {
            interval: TimeInterval::new(
                TimeOfDay::from_minutes(start),
                TimeOfDay::from_minutes(end),
            ),
            requirement: get_requirement(r)?,
        });
    }
    PrivacyProfile::new(entries, default).ok()
}

fn put_config(b: &mut BytesMut, cfg: &EngineConfig) {
    b.put_f64_le(cfg.world.min_x());
    b.put_f64_le(cfg.world.min_y());
    b.put_f64_le(cfg.world.max_x());
    b.put_f64_le(cfg.world.max_y());
    b.put_u32_le(cfg.grid_side);
    b.put_u8(u8::from(cfg.refine));
    b.put_u64_le(cfg.secret);
}

/// The largest `grid_side` a decoded config may carry: the engine
/// allocates `grid_side²` cells up front, so a larger side from a
/// damaged log would exhaust memory instead of failing the decode.
const MAX_GRID_SIDE: u32 = 4096;

/// Decodes a config the engine can be built from: a world of positive
/// width and height (the grid divides it into cells) and a grid side in
/// `1..=MAX_GRID_SIDE`; anything else is refused, not left to panic in
/// the grid constructor.
fn get_config(r: &mut Reader<'_>) -> Option<EngineConfig> {
    let world = r.rect()?;
    let grid_side = r.u32()?;
    let refine = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let buildable =
        world.width() > 0.0 && world.height() > 0.0 && (1..=MAX_GRID_SIDE).contains(&grid_side);
    if !buildable {
        return None;
    }
    Some(EngineConfig {
        world,
        grid_side,
        refine,
        secret: r.u64()?,
    })
}

fn put_object(b: &mut BytesMut, o: &PublicObject) {
    b.put_u64_le(o.id);
    b.put_f64_le(o.pos.x);
    b.put_f64_le(o.pos.y);
    b.put_u32_le(o.tag);
}

fn get_object(r: &mut Reader<'_>) -> Option<PublicObject> {
    Some(PublicObject::new(r.u64()?, r.point()?, r.u32()?))
}

// ---------------------------------------------------------------------
// Journal record codec
// ---------------------------------------------------------------------

/// Encodes one journal record (the WAL checksums and length-prefixes
/// these bytes; the codec itself is pure payload).
pub fn encode_record(rec: &JournalRecord) -> Bytes {
    let mut b = BytesMut::with_capacity(64);
    match rec {
        JournalRecord::InitEngine(cfg) => {
            b.put_u8(TAG_INIT_ENGINE);
            put_config(&mut b, cfg);
        }
        JournalRecord::InitSystem => {
            b.put_u8(TAG_INIT_SYSTEM);
        }
        JournalRecord::Op(op) => match op {
            EngineOp::RegisterUser {
                id,
                active,
                profile,
            } => {
                b.put_u8(TAG_REGISTER_USER);
                b.put_u64_le(*id);
                b.put_u8(u8::from(*active));
                put_profile(&mut b, profile);
            }
            EngineOp::UpdateBatch { rows } => {
                b.put_u8(TAG_UPDATE_BATCH);
                // Same truncation rule as `wire::encode_candidates`: the
                // u32 prefix caps the row count instead of wrapping.
                let n = u32::try_from(rows.len()).unwrap_or(u32::MAX);
                b.put_u32_le(n);
                for &(user, position, time) in rows.iter().take(n as usize) {
                    // Each row is exactly the trusted-hop wire message.
                    b.extend_from_slice(&wire::encode_exact_update(&wire::ExactUpdateMsg {
                        user,
                        position,
                        time,
                    }));
                }
            }
            EngineOp::LoadPublic { objects } => {
                b.put_u8(TAG_LOAD_PUBLIC);
                let n = u32::try_from(objects.len()).unwrap_or(u32::MAX);
                b.put_u32_le(n);
                for o in objects.iter().take(n as usize) {
                    put_object(&mut b, o);
                }
            }
            EngineOp::AddStandingCount { area } => {
                b.put_u8(TAG_ADD_STANDING_COUNT);
                b.extend_from_slice(&wire::encode_register_standing_count(
                    &wire::RegisterStandingCountMsg { area: *area },
                ));
            }
            EngineOp::AddStandingRange { user, radius } => {
                b.put_u8(TAG_ADD_STANDING_RANGE);
                b.extend_from_slice(&wire::encode_register_standing_range(
                    &wire::RegisterStandingRangeMsg {
                        user: *user,
                        radius: *radius,
                    },
                ));
            }
            EngineOp::InstallStandingCount { id, area } => {
                b.put_u8(TAG_INSTALL_STANDING);
                b.extend_from_slice(&wire::encode_standing_install(
                    &wire::StandingInstallMsg::Count {
                        id: *id,
                        area: *area,
                    },
                ));
            }
            EngineOp::InstallStandingRange { id, user, radius } => {
                b.put_u8(TAG_INSTALL_STANDING);
                b.extend_from_slice(&wire::encode_standing_install(
                    &wire::StandingInstallMsg::Range {
                        id: *id,
                        user: *user,
                        radius: *radius,
                    },
                ));
            }
            EngineOp::DeregisterStanding { kind, id } => {
                b.put_u8(TAG_DEREGISTER_STANDING);
                b.extend_from_slice(&wire::encode_standing_ref(&wire::StandingRefMsg {
                    kind: *kind,
                    id: *id,
                }));
            }
            EngineOp::TakeStandingChanges => {
                b.put_u8(TAG_TAKE_STANDING_CHANGES);
            }
            EngineOp::UpdateProfile { id, profile } => {
                b.put_u8(TAG_UPDATE_PROFILE);
                b.put_u64_le(*id);
                put_profile(&mut b, profile);
            }
            EngineOp::ShadowBatch { rows } => {
                b.put_u8(TAG_SHADOW_BATCH);
                // Row layout is identical to `UpdateBatch`; only the tag
                // (and therefore the replay semantics) differs.
                let n = u32::try_from(rows.len()).unwrap_or(u32::MAX);
                b.put_u32_le(n);
                for &(user, position, time) in rows.iter().take(n as usize) {
                    b.extend_from_slice(&wire::encode_exact_update(&wire::ExactUpdateMsg {
                        user,
                        position,
                        time,
                    }));
                }
            }
            EngineOp::IngestCloak { update } => {
                b.put_u8(TAG_INGEST_CLOAK);
                b.extend_from_slice(&wire::encode_cloaked_update(update));
            }
            EngineOp::HandoffOut { subject } => {
                b.put_u8(TAG_HANDOFF_OUT);
                b.put_u64_le(*subject);
            }
            EngineOp::HandoffIn { msg } => {
                b.put_u8(TAG_HANDOFF_IN);
                b.extend_from_slice(&wire::encode_handoff(msg));
            }
        },
    }
    b.freeze()
}

/// Decodes one journal record. Strict: the whole buffer must be exactly
/// one record — short input, trailing bytes, unknown tags, and invalid
/// payloads (bad rectangles, invalid profiles, unknown standing kinds)
/// are all rejected with `None`.
pub fn decode_record(buf: &[u8]) -> Option<JournalRecord> {
    let mut r = Reader::new(buf);
    let rec = match r.u8()? {
        TAG_INIT_ENGINE => JournalRecord::InitEngine(get_config(&mut r)?),
        TAG_INIT_SYSTEM => JournalRecord::InitSystem,
        TAG_REGISTER_USER => {
            let id = r.u64()?;
            let active = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            JournalRecord::Op(EngineOp::RegisterUser {
                id,
                active,
                profile: get_profile(&mut r)?,
            })
        }
        TAG_UPDATE_BATCH => {
            let n = r.len_u32(wire::EXACT_UPDATE_LEN as u64)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                // Reuse the length-strict row codec, row by row; a
                // non-finite row an in-process caller logged reads back.
                if r.remaining() < wire::EXACT_UPDATE_LEN {
                    return None;
                }
                let (row, rest) = r.buf.split_at(wire::EXACT_UPDATE_LEN);
                let msg = wire::read_exact_row(row)?;
                r.buf = rest;
                rows.push((msg.user, msg.position, msg.time));
            }
            JournalRecord::Op(EngineOp::UpdateBatch { rows })
        }
        TAG_LOAD_PUBLIC => {
            let n = r.len_u32(28)?;
            let mut objects = Vec::with_capacity(n);
            for _ in 0..n {
                objects.push(get_object(&mut r)?);
            }
            JournalRecord::Op(EngineOp::LoadPublic { objects })
        }
        TAG_ADD_STANDING_COUNT => {
            if r.remaining() != wire::REGISTER_STANDING_COUNT_LEN {
                return None;
            }
            let msg = wire::decode_register_standing_count(r.buf)?;
            r.buf = &[];
            JournalRecord::Op(EngineOp::AddStandingCount { area: msg.area })
        }
        TAG_ADD_STANDING_RANGE => {
            if r.remaining() != wire::REGISTER_STANDING_RANGE_LEN {
                return None;
            }
            let msg = wire::decode_register_standing_range(r.buf)?;
            r.buf = &[];
            JournalRecord::Op(EngineOp::AddStandingRange {
                user: msg.user,
                radius: msg.radius,
            })
        }
        TAG_INSTALL_STANDING => {
            // The install codec is strict about its own length (per
            // kind), so only the full-record check lives there.
            let msg = wire::decode_standing_install(r.buf)?;
            r.buf = &[];
            JournalRecord::Op(match msg {
                wire::StandingInstallMsg::Count { id, area } => {
                    EngineOp::InstallStandingCount { id, area }
                }
                wire::StandingInstallMsg::Range { id, user, radius } => {
                    EngineOp::InstallStandingRange { id, user, radius }
                }
            })
        }
        TAG_DEREGISTER_STANDING => {
            if r.remaining() != wire::STANDING_REF_LEN {
                return None;
            }
            let msg = wire::decode_standing_ref(r.buf)?;
            r.buf = &[];
            JournalRecord::Op(EngineOp::DeregisterStanding {
                kind: msg.kind,
                id: msg.id,
            })
        }
        TAG_TAKE_STANDING_CHANGES => JournalRecord::Op(EngineOp::TakeStandingChanges),
        TAG_UPDATE_PROFILE => {
            let id = r.u64()?;
            JournalRecord::Op(EngineOp::UpdateProfile {
                id,
                profile: get_profile(&mut r)?,
            })
        }
        TAG_SHADOW_BATCH => {
            let n = r.len_u32(wire::EXACT_UPDATE_LEN as u64)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                if r.remaining() < wire::EXACT_UPDATE_LEN {
                    return None;
                }
                let (row, rest) = r.buf.split_at(wire::EXACT_UPDATE_LEN);
                let msg = wire::read_exact_row(row)?;
                r.buf = rest;
                rows.push((msg.user, msg.position, msg.time));
            }
            JournalRecord::Op(EngineOp::ShadowBatch { rows })
        }
        TAG_INGEST_CLOAK => {
            if r.remaining() != wire::CLOAKED_UPDATE_LEN {
                return None;
            }
            let update = wire::decode_cloaked_update(r.buf)?;
            r.buf = &[];
            JournalRecord::Op(EngineOp::IngestCloak { update })
        }
        TAG_HANDOFF_OUT => JournalRecord::Op(EngineOp::HandoffOut { subject: r.u64()? }),
        TAG_HANDOFF_IN => {
            // The handoff codec is strict and exact-length; hand it the
            // whole remaining buffer and let it reject any slack.
            let msg = wire::decode_handoff(r.buf)?;
            r.buf = &[];
            JournalRecord::Op(EngineOp::HandoffIn { msg })
        }
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(rec)
}

// ---------------------------------------------------------------------
// Engine state codec (snapshots)
// ---------------------------------------------------------------------

/// Encodes an engine state snapshot. The encoding is canonical (inputs
/// are sorted vectors, floats are raw IEEE bits), so byte equality of
/// two encoded states is exactly logical-state equality — the property
/// the persistence tests assert on.
pub fn encode_engine_state(state: &EngineState) -> Bytes {
    let mut b = BytesMut::with_capacity(1024);
    b.put_u8(ENGINE_STATE_VERSION);
    put_config(&mut b, &state.config);
    b.put_u64_le(state.profiles.len() as u64);
    for (id, p) in &state.profiles {
        b.put_u64_le(*id);
        put_profile(&mut b, p);
    }
    b.put_u64_le(state.positions.len() as u64);
    for (id, p) in &state.positions {
        b.put_u64_le(*id);
        b.put_f64_le(p.x);
        b.put_f64_le(p.y);
    }
    b.put_u64_le(state.records.len() as u64);
    for (pseudonym, region) in &state.records {
        b.put_u64_le(*pseudonym);
        b.put_f64_le(region.min_x());
        b.put_f64_le(region.min_y());
        b.put_f64_le(region.max_x());
        b.put_f64_le(region.max_y());
    }
    b.put_u64_le(state.public.len() as u64);
    for o in &state.public {
        put_object(&mut b, o);
    }
    // Standing count registry: raw accumulators, bit for bit.
    let c = &state.counts;
    b.put_u64_le(c.queries.len() as u64);
    for q in &c.queries {
        b.put_u64_le(q.id);
        b.put_f64_le(q.area.min_x());
        b.put_f64_le(q.area.min_y());
        b.put_f64_le(q.area.max_x());
        b.put_f64_le(q.area.max_y());
        b.put_u64_le(q.contributions.len() as u64);
        for (pseudonym, p) in &q.contributions {
            b.put_u64_le(*pseudonym);
            b.put_f64_le(*p);
        }
        b.put_f64_le(q.sum);
        b.put_f64_le(q.comp);
        b.put_u64_le(q.mutations);
        b.put_u64_le(q.seq);
    }
    b.put_u64_le(c.next_id);
    b.put_u64_le(c.changed.len() as u64);
    for id in &c.changed {
        b.put_u64_le(*id);
    }
    b.put_u64_le(c.updates_processed);
    b.put_u64_le(c.examined_total);
    // Standing private-range registry.
    let g = &state.ranges;
    b.put_u64_le(g.entries.len() as u64);
    for e in &g.entries {
        b.put_u64_le(e.id);
        b.put_u64_le(e.user);
        b.put_f64_le(e.radius);
        match &e.cloak {
            None => b.put_u8(0),
            Some(r) => {
                b.put_u8(1);
                b.put_f64_le(r.min_x());
                b.put_f64_le(r.min_y());
                b.put_f64_le(r.max_x());
                b.put_f64_le(r.max_y());
            }
        }
        b.put_u64_le(e.candidates.len() as u64);
        for o in &e.candidates {
            put_object(&mut b, o);
        }
        b.put_u64_le(e.seq);
    }
    b.put_u64_le(g.next_id);
    b.put_u64_le(g.changed.len() as u64);
    for id in &g.changed {
        b.put_u64_le(*id);
    }
    b.put_u64_le(g.recomputes);
    b.put_u64_le(g.reuses);
    b.freeze()
}

/// Decodes an engine state snapshot. Strict: version byte, every length
/// prefix guarded before allocation, rectangles validated, and trailing
/// bytes rejected. Raw float accumulators (contribution probabilities,
/// Neumaier sum/compensation) round-trip bit-exactly — they are state,
/// not input, and altering them would break byte-identical recovery.
pub fn decode_engine_state(buf: &[u8]) -> Option<EngineState> {
    let mut r = Reader::new(buf);
    if r.u8()? != ENGINE_STATE_VERSION {
        return None;
    }
    let config = get_config(&mut r)?;
    let n = r.len_u64(28)?;
    let mut profiles = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u64()?;
        profiles.push((id, get_profile(&mut r)?));
    }
    let n = r.len_u64(24)?;
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u64()?;
        positions.push((id, r.point()?));
    }
    let n = r.len_u64(40)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let pseudonym = r.u64()?;
        records.push((pseudonym, r.rect()?));
    }
    let n = r.len_u64(28)?;
    let mut public = Vec::with_capacity(n);
    for _ in 0..n {
        public.push(get_object(&mut r)?);
    }
    let n = r.len_u64(72)?;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u64()?;
        let area = r.rect()?;
        let m = r.len_u64(16)?;
        let mut contributions = Vec::with_capacity(m);
        for _ in 0..m {
            let pseudonym = r.u64()?;
            contributions.push((pseudonym, r.f64()?));
        }
        queries.push(StandingCountQueryState {
            id,
            area,
            contributions,
            sum: r.f64()?,
            comp: r.f64()?,
            mutations: r.u64()?,
            seq: r.u64()?,
        });
    }
    let next_id = r.u64()?;
    let m = r.len_u64(8)?;
    let mut changed = Vec::with_capacity(m);
    for _ in 0..m {
        changed.push(r.u64()?);
    }
    let counts = ContinuousCountState {
        queries,
        next_id,
        changed,
        updates_processed: r.u64()?,
        examined_total: r.u64()?,
    };
    let n = r.len_u64(33)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u64()?;
        let user = r.u64()?;
        let radius = r.f64()?;
        let cloak = match r.u8()? {
            0 => None,
            1 => Some(r.rect()?),
            _ => return None,
        };
        let m = r.len_u64(28)?;
        let mut candidates = Vec::with_capacity(m);
        for _ in 0..m {
            candidates.push(get_object(&mut r)?);
        }
        entries.push(StandingRangeEntryState {
            id,
            user,
            radius,
            cloak,
            candidates,
            seq: r.u64()?,
        });
    }
    let next_id = r.u64()?;
    let m = r.len_u64(8)?;
    let mut changed = Vec::with_capacity(m);
    for _ in 0..m {
        changed.push(r.u64()?);
    }
    let ranges = StandingRangesState {
        entries,
        next_id,
        changed,
        recomputes: r.u64()?,
        reuses: r.u64()?,
    };
    if !r.done() {
        return None;
    }
    Some(EngineState {
        config,
        profiles,
        positions,
        records,
        public,
        counts,
        ranges,
    })
}

#[cfg(test)]
mod tests {
    // Tests exercise hostile-input shapes with direct slicing; the
    // panic-freedom bar applies to the codecs, not their tests.
    #![allow(clippy::indexing_slicing, clippy::cast_possible_truncation)]

    use super::*;
    use lbsp_anonymizer::{CloakedRegion, Pseudonym};

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn profile() -> PrivacyProfile {
        PrivacyProfile::new(
            vec![ProfileEntry {
                interval: TimeInterval::new(
                    TimeOfDay::from_minutes(9 * 60),
                    TimeOfDay::from_minutes(17 * 60),
                ),
                requirement: CloakRequirement {
                    k: 25,
                    a_min: 0.01,
                    a_max: 0.5,
                },
            }],
            CloakRequirement::k_only(5),
        )
        .unwrap()
    }

    fn sample_ops() -> Vec<JournalRecord> {
        vec![
            JournalRecord::InitEngine(EngineConfig::new(world())),
            JournalRecord::InitSystem,
            JournalRecord::Op(EngineOp::RegisterUser {
                id: 7,
                active: true,
                profile: profile(),
            }),
            JournalRecord::Op(EngineOp::UpdateBatch {
                rows: vec![
                    (7, Point::new(0.25, 0.75), SimTime::from_secs(1.0)),
                    (9, Point::new(0.5, 0.5), SimTime::from_secs(2.0)),
                ],
            }),
            JournalRecord::Op(EngineOp::LoadPublic {
                objects: vec![PublicObject::new(1, Point::new(0.1, 0.2), 3)],
            }),
            JournalRecord::Op(EngineOp::AddStandingCount {
                area: Rect::new_unchecked(0.2, 0.2, 0.8, 0.8),
            }),
            JournalRecord::Op(EngineOp::AddStandingRange {
                user: 7,
                radius: 0.125,
            }),
            JournalRecord::Op(EngineOp::InstallStandingCount {
                id: 11,
                area: Rect::new_unchecked(0.1, 0.1, 0.9, 0.9),
            }),
            JournalRecord::Op(EngineOp::InstallStandingRange {
                id: 12,
                user: 9,
                radius: 0.25,
            }),
            JournalRecord::Op(EngineOp::DeregisterStanding {
                kind: StandingKind::Count,
                id: 0,
            }),
            JournalRecord::Op(EngineOp::TakeStandingChanges),
            JournalRecord::Op(EngineOp::UpdateProfile {
                id: 7,
                profile: PrivacyProfile::uniform(CloakRequirement::k_only(50)).unwrap(),
            }),
            JournalRecord::Op(EngineOp::ShadowBatch {
                rows: vec![
                    (3, Point::new(0.125, 0.875), SimTime::from_secs(3.0)),
                    (5, Point::new(0.625, 0.375), SimTime::from_secs(4.0)),
                ],
            }),
            JournalRecord::Op(EngineOp::IngestCloak {
                update: CloakedUpdate {
                    pseudonym: Pseudonym(0xBEEF),
                    region: CloakedRegion {
                        region: Rect::new_unchecked(0.25, 0.25, 0.5, 0.5),
                        achieved_k: 7,
                        k_satisfied: true,
                        area_satisfied: false,
                    },
                    time: SimTime::from_secs(5.0),
                },
            }),
            JournalRecord::Op(EngineOp::HandoffOut { subject: 7 }),
            JournalRecord::Op(EngineOp::HandoffIn {
                msg: wire::HandoffMsg {
                    subject: 7,
                    k: 25,
                    a_min: 0.001,
                    a_max: f64::INFINITY,
                    cloak: Some(Rect::new_unchecked(0.25, 0.5, 0.375, 0.625)),
                    ranges: vec![(3, 7), (9, 0)],
                },
            }),
        ]
    }

    #[test]
    fn every_record_roundtrips() {
        for rec in sample_ops() {
            let bytes = encode_record(&rec);
            let decoded = decode_record(&bytes).unwrap_or_else(|| panic!("decode {rec:?}"));
            match (&rec, &decoded) {
                // EngineConfig has no PartialEq (secret redaction);
                // compare re-encoded bytes instead.
                (JournalRecord::InitEngine(_), JournalRecord::InitEngine(_)) => {
                    assert_eq!(encode_record(&decoded), bytes);
                }
                _ => assert_eq!(decoded, rec),
            }
        }
    }

    #[test]
    fn non_finite_batch_rows_roundtrip() {
        // The network refuses such rows; the journal must still read
        // back whatever an in-process caller logged.
        let rows = vec![
            (1, Point::new(f64::NAN, 0.5), SimTime::from_secs(1.0)),
            (
                2,
                Point::new(0.5, f64::NEG_INFINITY),
                SimTime::from_secs(f64::INFINITY),
            ),
        ];
        for rec in [
            JournalRecord::Op(EngineOp::UpdateBatch { rows: rows.clone() }),
            JournalRecord::Op(EngineOp::ShadowBatch { rows: rows.clone() }),
        ] {
            let bytes = encode_record(&rec);
            let decoded = decode_record(&bytes).unwrap_or_else(|| panic!("decode {rec:?}"));
            // NaN != NaN, so compare re-encoded bytes.
            assert_eq!(encode_record(&decoded), bytes);
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        for rec in sample_ops() {
            let bytes = encode_record(&rec);
            for cut in 0..bytes.len() {
                assert_eq!(decode_record(&bytes[..cut]), None, "cut={cut} rec={rec:?}");
            }
            let mut long = bytes.to_vec();
            long.push(0);
            assert_eq!(decode_record(&long), None, "trailing byte, rec={rec:?}");
        }
    }

    #[test]
    fn unknown_tags_and_bad_payloads_rejected() {
        assert_eq!(decode_record(&[]), None);
        assert_eq!(decode_record(&[0x7F]), None);
        // Invalid active flag.
        let mut bad = encode_record(&JournalRecord::Op(EngineOp::RegisterUser {
            id: 1,
            active: true,
            profile: profile(),
        }))
        .to_vec();
        bad[9] = 2;
        assert_eq!(decode_record(&bad), None);
        // Invalid standing kind.
        let mut bad = encode_record(&JournalRecord::Op(EngineOp::DeregisterStanding {
            kind: StandingKind::Range,
            id: 3,
        }))
        .to_vec();
        bad[1] = 9;
        assert_eq!(decode_record(&bad), None);
        // A lying batch-row count.
        let mut lying = encode_record(&JournalRecord::Op(EngineOp::UpdateBatch {
            rows: vec![(1, Point::new(0.1, 0.1), SimTime::ZERO)],
        }))
        .to_vec();
        lying[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_record(&lying), None);
    }

    #[test]
    fn invalid_profile_minutes_rejected() {
        let rec = JournalRecord::Op(EngineOp::UpdateProfile {
            id: 1,
            profile: profile(),
        });
        let mut bad = encode_record(&rec).to_vec();
        // Entry start minutes live right after tag + id + default req +
        // entry count; poison them past MINUTES_PER_DAY.
        let off = 1 + 8 + 20 + 4;
        bad[off..off + 4].copy_from_slice(&2000u32.to_le_bytes());
        assert_eq!(decode_record(&bad), None);
    }

    fn sample_state() -> EngineState {
        EngineState {
            config: EngineConfig::new(world()),
            profiles: vec![(1, profile()), (2, PrivacyProfile::default())],
            positions: vec![(1, Point::new(0.25, 0.5)), (2, Point::new(0.75, 0.1))],
            records: vec![
                (11, Rect::new_unchecked(0.0, 0.0, 0.5, 0.5)),
                (42, Rect::new_unchecked(0.5, 0.5, 1.0, 1.0)),
            ],
            public: vec![
                PublicObject::new(1, Point::new(0.3, 0.3), 0),
                PublicObject::new(2, Point::new(0.7, 0.7), 5),
            ],
            counts: ContinuousCountState {
                queries: vec![StandingCountQueryState {
                    id: 0,
                    area: Rect::new_unchecked(0.1, 0.1, 0.9, 0.9),
                    contributions: vec![(11, 1.0), (42, 0.25)],
                    sum: 1.25,
                    comp: -1e-18,
                    mutations: 3,
                    seq: 2,
                }],
                next_id: 1,
                changed: vec![0],
                updates_processed: 7,
                examined_total: 9,
            },
            ranges: StandingRangesState {
                entries: vec![StandingRangeEntryState {
                    id: 0,
                    user: 1,
                    radius: 0.2,
                    cloak: Some(Rect::new_unchecked(0.2, 0.2, 0.4, 0.4)),
                    candidates: vec![PublicObject::new(1, Point::new(0.3, 0.3), 0)],
                    seq: 1,
                }],
                next_id: 1,
                changed: vec![0],
                recomputes: 4,
                reuses: 2,
            },
        }
    }

    #[test]
    fn engine_state_roundtrips_bit_exactly() {
        let state = sample_state();
        let bytes = encode_engine_state(&state);
        let decoded = decode_engine_state(&bytes).unwrap();
        // Canonical encoding: re-encoding the decoded state reproduces
        // the same bytes, including the raw float accumulators.
        assert_eq!(encode_engine_state(&decoded), bytes);
        assert_eq!(decoded.profiles, state.profiles);
        assert_eq!(decoded.positions, state.positions);
        assert_eq!(decoded.records, state.records);
        assert_eq!(decoded.public, state.public);
        assert_eq!(decoded.counts, state.counts);
        assert_eq!(decoded.ranges, state.ranges);
    }

    #[test]
    fn engine_state_strictness() {
        let bytes = encode_engine_state(&sample_state());
        for cut in 0..bytes.len() {
            assert_eq!(decode_engine_state(&bytes[..cut]), None, "cut={cut}");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_engine_state(&long), None);
        // Wrong version byte.
        let mut wrong = bytes.to_vec();
        wrong[0] = ENGINE_STATE_VERSION + 1;
        assert_eq!(decode_engine_state(&wrong), None);
        // A hostile length prefix cannot force a huge allocation: the
        // profile count sits right after the config (1 + 33 bytes).
        let mut lying = bytes.to_vec();
        lying[34..42].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_engine_state(&lying), None);
    }

    #[test]
    fn durable_hook_counts_toward_snapshots() {
        struct NullSink;
        impl DurabilitySink for NullSink {
            fn append(&mut self, _: &JournalRecord) -> std::io::Result<()> {
                Ok(())
            }
            fn sync(&mut self) -> std::io::Result<()> {
                Ok(())
            }
            fn snapshot(&mut self, _: &[u8]) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut hook = DurableHook::new(
            Durability {
                snapshot_every: 2,
                fsync: false,
            },
            Box::new(NullSink),
        );
        assert!(!hook.snapshot_due());
        hook.append(&JournalRecord::InitSystem).unwrap();
        assert!(!hook.snapshot_due());
        hook.append(&JournalRecord::InitSystem).unwrap();
        assert!(hook.snapshot_due());
        hook.install_snapshot(&[]).unwrap();
        assert!(!hook.snapshot_due());
        // snapshot_every = 0 disables the cadence entirely.
        let mut never = DurableHook::new(
            Durability {
                snapshot_every: 0,
                fsync: false,
            },
            Box::new(NullSink),
        );
        for _ in 0..10 {
            never.append(&JournalRecord::InitSystem).unwrap();
        }
        assert!(!never.snapshot_due());
    }
}
