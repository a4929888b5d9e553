//! Durability journal: the op vocabulary and bit-exact state codecs.
//!
//! The whole reproduction is in-memory; one restart silently forgets
//! every user's privacy profile, cloaked position, and standing query.
//! This module defines what a durable deployment writes down:
//!
//! * [`EngineOp`] / [`JournalRecord`] — the logical mutation vocabulary
//!   of [`crate::ShardedEngine`], the journal's only writer: one op per
//!   engine event, appended to the write-ahead log *before* the mutation
//!   is applied, so a crash loses at most work that was never
//!   acknowledged.
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
//! Records and snapshots are composed from the primitives in `codec.rs`,
//! the ones [`crate::wire`] uses, under the same strictness: payloads
//! re-read from disk are exactly as untrusted as the network. Only exact
//! rows differ: the journal reads them raw, because an in-process caller
//! may log any `f64` and replay must read back what was logged.

use crate::codec::{self, Get, Put, Reader};
use crate::engine::EngineConfig;
use crate::standing::{StandingRangeEntryState, StandingRangesState};
use crate::wire::{self, StandingKind, EXACT_UPDATE_LEN};
use crate::UserId;
use bytes::{BufMut, Bytes};
use lbsp_anonymizer::PrivacyProfile;
use lbsp_geom::{Point, Rect, SimTime};
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

/// The policy + sink pair the engine journals through, with
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

/// One logical mutation of the engine, as written to the log.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineOp {
    /// A user registered (or re-registered) with a privacy profile.
    RegisterUser {
        /// True user id (the journal lives on the trusted side).
        id: UserId,
        /// The registered privacy profile.
        profile: PrivacyProfile,
    },
    /// One batch of exact location updates, in input order. Batch
    /// boundaries are preserved: duplicate-row settlement is
    /// batch-scoped.
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
    /// Cluster mirror: other nodes' exact-update rows for the position
    /// plane and the owners' cloaked replies for the private store, as
    /// one `MIRROR_UPDATE` or one resync install delivered them. Same
    /// layout as [`wire::ResyncState`]. The rows travel anonymizer tier
    /// to anonymizer tier — a trusted hop, like [`EngineOp::UpdateBatch`];
    /// the cloaks carry pseudonyms and rectangles only.
    Mirror(wire::ResyncState),
}

/// One record in the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// First record of every journal: the engine configuration
    /// (including the pseudonym secret — recovery must reproduce the
    /// same pseudonym bijection or every server-side key changes).
    InitEngine(EngineConfig),
    /// A logical mutation.
    Op(EngineOp),
}

// Record tags. Ops are 0x02..; init records sit high so a truncated or
// shuffled log cannot alias an op into an init. A record whose layout
// changes takes a fresh tag and its old one is never reused, so a log
// in a retired layout fails to decode instead of being misread.
// Retired: 0x01 (registration with an activity flag), 0x08 (profile
// update), 0x09 and 0x0A (mirror rows and mirror cloaks as two
// records), 0x0B and 0x10 (a user's state handed out to and in from
// another node), 0x0C (handoff carrying one requirement), 0xE1 (a
// system journal's genesis).
const TAG_UPDATE_BATCH: u8 = 0x02;
const TAG_LOAD_PUBLIC: u8 = 0x03;
const TAG_ADD_STANDING_COUNT: u8 = 0x04;
const TAG_ADD_STANDING_RANGE: u8 = 0x05;
const TAG_DEREGISTER_STANDING: u8 = 0x06;
const TAG_TAKE_STANDING_CHANGES: u8 = 0x07;
const TAG_INSTALL_STANDING: u8 = 0x0D;
const TAG_REGISTER_USER: u8 = 0x0E;
const TAG_MIRROR: u8 = 0x0F;
const TAG_INIT_ENGINE: u8 = 0xE0;

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

impl Put for JournalRecord {
    fn put(&self, b: &mut impl BufMut) {
        let op = match self {
            JournalRecord::InitEngine(cfg) => return (TAG_INIT_ENGINE, cfg).put(b),
            JournalRecord::Op(op) => op,
        };
        match op {
            EngineOp::RegisterUser { id, profile } => (TAG_REGISTER_USER, id, profile).put(b),
            EngineOp::UpdateBatch { rows } => {
                TAG_UPDATE_BATCH.put(b);
                codec::put_list_u32(b, rows.iter());
            }
            EngineOp::LoadPublic { objects } => {
                TAG_LOAD_PUBLIC.put(b);
                codec::put_list_u32(b, objects.iter());
            }
            EngineOp::AddStandingCount { area } => (TAG_ADD_STANDING_COUNT, area).put(b),
            EngineOp::AddStandingRange { user, radius } => {
                (TAG_ADD_STANDING_RANGE, user, radius).put(b);
            }
            // Both installs share the wire's `STANDING_INSTALL` layout.
            EngineOp::InstallStandingCount { id, area } => {
                (TAG_INSTALL_STANDING, StandingKind::Count, id, area).put(b);
            }
            EngineOp::InstallStandingRange { id, user, radius } => {
                (TAG_INSTALL_STANDING, StandingKind::Range).put(b);
                (id, user, radius).put(b);
            }
            EngineOp::DeregisterStanding { kind, id } => {
                (TAG_DEREGISTER_STANDING, kind, id).put(b);
            }
            EngineOp::TakeStandingChanges => TAG_TAKE_STANDING_CHANGES.put(b),
            EngineOp::Mirror(state) => (TAG_MIRROR, state).put(b),
        }
    }
}

/// Unknown and retired tags and invalid payloads (bad rectangles,
/// invalid profiles, unknown standing kinds) are refused.
impl Get for JournalRecord {
    fn get(r: &mut Reader<'_>) -> Option<JournalRecord> {
        let op = match r.get()? {
            TAG_INIT_ENGINE => return r.get().map(JournalRecord::InitEngine),
            TAG_REGISTER_USER => EngineOp::RegisterUser {
                id: r.get()?,
                profile: r.get()?,
            },
            TAG_UPDATE_BATCH => EngineOp::UpdateBatch {
                rows: r.list_u32(EXACT_UPDATE_LEN)?,
            },
            TAG_LOAD_PUBLIC => EngineOp::LoadPublic {
                objects: r.list_u32(28)?,
            },
            TAG_ADD_STANDING_COUNT => EngineOp::AddStandingCount { area: r.get()? },
            TAG_ADD_STANDING_RANGE => EngineOp::AddStandingRange {
                user: r.get()?,
                radius: r.radius()?,
            },
            TAG_INSTALL_STANDING => match r.get()? {
                StandingKind::Count => EngineOp::InstallStandingCount {
                    id: r.get()?,
                    area: r.get()?,
                },
                StandingKind::Range => EngineOp::InstallStandingRange {
                    id: r.get()?,
                    user: r.get()?,
                    radius: r.radius()?,
                },
            },
            TAG_DEREGISTER_STANDING => EngineOp::DeregisterStanding {
                kind: r.get()?,
                id: r.get()?,
            },
            TAG_TAKE_STANDING_CHANGES => EngineOp::TakeStandingChanges,
            TAG_MIRROR => EngineOp::Mirror(r.get()?),
            _ => return None,
        };
        Some(JournalRecord::Op(op))
    }
}

/// Encodes one journal record (the WAL checksums and length-prefixes
/// these bytes; the codec itself is pure payload).
pub fn encode_record(rec: &JournalRecord) -> Bytes {
    codec::to_bytes(rec, 64)
}

/// Decodes one journal record. Strict: the whole buffer must be exactly
/// one record — short input, trailing bytes, unknown or retired tags,
/// and invalid payloads (bad rectangles, invalid profiles, unknown
/// standing kinds) are all rejected with `None`.
pub fn decode_record(buf: &[u8]) -> Option<JournalRecord> {
    codec::decode(buf, Reader::get)
}

impl Put for StandingCountQueryState {
    fn put(&self, b: &mut impl BufMut) {
        (self.id, self.area).put(b);
        codec::put_list_u64(b, self.contributions.iter());
        (self.sum, self.comp, self.mutations, self.seq).put(b);
    }
}

impl Get for StandingCountQueryState {
    fn get(r: &mut Reader<'_>) -> Option<StandingCountQueryState> {
        Some(StandingCountQueryState {
            id: r.get()?,
            area: r.get()?,
            contributions: r.list_u64(16)?,
            sum: r.get()?,
            comp: r.get()?,
            mutations: r.get()?,
            seq: r.get()?,
        })
    }
}

impl Put for StandingRangeEntryState {
    fn put(&self, b: &mut impl BufMut) {
        (self.id, self.user, self.radius, self.cloak).put(b);
        codec::put_list_u64(b, self.candidates.iter());
        self.seq.put(b);
    }
}

impl Get for StandingRangeEntryState {
    fn get(r: &mut Reader<'_>) -> Option<StandingRangeEntryState> {
        Some(StandingRangeEntryState {
            id: r.get()?,
            user: r.get()?,
            radius: r.get()?,
            cloak: r.get()?,
            candidates: r.list_u64(28)?,
            seq: r.get()?,
        })
    }
}

impl Put for EngineState {
    fn put(&self, b: &mut impl BufMut) {
        (ENGINE_STATE_VERSION, &self.config).put(b);
        codec::put_list_u64(b, self.profiles.iter());
        codec::put_list_u64(b, self.positions.iter());
        codec::put_list_u64(b, self.records.iter());
        codec::put_list_u64(b, self.public.iter());
        // Standing count registry: raw accumulators, bit for bit.
        let c = &self.counts;
        codec::put_list_u64(b, c.queries.iter());
        c.next_id.put(b);
        codec::put_list_u64(b, c.changed.iter());
        (c.updates_processed, c.examined_total).put(b);
        // Standing private-range registry.
        let g = &self.ranges;
        codec::put_list_u64(b, g.entries.iter());
        g.next_id.put(b);
        codec::put_list_u64(b, g.changed.iter());
        (g.recomputes, g.reuses).put(b);
    }
}

impl Get for EngineState {
    fn get(r: &mut Reader<'_>) -> Option<EngineState> {
        if r.get::<u8>()? != ENGINE_STATE_VERSION {
            return None;
        }
        // Fields are read in the order they are written.
        Some(EngineState {
            config: r.get()?,
            profiles: r.list_u64(28)?,
            positions: r.list_u64(24)?,
            records: r.list_u64(40)?,
            public: r.list_u64(28)?,
            counts: ContinuousCountState {
                queries: r.list_u64(72)?,
                next_id: r.get()?,
                changed: r.list_u64(8)?,
                updates_processed: r.get()?,
                examined_total: r.get()?,
            },
            ranges: StandingRangesState {
                entries: r.list_u64(33)?,
                next_id: r.get()?,
                changed: r.list_u64(8)?,
                recomputes: r.get()?,
                reuses: r.get()?,
            },
        })
    }
}

/// Encodes an engine state snapshot. The encoding is canonical (inputs
/// are sorted vectors, floats are raw IEEE bits), so byte equality of
/// two encoded states is exactly logical-state equality — the property
/// the persistence tests assert on.
pub fn encode_engine_state(state: &EngineState) -> Bytes {
    codec::to_bytes(state, 1024)
}

/// Decodes an engine state snapshot. Strict: version byte, every length
/// prefix guarded before allocation, rectangles validated, and trailing
/// bytes rejected. Raw float accumulators (contribution probabilities,
/// Neumaier sum/compensation) round-trip bit-exactly — they are state,
/// not input, and altering them would break byte-identical recovery.
pub fn decode_engine_state(buf: &[u8]) -> Option<EngineState> {
    codec::decode(buf, Reader::get)
}

#[cfg(test)]
mod tests {
    // Tests exercise hostile-input shapes with direct slicing; the
    // panic-freedom bar applies to the codecs, not their tests.
    #![allow(clippy::indexing_slicing, clippy::cast_possible_truncation)]

    use super::*;
    use lbsp_anonymizer::{
        CloakRequirement, CloakedRegion, CloakedUpdate, ProfileEntry, Pseudonym,
    };
    use lbsp_geom::{TimeInterval, TimeOfDay};

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
            JournalRecord::Op(EngineOp::RegisterUser {
                id: 7,
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
            JournalRecord::Op(EngineOp::Mirror(wire::ResyncState {
                rows: vec![
                    (3, Point::new(0.125, 0.875), SimTime::from_secs(3.0)),
                    (5, Point::new(0.625, 0.375), SimTime::from_secs(4.0)),
                ],
                cloaks: vec![cloaked()],
            })),
            JournalRecord::Op(EngineOp::Mirror(wire::ResyncState::default())),
        ]
    }

    fn cloaked() -> CloakedUpdate {
        CloakedUpdate {
            pseudonym: Pseudonym(0xBEEF),
            region: CloakedRegion {
                region: Rect::new_unchecked(0.25, 0.25, 0.5, 0.5),
                achieved_k: 7,
                k_satisfied: true,
                area_satisfied: false,
            },
            time: SimTime::from_secs(5.0),
        }
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
            JournalRecord::Op(EngineOp::Mirror(wire::ResyncState {
                rows: rows.clone(),
                cloaks: Vec::new(),
            })),
        ] {
            let bytes = encode_record(&rec);
            let decoded = decode_record(&bytes).unwrap_or_else(|| panic!("decode {rec:?}"));
            // NaN != NaN, so compare re-encoded bytes.
            assert_eq!(encode_record(&decoded), bytes);
        }
    }

    #[test]
    fn unknown_tags_and_bad_payloads_rejected() {
        assert_eq!(decode_record(&[]), None);
        assert_eq!(decode_record(&[0x7F]), None);
        // Retired tags, each in the layout it last had: a log in that
        // layout must fail to decode, never be misread. Registration
        // with an activity flag (0x01), a profile update (0x08), mirror
        // rows (0x09), one mirror cloak (0x0A), a user handed out (0x0B)
        // and in (0x10: subject, Fig. 2's profile, a cloak, two
        // standing-range `(id, seq)` pairs), a handoff carrying one
        // `(k, a_min, a_max)` triple (0x0C), a system genesis (0xE1).
        let id = 7u64.to_le_bytes();
        let cloak = wire::encode_cloaked_update(&cloaked());
        let row = codec::to_bytes(&(7u64, Point::new(0.5, 0.5), SimTime::ZERO), 32);
        let triple = codec::to_bytes(&CloakRequirement::k_only(25), 20);
        let handed_in = codec::to_bytes(
            &(
                7u64,
                &PrivacyProfile::paper_example(),
                Some(Rect::new_unchecked(0.25, 0.5, 0.375, 0.625)),
            ),
            128,
        );
        let ranges = [
            &2u32.to_le_bytes()[..],
            &[3u64, 7, 9, 0].map(u64::to_le_bytes).concat(),
        ]
        .concat();
        let retired: [(u8, Vec<u8>); 8] = [
            (
                0x01,
                [&id[..], &[1], &codec::to_bytes(&profile(), 64)].concat(),
            ),
            (0x08, [&id[..], &codec::to_bytes(&profile(), 64)].concat()),
            (0x09, [&1u32.to_le_bytes()[..], &row].concat()),
            (0x0A, cloak.to_vec()),
            (0x0B, id.to_vec()),
            (0x10, [&handed_in[..], &ranges].concat()),
            (0x0C, [&id[..], &triple, &[0], &0u32.to_le_bytes()].concat()),
            (0xE1, Vec::new()),
        ];
        for (tag, payload) in retired {
            let rec = [&[tag][..], &payload].concat();
            assert_eq!(decode_record(&rec), None, "retired tag 0x{tag:02X}");
        }
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
        let rec = JournalRecord::Op(EngineOp::RegisterUser {
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
        let rec = JournalRecord::Op(EngineOp::TakeStandingChanges);
        hook.append(&rec).unwrap();
        assert!(!hook.snapshot_due());
        hook.append(&rec).unwrap();
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
            never.append(&rec).unwrap();
        }
        assert!(!never.snapshot_due());
    }
}
