//! Golden bytes for every format the system writes: each wire message,
//! each journal record and one engine-state snapshot.
//!
//! A round trip cannot catch a layout change made to the encoder and the
//! decoder alike; these fixtures can. Each short payload is pinned byte
//! for byte. The STATS snapshot and the engine state are pinned by their
//! length and a 64-bit FNV-1a digest. The inputs are fixed and use
//! binary-exact values, so the bytes are the same on every platform.

use bytes::Bytes;
use lbsp_anonymizer::{
    CloakRequirement, CloakedRegion, CloakedUpdate, PrivacyProfile, ProfileEntry, Pseudonym,
};
use lbsp_core::journal::{decode_engine_state, decode_record, encode_engine_state, encode_record};
use lbsp_core::metrics::NetCountersSnapshot;
use lbsp_core::obs::LockHoldRow;
use lbsp_core::wire::{self, tag};
use lbsp_core::{
    EngineConfig, EngineOp, EngineState, HistogramSnapshot, JournalRecord, RegistrySnapshot,
    StandingEntry, StandingEntryState, StandingQuery, StandingRegistryState,
};
use lbsp_geom::{Point, Rect, SimTime, TimeInterval, TimeOfDay};
use lbsp_server::PublicObject;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
    Rect::new(x0, y0, x1, y1).expect("a valid fixture rectangle")
}

fn cloaked() -> CloakedUpdate {
    CloakedUpdate {
        pseudonym: Pseudonym(0xABCD_EF01_2345_6789),
        region: CloakedRegion {
            region: rect(0.25, 0.5, 0.375, 0.625),
            achieved_k: 42,
            k_satisfied: true,
            area_satisfied: false,
        },
        time: SimTime::from_secs(1234.5),
    }
}

fn exact() -> wire::ExactUpdateMsg {
    wire::ExactUpdateMsg {
        user: 7,
        position: Point::new(0.25, 0.75),
        time: SimTime::from_secs(99.5),
    }
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
                a_min: 0.0625,
                a_max: 0.5,
            },
        }],
        CloakRequirement::k_only(5),
    )
    .expect("a valid fixture profile")
}

fn config() -> EngineConfig {
    EngineConfig {
        world: rect(0.0, 0.0, 1.0, 1.0),
        grid_side: 32,
        refine: true,
        secret: 0x0123_4567_89AB_CDEF,
    }
}

/// One format under test: a valid encoding built from fixed inputs, and
/// a function that decodes a buffer and encodes the result again (so a
/// decoded value is compared by its bytes, NaN fields included).
struct Case {
    name: &'static str,
    bytes: Bytes,
    reencode: fn(&[u8]) -> Option<Bytes>,
}

fn case(name: &'static str, bytes: Bytes, reencode: fn(&[u8]) -> Option<Bytes>) -> Case {
    Case {
        name,
        bytes,
        reencode,
    }
}

fn carry_bytes(msg: &wire::CarryMsg) -> Option<Bytes> {
    wire::encode_carry(
        msg.carried.iter().map(|(t, p)| (*t, p.as_slice())),
        msg.request.as_ref().map(|(t, p)| (*t, p.as_slice())),
    )
}

/// Every `encode_*` in `wire`, on fixed inputs.
fn wire_cases() -> Vec<Case> {
    let carried: [(u8, &[u8]); 2] = [
        (tag::MIRROR_UPDATE, &[1, 2, 3]),
        (tag::STANDING_INSTALL, &[]),
    ];
    let mirror = |cloak| {
        wire::encode_mirror_update(&wire::MirrorUpdateMsg {
            row: exact(),
            cloak,
        })
    };
    let mirror_again: fn(&[u8]) -> Option<Bytes> =
        |b| wire::decode_mirror_update(b).map(|m| wire::encode_mirror_update(&m));
    let install_again: fn(&[u8]) -> Option<Bytes> =
        |b| wire::decode_standing_install(b).map(|m| wire::encode_standing_install(&m));
    let state_again: fn(&[u8]) -> Option<Bytes> =
        |b| wire::decode_standing_state(b).map(|m| wire::encode_standing_state(&m));
    vec![
        case("exact_update", wire::encode_exact_update(&exact()), |b| {
            wire::decode_exact_update(b).map(|m| wire::encode_exact_update(&m))
        }),
        case(
            "cloaked_update",
            wire::encode_cloaked_update(&cloaked()),
            |b| wire::decode_cloaked_update(b).map(|m| wire::encode_cloaked_update(&m)),
        ),
        case("mirror_update_bare", mirror(None), mirror_again),
        case(
            "mirror_update_cloaked",
            mirror(Some(cloaked())),
            mirror_again,
        ),
        case(
            "carry",
            wire::encode_carry(carried.into_iter(), Some((tag::USER_QUERY, &[9, 8])))
                .expect("a legal envelope"),
            |b| wire::decode_carry(b).and_then(|m| carry_bytes(&m)),
        ),
        case(
            "carry_flush",
            wire::encode_carry(std::iter::empty(), None).expect("a legal envelope"),
            |b| wire::decode_carry(b).and_then(|m| carry_bytes(&m)),
        ),
        case(
            "carry_rejected",
            wire::encode_carry_rejected(7, "bad row"),
            // The decoder returns the index only; the reason is fixed.
            |b| wire::decode_carry_rejected(b).map(|i| wire::encode_carry_rejected(i, "bad row")),
        ),
        case(
            "range_query",
            wire::encode_range_query(&wire::RangeQueryMsg {
                pseudonym: Pseudonym(42),
                region: rect(0.125, 0.25, 0.375, 0.5),
                radius: 0.0625,
                time: SimTime::from_secs(77.0),
            }),
            |b| wire::decode_range_query(b).map(|m| wire::encode_range_query(&m)),
        ),
        case(
            "candidates",
            wire::encode_candidates(&[(1, Point::new(0.5, 0.25)), (9, Point::new(0.75, 0.125))]),
            |b| wire::decode_candidates(b).map(|m| wire::encode_candidates(&m)),
        ),
        case("candidates_empty", wire::encode_candidates(&[]), |b| {
            wire::decode_candidates(b).map(|m| wire::encode_candidates(&m))
        }),
        case(
            "register",
            wire::encode_register(&wire::RegisterMsg {
                user: 42,
                k: 25,
                a_min: 0.5,
                a_max: f64::INFINITY,
            }),
            |b| wire::decode_register(b).map(|m| wire::encode_register(&m)),
        ),
        case(
            "user_query",
            wire::encode_user_query(&wire::UserQueryMsg {
                user: 7,
                radius: 0.25,
                time: SimTime::from_secs(12.0),
            }),
            |b| wire::decode_user_query(b).map(|m| wire::encode_user_query(&m)),
        ),
        case(
            "register_standing_count",
            wire::encode_register_standing_count(&wire::RegisterStandingCountMsg {
                area: rect(0.125, 0.25, 0.5, 0.75),
            }),
            |b| {
                wire::decode_register_standing_count(b)
                    .map(|m| wire::encode_register_standing_count(&m))
            },
        ),
        case(
            "register_standing_range",
            wire::encode_register_standing_range(&wire::RegisterStandingRangeMsg {
                user: 9,
                radius: 0.125,
            }),
            |b| {
                wire::decode_register_standing_range(b)
                    .map(|m| wire::encode_register_standing_range(&m))
            },
        ),
        case(
            "standing_ref",
            wire::encode_standing_ref(&wire::StandingRefMsg { id: 77 }),
            |b| wire::decode_standing_ref(b).map(|m| wire::encode_standing_ref(&m)),
        ),
        case(
            "standing_install_count",
            wire::encode_standing_install(&wire::StandingInstallMsg::Install {
                id: 41,
                query: StandingQuery::Count {
                    area: rect(-3.0, 1.5, 9.0, 4.0),
                },
            }),
            install_again,
        ),
        case(
            "standing_install_range",
            wire::encode_standing_install(&wire::StandingInstallMsg::Install {
                id: 42,
                query: StandingQuery::Range {
                    subject: 7,
                    radius: 2.25,
                },
            }),
            install_again,
        ),
        case(
            "standing_install_drop",
            wire::encode_standing_install(&wire::StandingInstallMsg::Drop { id: 43 }),
            install_again,
        ),
        case(
            "standing_state_count",
            wire::encode_standing_state(&wire::StandingState::Count(wire::StandingCountState {
                id: 4,
                seq: 12,
                expected: 3.25,
                certain: 2,
                possible: 5,
            })),
            state_again,
        ),
        case(
            "standing_state_range",
            wire::encode_standing_state(&wire::StandingState::Range(wire::StandingRangeState {
                id: 8,
                seq: 3,
                candidates: vec![(1, Point::new(0.5, 0.25))],
            })),
            state_again,
        ),
        case(
            "route_fail",
            wire::encode_route_fail(wire::ROUTE_FAIL_DOWN, "node 1"),
            |b| wire::decode_route_fail(b).map(|(k, text)| wire::encode_route_fail(k, &text)),
        ),
        case(
            "resync_state",
            wire::encode_resync_state(&wire::ResyncState {
                rows: vec![(1, Point::new(0.5, 0.25), SimTime::from_secs(3.0))],
                cloaks: vec![cloaked()],
            }),
            |b| wire::decode_resync_state(b).map(|m| wire::encode_resync_state(&m)),
        ),
    ]
}

/// One record of every `JournalRecord` and `EngineOp` variant.
fn journal_records() -> Vec<(&'static str, JournalRecord)> {
    let rows = vec![
        (7, Point::new(0.25, 0.75), SimTime::from_secs(1.0)),
        (9, Point::new(0.5, 0.5), SimTime::from_secs(2.0)),
    ];
    vec![
        ("init_engine", JournalRecord::InitEngine(config())),
        (
            "register_user",
            JournalRecord::Op(EngineOp::RegisterUser {
                id: 7,
                profile: profile(),
            }),
        ),
        (
            "update_batch",
            JournalRecord::Op(EngineOp::UpdateBatch { rows: rows.clone() }),
        ),
        (
            "load_public",
            JournalRecord::Op(EngineOp::LoadPublic {
                objects: vec![PublicObject::new(1, Point::new(0.125, 0.25), 3)],
            }),
        ),
        (
            "install_standing_count",
            JournalRecord::Op(EngineOp::InstallStanding {
                id: 11,
                query: StandingQuery::Count {
                    area: rect(0.125, 0.125, 0.875, 0.875),
                },
            }),
        ),
        (
            "install_standing_range",
            JournalRecord::Op(EngineOp::InstallStanding {
                id: 12,
                query: StandingQuery::Range {
                    subject: 9,
                    radius: 0.25,
                },
            }),
        ),
        (
            "drop_standing",
            JournalRecord::Op(EngineOp::DropStanding { id: 5 }),
        ),
        (
            "take_standing_changes",
            JournalRecord::Op(EngineOp::TakeStandingChanges),
        ),
        (
            "mirror",
            JournalRecord::Op(EngineOp::Mirror(wire::ResyncState {
                rows,
                cloaks: vec![cloaked()],
            })),
        ),
    ]
}

fn stats_snapshot() -> RegistrySnapshot {
    let hist = |n: u64| HistogramSnapshot {
        count: n,
        sum: n as f64 * 1.5,
        min: 0.5,
        max: n as f64,
        buckets: std::array::from_fn(|i| (i as u64 * n) % 7),
    };
    RegistrySnapshot {
        stages: std::array::from_fn(|i| hist(i as u64 + 1)),
        cloak_area: hist(20),
        achieved_k: hist(21),
        candidate_set_size: hist(22),
        standing_fanout: hist(23),
        net_batch_size: hist(24),
        node_downtime: hist(25),
        cloak_failures: [1, 2, 3],
        net: NetCountersSnapshot {
            connections_accepted: 1,
            connections_refused: 2,
            connections_closed: 3,
            requests_served: 4,
            errors_returned: 5,
            frames_rejected: 6,
            slow_disconnects: 7,
            idle_disconnects: 8,
            bytes_in: 9,
            bytes_out: 10,
            route_failures: 11,
            engine_batches: 12,
            retryable_failures: 13,
            reconnect_attempts: 14,
            node_rejoins: 15,
            resync_bytes: 16,
            mirror_drops: 17,
        },
        locks: vec![LockHoldRow {
            rank_label: "Engine".to_string(),
            acquisitions: 99,
            total_micros: 1234,
            buckets: std::array::from_fn(|i| i as u64),
        }],
    }
}

fn engine_state() -> EngineState {
    let object = |id, x, y, tag| PublicObject::new(id, Point::new(x, y), tag);
    EngineState {
        config: config(),
        profiles: vec![(1, profile()), (2, PrivacyProfile::default())],
        positions: vec![(1, Point::new(0.25, 0.5)), (2, Point::new(0.75, 0.125))],
        records: vec![
            (11, rect(0.0, 0.0, 0.5, 0.5)),
            (42, rect(0.5, 0.5, 1.0, 1.0)),
        ],
        public: vec![object(1, 0.25, 0.25, 0), object(2, 0.75, 0.75, 5)],
        standing: StandingRegistryState {
            entries: vec![
                StandingEntryState {
                    id: 0,
                    seq: 2,
                    entry: StandingEntry::Count {
                        area: rect(0.125, 0.125, 0.875, 0.875),
                        contributions: vec![(11, 1.0), (42, 0.25)],
                    },
                },
                StandingEntryState {
                    id: 1,
                    seq: 1,
                    entry: StandingEntry::Range {
                        subject: 1,
                        radius: 0.25,
                        cloak: Some(rect(0.25, 0.25, 0.5, 0.5)),
                        candidates: vec![object(1, 0.25, 0.25, 0)],
                    },
                },
                StandingEntryState {
                    id: 2,
                    seq: 0,
                    entry: StandingEntry::Range {
                        subject: 2,
                        radius: 0.5,
                        cloak: None,
                        candidates: Vec::new(),
                    },
                },
            ],
            next_id: 3,
            changed: vec![0, 1, 2],
            updates_processed: 7,
            examined_total: 9,
            recomputes: 4,
            reuses: 2,
        },
    }
}

fn journal_cases() -> Vec<Case> {
    journal_records()
        .into_iter()
        .map(|(name, rec)| {
            case(name, encode_record(&rec), |b| {
                decode_record(b).map(|r| encode_record(&r))
            })
        })
        .collect()
}

/// The STATS snapshot and the engine state: too long to pin byte by
/// byte, so they are pinned by length and digest.
fn snapshot_cases() -> Vec<Case> {
    vec![
        case(
            "stats_snapshot",
            wire::encode_stats_snapshot(&stats_snapshot()),
            |b| wire::decode_stats_snapshot(b).map(|s| wire::encode_stats_snapshot(&s)),
        ),
        case("engine_state", encode_engine_state(&engine_state()), |b| {
            decode_engine_state(b).map(|s| encode_engine_state(&s))
        }),
    ]
}

/// The pinned bytes of each wire message, in [`wire_cases`] order.
const WIRE_GOLDEN: &[(&str, &[u8])] = &[
    (
        "exact_update",
        &[
            7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 232, 63, 0, 0, 0,
            0, 0, 224, 88, 64,
        ],
    ),
    (
        "cloaked_update",
        &[
            137, 103, 69, 35, 1, 239, 205, 171, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 224,
            63, 0, 0, 0, 0, 0, 0, 216, 63, 0, 0, 0, 0, 0, 0, 228, 63, 0, 0, 0, 0, 0, 74, 147, 64,
            42, 0, 0, 0, 1,
        ],
    ),
    (
        "mirror_update_bare",
        &[
            7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 232, 63, 0, 0, 0,
            0, 0, 224, 88, 64,
        ],
    ),
    (
        "mirror_update_cloaked",
        &[
            7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 232, 63, 0, 0, 0,
            0, 0, 224, 88, 64, 137, 103, 69, 35, 1, 239, 205, 171, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0,
            0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 216, 63, 0, 0, 0, 0, 0, 0, 228, 63, 0, 0, 0, 0,
            0, 74, 147, 64, 42, 0, 0, 0, 1,
        ],
    ),
    ("carry", &[2, 0, 39, 3, 0, 1, 2, 3, 38, 0, 0, 3, 9, 8]),
    ("carry_flush", &[0, 0]),
    (
        "carry_rejected",
        &[
            99, 97, 114, 114, 105, 101, 100, 32, 102, 114, 97, 109, 101, 32, 55, 32, 114, 101, 106,
            101, 99, 116, 101, 100, 58, 32, 98, 97, 100, 32, 114, 111, 119,
        ],
    ),
    (
        "range_query",
        &[
            42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 63, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0,
            0, 0, 0, 216, 63, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 176, 63, 0, 0, 0, 0, 0,
            64, 83, 64,
        ],
    ),
    (
        "candidates",
        &[
            2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 208,
            63, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 232, 63, 0, 0, 0, 0, 0, 0, 192, 63,
        ],
    ),
    ("candidates_empty", &[0, 0, 0, 0]),
    (
        "register",
        &[
            42, 0, 0, 0, 0, 0, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 240,
            127,
        ],
    ),
    (
        "user_query",
        &[
            7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 40, 64,
        ],
    ),
    (
        "register_standing_count",
        &[
            0, 0, 0, 0, 0, 0, 192, 63, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0,
            0, 0, 0, 0, 232, 63,
        ],
    ),
    (
        "register_standing_range",
        &[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 63],
    ),
    ("standing_ref", &[77, 0, 0, 0, 0, 0, 0, 0]),
    (
        "standing_install_count",
        &[
            0, 41, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 192, 0, 0, 0, 0, 0, 0, 248, 63, 0, 0,
            0, 0, 0, 0, 34, 64, 0, 0, 0, 0, 0, 0, 16, 64,
        ],
    ),
    (
        "standing_install_range",
        &[
            1, 42, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 64,
        ],
    ),
    ("standing_install_drop", &[2, 43, 0, 0, 0, 0, 0, 0, 0]),
    (
        "standing_state_count",
        &[
            0, 4, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 64, 2, 0, 0,
            0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "standing_state_range",
        &[
            1, 8, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 208, 63,
        ],
    ),
    ("route_fail", &[1, 110, 111, 100, 101, 32, 49]),
    (
        "resync_state",
        &[
            1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 208,
            63, 0, 0, 0, 0, 0, 0, 8, 64, 1, 0, 0, 0, 137, 103, 69, 35, 1, 239, 205, 171, 0, 0, 0,
            0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 216, 63, 0, 0, 0, 0, 0,
            0, 228, 63, 0, 0, 0, 0, 0, 74, 147, 64, 42, 0, 0, 0, 1,
        ],
    ),
];

/// The pinned bytes of each journal record, in [`journal_records`] order.
const JOURNAL_GOLDEN: &[(&str, &[u8])] = &[
    (
        "init_engine",
        &[
            224, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240, 63, 0, 0,
            0, 0, 0, 0, 240, 63, 32, 0, 0, 0, 1, 239, 205, 171, 137, 103, 69, 35, 1,
        ],
    ),
    (
        "register_user",
        &[
            14, 7, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240,
            127, 1, 0, 0, 0, 28, 2, 0, 0, 252, 3, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0, 0, 0, 176, 63, 0,
            0, 0, 0, 0, 0, 224, 63,
        ],
    ),
    (
        "update_batch",
        &[
            2, 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0,
            232, 63, 0, 0, 0, 0, 0, 0, 240, 63, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63,
            0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 0, 64,
        ],
    ),
    (
        "load_public",
        &[
            3, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 63, 0, 0, 0, 0, 0, 0,
            208, 63, 3, 0, 0, 0,
        ],
    ),
    (
        "install_standing_count",
        &[
            13, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 63, 0, 0, 0, 0, 0, 0, 192, 63,
            0, 0, 0, 0, 0, 0, 236, 63, 0, 0, 0, 0, 0, 0, 236, 63,
        ],
    ),
    (
        "install_standing_range",
        &[
            13, 1, 12, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63,
        ],
    ),
    ("drop_standing", &[17, 5, 0, 0, 0, 0, 0, 0, 0]),
    ("take_standing_changes", &[7]),
    (
        "mirror",
        &[
            15, 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0,
            232, 63, 0, 0, 0, 0, 0, 0, 240, 63, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63,
            0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 0, 64, 1, 0, 0, 0, 137, 103, 69, 35, 1,
            239, 205, 171, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0,
            216, 63, 0, 0, 0, 0, 0, 0, 228, 63, 0, 0, 0, 0, 0, 74, 147, 64, 42, 0, 0, 0, 1,
        ],
    ),
];

/// Records the journal no longer writes, as their retired layouts wrote
/// them: a log holding one must fail to decode, never be misread.
const RETIRED_JOURNAL: &[(&str, &[u8])] = &[
    ("init_system", &[225]),
    (
        "add_standing_count",
        &[
            4, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 232, 63, 0,
            0, 0, 0, 0, 0, 232, 63,
        ],
    ),
    (
        "add_standing_range",
        &[5, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192, 63],
    ),
    ("deregister_standing", &[6, 0, 5, 0, 0, 0, 0, 0, 0, 0]),
    (
        "register_user",
        &[
            1, 7, 0, 0, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            240, 127, 1, 0, 0, 0, 28, 2, 0, 0, 252, 3, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0, 0, 0, 176,
            63, 0, 0, 0, 0, 0, 0, 224, 63,
        ],
    ),
    (
        "update_profile",
        &[
            8, 7, 0, 0, 0, 0, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240,
            127, 0, 0, 0, 0,
        ],
    ),
    (
        "shadow_batch",
        &[
            9, 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0,
            232, 63, 0, 0, 0, 0, 0, 0, 240, 63, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63,
            0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 0, 64,
        ],
    ),
    (
        "ingest_cloak",
        &[
            10, 137, 103, 69, 35, 1, 239, 205, 171, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0,
            224, 63, 0, 0, 0, 0, 0, 0, 216, 63, 0, 0, 0, 0, 0, 0, 228, 63, 0, 0, 0, 0, 0, 74, 147,
            64, 42, 0, 0, 0, 1,
        ],
    ),
    (
        "handoff_in",
        &[
            12, 42, 0, 0, 0, 0, 0, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0,
            240, 127, 1, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0,
            216, 63, 0, 0, 0, 0, 0, 0, 228, 63, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0,
            0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    ("handoff_out", &[11, 7, 0, 0, 0, 0, 0, 0, 0]),
    (
        "handoff_in_profile",
        &[
            16, 42, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240,
            127, 1, 0, 0, 0, 28, 2, 0, 0, 252, 3, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0, 0, 0, 176, 63, 0,
            0, 0, 0, 0, 0, 224, 63, 1, 0, 0, 0, 0, 0, 0, 208, 63, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0,
            0, 0, 0, 0, 216, 63, 0, 0, 0, 0, 0, 0, 228, 63, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 7,
            0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
];

/// `(name, length, FNV-1a digest)` of each [`snapshot_cases`] encoding.
const SNAPSHOT_GOLDEN: &[(&str, usize, u64)] = &[
    ("stats_snapshot", 8473, 0xc9f8_05d9_de1f_59ee),
    ("engine_state", 667, 0x9593_566f_afe9_9728),
];

/// Checks each case against its pinned bytes, and that its decoder reads
/// the pinned bytes back to the same value.
fn check_pinned(cases: Vec<Case>, golden: &[(&str, &[u8])]) {
    assert_eq!(cases.len(), golden.len());
    for (case, (name, want)) in cases.iter().zip(golden) {
        assert_eq!(case.name, *name);
        assert_eq!(&case.bytes[..], *want, "{name}: bytes changed");
        let again = (case.reencode)(want).unwrap_or_else(|| panic!("{name}: does not decode"));
        assert_eq!(&again[..], *want, "{name}: decodes to another value");
    }
}

#[test]
fn wire_messages_keep_their_bytes() {
    check_pinned(wire_cases(), WIRE_GOLDEN);
}

#[test]
fn journal_records_keep_their_bytes() {
    check_pinned(journal_cases(), JOURNAL_GOLDEN);
}

#[test]
fn retired_journal_records_do_not_decode() {
    for (name, bytes) in RETIRED_JOURNAL {
        assert_eq!(decode_record(bytes), None, "{name}");
    }
}

#[test]
fn stats_snapshot_and_engine_state_keep_their_bytes() {
    let cases = snapshot_cases();
    assert_eq!(cases.len(), SNAPSHOT_GOLDEN.len());
    for (case, &(name, len, digest)) in cases.iter().zip(SNAPSHOT_GOLDEN) {
        assert_eq!(case.name, name);
        assert_eq!(
            (case.bytes.len(), fnv1a(&case.bytes)),
            (len, digest),
            "{name}: bytes changed"
        );
        assert_eq!(
            (case.reencode)(&case.bytes),
            Some(case.bytes.clone()),
            "{name}"
        );
    }
}

#[test]
fn every_wire_encoder_has_a_golden_case() {
    let names: Vec<&str> = wire_cases()
        .iter()
        .chain(&snapshot_cases())
        .map(|c| c.name)
        .collect();
    let source = include_str!("../src/wire.rs");
    let encoders = source
        .split("pub fn encode_")
        .skip(1)
        .filter_map(|rest| rest.split(['(', '<']).next());
    for encoder in encoders {
        assert!(
            names
                .iter()
                .any(|n| *n == encoder || n.starts_with(&format!("{encoder}_"))),
            "encode_{encoder} has no golden case"
        );
    }
}

/// The cuts of a case's valid encoding that decode on purpose, from the
/// given length on, and whether bytes appended to it decode too. `None`
/// for a strict format: no strict prefix decodes and no longer buffer.
fn legal_tail(name: &str) -> Option<usize> {
    match name {
        // A CARRY envelope's request runs to the end of the buffer: once
        // the carried frames are whole, a shorter or longer request is
        // that request's business (2-byte count, then `tag, u16 length,
        // payload` per frame: 6 + 3 bytes here).
        "carry" => Some(2 + 6 + 3),
        "carry_flush" => Some(2),
        // A routing failure is a kind byte, then free text.
        "route_fail" => Some(1),
        // Carry-rejected text: anything after "rejected: " is the reason.
        "carry_rejected" => Some("carried frame 7 rejected: ".len()),
        _ => None,
    }
}

#[test]
fn no_strict_prefix_and_no_longer_buffer_decodes() {
    let cases = wire_cases()
        .into_iter()
        .chain(journal_cases())
        .chain(snapshot_cases());
    for case in cases {
        let decodes = |buf: &[u8]| (case.reencode)(buf).is_some();
        let tail = legal_tail(case.name);
        for cut in 0..case.bytes.len() {
            // A mirrored update has two legal lengths: the bare row is a
            // prefix of the row with its cloak.
            let legal = tail.is_some_and(|from| cut >= from)
                || (case.name == "mirror_update_cloaked" && cut == wire::MIRROR_UPDATE_ROW_LEN);
            assert_eq!(
                decodes(&case.bytes[..cut]),
                legal,
                "{} cut at {cut}",
                case.name
            );
        }
        let mut longer = case.bytes.to_vec();
        longer.push(0);
        assert_eq!(
            decodes(&longer),
            tail.is_some(),
            "{} plus one byte",
            case.name
        );
    }
}
