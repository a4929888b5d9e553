//! Property test: arbitrary interleavings of registrations (some with
//! Fig. 2's profile), update batches, standing-query churn, cluster
//! mirror ops (rows with and without an owner's cloak, for users
//! registered here or not), and snapshot installs, crashed at an
//! arbitrary point, replay to exactly the state of an engine that never
//! crashed.
//!
//! Three engines per case:
//! * a **reference** that applies every op uninterrupted;
//! * a **durable twin** journaling into a real log directory,
//!   hard-stopped after a prefix of the ops;
//! * the **recovered** engine rebuilt from disk, which must match the
//!   reference-at-crash-point byte for byte, then resume the remaining
//!   ops and converge with the full reference.

use lbsp_anonymizer::{CloakRequirement, CloakedRegion, CloakedUpdate, PrivacyProfile};
use lbsp_core::journal;
use lbsp_core::{Durability, EngineConfig, JournalRecord, ShardedEngine, UserId};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_server::PublicObject;
use lbsp_store::{open_engine, recover_engine, Wal};
use proptest::prelude::*;

mod common;
use common::TempDir;

#[derive(Clone, Debug)]
enum TestOp {
    Register {
        id: u64,
        k: u32,
    },
    Updates {
        rows: Vec<(u64, f64, f64)>,
        secs: f64,
    },
    LoadPublic {
        n: u32,
    },
    StandingCount {
        cx: f64,
        cy: f64,
        half: f64,
    },
    StandingRange {
        user: u64,
        radius: f64,
    },
    Drain,
    Deregister {
        sel: u8,
    },
    Mirror {
        rows: Vec<(u64, f64, f64)>,
        secs: f64,
        cloak: Option<(u64, f64, f64, f64)>,
    },
}

/// The square of half-side `half` around `(cx, cy)`, clipped to the world.
fn square(cx: f64, cy: f64, half: f64) -> Rect {
    Rect::new_unchecked(
        (cx - half).max(0.0),
        (cy - half).max(0.0),
        (cx + half).min(1.0),
        (cy + half).min(1.0),
    )
}

/// Applies one op deterministically. `issued` tracks live standing
/// registrations so `Deregister` picks a real target; the same vector
/// evolution happens in every run of the same op sequence.
fn apply(engine: &mut ShardedEngine, issued: &mut Vec<u64>, op: &TestOp) {
    match op {
        // k = 5 registers Fig. 2's profile, every time-of-day entry of
        // which the log must carry.
        TestOp::Register { id, k: 5 } => engine.register(*id, PrivacyProfile::paper_example()),
        TestOp::Register { id, k } => {
            let profile =
                PrivacyProfile::uniform(CloakRequirement::k_only(*k)).expect("valid profile");
            engine.register(*id, profile);
        }
        TestOp::Updates { rows, secs } => {
            let batch: Vec<(UserId, Point, SimTime)> = rows
                .iter()
                .map(|&(id, x, y)| (id, Point::new(x, y), SimTime::from_secs(*secs)))
                .collect();
            engine.process_updates(&batch);
        }
        TestOp::LoadPublic { n } => {
            let objects: Vec<PublicObject> = (0..*n as u64)
                .map(|i| {
                    PublicObject::new(
                        i,
                        Point::new(((i as f64) * 0.053) % 1.0, ((i as f64) * 0.031) % 1.0),
                        (i % 3) as u32,
                    )
                })
                .collect();
            engine.load_public(objects);
        }
        TestOp::StandingCount { cx, cy, half } => {
            issued.push(engine.add_standing_count(square(*cx, *cy, *half)));
        }
        TestOp::StandingRange { user, radius } => {
            issued.push(engine.add_standing_range(*user, *radius));
        }
        TestOp::Drain => {
            engine.take_standing_changes();
        }
        TestOp::Deregister { sel } => {
            if !issued.is_empty() {
                let id = issued.remove(*sel as usize % issued.len());
                engine.deregister_standing(id);
            }
        }
        TestOp::Mirror { rows, secs, cloak } => {
            let time = SimTime::from_secs(*secs);
            let batch: Vec<(UserId, Point, SimTime)> = rows
                .iter()
                .map(|&(id, x, y)| (id, Point::new(x, y), time))
                .collect();
            let cloaks: Vec<CloakedUpdate> = cloak
                .iter()
                .map(|&(id, cx, cy, half)| CloakedUpdate {
                    pseudonym: engine.pseudonym(id),
                    region: CloakedRegion {
                        region: square(cx, cy, half),
                        achieved_k: 3,
                        k_satisfied: true,
                        area_satisfied: true,
                    },
                    time,
                })
                .collect();
            engine.apply_mirror(&batch, &cloaks);
        }
    }
}

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn state_bytes(engine: &ShardedEngine) -> bytes::Bytes {
    journal::encode_engine_state(&engine.export_state())
}

prop_compose! {
    fn test_op()(
        kind in 0u8..9,
        id in 0u64..16,
        k in 1u32..6,
        rows in prop::collection::vec((0u64..16, 0.0f64..1.0, 0.0f64..1.0), 1..16),
        secs in 0.0f64..100.0,
        n in 4u32..20,
        cx in 0.1f64..0.9,
        cy in 0.1f64..0.9,
        half in 0.05f64..0.4,
        radius in 0.01f64..0.3,
        sel in any::<u8>(),
    ) -> TestOp {
        match kind {
            0 => TestOp::Register { id, k },
            1..=3 => TestOp::Updates { rows, secs },
            4 => TestOp::LoadPublic { n },
            5 => TestOp::StandingCount { cx, cy, half },
            6 => TestOp::StandingRange { user: id, radius },
            7 if sel.is_multiple_of(2) => TestOp::Drain,
            7 => TestOp::Deregister { sel },
            _ => TestOp::Mirror {
                rows,
                secs,
                cloak: sel.is_multiple_of(2).then_some((id, cx, cy, half)),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crash_at_any_point_replays_to_the_uninterrupted_state(
        ops in prop::collection::vec(test_op(), 1..12),
        crash_frac in 0.0f64..1.0,
        cadence_raw in 1u64..6,
        cadence_huge in any::<bool>(),
    ) {
        let cfg = EngineConfig::new(world());
        let cadence = if cadence_huge { u64::MAX } else { cadence_raw };
        let crash_at = ((ops.len() + 1) as f64 * crash_frac) as usize % (ops.len() + 1);

        // Reference: every op, no durability, no interruption.
        let mut reference = ShardedEngine::new(cfg, 1);
        let mut ref_issued = Vec::new();
        for op in &ops {
            apply(&mut reference, &mut ref_issued, op);
        }

        // Reference at the crash point (also rebuilds `issued` as it
        // stood when the crash hit, for the resumed run below).
        let mut at_crash = ShardedEngine::new(cfg, 1);
        let mut crash_issued = Vec::new();
        for op in &ops[..crash_at] {
            apply(&mut at_crash, &mut crash_issued, op);
        }

        // Durable twin: journal the prefix into a real log, then
        // hard-stop (drop, no shutdown).
        let dir = TempDir::new("prop");
        {
            let mut wal = Wal::create_segment(dir.path(), 0, 0).expect("create segment 0");
            wal.append_record(&JournalRecord::InitEngine(cfg)).expect("genesis");
            wal.sync_log().expect("sync genesis");
            let mut twin = ShardedEngine::new(cfg, 1);
            twin.attach_durability(
                Durability { snapshot_every: cadence, fsync: true },
                Box::new(wal),
            );
            let mut twin_issued = Vec::new();
            for op in &ops[..crash_at] {
                apply(&mut twin, &mut twin_issued, op);
            }
            prop_assert_eq!(state_bytes(&twin), state_bytes(&at_crash));
        }

        // Read-only recovery: byte-identical to the reference at the
        // crash point.
        let rec = match recover_engine(dir.path()) {
            Ok(rec) => rec,
            Err(e) => return Err(TestCaseError::fail(format!("recovery failed: {e}"))),
        };
        prop_assert!(rec.torn.is_none());
        prop_assert_eq!(state_bytes(&rec.engine), state_bytes(&at_crash));

        // Resume: reopen the log, run the remaining ops, and converge
        // with the uninterrupted reference.
        let policy = Durability { snapshot_every: cadence, fsync: true };
        let mut resumed = match open_engine(dir.path(), cfg, 1, policy) {
            Ok(opened) => opened,
            Err(e) => return Err(TestCaseError::fail(format!("reopen failed: {e}"))),
        };
        prop_assert!(resumed.recovered);
        for op in &ops[crash_at..] {
            apply(&mut resumed.engine, &mut crash_issued, op);
        }
        prop_assert_eq!(state_bytes(&resumed.engine), state_bytes(&reference));
        drop(resumed);

        // And the log the resumed engine left behind recovers to the
        // same final state too.
        let rec = match recover_engine(dir.path()) {
            Ok(rec) => rec,
            Err(e) => return Err(TestCaseError::fail(format!("final recovery failed: {e}"))),
        };
        prop_assert_eq!(state_bytes(&rec.engine), state_bytes(&reference));
    }
}
