//! The node side of a `CARRY` envelope, over a real socket: carried
//! frames are applied in order and before the request, the request is
//! answered as if it had come bare, and an envelope that is malformed —
//! or carries a frame the node refuses — is refused loudly, counted, and
//! stops where it broke. A run of carried rows is one engine crossing.

use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire::{self, tag};
use lbsp_core::{Durability, DurabilitySink, EngineOp, JournalRecord, StandingQuery};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{NetClient, NetConfig, NetServer, Reply};
use std::sync::{Arc, Mutex};

fn engine() -> ShardedEngine {
    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
    let mut engine = ShardedEngine::new(EngineConfig::new(world), 1);
    for user in 0..8 {
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(2)).unwrap();
        engine.register(user, profile);
    }
    engine
}

fn row(user: u64, x: f64, secs: f64) -> wire::ExactUpdateMsg {
    wire::ExactUpdateMsg {
        user,
        position: Point::new(x, 0.5),
        time: SimTime::from_secs(secs),
    }
}

fn mirror(user: u64, x: f64, secs: f64) -> (u8, Vec<u8>) {
    let msg = wire::MirrorUpdateMsg {
        row: row(user, x, secs),
        cloak: None,
    };
    (
        tag::MIRROR_UPDATE,
        wire::encode_mirror_update(&msg).to_vec(),
    )
}

fn envelope(carried: &[(u8, Vec<u8>)], request: Option<(u8, &[u8])>) -> Vec<u8> {
    wire::encode_carry(carried.iter().map(|(t, p)| (*t, p.as_slice())), request)
        .expect("a legal envelope")
        .to_vec()
}

fn position_of(engine: &ShardedEngine, user: u64) -> Option<Point> {
    let state = engine.export_state();
    state
        .positions
        .iter()
        .find(|(id, _)| *id == user)
        .map(|(_, p)| *p)
}

#[test]
fn carried_frames_land_in_order_before_the_request_they_ride_on() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // What a sequential engine answers once users 5, 6 and 7 stand
    // where the carried rows put them — 7 where the *later* row did.
    let mut reference = engine();
    reference.apply_mirror(
        &[
            (5, Point::new(0.30, 0.5), SimTime::from_secs(1.0)),
            (6, Point::new(0.31, 0.5), SimTime::from_secs(2.0)),
            (7, Point::new(0.90, 0.5), SimTime::from_secs(3.0)),
            (7, Point::new(0.32, 0.5), SimTime::from_secs(4.0)),
        ],
        &[],
    );
    let update = row(1, 0.305, 5.0);
    let want = reference
        .process_updates_wire(&[(update.user, update.position, update.time)])
        .remove(0)
        .unwrap()
        .to_vec();

    let carried = [
        mirror(5, 0.30, 1.0),
        mirror(6, 0.31, 2.0),
        mirror(7, 0.90, 3.0),
        mirror(7, 0.32, 4.0),
    ];
    let request = wire::encode_exact_update(&update);
    let reply = client
        .request(
            tag::CARRY,
            &envelope(&carried, Some((tag::EXACT_UPDATE, &request))),
        )
        .unwrap();
    assert_eq!(reply, Reply::Cloaked(want), "the request saw every row");

    // A flush carries rows and asks nothing.
    let reply = client
        .request(tag::CARRY, &envelope(&[mirror(4, 0.7, 6.0)], None))
        .unwrap();
    assert_eq!(reply, Reply::Ok);
    // An envelope is one request served, whatever it carries.
    assert_eq!(server.counters().snapshot().requests_served, 2);
    assert_eq!(server.counters().snapshot().frames_rejected, 0);

    drop(client);
    let engine = server.shutdown();
    assert_eq!(position_of(&engine, 7), Some(Point::new(0.32, 0.5)));
    assert_eq!(position_of(&engine, 4), Some(Point::new(0.7, 0.5)));
}

/// A journal that keeps every record it is handed and counts its syncs.
#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<(Vec<JournalRecord>, usize)>>);

impl DurabilitySink for Recorder {
    fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
        self.0.lock().unwrap().0.push(rec.clone());
        Ok(())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.0.lock().unwrap().1 += 1;
        Ok(())
    }
    fn snapshot(&mut self, _state: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
}

/// 32 carried rows on a durable node — half with the owner's cloak —
/// are one `apply_mirror`: one journal record holding every row and
/// cloak in order, and one sync.
#[test]
fn a_32_row_envelope_is_one_journal_record() {
    let journal = Recorder::default();
    let mut durable = engine();
    durable.attach_durability(
        Durability {
            snapshot_every: 0,
            fsync: true,
        },
        Box::new(journal.clone()),
    );
    let server = NetServer::bind("127.0.0.1:0", durable, NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let mut reference = engine();
    let cloaked: Vec<wire::MirrorUpdateMsg> = (0..32u64)
        .map(|i| {
            let row = row(100 + i, 0.01 + 0.03 * i as f64, 1.0);
            let cloak = (i % 2 == 0).then(|| {
                reference.register(
                    row.user,
                    PrivacyProfile::uniform(CloakRequirement::k_only(1)).unwrap(),
                );
                let bytes = reference
                    .process_updates_wire(&[(row.user, row.position, row.time)])
                    .remove(0)
                    .unwrap();
                wire::decode_cloaked_update(&bytes).unwrap()
            });
            wire::MirrorUpdateMsg { row, cloak }
        })
        .collect();
    let carried: Vec<(u8, Vec<u8>)> = cloaked
        .iter()
        .map(|m| (tag::MIRROR_UPDATE, wire::encode_mirror_update(m).to_vec()))
        .collect();
    let reply = client
        .request(tag::CARRY, &envelope(&carried, None))
        .unwrap();
    assert_eq!(reply, Reply::Ok);

    let (records, syncs) = journal.0.lock().unwrap().clone();
    assert_eq!(records.len(), 1, "one record for the envelope");
    assert_eq!(syncs, 1, "one sync for the envelope");
    let JournalRecord::Op(EngineOp::Mirror(state)) = &records[0] else {
        panic!("not a mirror record: {:?}", records[0]);
    };
    let rows: Vec<_> = cloaked
        .iter()
        .map(|m| (m.row.user, m.row.position, m.row.time))
        .collect();
    let cloaks: Vec<_> = cloaked.iter().filter_map(|m| m.cloak).collect();
    assert_eq!((state.rows.clone(), state.cloaks.clone()), (rows, cloaks));

    drop(client);
    let engine = server.shutdown();
    assert_eq!(engine.private_len(), 16, "every cloak landed");
    assert_eq!(position_of(&engine, 131), Some(cloaked[31].row.position));
}

#[test]
fn a_malformed_or_refused_envelope_is_loud_counted_and_stops_where_it_broke() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let rejected = |server: &NetServer| server.counters().snapshot().frames_rejected;
    let expect_refusal =
        |client: &mut NetClient, payload: &[u8], index: usize, what: &str| match client
            .request(tag::CARRY, payload)
            .unwrap()
        {
            Reply::Error(text) => assert_eq!(
                wire::decode_carry_rejected(text.as_bytes()),
                Some(index),
                "{what}: {text}"
            ),
            other => panic!("{what}: answered {other:?}"),
        };

    let good = envelope(&[mirror(5, 0.3, 1.0), mirror(6, 0.4, 2.0)], None);
    let nested = {
        let mut raw = 1u16.to_le_bytes().to_vec();
        raw.push(tag::CARRY);
        raw.extend(2u16.to_le_bytes());
        raw.extend(0u16.to_le_bytes());
        raw
    };
    let client_facing = {
        let update = wire::encode_exact_update(&row(5, 0.9, 1.0));
        let mut raw = 1u16.to_le_bytes().to_vec();
        raw.push(tag::EXACT_UPDATE);
        raw.extend((update.len() as u16).to_le_bytes());
        raw.extend(update.iter());
        raw
    };
    let wants_an_answer = {
        let mut raw = 1u16.to_le_bytes().to_vec();
        raw.push(tag::RESYNC_PULL);
        raw.extend(0u16.to_le_bytes());
        raw
    };
    let over_cap = (wire::CARRY_MAX_FRAMES as u16 + 1).to_le_bytes().to_vec();
    let as_request = {
        let mut raw = good.clone();
        raw.push(tag::CARRY);
        raw
    };
    let malformed: [(&str, &[u8]); 7] = [
        ("empty", &[]),
        ("cut inside a carried frame", &good[..good.len() - 1]),
        ("an envelope inside", &nested),
        ("a client-facing tag inside", &client_facing),
        ("a frame that wants an answer inside", &wants_an_answer),
        ("count over the cap", &over_cap),
        ("an envelope as the request", &as_request),
    ];
    for (i, (what, payload)) in malformed.iter().enumerate() {
        expect_refusal(&mut client, payload, 0, what);
        assert_eq!(rejected(&server), i as u64 + 1, "{what} was counted");
    }
    let counted = rejected(&server);

    // Bytes after the carried frames are the request: a surplus byte
    // makes it a malformed request, refused by its own codec — after
    // the frames it rode behind were applied.
    let mut trailing = envelope(
        &[mirror(6, 0.45, 3.0)],
        Some((tag::USER_QUERY, &[0u8; wire::USER_QUERY_LEN])),
    );
    trailing.push(0);
    match client.request(tag::CARRY, &trailing).unwrap() {
        Reply::Error(text) => assert_eq!(text, "malformed query payload"),
        other => panic!("surplus byte: answered {other:?}"),
    }
    assert_eq!(rejected(&server), counted + 1);

    // A carried frame the node refuses: the reply names it, the frame
    // before it stands, nothing after it — request included — ran.
    let mut bad = mirror(7, 0.2, 4.0);
    bad.1.push(0);
    let update = wire::encode_exact_update(&row(1, 0.8, 5.0));
    let refused = envelope(
        &[mirror(5, 0.6, 4.0), bad, mirror(5, 0.1, 4.5)],
        Some((tag::EXACT_UPDATE, &update)),
    );
    expect_refusal(&mut client, &refused, 1, "malformed second frame");
    assert_eq!(rejected(&server), counted + 2);

    // The connection survived all of it.
    assert_eq!(client.ping(b"ok").unwrap(), Reply::Pong(b"ok".to_vec()));
    drop(client);
    let engine = server.shutdown();
    assert_eq!(position_of(&engine, 5), Some(Point::new(0.6, 0.5)));
    assert_eq!(position_of(&engine, 6), Some(Point::new(0.45, 0.5)));
    assert_eq!(
        position_of(&engine, 7),
        None,
        "the refused row did not land"
    );
    assert_eq!(
        position_of(&engine, 1),
        None,
        "nor did the request behind it"
    );
    let profiles = engine.export_state().profiles;
    assert!(profiles.iter().any(|(id, _)| *id == 3), "nor the pull");
}

/// Standing installs and drops are keyed by the id node 0 chose, so an
/// envelope replayed after its acknowledgement was lost changes nothing:
/// a second install of a present id and a drop of an absent one both
/// answer `OK` like the first.
#[test]
fn a_replayed_standing_install_or_drop_is_a_no_op() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let standing = |msg: wire::StandingInstallMsg| {
        (
            tag::STANDING_INSTALL,
            wire::encode_standing_install(&msg).to_vec(),
        )
    };
    let query = StandingQuery::Count {
        area: Rect::new_unchecked(0.0, 0.0, 0.5, 1.0),
    };
    let install = [
        standing(wire::StandingInstallMsg::Install { id: 4, query }),
        standing(wire::StandingInstallMsg::Install { id: 6, query }),
    ];
    let dropped = [standing(wire::StandingInstallMsg::Drop { id: 4 })];
    for carried in [&install[..], &install[..], &dropped[..], &dropped[..]] {
        let reply = client.request(tag::CARRY, &envelope(carried, None));
        assert_eq!(reply.unwrap(), Reply::Ok);
    }
    assert_eq!(server.counters().snapshot().frames_rejected, 0);
    drop(client);
    let standing = server.shutdown().export_state().standing;
    let ids: Vec<u64> = standing.entries.iter().map(|q| q.id).collect();
    assert_eq!(ids, [6], "one install each, and the drop");
    assert_eq!(standing.next_id, 7, "ids keep clear of the installed ones");
}
