//! Standing queries across the network are the sequential pipeline in
//! disguise: registering over TCP, moving users, and reading
//! `STANDING_DELTA` pushes / `STANDING_SNAPSHOT` replies must produce
//! bytes identical to the sequential pipeline (the grid anonymizer,
//! `Server` and the standing private ranges) driven in-process — at
//! more than one server poller shard count — and the post-shutdown
//! engine's registries must agree with what the client saw.

mod common;

use common::Sequential;
use lbsp_anonymizer::{CloakRequirement, GridCloak, PrivacyProfile};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{NetClient, NetConfig, NetServer, Reply};
use lbsp_server::PublicObject;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::HashMap;

const USERS: u64 = 200;
const WAVES: u64 = 3;
const SEED: u64 = 20060406;
/// Must equal [`EngineConfig::new`]'s secret so pseudonyms agree.
const SECRET: u64 = 0x1BAD_B002_CAFE_F00D;

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn requirement_for(i: u64) -> CloakRequirement {
    CloakRequirement {
        k: [2u32, 5, 10, 25][(i % 4) as usize],
        a_min: if i.is_multiple_of(5) { 0.01 } else { 0.0 },
        a_max: f64::INFINITY,
    }
}

/// Wave `w` of movement: every user gets a fresh seeded position.
fn wave(w: u64) -> Vec<(u64, Point, SimTime)> {
    let mut rng = StdRng::seed_from_u64(SEED ^ (w.wrapping_mul(0x9E37)));
    (0..USERS)
        .map(|i| {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            (i, p, SimTime::from_secs((w * USERS + i) as f64 * 0.25))
        })
        .collect()
}

fn public_objects() -> Vec<PublicObject> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    (0..150)
        .map(|id| {
            PublicObject::new(
                id,
                Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                0,
            )
        })
        .collect()
}

/// The standing queries both paths register, in identical order, after
/// the first wave has populated the stores.
const COUNT_AREAS: [(f64, f64, f64, f64); 2] = [(0.2, 0.2, 0.7, 0.7), (0.05, 0.55, 0.45, 0.95)];
const RANGE_OWNERS: [(u64, f64); 2] = [(7, 0.1), (13, 0.2)];

fn fresh_engine() -> ShardedEngine {
    let mut cfg = EngineConfig::new(world());
    cfg.refine = true;
    let mut engine = ShardedEngine::new(cfg, 1);
    engine.load_public(public_objects());
    engine
}

/// Sequential reference: cloaked bytes for every row, plus the final
/// wire state of every standing query.
struct Reference {
    updates: Vec<Vec<u8>>,
    standing: Vec<(u64, Vec<u8>)>,
}

fn reference_run() -> Reference {
    let algo = GridCloak::new(world(), 16).with_refinement(true);
    let mut sys = Sequential::new(algo, SECRET, public_objects());
    for i in 0..USERS {
        sys.register(i, PrivacyProfile::uniform(requirement_for(i)).unwrap());
    }
    let mut updates = Vec::new();
    for &(id, pos, time) in &wave(0) {
        let u = sys.update(id, pos, time);
        updates.push(wire::encode_cloaked_update(&u).to_vec());
    }
    let mut keys: Vec<u64> = Vec::new();
    for &(x0, y0, x1, y1) in &COUNT_AREAS {
        keys.push(sys.add_standing_count(Rect::new_unchecked(x0, y0, x1, y1)));
    }
    for &(user, radius) in &RANGE_OWNERS {
        keys.push(sys.add_standing_range(user, radius));
    }
    for w in 1..WAVES {
        for &(id, pos, time) in &wave(w) {
            let u = sys.update(id, pos, time);
            updates.push(wire::encode_cloaked_update(&u).to_vec());
        }
    }
    let standing = keys
        .into_iter()
        .map(|id| {
            let state = sys.standing_state(id).unwrap();
            (id, wire::encode_standing_state(&state).to_vec())
        })
        .collect();
    Reference { updates, standing }
}

#[test]
fn standing_queries_over_the_network_match_the_sequential_system() {
    let reference = reference_run();

    for workers in [1usize, 4] {
        let server = NetServer::bind(
            "127.0.0.1:0",
            fresh_engine(),
            NetConfig::with_workers(workers),
        )
        .unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();

        for i in 0..USERS {
            let r = requirement_for(i);
            assert_eq!(
                client.register(i, r.k, r.a_min, r.a_max).unwrap(),
                Reply::Ok,
                "register {i} (workers={workers})"
            );
        }
        let mut expect_updates = reference.updates.iter();
        for &(id, pos, time) in &wave(0) {
            match client.update(id, pos, time).unwrap() {
                Reply::Cloaked(bytes) => {
                    assert_eq!(Some(&bytes), expect_updates.next(), "update user {id}")
                }
                other => panic!("update user {id}: unexpected reply {other:?}"),
            }
        }

        // Register the standing queries in the reference order; the
        // server names them with the same ids the sequential
        // registries produced.
        let mut keys: Vec<u64> = Vec::new();
        for &(x0, y0, x1, y1) in &COUNT_AREAS {
            let area = Rect::new_unchecked(x0, y0, x1, y1);
            match client.register_standing_count(area).unwrap() {
                Reply::StandingRegistered(bytes) => {
                    keys.push(wire::decode_standing_ref(&bytes).unwrap().id);
                }
                other => panic!("standing-count registration: {other:?}"),
            }
        }
        for &(user, radius) in &RANGE_OWNERS {
            match client.register_standing_range(user, radius).unwrap() {
                Reply::StandingRegistered(bytes) => {
                    keys.push(wire::decode_standing_ref(&bytes).unwrap().id);
                }
                other => panic!("standing-range registration: {other:?}"),
            }
        }
        assert_eq!(
            keys,
            reference
                .standing
                .iter()
                .map(|(k, _)| *k)
                .collect::<Vec<_>>(),
            "query ids agree with the sequential registries"
        );

        // Move everyone; deltas for the subscribed queries arrive ahead
        // of each update's reply and are stashed by the client.
        for w in 1..WAVES {
            for &(id, pos, time) in &wave(w) {
                match client.update(id, pos, time).unwrap() {
                    Reply::Cloaked(bytes) => {
                        assert_eq!(Some(&bytes), expect_updates.next(), "update user {id}")
                    }
                    other => panic!("update user {id}: unexpected reply {other:?}"),
                }
            }
        }

        // Every delta decodes, and the *last* delta per query equals
        // the sequential system's final state for that query.
        let deltas = client.take_standing_deltas();
        assert!(!deltas.is_empty(), "movement pushed deltas");
        let mut last: HashMap<u64, Vec<u8>> = HashMap::new();
        for bytes in &deltas {
            let state = wire::decode_standing_state(bytes).expect("delta decodes");
            last.insert(state.id(), bytes.clone());
        }
        for (key, expect) in &reference.standing {
            // A query whose answer never changed after registration has
            // no delta; the snapshot check below still covers it.
            let Some(bytes) = last.get(key) else { continue };
            let got = wire::decode_standing_state(bytes).unwrap();
            let want = wire::decode_standing_state(expect).unwrap();
            match (got, want) {
                // A count delta is pushed when the *interval* changes;
                // `expected` keeps drifting between pushes, so the last
                // delta carries the final seq and interval but not
                // necessarily the final expected value.
                (wire::StandingState::Count(g), wire::StandingState::Count(w)) => {
                    assert_eq!(
                        (g.seq, g.certain, g.possible),
                        (w.seq, w.certain, w.possible),
                        "last count delta for {key:?} (workers={workers})"
                    );
                }
                // A range delta is pushed exactly when the candidate
                // set changes, so the last one IS the final state.
                (wire::StandingState::Range(_), wire::StandingState::Range(_)) => {
                    assert_eq!(
                        bytes, expect,
                        "last range delta for {key:?} (workers={workers})"
                    );
                }
                _ => panic!("delta kind mismatch for {key:?}"),
            }
        }

        // Snapshots over the network are byte-identical to the
        // sequential path.
        for (key, expect) in &reference.standing {
            match client.standing_snapshot(*key).unwrap() {
                Reply::StandingState(bytes) => {
                    assert_eq!(&bytes, expect, "snapshot {key:?} (workers={workers})")
                }
                other => panic!("snapshot {key:?}: unexpected reply {other:?}"),
            }
        }

        // The post-shutdown engine agrees with everything the client
        // saw — the in-process registry *is* the network answer.
        drop(client);
        let engine = server.shutdown();
        for (key, expect) in &reference.standing {
            let state = engine.standing_state(*key).unwrap();
            assert_eq!(
                &wire::encode_standing_state(&state).to_vec(),
                expect,
                "engine state {key:?} (workers={workers})"
            );
        }
    }
}

/// Deltas fan out across connections: a subscriber hears about changes
/// caused by *other* connections' updates, without asking.
#[test]
fn deltas_reach_subscribers_on_other_connections() {
    let server = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let mut mover = NetClient::connect(server.local_addr()).unwrap();
    let mut watcher = NetClient::connect(server.local_addr()).unwrap();

    for i in 0..50u64 {
        let r = requirement_for(i);
        assert_eq!(mover.register(i, r.k, r.a_min, r.a_max).unwrap(), Reply::Ok);
    }
    for &(id, pos, time) in wave(0).iter().take(50) {
        match mover.update(id, pos, time).unwrap() {
            Reply::Cloaked(_) => {}
            other => panic!("seed update {id}: {other:?}"),
        }
    }
    // The watcher subscribes to a world-spanning count: any later
    // cloak change that alters the interval must reach it.
    let key = match watcher.register_standing_count(world()).unwrap() {
        Reply::StandingRegistered(bytes) => wire::decode_standing_ref(&bytes).unwrap(),
        other => panic!("registration: {other:?}"),
    };
    // A brand-new user appears: possible count rises from 50 to 51.
    let r = requirement_for(50);
    assert_eq!(
        mover.register(50, r.k, r.a_min, r.a_max).unwrap(),
        Reply::Ok
    );
    match mover
        .update(50, Point::new(0.5, 0.5), SimTime::from_secs(999.0))
        .unwrap()
    {
        Reply::Cloaked(_) => {}
        other => panic!("new-user update: {other:?}"),
    }
    // The mover holds no subscriptions, so its stash stays empty.
    assert!(mover.take_standing_deltas().is_empty());
    // The push sits in the watcher's connection queue; any traffic
    // (here a ping) lets the client read it out.
    match watcher.ping(b"poke").unwrap() {
        Reply::Pong(p) => assert_eq!(p, b"poke"),
        other => panic!("ping: {other:?}"),
    }
    let deltas = watcher.take_standing_deltas();
    assert!(
        !deltas.is_empty(),
        "cross-connection delta reached the subscriber"
    );
    let Some(wire::StandingState::Count(state)) = deltas
        .last()
        .map(|b| wire::decode_standing_state(b).unwrap())
    else {
        panic!("count delta expected");
    };
    assert_eq!(state.id, key.id);
    assert_eq!(state.possible, 51);

    // Deregistration over the wire: the query disappears for everyone.
    assert_eq!(watcher.deregister_standing(key.id).unwrap(), Reply::Ok);
    match watcher.standing_snapshot(key.id).unwrap() {
        Reply::Error(msg) => assert!(!msg.is_empty()),
        other => panic!("snapshot after deregister: {other:?}"),
    }
    drop(mover);
    drop(watcher);
    assert!(server.shutdown().standing_state(key.id).is_none());
}
