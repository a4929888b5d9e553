//! The headline correctness claim of the network subsystem: putting a
//! real TCP hop between the users and the anonymizer changes *nothing*
//! about the bytes the system produces.
//!
//! A seeded 1k-user workload (registrations, exact-location updates,
//! private range queries) is driven twice — once through
//! `NetClient → NetServer → ShardedEngine` over loopback, once through
//! the in-process engine directly — and every response must be
//! byte-identical, at more than one server poller shard count.

use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::metrics::NetCountersSnapshot;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{NetClient, NetConfig, NetServer, Reply};
use lbsp_server::PublicObject;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

const USERS: u64 = 1000;
const SEED: u64 = 20060403; // ICDE'06 vintage.

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

/// The cloaking requirement user `i` registers with (mixed k levels and
/// an occasional area floor, like the engine concurrency tests).
fn requirement_for(i: u64) -> (u32, f64, f64) {
    let k = [2u32, 5, 10, 25][(i % 4) as usize];
    let a_min = if i.is_multiple_of(5) { 0.01 } else { 0.0 };
    (k, a_min, f64::INFINITY)
}

fn seeded_positions(seed: u64, n: u64) -> Vec<(u64, Point, SimTime)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            (i, p, SimTime::from_secs(i as f64 * 0.25))
        })
        .collect()
}

fn public_objects(seed: u64, n: u64) -> Vec<PublicObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            PublicObject::new(
                id,
                Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                0,
            )
        })
        .collect()
}

fn fresh_engine() -> ShardedEngine {
    let mut cfg = EngineConfig::new(world());
    cfg.refine = true;
    let mut engine = ShardedEngine::new(cfg, 1);
    engine.load_public(public_objects(SEED ^ 1, 200));
    engine
}

/// The in-process reference: same engine, same workload, driven one
/// request at a time exactly as the server's worker loop does.
struct Reference {
    updates: Vec<Vec<u8>>,
    queries: Vec<Vec<u8>>,
}

fn reference_run(updates: &[(u64, Point, SimTime)], query_users: &[u64]) -> Reference {
    let mut engine = fresh_engine();
    for i in 0..USERS {
        let (k, a_min, a_max) = requirement_for(i);
        let profile = PrivacyProfile::uniform(CloakRequirement { k, a_min, a_max }).unwrap();
        engine.register(i, profile);
    }
    let update_bytes: Vec<Vec<u8>> = updates
        .iter()
        .map(|row| {
            let out = engine.process_updates_wire(std::slice::from_ref(row));
            out.into_iter().next().unwrap().unwrap().to_vec()
        })
        .collect();
    let query_time = SimTime::from_secs(1e6);
    let query_bytes: Vec<Vec<u8>> = query_users
        .iter()
        .map(|&u| {
            engine
                .range_query(u, query_time, 0.08)
                .unwrap()
                .response
                .to_vec()
        })
        .collect();
    Reference {
        updates: update_bytes,
        queries: query_bytes,
    }
}

/// Byte-identity across the network at two poller shard counts, plus the
/// post-shutdown engine state and counter accounting.
#[test]
fn network_path_is_byte_identical_to_in_process() {
    let updates = seeded_positions(SEED, USERS);
    let query_users: Vec<u64> = (0..USERS).step_by(97).collect();
    let reference = reference_run(&updates, &query_users);

    for workers in [1usize, 4] {
        let server = NetServer::bind(
            "127.0.0.1:0",
            fresh_engine(),
            NetConfig::with_workers(workers),
        )
        .unwrap();
        let addr = server.local_addr();
        let mut client = NetClient::connect(addr).unwrap();

        for i in 0..USERS {
            let (k, a_min, a_max) = requirement_for(i);
            assert_eq!(
                client.register(i, k, a_min, a_max).unwrap(),
                Reply::Ok,
                "register {i} (workers={workers})"
            );
        }
        for (row, expect) in updates.iter().zip(&reference.updates) {
            match client.update(row.0, row.1, row.2).unwrap() {
                Reply::Cloaked(bytes) => {
                    assert_eq!(&bytes, expect, "update user {} workers {workers}", row.0)
                }
                other => panic!("update user {}: unexpected reply {other:?}", row.0),
            }
        }
        let query_time = SimTime::from_secs(1e6);
        for (&u, expect) in query_users.iter().zip(&reference.queries) {
            match client.range_query(u, 0.08, query_time).unwrap() {
                Reply::Candidates(bytes) => {
                    assert_eq!(&bytes, expect, "query user {u} workers {workers}")
                }
                other => panic!("query user {u}: unexpected reply {other:?}"),
            }
        }

        let requests = USERS + updates.len() as u64 + query_users.len() as u64;
        let snap: NetCountersSnapshot = server.counters().snapshot();
        assert_eq!(snap.requests_served, requests, "workers={workers}");
        assert_eq!(snap.errors_returned, 0, "workers={workers}");
        assert_eq!(snap.frames_rejected, 0, "workers={workers}");
        assert!(snap.bytes_in > 0 && snap.bytes_out > 0);

        // Graceful shutdown returns the engine with every state change
        // the network workload made.
        drop(client);
        let engine = server.shutdown();
        assert_eq!(engine.registered(), USERS as usize, "workers={workers}");
        assert_eq!(engine.population(), USERS as usize, "workers={workers}");
        assert_eq!(engine.private_len(), USERS as usize, "workers={workers}");
    }
}

/// Engine-level rejections (unknown user, malformed payloads) come back
/// as error replies on a connection that stays usable — the transport
/// does not conflate "bad request" with "bad peer".
#[test]
fn application_errors_keep_the_connection_alive() {
    let server = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Update for a user that never registered.
    match client
        .update(42, Point::new(0.5, 0.5), SimTime::ZERO)
        .unwrap()
    {
        Reply::Error(msg) => assert!(!msg.is_empty()),
        other => panic!("expected error reply, got {other:?}"),
    }
    // Register with an inverted area interval (rejected by the codec).
    match client.register(7, 4, 0.5, 0.1).unwrap() {
        Reply::Error(_) => {}
        other => panic!("expected error reply, got {other:?}"),
    }
    // The same connection still serves good requests.
    assert_eq!(
        client.register(7, 4, 0.0, f64::INFINITY).unwrap(),
        Reply::Ok
    );
    match client
        .update(7, Point::new(0.5, 0.5), SimTime::ZERO)
        .unwrap()
    {
        Reply::Cloaked(_) => {}
        other => panic!("expected cloaked reply, got {other:?}"),
    }
    let snap = server.counters().snapshot();
    assert!(snap.errors_returned >= 2);
    assert_eq!(server.shutdown().population(), 1);
}
