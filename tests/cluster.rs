//! The cluster's headline guarantee: a K-node cluster behind a
//! [`Router`] answers the full workload — registrations, cloaked
//! updates, standing-query registrations, deltas, snapshots —
//! **byte-identically** to one sequential pipeline (the grid
//! anonymizer, `Server` and the standing private ranges), for
//! K ∈ {1, 2, 4}, with a workload in which well over 10% of users move
//! across the world from wave to wave and standing-query deltas
//! originate on whichever node owns the moving user. Each user is
//! registered on exactly one node, [`owner_of`] its id, whatever it
//! does. An unreachable node must surface as a loud kinded
//! `ROUTE_FAIL` — `RETRYABLE` while its supervisor reconnects, `DOWN`
//! once the attempt budget is spent — never a hang or a masqueraded
//! application error, and never an error text leaking node addresses.

mod common;

use common::Sequential;
use lbsp_anonymizer::{CloakRequirement, GridCloak, PrivacyProfile};
use lbsp_cluster::{owner_of, Router, RouterConfig};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire::{self, StandingKind};
use lbsp_core::StandingRangesState;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{
    is_retryable_route_failure, is_route_failure, NetClient, NetConfig, NetServer, Reply,
};
use lbsp_server::PublicObject;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::net::TcpListener;
use std::time::Duration;

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
    standing: Vec<((StandingKind, u64), Vec<u8>)>,
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
    let mut keys: Vec<(StandingKind, u64)> = Vec::new();
    for &(x0, y0, x1, y1) in &COUNT_AREAS {
        let id = sys.add_standing_count(Rect::new_unchecked(x0, y0, x1, y1));
        keys.push((StandingKind::Count, id));
    }
    for &(user, radius) in &RANGE_OWNERS {
        let id = sys.add_standing_range(user, radius);
        keys.push((StandingKind::Range, id));
    }
    for w in 1..WAVES {
        for &(id, pos, time) in &wave(w) {
            let u = sys.update(id, pos, time);
            updates.push(wire::encode_cloaked_update(&u).to_vec());
        }
    }
    let standing = keys
        .into_iter()
        .map(|(kind, id)| {
            let state = sys.standing_state(kind, id).unwrap();
            ((kind, id), wire::encode_standing_state(&state).to_vec())
        })
        .collect();
    Reference { updates, standing }
}

/// K nodes on loopback plus a router fronting them.
fn spawn_cluster(k: usize) -> (Vec<NetServer>, Router) {
    let servers: Vec<NetServer> = (0..k)
        .map(|_| NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let addr_refs: Vec<&str> = addrs.iter().map(|s| s.as_str()).collect();
    let router = Router::bind("127.0.0.1:0", &addr_refs, world(), RouterConfig::default()).unwrap();
    (servers, router)
}

/// How many users' wave-to-wave movement crosses one of the lines
/// `x = j / k`: far travellers, which an owner by position would have
/// handed from node to node.
fn travellers(k: usize) -> u64 {
    let band = |p: Point| ((p.x * k as f64) as usize).min(k - 1);
    (0..USERS as usize)
        .filter(|&i| {
            let bands: Vec<usize> = (0..WAVES).map(|w| band(wave(w)[i].1)).collect();
            bands.windows(2).any(|w| w[0] != w[1])
        })
        .count() as u64
}

/// Every user in `users` registered on exactly one engine: its owner.
fn assert_one_owner_each(engines: &[ShardedEngine], users: impl Iterator<Item = u64>, what: &str) {
    let k = engines.len();
    let held: Vec<BTreeSet<u64>> = engines
        .iter()
        .map(|e| {
            e.export_state()
                .profiles
                .iter()
                .map(|(id, _)| *id)
                .collect()
        })
        .collect();
    let mut want = vec![BTreeSet::new(); k];
    for u in users {
        want[owner_of(u, k)].insert(u);
    }
    assert_eq!(held, want, "registrations by node ({what}, K={k})");
}

#[test]
fn cluster_is_byte_identical_to_the_sequential_system() {
    let reference = reference_run();

    for k in [1usize, 2, 4] {
        // The workload itself moves users far: at K=2 and K=4 more than
        // 10% of users cross one of the lines x = j/K between waves.
        if k > 1 {
            let far = travellers(k);
            assert!(
                far * 10 >= USERS,
                "workload must move >=10% of users far (K={k}: {far})"
            );
        }

        let (servers, router) = spawn_cluster(k);
        let mut client = NetClient::connect(router.local_addr()).unwrap();

        for i in 0..USERS {
            let r = requirement_for(i);
            assert_eq!(
                client.register(i, r.k, r.a_min, r.a_max).unwrap(),
                Reply::Ok,
                "register {i} (K={k})"
            );
        }
        let mut expect_updates = reference.updates.iter();
        for &(id, pos, time) in &wave(0) {
            match client.update(id, pos, time).unwrap() {
                Reply::Cloaked(bytes) => {
                    assert_eq!(
                        Some(&bytes),
                        expect_updates.next(),
                        "update user {id} (K={k})"
                    )
                }
                other => panic!("update user {id} (K={k}): unexpected reply {other:?}"),
            }
        }

        // Standing registrations broadcast through the router come back
        // with the same ids the sequential registries produced.
        let mut keys: Vec<(StandingKind, u64)> = Vec::new();
        for &(x0, y0, x1, y1) in &COUNT_AREAS {
            let area = Rect::new_unchecked(x0, y0, x1, y1);
            match client.register_standing_count(area).unwrap() {
                Reply::StandingRegistered(bytes) => {
                    let r = wire::decode_standing_ref(&bytes).unwrap();
                    assert_eq!(r.kind, StandingKind::Count);
                    keys.push((r.kind, r.id));
                }
                other => panic!("standing-count registration (K={k}): {other:?}"),
            }
        }
        for &(user, radius) in &RANGE_OWNERS {
            match client.register_standing_range(user, radius).unwrap() {
                Reply::StandingRegistered(bytes) => {
                    let r = wire::decode_standing_ref(&bytes).unwrap();
                    assert_eq!(r.kind, StandingKind::Range);
                    keys.push((r.kind, r.id));
                }
                other => panic!("standing-range registration (K={k}): {other:?}"),
            }
        }
        assert_eq!(
            keys,
            reference
                .standing
                .iter()
                .map(|(key, _)| *key)
                .collect::<Vec<_>>(),
            "query ids agree with the sequential registries (K={k})"
        );

        for w in 1..WAVES {
            for &(id, pos, time) in &wave(w) {
                match client.update(id, pos, time).unwrap() {
                    Reply::Cloaked(bytes) => {
                        assert_eq!(
                            Some(&bytes),
                            expect_updates.next(),
                            "update user {id} wave {w} (K={k})"
                        )
                    }
                    other => panic!("update user {id} wave {w} (K={k}): {other:?}"),
                }
            }
        }

        // Deltas fanned out by the router: every one decodes, and the
        // last per query matches the sequential final state under the
        // same per-kind comparison the single-node test uses.
        let deltas = client.take_standing_deltas();
        assert!(!deltas.is_empty(), "movement pushed deltas (K={k})");
        let mut last: HashMap<(StandingKind, u64), Vec<u8>> = HashMap::new();
        for bytes in &deltas {
            let state = wire::decode_standing_state(bytes).expect("delta decodes");
            let kind = match state {
                wire::StandingState::Count(_) => StandingKind::Count,
                wire::StandingState::Range(_) => StandingKind::Range,
            };
            last.insert((kind, state.id()), bytes.clone());
        }
        for (key, expect) in &reference.standing {
            let Some(bytes) = last.get(key) else { continue };
            let got = wire::decode_standing_state(bytes).unwrap();
            let want = wire::decode_standing_state(expect).unwrap();
            match (got, want) {
                (wire::StandingState::Count(g), wire::StandingState::Count(w)) => {
                    assert_eq!(
                        (g.seq, g.certain, g.possible),
                        (w.seq, w.certain, w.possible),
                        "last count delta for {key:?} (K={k})"
                    );
                }
                (wire::StandingState::Range(_), wire::StandingState::Range(_)) => {
                    assert_eq!(bytes, expect, "last range delta for {key:?} (K={k})");
                }
                _ => panic!("delta kind mismatch for {key:?} (K={k})"),
            }
        }

        // Snapshots routed to whichever node answers authoritatively
        // (node 0 for counts, the subject's owner for ranges) are
        // byte-identical to the sequential path — including the `seq`
        // counters.
        for (key, expect) in &reference.standing {
            match client.standing_snapshot(key.0, key.1).unwrap() {
                Reply::StandingState(bytes) => {
                    assert_eq!(&bytes, expect, "snapshot {key:?} (K={k})")
                }
                other => panic!("snapshot {key:?} (K={k}): unexpected reply {other:?}"),
            }
        }

        drop(client);
        let report = router.shutdown();
        assert_eq!(report.route_failures, 0, "healthy cluster (K={k})");

        // Lockstep proof: *every* node's count registries hold the
        // sequential final state — the replicated planes never drifted.
        // (Range registries live only on the subject's owner; the
        // snapshot check above already pinned those.)
        let engines: Vec<ShardedEngine> = servers.into_iter().map(|s| s.shutdown()).collect();
        assert_one_owner_each(&engines, 0..USERS, "after three waves");
        for (n, engine) in engines.iter().enumerate() {
            for (key, expect) in &reference.standing {
                if key.0 != StandingKind::Count {
                    continue;
                }
                let state = engine.standing_state(key.0, key.1).unwrap();
                assert_eq!(
                    &wire::encode_standing_state(&state).to_vec(),
                    expect,
                    "node {n} count registry (K={k})"
                );
            }
        }
    }
}

/// A node that never answers walks the whole recovery ladder in plain
/// sight: requests for its users fail `RETRYABLE` while the supervisor
/// retries, then fail `DOWN` once the attempt budget is spent — never a
/// hang, never a masqueraded application error. Requests for the
/// *healthy* node's users keep succeeding throughout (the dead mirror
/// is absorbed), and no failure text ever leaks a node's socket address
/// through the public socket.
#[test]
fn dead_node_is_a_loud_kinded_error() {
    let good = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let good_addr = good.local_addr().to_string();
    // A port that was just listening and no longer is: connecting to it
    // fails fast with a refusal.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let router = Router::bind(
        "127.0.0.1:0",
        &[good_addr.as_str(), dead_addr.as_str()],
        world(),
        RouterConfig {
            reconnect_base: Duration::from_millis(5),
            reconnect_cap: Duration::from_millis(10),
            reconnect_attempts: 2,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(router.local_addr()).unwrap();
    let live = (0..).find(|&u| owner_of(u, 2) == 0).unwrap();
    let stranded = (0..).find(|&u| owner_of(u, 2) == 1).unwrap();

    // A user node 0 owns registers — node 1 is not asked.
    assert_eq!(
        client.register(live, 2, 0.0, f64::INFINITY).unwrap(),
        Reply::Ok
    );
    // A user node 1 owns *needs* the dead node. The first failure is the
    // demotion itself — RETRYABLE, the supervisor is about to try.
    let err = match client.register(stranded, 2, 0.0, f64::INFINITY) {
        Err(e) => e,
        Ok(r) => panic!("registration owned by a dead node must not succeed: {r:?}"),
    };
    assert!(is_route_failure(&err), "kinded route failure, got {err}");
    assert!(
        err.to_string().contains("node 1"),
        "error names the dead node by index: {err}"
    );
    assert!(
        !err.to_string().contains(&dead_addr),
        "node addresses are topology and never cross the public socket: {err}"
    );
    // The supervisor burns its two attempts against a refused port and
    // declares the node down; from then on the failure kind is DOWN.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let down_err = loop {
        match client.register(stranded, 2, 0.0, f64::INFINITY) {
            Err(e) if !is_retryable_route_failure(&e) => break e,
            Err(_) => {}
            Ok(r) => panic!("dead node must not answer: {r:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "node 1 must be declared down within the attempt budget"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(is_route_failure(&down_err), "still kinded: {down_err}");
    assert!(
        down_err.to_string().contains("node 1") && !down_err.to_string().contains(&dead_addr),
        "DOWN text names the index, not the address: {down_err}"
    );
    let snap = router.metrics_registry().net().snapshot();
    assert!(snap.route_failures >= 1, "the DOWN failure was counted");
    assert!(
        snap.retryable_failures >= 1,
        "the reconnect-window failure was counted as retryable"
    );
    assert!(snap.reconnect_attempts >= 2, "the supervisor really tried");
    // A request owned by the *healthy* node sails through: its mirror
    // to the dead node is skipped, not failed.
    match client.update(live, Point::new(0.1, 0.1), SimTime::from_secs(3.0)) {
        Ok(Reply::Cloaked(_)) => {}
        other => panic!("update owned by the live node must succeed: {other:?}"),
    }
    // The client connection itself is fine — the router still answers.
    match client.ping(b"alive").unwrap() {
        Reply::Pong(p) => assert_eq!(p, b"alive"),
        other => panic!("ping after route failure: {other:?}"),
    }
    let report = router.shutdown();
    assert!(report.route_failures >= 1);
    drop(good.shutdown());
}

/// The router serves through the same poller as a node, so connections
/// beyond `net.workers` are multiplexed, not parked until a worker
/// frees up: with two shards, all of 64 idle-but-open connections get
/// their `PONG`, and the last one then does real work and reads the
/// bytes an in-process engine gives. The same run pins the router's own
/// observability: its `STATS` counts exactly the requests sent and
/// carries the front door's frame-decode and outbound-wait stages, and
/// shutdown closes every connection it accepted.
#[test]
fn router_serves_more_connections_than_workers() {
    const CONNS: usize = 64;
    const FRAME_DECODE: usize = 3;
    const OUTBOUND_WAIT: usize = 4;

    let node = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let node_addr = node.local_addr().to_string();
    let router = Router::bind(
        "127.0.0.1:0",
        &[node_addr.as_str()],
        world(),
        RouterConfig {
            net: NetConfig::with_workers(2),
            ..RouterConfig::default()
        },
    )
    .unwrap();

    let mut clients: Vec<NetClient> = (0..CONNS)
        .map(|_| {
            let c = NetClient::connect(router.local_addr()).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            c
        })
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        match c.ping(b"hello") {
            Ok(Reply::Pong(p)) => assert_eq!(p, b"hello"),
            other => panic!("connection {i} of {CONNS} got no PONG: {other:?}"),
        }
    }

    let (user, k, pos, radius) = (42u64, 2u32, Point::new(0.3, 0.6), 0.2);
    let (t_update, t_query) = (SimTime::from_secs(1.0), SimTime::from_secs(2.0));
    let mut reference = fresh_engine();
    let profile = PrivacyProfile::uniform(CloakRequirement {
        k,
        a_min: 0.0,
        a_max: f64::INFINITY,
    })
    .unwrap();
    reference.register(user, profile);
    let want_update = reference
        .process_updates_wire(&[(user, pos, t_update)])
        .remove(0)
        .unwrap()
        .to_vec();
    let want_query = reference
        .range_query(user, t_query, radius)
        .unwrap()
        .response
        .to_vec();

    let last = clients.last_mut().unwrap();
    assert_eq!(
        last.register(user, k, 0.0, f64::INFINITY).unwrap(),
        Reply::Ok
    );
    assert_eq!(
        last.update(user, pos, t_update).unwrap(),
        Reply::Cloaked(want_update)
    );
    assert_eq!(
        last.range_query(user, radius, t_query).unwrap(),
        Reply::Candidates(want_query)
    );

    let Reply::Stats(bytes) = last.stats().unwrap() else {
        panic!("router scrape did not return a stats snapshot");
    };
    let scraped = wire::decode_stats_snapshot(&bytes).expect("decodable snapshot");
    let sent = CONNS as u64 + 3;
    assert_eq!(scraped.net.requests_served, sent, "the scrape is not in it");
    assert_eq!(scraped.net.connections_accepted, CONNS as u64);
    assert_eq!(scraped.stages[FRAME_DECODE].count, sent + 1);
    let waited = scraped.stages[OUTBOUND_WAIT].count;
    assert!(
        (1..=sent).contains(&waited),
        "outbound_wait counts replies written: {waited}"
    );

    let obs = std::sync::Arc::clone(router.metrics_registry());
    let report = router.shutdown();
    assert_eq!(report.requests_served, sent + 1);
    assert_eq!(report.route_failures, 0);
    let net = obs.net().snapshot();
    assert_eq!(net.connections_accepted, CONNS as u64);
    assert_eq!(net.connections_closed, net.connections_accepted);
    drop(clients);
    drop(node.shutdown());
}

/// One node frame per update. `N` updates of node 0's users over one
/// connection cost node 0 `N` frames and every other node a flush per 32
/// rows — the mirror rows wait in the router's per-node outbox and ride
/// the next frame to their node. They ride *ahead* of it: a query served
/// by a node that was up to 31 rows behind still answers the sequential
/// engine's bytes. A standing registration or deregistration costs node
/// 0 one frame and the other nodes none of their own: what node 0
/// changed waits in the same outboxes. And nothing is left behind: after
/// the router shuts down, every node holds the same positions, the same
/// cloaks and the same standing counts.
#[test]
fn an_update_costs_its_owner_one_frame_and_the_mirrors_a_thirty_second() {
    const MOVERS: usize = 24;
    const N: u64 = 200;
    let home = |j: usize, step: u64| Point::new(0.02 + 0.008 * j as f64 + 1e-4 * step as f64, 0.4);
    let profile = |i: u64| PrivacyProfile::uniform(requirement_for(i)).unwrap();

    for k in [2usize, 4] {
        // Node 0 owns the movers; the asker, owned by the last node,
        // never moves.
        let movers: Vec<u64> = (0..)
            .filter(|&u| owner_of(u, k) == 0)
            .take(MOVERS)
            .collect();
        let asker = (0..).find(|&u| owner_of(u, k) == k - 1).unwrap();
        let mut everyone = movers.clone();
        everyone.push(asker);
        everyone.sort_unstable();
        let (servers, router) = spawn_cluster(k);
        let mut reference = fresh_engine();
        let mut client = NetClient::connect(router.local_addr()).unwrap();
        let mut clock = 0.0;
        let mut update = |client: &mut NetClient, reference: &mut ShardedEngine, i, p| {
            clock += 1.0;
            let t = SimTime::from_secs(clock);
            let want = reference
                .process_updates_wire(&[(i, p, t)])
                .remove(0)
                .unwrap();
            assert_eq!(
                client.update(i, p, t).unwrap(),
                Reply::Cloaked(want.to_vec()),
                "update of user {i} (K={k})"
            );
        };
        for &i in &everyone {
            let r = requirement_for(i);
            reference.register(i, profile(i));
            assert_eq!(
                client.register(i, r.k, r.a_min, r.a_max).unwrap(),
                Reply::Ok
            );
        }
        update(&mut client, &mut reference, asker, Point::new(0.9, 0.6));
        for (j, &i) in movers.iter().enumerate() {
            update(&mut client, &mut reference, i, home(j, 0));
        }

        let served = |servers: &[NetServer]| -> Vec<u64> {
            servers
                .iter()
                .map(|s| s.counters().snapshot().requests_served)
                .collect()
        };

        // No node is 32 rows behind yet, so no flush is on its way: the
        // counts below are the broadcasts' own.
        let area = Rect::new_unchecked(0.0, 0.0, 0.5, 1.0);
        let keys = [
            (StandingKind::Count, reference.add_standing_count(area)),
            (
                StandingKind::Range,
                reference.add_standing_range(asker, 0.3),
            ),
        ];
        let before = served(&servers);
        let registered = [
            client.register_standing_count(area).unwrap(),
            client.register_standing_range(asker, 0.3).unwrap(),
        ];
        for ((kind, id), got) in keys.iter().zip(registered) {
            let r = wire::StandingRefMsg {
                kind: *kind,
                id: *id,
            };
            let want = Reply::StandingRegistered(wire::encode_standing_ref(&r).to_vec());
            assert_eq!(got, want, "registration (K={k})");
        }
        let after = served(&servers);
        assert_eq!(after[0] - before[0], 2, "node 0: a frame each (K={k})");
        for n in 1..k {
            assert_eq!(after[n], before[n], "node {n}: registrations (K={k})");
        }
        for &(kind, id) in &keys {
            assert!(reference.deregister_standing(kind, id));
            assert_eq!(client.deregister_standing(kind, id).unwrap(), Reply::Ok);
        }
        let before = served(&servers);
        assert_eq!(before[0] - after[0], 2, "node 0: a frame each (K={k})");
        for n in 1..k {
            assert_eq!(before[n], after[n], "node {n}: deregistrations (K={k})");
        }
        // The asker's node is owed all four changes; they ride its query.
        let t = SimTime::from_secs(0.5);
        let want = reference.range_query(asker, t, 0.8).unwrap().response;
        assert_eq!(
            client.range_query(asker, 0.8, t).unwrap(),
            Reply::Candidates(want.to_vec()),
            "query on a mirror after the broadcasts (K={k})"
        );

        let before = served(&servers);
        for step in 1..=N {
            let j = step as usize % MOVERS;
            update(&mut client, &mut reference, movers[j], home(j, step));
            if step == 100 {
                // Asked nothing of its own, a node is still never more
                // than 31 rows behind. (Nobody waits for a flush, so
                // the third may still be on its way in.)
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while served(&servers)
                    .iter()
                    .zip(&before)
                    .skip(1)
                    .any(|(now, then)| now - then < 3)
                {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "100 rows, and some node not flushed 3 times: {:?} (K={k})",
                        served(&servers)
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        let after = served(&servers);
        assert_eq!(
            after[0] - before[0],
            N,
            "the owner: a frame per update (K={k})"
        );
        for n in 1..k {
            let flushes = after[n] - before[n];
            assert!(
                flushes <= N.div_ceil(32),
                "node {n} was sent {flushes} frames for {N} updates it does not own (K={k})"
            );
        }

        // The last node is some rows behind; the asker's query is
        // served there, and the rows ride in on it.
        let t = SimTime::from_secs(clock + 1.0);
        let want = reference.range_query(asker, t, 0.8).unwrap().response;
        assert_eq!(
            client.range_query(asker, 0.8, t).unwrap(),
            Reply::Candidates(want.to_vec()),
            "query on a mirror (K={k})"
        );

        drop(client);
        let report = router.shutdown();
        assert_eq!(report.route_failures, 0);
        let states: Vec<_> = servers
            .into_iter()
            .map(|s| s.shutdown().export_state())
            .collect();
        for (n, state) in states.iter().enumerate().skip(1) {
            assert_eq!(
                state.positions, states[0].positions,
                "node {n} positions (K={k})"
            );
            assert_eq!(state.records, states[0].records, "node {n} cloaks (K={k})");
            assert_eq!(state.counts, states[0].counts, "node {n} counts (K={k})");
        }
        assert_eq!(states[0].positions.len(), MOVERS + 1);
    }
}

/// Placing a user costs its owner two frames and no other node one of
/// its own: `N` users registered and placed through the router over one
/// connection, at K = 2 and 4, cost the nodes together exactly `N`
/// `REGISTER` and `N` `EXACT_UPDATE` frames, plus at most ⌈(K−1)·N/32⌉
/// flushes of the mirror rows the placements owe the other nodes. Each
/// node serves its own users' frames, every reply is the sequential
/// engine's, and each user ends up registered on its owner alone.
#[test]
fn registering_and_placing_a_user_costs_its_owner_two_frames() {
    const N: u64 = 150;
    for k in [2usize, 4] {
        let (servers, router) = spawn_cluster(k);
        let mut reference = fresh_engine();
        let mut client = NetClient::connect(router.local_addr()).unwrap();
        let served = |servers: &[NetServer]| -> Vec<u64> {
            servers
                .iter()
                .map(|s| s.counters().snapshot().requests_served)
                .collect()
        };
        let before = served(&servers);
        for &(i, p, t) in wave(0).iter().take(N as usize) {
            let r = requirement_for(i);
            reference.register(i, PrivacyProfile::uniform(r).unwrap());
            assert_eq!(
                client.register(i, r.k, r.a_min, r.a_max).unwrap(),
                Reply::Ok,
                "register {i} (K={k})"
            );
            let want = reference.process_updates_wire(&[(i, p, t)]).remove(0);
            assert_eq!(
                client.update(i, p, t).unwrap(),
                Reply::Cloaked(want.unwrap().to_vec()),
                "place {i} (K={k})"
            );
        }
        let frames: Vec<u64> = served(&servers)
            .iter()
            .zip(&before)
            .map(|(now, then)| now - then)
            .collect();
        for (n, &f) in frames.iter().enumerate() {
            let own = (0..N).filter(|&u| owner_of(u, k) == n).count() as u64;
            assert!(f >= 2 * own, "node {n}: {f} frames for {own} users (K={k})");
        }
        let total: u64 = frames.iter().sum();
        let flushes = total.checked_sub(2 * N).expect("two frames per user");
        assert!(
            flushes <= ((k as u64 - 1) * N).div_ceil(32),
            "{flushes} flushes for {N} placements (K={k}): {frames:?}"
        );
        drop(client);
        assert_eq!(router.shutdown().route_failures, 0);
        let engines: Vec<ShardedEngine> = servers.into_iter().map(|s| s.shutdown()).collect();
        assert_one_owner_each(&engines, 0..N, "after placement");
    }
}

/// What a node pushes after serving one update: the wire state of every
/// standing query the update changed, in the engine's drain order.
fn engine_deltas(engine: &mut ShardedEngine) -> Vec<Vec<u8>> {
    engine
        .take_standing_changes()
        .into_iter()
        .filter_map(|(kind, id)| engine.standing_state(kind, id))
        .map(|state| wire::encode_standing_state(&state).to_vec())
        .collect()
}

/// A snapshot as the engine would answer it over the wire.
fn engine_snapshot(engine: &ShardedEngine, kind: StandingKind, id: u64) -> Reply {
    match engine.standing_state(kind, id) {
        Some(state) => Reply::StandingState(wire::encode_standing_state(&state).to_vec()),
        None => Reply::Error("unknown standing query".into()),
    }
}

/// Deregistration through a router. A count query and a range query
/// are registered, users move, both are deregistered — the second
/// attempt at one of them too — and users move again: every reply, every
/// delta and every snapshot, the unknown-query errors included, is the
/// in-process engine's. After shutdown every node's standing registries
/// are node 0's.
#[test]
fn deregistration_through_a_router_matches_the_engine() {
    const MOVERS: u64 = 40;
    for k in [1usize, 2, 4] {
        let (servers, router) = spawn_cluster(k);
        let mut reference = fresh_engine();
        let mut client = NetClient::connect(router.local_addr()).unwrap();
        for i in 0..MOVERS {
            let r = requirement_for(i);
            reference.register(i, PrivacyProfile::uniform(r).unwrap());
            assert_eq!(
                client.register(i, r.k, r.a_min, r.a_max).unwrap(),
                Reply::Ok
            );
        }
        // Moves every user once; returns how many deltas were pushed.
        let move_all = |client: &mut NetClient, reference: &mut ShardedEngine, w: u64| {
            let mut pushed = 0;
            for &(i, p, t) in wave(w).iter().take(MOVERS as usize) {
                let want = reference.process_updates_wire(&[(i, p, t)]).remove(0);
                let want_deltas = engine_deltas(reference);
                assert_eq!(
                    client.update(i, p, t).unwrap(),
                    Reply::Cloaked(want.unwrap().to_vec()),
                    "update of user {i} wave {w} (K={k})"
                );
                assert_eq!(
                    client.take_standing_deltas(),
                    want_deltas,
                    "deltas of user {i}'s update wave {w} (K={k})"
                );
                pushed += want_deltas.len();
            }
            pushed
        };
        move_all(&mut client, &mut reference, 0);

        let (x0, y0, x1, y1) = COUNT_AREAS[0];
        let area = Rect::new_unchecked(x0, y0, x1, y1);
        let (user, radius) = RANGE_OWNERS[0];
        let keys = [
            (StandingKind::Count, reference.add_standing_count(area)),
            (
                StandingKind::Range,
                reference.add_standing_range(user, radius),
            ),
        ];
        let registered = [
            client.register_standing_count(area).unwrap(),
            client.register_standing_range(user, radius).unwrap(),
        ];
        for ((kind, id), got) in keys.iter().zip(registered) {
            let r = wire::StandingRefMsg {
                kind: *kind,
                id: *id,
            };
            assert_eq!(
                got,
                Reply::StandingRegistered(wire::encode_standing_ref(&r).to_vec()),
                "registration (K={k})"
            );
        }
        assert!(
            move_all(&mut client, &mut reference, 1) > 0,
            "deltas (K={k})"
        );
        for &(kind, id) in &keys {
            assert_eq!(
                client.standing_snapshot(kind, id).unwrap(),
                engine_snapshot(&reference, kind, id),
                "snapshot of {kind:?} {id} (K={k})"
            );
        }

        for &(kind, id) in &keys {
            assert!(reference.deregister_standing(kind, id));
            assert_eq!(
                client.deregister_standing(kind, id).unwrap(),
                Reply::Ok,
                "deregistration of {kind:?} {id} (K={k})"
            );
        }
        let (kind, id) = keys[0];
        assert!(!reference.deregister_standing(kind, id));
        assert_eq!(
            client.deregister_standing(kind, id).unwrap(),
            Reply::Error("unknown standing query".into()),
            "second deregistration (K={k})"
        );
        for &(kind, id) in &keys {
            assert_eq!(
                client.standing_snapshot(kind, id).unwrap(),
                engine_snapshot(&reference, kind, id),
                "snapshot of deregistered {kind:?} {id} (K={k})"
            );
        }
        assert_eq!(
            move_all(&mut client, &mut reference, 2),
            0,
            "no deltas (K={k})"
        );

        drop(client);
        let report = router.shutdown();
        assert_eq!(report.route_failures, 0, "healthy cluster (K={k})");
        let states: Vec<_> = servers
            .into_iter()
            .map(|s| s.shutdown().export_state())
            .collect();
        // A range query's refreshes run on its subject's owner alone, so
        // the registries' refresh counters are the one thing the nodes
        // may differ in.
        let registry = |ranges: &StandingRangesState| StandingRangesState {
            recomputes: 0,
            reuses: 0,
            ..ranges.clone()
        };
        for (n, state) in states.iter().enumerate().skip(1) {
            assert_eq!(state.counts, states[0].counts, "node {n} counts (K={k})");
            assert_eq!(
                registry(&state.ranges),
                registry(&states[0].ranges),
                "node {n} ranges (K={k})"
            );
        }
    }
}

/// A stand-in for a node that has diverged: it speaks the frame
/// protocol, acknowledges everything, and refuses the first envelope of
/// mirror rows it is sent.
fn spawn_refusing_node() -> String {
    use lbsp_net::frame::write_frame;
    use lbsp_net::{FrameReader, Poll, MAX_FRAME_LEN};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut refused = false;
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let mut reader = FrameReader::new(MAX_FRAME_LEN);
            loop {
                let frame = match reader.poll(&mut stream) {
                    Ok(Poll::Frame(f)) => f,
                    Ok(Poll::Pending | Poll::Drained) => continue,
                    Ok(Poll::Eof) | Err(_) => break,
                };
                let (tag, body) = match frame.tag {
                    wire::tag::PING => (wire::tag::PONG, frame.payload),
                    wire::tag::CARRY if !refused => {
                        refused = true;
                        let text = wire::encode_carry_rejected(0, "scripted refusal");
                        (wire::tag::ERROR, text.to_vec())
                    }
                    _ => (wire::tag::OK, Vec::new()),
                };
                if write_frame(&mut stream, tag, &body, MAX_FRAME_LEN).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

/// A node that refuses a mirror row no longer holds the cluster's
/// planes, and reconnecting cannot mend that: it is taken out of
/// routing — requests for its users answer `DOWN`, at once and from then
/// on — while the other node keeps serving.
#[test]
fn a_node_that_refuses_a_mirror_row_is_taken_out_of_routing() {
    let good = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let good_addr = good.local_addr().to_string();
    let bad_addr = spawn_refusing_node();
    let router = Router::bind(
        "127.0.0.1:0",
        &[good_addr.as_str(), bad_addr.as_str()],
        world(),
        RouterConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(router.local_addr()).unwrap();
    let failures = || router.metrics_registry().net().snapshot().route_failures;
    let good_user = (0..).find(|&u| owner_of(u, 2) == 0).unwrap();
    let bad_user = (0..).find(|&u| owner_of(u, 2) == 1).unwrap();
    // Each registration goes to its owner, and no row is owed yet.
    for user in [good_user, bad_user] {
        assert_eq!(
            client.register(user, 2, 0.0, f64::INFINITY).unwrap(),
            Reply::Ok
        );
    }
    let here = Point::new(0.1, 0.1);
    let there = Point::new(0.9, 0.9);
    // Served by node 0; node 1 is owed the row.
    assert!(matches!(
        client.update(good_user, here, SimTime::from_secs(1.0)),
        Ok(Reply::Cloaked(_))
    ));
    assert_eq!(failures(), 0);
    // The next frame node 1 is sent — its user's update — carries that
    // row, and node 1 refuses it.
    let err = client
        .update(bad_user, there, SimTime::from_secs(2.0))
        .expect_err("the refusing node's user");
    assert!(is_route_failure(&err) && !is_retryable_route_failure(&err));
    assert!(err.to_string().contains("node 1"), "names the node: {err}");
    assert_eq!(failures(), 1, "one request failed, and was counted once");
    // From then on the node is dark…
    for secs in [3.0, 4.0] {
        let err = client
            .update(bad_user, there, SimTime::from_secs(secs))
            .expect_err("a condemned node is not asked again");
        assert!(
            is_route_failure(&err) && !is_retryable_route_failure(&err),
            "DOWN, not a retry: {err}"
        );
    }
    // …and the other node is not.
    for secs in [5.0, 6.0] {
        assert!(matches!(
            client.update(good_user, here, SimTime::from_secs(secs)),
            Ok(Reply::Cloaked(_))
        ));
    }
    assert!(matches!(
        client.range_query(good_user, 0.2, SimTime::from_secs(7.0)),
        Ok(Reply::Candidates(_))
    ));
    let snap = router.metrics_registry().net().snapshot();
    assert_eq!(snap.route_failures, 3);
    assert_eq!(snap.retryable_failures, 0, "nobody was told to retry");
    assert_eq!(snap.reconnect_attempts, 0, "nor was the node redialled");
    drop(client);
    router.shutdown();
    drop(good.shutdown());
}
