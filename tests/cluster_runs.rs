//! Pipelined windows through the router. A sweep is served as runs: a
//! run of registrations, queries and updates — no user twice — goes to
//! each node it needs as one write. A frame of one node must find placed
//! the row of every earlier update of its run, and another node's
//! update is answered only after the run is begun, so that row rides
//! ahead, without its cloak, in the envelope of the frame; the cloak
//! follows once the owner answers. Only standing counts read other
//! users' cloaks, so while one is registered a run that holds an update
//! for a node takes nothing more for any other node. Every other run
//! boundary — a repeated user, a broadcast, a snapshot, an undecodable
//! payload or an unknown tag — takes the one-run-at-a-time path.
//!
//! An update after another node's row is served as a batch of one with
//! every earlier row placed, so windows whose updates alternate owners,
//! mixed with queries on the other nodes, read the closed-loop
//! sequential engine's bytes at K ∈ {2, 4}, as do windows of
//! registrations and of queries, every window that holds a run boundary,
//! and every window while a count is registered, its deltas included.
//! (Consecutive updates to one node batch, as on a single node.) A row
//! sent ahead of an owner that then fails leaves the outcome unknown;
//! the client retries, and the retry converges the planes
//! (`tests/cluster_chaos.rs`).

use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_cluster::{owner_of, Router, RouterConfig};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire::{self, StandingKind};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{NetClient, NetConfig, NetServer, Reply};
use lbsp_server::PublicObject;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const WINDOW: usize = 32;

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn fresh_engine() -> ShardedEngine {
    let mut cfg = EngineConfig::new(world());
    cfg.refine = true;
    let mut engine = ShardedEngine::new(cfg, 1);
    engine.load_public(
        (0..120)
            .map(|id| {
                let (x, y) = (
                    (id * 37 % 120) as f64 / 120.0,
                    (id * 53 % 120) as f64 / 120.0,
                );
                PublicObject::new(id, Point::new(x + 0.004, y + 0.004), 0)
            })
            .collect(),
    );
    engine
}

fn spawn_cluster(k: usize) -> (Vec<NetServer>, Router) {
    let servers: Vec<NetServer> = (0..k)
        .map(|_| NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let refs: Vec<&str> = addrs.iter().map(|s| s.as_str()).collect();
    let router = Router::bind("127.0.0.1:0", &refs, world(), RouterConfig::default()).unwrap();
    (servers, router)
}

/// One client request, and what the sequential engine answers to it.
enum Req {
    Register(u64, u32),
    Update(u64, Point, SimTime),
    Query(u64, f64, SimTime),
    StandingCount(Rect),
    Snapshot(u64),
    Raw(u8, Vec<u8>),
}

impl Req {
    fn frame(&self) -> (u8, Vec<u8>) {
        match *self {
            Req::Register(user, k) => (
                wire::tag::REGISTER,
                wire::encode_register(&wire::RegisterMsg {
                    user,
                    k,
                    a_min: 0.0,
                    a_max: f64::INFINITY,
                })
                .to_vec(),
            ),
            Req::Update(user, position, time) => (
                wire::tag::EXACT_UPDATE,
                wire::encode_exact_update(&wire::ExactUpdateMsg {
                    user,
                    position,
                    time,
                })
                .to_vec(),
            ),
            Req::Query(user, radius, time) => (
                wire::tag::USER_QUERY,
                wire::encode_user_query(&wire::UserQueryMsg { user, radius, time }).to_vec(),
            ),
            Req::StandingCount(area) => (
                wire::tag::REGISTER_STANDING_COUNT,
                wire::encode_register_standing_count(&wire::RegisterStandingCountMsg { area })
                    .to_vec(),
            ),
            Req::Snapshot(id) => (
                wire::tag::STANDING_SNAPSHOT,
                wire::encode_standing_ref(&wire::StandingRefMsg {
                    kind: StandingKind::Count,
                    id,
                })
                .to_vec(),
            ),
            Req::Raw(tag, ref payload) => (tag, payload.clone()),
        }
    }

    /// The reply one sequential engine gives, applying the request.
    fn answer(&self, reference: &mut ShardedEngine) -> Reply {
        match *self {
            Req::Register(user, k) => match PrivacyProfile::uniform(CloakRequirement::k_only(k)) {
                Ok(profile) => {
                    reference.register(user, profile);
                    Reply::Ok
                }
                // A requirement `validate` refuses does not decode.
                Err(_) => Reply::Error("malformed register payload".into()),
            },
            Req::Update(user, p, t) => {
                match reference.process_updates_wire(&[(user, p, t)]).remove(0) {
                    Ok(bytes) => Reply::Cloaked(bytes.to_vec()),
                    Err(e) => Reply::Error(e.to_string()),
                }
            }
            Req::Query(user, radius, t) => match reference.range_query(user, t, radius) {
                Ok(a) => Reply::Candidates(a.response.to_vec()),
                Err(e) => Reply::Error(e.to_string()),
            },
            Req::StandingCount(area) => {
                let id = reference.add_standing_count(area);
                let r = wire::StandingRefMsg {
                    kind: StandingKind::Count,
                    id,
                };
                Reply::StandingRegistered(wire::encode_standing_ref(&r).to_vec())
            }
            Req::Snapshot(id) => {
                let state = reference.standing_state(StandingKind::Count, id).unwrap();
                Reply::StandingState(wire::encode_standing_state(&state).to_vec())
            }
            Req::Raw(tag, ref payload) => match tag {
                wire::tag::USER_QUERY if wire::decode_user_query(payload).is_none() => {
                    Reply::Error("malformed query payload".into())
                }
                _ => Reply::Error(format!("unknown request tag 0x{tag:02x}")),
            },
        }
    }
}

/// Sends `reqs` as one pipelined window, then requires every reply to
/// be the sequential engine's, in order.
fn window(client: &mut NetClient, reference: &mut ShardedEngine, reqs: &[Req], what: &str) {
    for req in reqs {
        let (tag, payload) = req.frame();
        client.send_only(tag, &payload).unwrap();
    }
    for (i, req) in reqs.iter().enumerate() {
        let want = req.answer(reference);
        assert_eq!(client.read_reply().unwrap(), want, "{what}: request {i}");
    }
}

/// One closed-loop request, held to the same standard.
fn closed(client: &mut NetClient, reference: &mut ShardedEngine, req: Req, what: &str) {
    window(client, reference, &[req], what);
}

fn k_of(user: u64) -> u32 {
    [2u32, 5, 10, 25][(user % 4) as usize]
}

fn home(user: u64) -> Point {
    Point::new(
        (user * 37 % 96) as f64 / 96.0 + 0.004,
        0.1 + 0.8 * (user * 11 % 13) as f64 / 13.0,
    )
}

/// 32-deep windows of registrations and of range queries through a
/// K-node router are byte-identical to the closed-loop sequential
/// engine — windows spanning every node, windows to one node, an invalid
/// registration, a query for a user nobody registered — and the state
/// they leave serves the next closed-loop wave identically.
#[test]
fn pipelined_registrations_and_queries_are_byte_identical() {
    const USERS: u64 = 96;
    for k in [2usize, 4] {
        let (servers, router) = spawn_cluster(k);
        let mut reference = fresh_engine();
        let mut client = NetClient::connect(router.local_addr()).unwrap();

        // User 95 asks for k = 0: refused, and never registered.
        let registrations: Vec<Req> = (0..USERS)
            .map(|u| Req::Register(u, if u == USERS - 1 { 0 } else { k_of(u) }))
            .collect();
        for (w, chunk) in registrations.chunks(WINDOW).enumerate() {
            let owners: BTreeSet<usize> = (0..WINDOW as u64)
                .map(|i| owner_of(w as u64 * WINDOW as u64 + i, k))
                .collect();
            assert_eq!(owners.len(), k, "window {w} spans every node (K={k})");
            window(
                &mut client,
                &mut reference,
                chunk,
                &format!("registrations {w} (K={k})"),
            );
        }
        for u in 0..USERS {
            let t = SimTime::from_secs(1.0 + u as f64 * 0.01);
            closed(
                &mut client,
                &mut reference,
                Req::Update(u, home(u), t),
                "placement",
            );
        }

        // Grouped by owner: windows to one node, or to two. Then in id
        // order: every window spans the nodes.
        let mut by_owner: Vec<u64> = (0..USERS).collect();
        by_owner.sort_by_key(|&u| (owner_of(u, k), u));
        let t = SimTime::from_secs(10.0);
        for (pass, order) in [by_owner, (0..USERS + 3).collect()].iter().enumerate() {
            let queries: Vec<Req> = order.iter().map(|&u| Req::Query(u, 0.15, t)).collect();
            for (w, chunk) in queries.chunks(WINDOW).enumerate() {
                let what = format!("queries pass {pass} window {w} (K={k})");
                window(&mut client, &mut reference, chunk, &what);
            }
        }

        for u in 0..USERS {
            let p = Point::new(home(u).x, home(u).y + 0.01);
            let t = SimTime::from_secs(20.0 + u as f64 * 0.01);
            closed(
                &mut client,
                &mut reference,
                Req::Update(u, p, t),
                "second wave",
            );
        }
        drop(client);
        let report = router.shutdown();
        assert_eq!(report.route_failures, 0, "healthy cluster (K={k})");
        for server in servers {
            drop(server.shutdown());
        }
    }
}

/// Every run boundary takes the sequential path, so a window that holds
/// one still reads the sequential engine's bytes: two updates of one
/// user (batched on a node they would each settle against the last
/// position), a registration and the user's first update, an update on
/// one node followed by a query on the other that must count the
/// update's row, a standing broadcast, a snapshot, an unknown tag and an
/// undecodable payload — each between frames for both nodes. The window
/// of registrations and the window of queries that open it span both
/// nodes and are byte-identical too.
#[test]
fn run_boundaries_take_the_sequential_path() {
    let (servers, router) = spawn_cluster(2);
    let mut reference = fresh_engine();
    let mut client = NetClient::connect(router.local_addr()).unwrap();
    let owned = |n: usize| (0u64..).filter(move |&u| owner_of(u, 2) == n);
    let a: Vec<u64> = owned(0).take(4).collect();
    let b: Vec<u64> = owned(1).take(3).collect();
    let fresh = owned(1).nth(3).unwrap();
    let users: Vec<u64> = a.iter().chain(&b).copied().collect();
    let spots = [
        (0.1, 0.2),
        (0.2, 0.4),
        (0.3, 0.6),
        (0.4, 0.8),
        (0.35, 0.3),
        (0.8, 0.5),
        (0.6, 0.7),
    ];
    let t = |s: f64| SimTime::from_secs(s);
    let q = |u: u64, s: f64| Req::Query(u, 0.2, SimTime::from_secs(s));

    let registrations: Vec<Req> = users.iter().map(|&u| Req::Register(u, 2)).collect();
    window(
        &mut client,
        &mut reference,
        &registrations,
        "registrations on both nodes",
    );
    for (&u, &(x, y)) in users.iter().zip(&spots) {
        let place = Req::Update(u, Point::new(x, y), t(1.0 + u as f64 * 0.01));
        closed(&mut client, &mut reference, place, "place");
    }
    let queries: Vec<Req> = users.iter().map(|&u| q(u, 9.0)).collect();
    window(
        &mut client,
        &mut reference,
        &queries,
        "queries on both nodes",
    );

    let repeated = [
        q(a[1], 10.0),
        Req::Update(a[0], Point::new(0.05, 0.05), t(10.1)),
        Req::Update(a[0], Point::new(0.45, 0.95), t(10.2)),
        q(b[0], 10.3),
        Req::Register(fresh, 5),
        Req::Update(fresh, Point::new(0.25, 0.25), t(10.4)),
        q(a[2], 10.5),
    ];
    window(&mut client, &mut reference, &repeated, "repeated users");

    // a[3] moves next to b[1]; b[1]'s query after it reads the row, and
    // would read other bytes without it.
    let moved = Point::new(0.81, 0.51);
    let probe = |e: &ShardedEngine| e.range_query(b[1], t(11.2), 0.2).unwrap().response;
    let mut ahead = ShardedEngine::from_state(&reference.export_state());
    let stale = probe(&ahead);
    ahead.process_updates(&[(a[3], moved, t(11.1))]);
    assert_ne!(probe(&ahead), stale, "the row changes b[1]'s answer");
    let after_update = [
        q(b[0], 11.0),
        q(a[1], 11.0),
        Req::Update(a[3], moved, t(11.1)),
        q(a[2], 11.2),
        q(b[1], 11.2),
        q(b[2], 11.2),
    ];
    window(
        &mut client,
        &mut reference,
        &after_update,
        "an update, then the other node",
    );

    let area = Rect::new_unchecked(0.0, 0.0, 0.5, 1.0);
    let id = reference.add_standing_count(area);
    match client.register_standing_count(area).unwrap() {
        Reply::StandingRegistered(b) => assert_eq!(wire::decode_standing_ref(&b).unwrap().id, id),
        other => panic!("standing registration: {other:?}"),
    }
    let broadcast = [
        q(a[1], 12.0),
        q(b[0], 12.0),
        Req::StandingCount(Rect::new_unchecked(0.2, 0.2, 0.9, 0.9)),
        q(a[3], 12.0),
        q(b[1], 12.0),
        Req::Snapshot(id),
        q(a[1], 12.0),
    ];
    window(
        &mut client,
        &mut reference,
        &broadcast,
        "broadcast and snapshot",
    );

    let odd = [
        q(a[1], 13.0),
        q(b[2], 13.0),
        Req::Raw(0x7E, b"??".to_vec()),
        q(a[3], 13.0),
        Req::Raw(wire::tag::USER_QUERY, b"short".to_vec()),
        q(b[0], 13.0),
    ];
    window(
        &mut client,
        &mut reference,
        &odd,
        "unknown tag and undecodable payload",
    );

    // The state the windows left serves closed-loop traffic identically.
    for (&u, &(x, y)) in users.iter().zip(&spots) {
        let p = Point::new(x + 0.01, y);
        closed(
            &mut client,
            &mut reference,
            Req::Update(u, p, t(20.0 + u as f64)),
            "after",
        );
    }
    drop(client);
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0);
    for server in servers {
        drop(server.shutdown());
    }
}

/// `per_node` users of each of `k` nodes, interleaved — node 0's first,
/// node 1's first, …, node 0's second, … — so the user at place `i` is
/// node `i % k`'s, and `owned[n]` lists node `n`'s in the same order.
fn alternating(k: usize, per_node: usize) -> (Vec<u64>, Vec<Vec<u64>>) {
    let owned: Vec<Vec<u64>> = (0..k)
        .map(|n| {
            (0u64..)
                .filter(|&u| owner_of(u, k) == n)
                .take(per_node)
                .collect()
        })
        .collect();
    let users = (0..per_node)
        .flat_map(|i| owned.iter().map(move |o| o[i]))
        .collect();
    (users, owned)
}

/// Where wave `w` puts `user`.
fn spot(user: u64, w: u64) -> Point {
    let h = home(user);
    Point::new(
        (h.x + 0.13 * w as f64) % 0.98 + 0.005,
        (h.y + 0.07 * w as f64) % 0.98 + 0.005,
    )
}

/// Every node's planes after shutdown: the positions and cloaks the
/// sequential engine holds.
fn planes_match(servers: Vec<NetServer>, reference: &ShardedEngine, what: &str) {
    let want = reference.export_state();
    for (n, server) in servers.into_iter().enumerate() {
        let got = server.shutdown().export_state();
        assert_eq!(got.positions, want.positions, "{what}: node {n} positions");
        assert_eq!(got.records, want.records, "{what}: node {n} cloaks");
    }
}

/// Windows of updates whose owners alternate — placements first — and
/// windows that put a query on the next node before and after each
/// update, at K ∈ {2, 4}: every update is served after the row of every
/// earlier one of its window, so the replies are the closed-loop
/// sequential engine's and every node ends holding its planes.
#[test]
fn windows_whose_updates_alternate_owners_are_byte_identical() {
    for k in [2usize, 4] {
        let (servers, router) = spawn_cluster(k);
        let mut reference = fresh_engine();
        let mut client = NetClient::connect(router.local_addr()).unwrap();
        let (users, owned) = alternating(k, 48);

        let registrations: Vec<Req> = users.iter().map(|&u| Req::Register(u, k_of(u))).collect();
        for (w, chunk) in registrations.chunks(WINDOW).enumerate() {
            let what = format!("registrations {w} (K={k})");
            window(&mut client, &mut reference, chunk, &what);
        }
        let mut clock = 1.0;
        let mut tick = || {
            clock += 0.01;
            SimTime::from_secs(clock)
        };
        for wave in 0..3u64 {
            let updates: Vec<Req> = users
                .iter()
                .map(|&u| Req::Update(u, spot(u, wave), tick()))
                .collect();
            for (w, chunk) in updates.chunks(WINDOW).enumerate() {
                let what = format!("update wave {wave} window {w} (K={k})");
                window(&mut client, &mut reference, chunk, &what);
            }
        }

        // Per block: a query on the next node, an update, another query
        // on the next node; ten blocks to a window, no user twice.
        for wave in 3..5u64 {
            let mixed: Vec<Req> = (0..10)
                .flat_map(|j| {
                    let (n, next) = (j % k, (j + 1) % k);
                    let u = owned[n][j / k + 8 * (wave as usize - 3)];
                    [
                        Req::Query(owned[next][16 + j], 0.15, tick()),
                        Req::Update(u, spot(u, wave), tick()),
                        Req::Query(owned[next][32 + j], 0.15, tick()),
                    ]
                })
                .collect();
            let what = format!("mixed wave {wave} (K={k})");
            window(&mut client, &mut reference, &mixed, &what);
        }

        for &u in &users {
            let what = format!("closed loop after (K={k})");
            closed(
                &mut client,
                &mut reference,
                Req::Update(u, spot(u, 5), tick()),
                &what,
            );
        }
        drop(client);
        assert_eq!(router.shutdown().route_failures, 0, "healthy (K={k})");
        planes_match(servers, &reference, &format!("K={k}"));
    }
}

/// While a standing count is registered, a run that holds an update for
/// one node takes nothing for another: the node pushing the count's
/// deltas for an update holds every earlier cloak. Alternating windows
/// that move users in and out of the count's area read the sequential
/// engine's replies, and ahead of each the sequential engine's deltas.
/// Once the count is dropped, windows span the nodes again.
#[test]
fn a_registered_count_keeps_each_run_to_one_updating_node() {
    let (servers, router) = spawn_cluster(2);
    let mut reference = fresh_engine();
    let mut client = NetClient::connect(router.local_addr()).unwrap();
    let (users, _) = alternating(2, 24);
    let registrations: Vec<Req> = users.iter().map(|&u| Req::Register(u, 2)).collect();
    for chunk in registrations.chunks(WINDOW) {
        window(&mut client, &mut reference, chunk, "registrations");
    }
    let t = |i: usize, wave: u64| SimTime::from_secs(wave as f64 * 10.0 + i as f64 * 0.01);
    let placements: Vec<Req> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| Req::Update(u, spot(u, 0), t(i, 0)))
        .collect();
    for chunk in placements.chunks(WINDOW) {
        window(&mut client, &mut reference, chunk, "placements");
    }

    let area = Rect::new_unchecked(0.0, 0.0, 0.5, 1.0);
    let id = reference.add_standing_count(area);
    reference.take_standing_changes();
    match client.register_standing_count(area).unwrap() {
        Reply::StandingRegistered(b) => assert_eq!(wire::decode_standing_ref(&b).unwrap().id, id),
        other => panic!("standing registration: {other:?}"),
    }

    let mut pushed = 0;
    for wave in 1..4u64 {
        // Users cross the area's edge: in, out, and back in.
        let x = [0.3, 0.7, 0.2][wave as usize - 1];
        let reqs: Vec<Req> = users
            .iter()
            .enumerate()
            .map(|(i, &u)| Req::Update(u, Point::new(x + 0.004 * i as f64, home(u).y), t(i, wave)))
            .collect();
        for (w, chunk) in reqs.chunks(WINDOW).enumerate() {
            for req in chunk {
                let (tag, payload) = req.frame();
                client.send_only(tag, &payload).unwrap();
            }
            for (i, req) in chunk.iter().enumerate() {
                let want = req.answer(&mut reference);
                let want_deltas: Vec<Vec<u8>> = reference
                    .take_standing_changes()
                    .into_iter()
                    .filter_map(|(kind, id)| reference.standing_state(kind, id))
                    .map(|state| wire::encode_standing_state(&state).to_vec())
                    .collect();
                let what = format!("wave {wave} window {w} request {i}");
                assert_eq!(client.read_reply().unwrap(), want, "{what}");
                pushed += want_deltas.len();
                assert_eq!(client.take_standing_deltas(), want_deltas, "{what}: deltas");
            }
        }
    }
    assert!(pushed > users.len(), "the windows moved the count");

    let snapshot = [Req::Snapshot(id)];
    window(&mut client, &mut reference, &snapshot, "snapshot");
    reference.deregister_standing(StandingKind::Count, id);
    assert_eq!(
        client.deregister_standing(StandingKind::Count, id).unwrap(),
        Reply::Ok
    );
    let after: Vec<Req> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| Req::Update(u, spot(u, 4), t(i, 4)))
        .collect();
    for chunk in after.chunks(WINDOW) {
        window(&mut client, &mut reference, chunk, "after the drop");
    }
    drop(client);
    assert_eq!(router.shutdown().route_failures, 0);
    planes_match(servers, &reference, "count");
}

/// A relay in front of a node that counts the reads its router→node
/// direction takes: one write of a few kilobytes on loopback is one
/// read. The pump ends when the router closes its side.
struct Tap {
    addr: SocketAddr,
    reads: Arc<AtomicUsize>,
    pump: JoinHandle<()>,
}

fn tap(node: SocketAddr) -> Tap {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reads = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&reads);
    let pump = std::thread::spawn(move || {
        let (mut router_side, _) = listener.accept().unwrap();
        let mut node_side = TcpStream::connect(node).unwrap();
        let (mut from_node, mut to_router) = (
            node_side.try_clone().unwrap(),
            router_side.try_clone().unwrap(),
        );
        let back = std::thread::spawn(move || {
            let _ = std::io::copy(&mut from_node, &mut to_router);
        });
        let mut buf = vec![0u8; 1 << 16];
        while let Ok(n @ 1..) = router_side.read(&mut buf) {
            counted.fetch_add(1, Ordering::SeqCst);
            if node_side.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = node_side.shutdown(Shutdown::Both);
        back.join().unwrap();
    });
    Tap { addr, reads, pump }
}

/// A window of 32 placements whose owners alternate is one run: each
/// node is sent its share — its updates, the other nodes' rows riding
/// ahead of them — in one write.
#[test]
fn thirty_two_pipelined_placements_cost_each_node_one_write() {
    for k in [2usize, 4] {
        let servers: Vec<NetServer> = (0..k)
            .map(|_| NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap())
            .collect();
        let taps: Vec<Tap> = servers.iter().map(|s| tap(s.local_addr())).collect();
        let addrs: Vec<String> = taps.iter().map(|t| t.addr.to_string()).collect();
        let refs: Vec<&str> = addrs.iter().map(|s| s.as_str()).collect();
        let router = Router::bind("127.0.0.1:0", &refs, world(), RouterConfig::default()).unwrap();
        let mut reference = fresh_engine();
        let mut client = NetClient::connect(router.local_addr()).unwrap();
        let (users, _) = alternating(k, WINDOW / k);

        let registrations: Vec<Req> = users.iter().map(|&u| Req::Register(u, k_of(u))).collect();
        window(&mut client, &mut reference, &registrations, "registrations");
        let before: Vec<usize> = taps
            .iter()
            .map(|t| t.reads.load(Ordering::SeqCst))
            .collect();
        let placements: Vec<Req> = users
            .iter()
            .map(|&u| Req::Update(u, home(u), SimTime::from_secs(1.0)))
            .collect();
        window(&mut client, &mut reference, &placements, "placements");
        for (n, (t, before)) in taps.iter().zip(before).enumerate() {
            let writes = t.reads.load(Ordering::SeqCst) - before;
            assert_eq!(
                writes, 1,
                "node {n} of {k} was sent the window in {writes} writes"
            );
        }
        drop(client);
        assert_eq!(router.shutdown().route_failures, 0);
        for t in taps {
            t.pump.join().unwrap();
        }
        planes_match(servers, &reference, &format!("K={k}"));
    }
}
