//! Pipelined windows through the router. A sweep's run of
//! registrations, queries and in-stripe updates bound for one node goes
//! to it in one write; every other frame — and every run boundary: a
//! repeated user, a crossing, a broadcast, a snapshot, an undecodable
//! payload or an unknown tag — takes the one-round-trip-at-a-time path.
//! Windows of registrations and of queries are byte-identical to the
//! closed-loop sequential engine at K ∈ {2, 4}, and so is every window
//! that crosses a boundary.
//!
//! A crossing's handoff push rides the update: when the new owner is
//! condemned on that envelope — it refuses the push, or answers
//! garbage — the request fails `DOWN`, the state goes back to the old
//! owner, and the ownership table does not flip.

use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_cluster::{PartitionMap, Router, RouterConfig};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire::{self, StandingKind};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{
    is_retryable_route_failure, is_route_failure, NetClient, NetConfig, NetServer, Reply,
};
use lbsp_server::PublicObject;
use std::net::TcpListener;

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
/// engine — runs to one node, node changes mid-window, an invalid
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

        // Grouped by stripe: long runs to one node, a node change at
        // each stripe boundary. Then in id order: short runs.
        let pm = PartitionMap::new(world(), k);
        let mut by_stripe: Vec<u64> = (0..USERS).collect();
        by_stripe.sort_by_key(|&u| (pm.node_of(home(u)), u));
        let t = SimTime::from_secs(10.0);
        for (pass, order) in [by_stripe, (0..USERS + 3).collect()].iter().enumerate() {
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

/// Every run boundary takes the sequential path, so a window that
/// crosses one still reads the sequential engine's bytes: two updates
/// of one user (batched on a node they would each settle against the
/// last position), a registration and the user's first update, a
/// crossing with its handoff, a standing broadcast, a snapshot, an
/// unknown tag and an undecodable payload — each between runs of
/// queries to the same node.
#[test]
fn run_boundaries_take_the_sequential_path() {
    let (servers, router) = spawn_cluster(2);
    let mut reference = fresh_engine();
    let mut client = NetClient::connect(router.local_addr()).unwrap();
    // Users 0..4 live in node 0's stripe, 4 and 5 in node 1's.
    let spots = [
        (0.1, 0.2),
        (0.2, 0.4),
        (0.3, 0.6),
        (0.4, 0.8),
        (0.35, 0.3),
        (0.8, 0.5),
    ];
    for (u, &(x, y)) in spots.iter().enumerate() {
        let u = u as u64;
        closed(
            &mut client,
            &mut reference,
            Req::Register(u, k_of(u)),
            "register",
        );
        let t = SimTime::from_secs(1.0 + u as f64);
        closed(
            &mut client,
            &mut reference,
            Req::Update(u, Point::new(x, y), t),
            "place",
        );
    }
    let t = |s: f64| SimTime::from_secs(s);
    let q = |u: u64, s: f64| Req::Query(u, 0.2, SimTime::from_secs(s));

    let repeated = [
        q(1, 10.0),
        Req::Update(0, Point::new(0.05, 0.05), t(10.1)),
        Req::Update(0, Point::new(0.45, 0.95), t(10.2)),
        q(2, 10.3),
        Req::Register(9, 5),
        Req::Update(9, Point::new(0.25, 0.25), t(10.4)),
        q(3, 10.5),
    ];
    window(&mut client, &mut reference, &repeated, "repeated users");

    let handoffs = router.handoffs();
    let crossing = [
        q(1, 11.0),
        q(2, 11.0),
        Req::Update(4, Point::new(0.7, 0.3), t(11.1)),
        q(4, 11.2),
        q(5, 11.2),
        q(3, 11.2),
    ];
    window(&mut client, &mut reference, &crossing, "crossing");
    assert_eq!(router.handoffs(), handoffs + 1, "user 4 crossed");

    let area = Rect::new_unchecked(0.0, 0.0, 0.5, 1.0);
    let id = reference.add_standing_count(area);
    match client.register_standing_count(area).unwrap() {
        Reply::StandingRegistered(b) => assert_eq!(wire::decode_standing_ref(&b).unwrap().id, id),
        other => panic!("standing registration: {other:?}"),
    }
    let broadcast = [
        q(1, 12.0),
        q(2, 12.0),
        Req::StandingCount(Rect::new_unchecked(0.2, 0.2, 0.9, 0.9)),
        q(3, 12.0),
        q(0, 12.0),
        Req::Snapshot(id),
        q(1, 12.0),
    ];
    window(
        &mut client,
        &mut reference,
        &broadcast,
        "broadcast and snapshot",
    );

    let odd = [
        q(1, 13.0),
        q(2, 13.0),
        Req::Raw(0x7E, b"??".to_vec()),
        q(3, 13.0),
        Req::Raw(wire::tag::USER_QUERY, b"short".to_vec()),
        q(0, 13.0),
    ];
    window(
        &mut client,
        &mut reference,
        &odd,
        "unknown tag and undecodable payload",
    );

    // The state the windows left serves closed-loop traffic identically.
    for (u, &(x, y)) in spots.iter().enumerate() {
        let p = Point::new(x + 0.01, y);
        let u = u as u64;
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

/// A stand-in for a new owner that is condemned on the envelope carrying
/// a handoff push: `refuse` answers it with a carried-frame refusal
/// naming the push, otherwise with a reply tag the protocol does not
/// have. Everything else it acknowledges.
fn spawn_condemned_node(refuse: bool) -> String {
    use lbsp_net::frame::write_frame;
    use lbsp_net::{FrameReader, Poll, MAX_FRAME_LEN};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let mut reader = FrameReader::new(MAX_FRAME_LEN);
            loop {
                let frame = match reader.poll(&mut stream) {
                    Ok(Poll::Frame(f)) => f,
                    Ok(Poll::Pending | Poll::Drained) => continue,
                    Ok(Poll::Eof) | Err(_) => break,
                };
                let push = (frame.tag == wire::tag::CARRY)
                    .then(|| wire::decode_carry(&frame.payload))
                    .flatten()
                    .and_then(|m| {
                        m.carried
                            .iter()
                            .position(|(tag, _)| *tag == wire::tag::HANDOFF_PUSH)
                    });
                let (tag, body) = match (frame.tag, push) {
                    (wire::tag::PING, _) => (wire::tag::PONG, frame.payload),
                    (_, Some(at)) if refuse => (
                        wire::tag::ERROR,
                        wire::encode_carry_rejected(at, "scripted refusal").to_vec(),
                    ),
                    (_, Some(_)) => (0x7F, Vec::new()),
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

/// The doctrine for a new owner that turns terminally `Down` once the
/// push is staged: the crossing fails `DOWN`, the table does not flip,
/// and the user's state — already pulled from the old owner — is pushed
/// back there, where the user goes on being served. (The parent
/// returned the refusal and left the state on no node at all.)
fn a_crossing_into_a_condemned_node_gives_the_state_back(refuse: bool) {
    let good = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let good_addr = good.local_addr().to_string();
    let bad_addr = spawn_condemned_node(refuse);
    let router = Router::bind(
        "127.0.0.1:0",
        &[good_addr.as_str(), bad_addr.as_str()],
        world(),
        RouterConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(router.local_addr()).unwrap();
    for user in [1, 2] {
        assert_eq!(
            client.register(user, 2, 0.0, f64::INFINITY).unwrap(),
            Reply::Ok
        );
    }
    let (here, there) = (Point::new(0.1, 0.1), Point::new(0.9, 0.9));
    for user in [1, 2] {
        let t = SimTime::from_secs(user as f64);
        assert!(matches!(
            client.update(user, here, t),
            Ok(Reply::Cloaked(_))
        ));
    }

    let err = client
        .update(2, there, SimTime::from_secs(3.0))
        .expect_err("the condemned node's stripe");
    assert!(
        is_route_failure(&err) && !is_retryable_route_failure(&err),
        "DOWN, not a retry: {err}"
    );
    assert!(err.to_string().contains("node 1"), "names the node: {err}");
    assert_eq!(router.handoffs(), 0, "the table did not flip");

    // The new owner is out of routing: a crossing toward it fails
    // before anything is pulled.
    let err = client
        .update(1, there, SimTime::from_secs(4.0))
        .expect_err("a Down node is not handed anyone");
    assert!(is_route_failure(&err) && !is_retryable_route_failure(&err));

    // The state is back on node 0 and serves.
    assert!(matches!(
        client.update(2, Point::new(0.15, 0.1), SimTime::from_secs(5.0)),
        Ok(Reply::Cloaked(_))
    ));
    assert!(matches!(
        client.range_query(2, 0.2, SimTime::from_secs(6.0)),
        Ok(Reply::Candidates(_))
    ));
    let snap = router.metrics_registry().net().snapshot();
    assert_eq!(snap.route_failures, 2);
    assert_eq!(snap.retryable_failures, 0, "nobody was told to retry");
    assert_eq!(snap.mirror_drops, 0, "no state was lost");
    drop(client);
    router.shutdown();
    assert_eq!(good.shutdown().registered(), 2, "both users live on node 0");
}

#[test]
fn a_refused_handoff_push_fails_down_and_gives_the_state_back() {
    a_crossing_into_a_condemned_node_gives_the_state_back(true);
}

#[test]
fn a_new_owner_down_after_the_push_is_staged_gives_the_state_back() {
    a_crossing_into_a_condemned_node_gives_the_state_back(false);
}
