//! Fault-injection suite for the self-healing cluster, driven through
//! the in-process TCP chaos proxy ([`lbsp_net::ChaosProxy`]). Each test
//! puts node 1 of a two-node cluster behind the proxy and injects one
//! fault class the recovery doctrine (DESIGN.md) promises to survive:
//!
//! * **sever mid-request** — the owner's users fail `RETRYABLE`
//!   *fast* (no node-timeout burn), heals on restore, and every reply
//!   before/after the fault is byte-identical to a sequential engine;
//! * **sever mid-broadcast** — a dead *mirror* never fails a client
//!   request: plane frames and broadcasts are absorbed into the
//!   catch-up buffer and replayed in order on rejoin, keeping the
//!   standing registries in lockstep;
//! * **idle sever** — a node asked nothing whose link is cut is
//!   noticed with no client traffic at all, and rejoins;
//! * **slow node** — a node answering slower than `node_timeout` is
//!   demoted and held in `Reconnecting` (RETRYABLE, never a hang)
//!   until it speeds back up;
//! * **sever under a loaded envelope** — mirror rows that were on the
//!   wire when the link died are replayed *ahead of* the rows produced
//!   during the outage, never after them: the latest position wins;
//! * **sever mid-spanning-window** — a window whose updates alternate
//!   owners sends each node the other's rows ahead of its own frames;
//!   cut one owner mid-write and its frames fail `RETRYABLE` while the
//!   other node's read the sequential bytes, and the retry converges
//!   the planes;
//! * **catch-up overflow** — a tiny buffer forces the rejoin through
//!   the bulk `NODE_RESYNC` path (`resync_bytes` moves) and replies
//!   stay byte-identical after it;
//! * **kill → restart from WAL → rejoin** — the headline guarantee:
//!   a durable node hard-stopped under load and restarted from its
//!   journal on a fresh port rejoins, and the wire output matches the
//!   run that never crashed.

use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_cluster::{owner_of, Router, RouterConfig};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire::{self, StandingKind};
use lbsp_core::Durability;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{is_retryable_route_failure, ChaosProxy, NetClient, NetConfig, NetServer, Reply};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const USERS: u64 = 24;

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn fresh_engine() -> ShardedEngine {
    let mut cfg = EngineConfig::new(world());
    cfg.refine = true;
    ShardedEngine::new(cfg, 1)
}

fn profile(i: u64) -> PrivacyProfile {
    let k = [2u32, 5, 10, 25][(i % 4) as usize];
    PrivacyProfile::uniform(CloakRequirement::k_only(k)).expect("valid profile")
}

/// Deterministic geometry: a small drift per wave. Where a user is does
/// not decide which node owns it; [`owner_of`] does.
fn pos(i: u64, wave: u64) -> Point {
    let x = if i.is_multiple_of(2) {
        0.10 + i as f64 * 0.012
    } else {
        0.55 + i as f64 * 0.012
    };
    Point::new(x + wave as f64 * 1e-3, 0.20 + i as f64 * 0.02)
}

fn stamp(i: u64, wave: u64) -> SimTime {
    SimTime::from_secs(wave as f64 * 60.0 + i as f64 * 1e-3)
}

/// A reconnect schedule fast enough for test-scale outages but with a
/// budget that outlasts every scripted fault window.
fn fast_recovery() -> RouterConfig {
    RouterConfig {
        node_timeout: Duration::from_millis(400),
        reconnect_base: Duration::from_millis(2),
        reconnect_cap: Duration::from_millis(10),
        reconnect_attempts: 5_000,
        ..RouterConfig::default()
    }
}

/// Two nodes — node 1 reached through a chaos proxy — and a router.
fn spawn(cfg: RouterConfig) -> (NetServer, NetServer, ChaosProxy, Router) {
    let node0 = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let node1 = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let proxy = ChaosProxy::bind(node1.local_addr()).unwrap();
    let nodes = [node0.local_addr().to_string(), proxy.addr().to_string()];
    let refs: Vec<&str> = nodes.iter().map(|s| s.as_str()).collect();
    let router = Router::bind("127.0.0.1:0", &refs, world(), cfg).unwrap();
    (node0, node1, proxy, router)
}

fn connect(router: &Router) -> NetClient {
    let client = NetClient::connect(router.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
}

fn register_all(client: &mut NetClient, reference: &mut ShardedEngine) {
    for i in 0..USERS {
        reference.register(i, profile(i));
        let k = [2u32, 5, 10, 25][(i % 4) as usize];
        assert_eq!(
            client.register(i, k, 0.0, f64::INFINITY).unwrap(),
            Reply::Ok,
            "register {i}"
        );
    }
}

/// One update compared byte-for-byte against the reference engine,
/// retrying RETRYABLE failures until `deadline`.
fn update_identical(
    client: &mut NetClient,
    reference: &mut ShardedEngine,
    i: u64,
    wave: u64,
    deadline: Instant,
) {
    let (p, t) = (pos(i, wave), stamp(i, wave));
    let want = reference
        .process_updates_wire(&[(i, p, t)])
        .into_iter()
        .next()
        .expect("one frame")
        .expect("registered user cloaks")
        .to_vec();
    loop {
        match client.update(i, p, t) {
            Ok(Reply::Cloaked(bytes)) => {
                assert_eq!(bytes, want, "update {i} wave {wave} diverges");
                return;
            }
            Err(e) if is_retryable_route_failure(&e) && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("update {i} wave {wave}: {other:?}"),
        }
    }
}

fn run_wave(client: &mut NetClient, reference: &mut ShardedEngine, ids: &[u64], wave: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for &i in ids {
        update_identical(client, reference, i, wave, deadline);
    }
}

fn all_users() -> Vec<u64> {
    (0..USERS).collect()
}

/// The users node `n` of the two owns. User 0 is node 0's and user 1
/// node 1's, which the probes below rely on.
fn users_of(n: usize) -> Vec<u64> {
    assert_eq!((owner_of(0, 2), owner_of(1, 2)), (0, 1));
    (0..USERS).filter(|&u| owner_of(u, 2) == n).collect()
}

#[test]
fn sever_mid_request_fails_retryable_fast_and_heals_byte_identical() {
    let (node0, node1, proxy, router) = spawn(fast_recovery());
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);

    proxy.sever();
    std::thread::sleep(Duration::from_millis(30));
    // The owner's users fail RETRYABLE, and fail *fast*: the
    // demotion check in `begin` must answer from the state machine, not
    // burn the full node timeout against a channel whose reader is gone
    // (the dead-channel race this PR fixes).
    let started = Instant::now();
    match client.update(1, pos(1, 1), stamp(1, 1)) {
        Err(e) => {
            assert!(is_retryable_route_failure(&e), "kind is RETRYABLE: {e}");
            assert!(
                !e.to_string().contains(&node1.local_addr().to_string()),
                "no address leak: {e}"
            );
        }
        Ok(r) => panic!("severed node answered {r:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(350),
        "severed node must fail fast, took {:?}",
        started.elapsed()
    );

    // Nothing died — the proxy just cut the wire. Restore it and the
    // supervisor heals the node; the stranded request then succeeds and
    // stays on the sequential byte stream.
    proxy.restore();
    run_wave(&mut client, &mut reference, &all_users(), 1);

    let snap = router.metrics_registry().net().snapshot();
    assert!(snap.retryable_failures >= 1, "retryable counted");
    assert!(snap.node_rejoins >= 1, "rejoin counted");
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0, "no fatal failures");
    drop((node0.shutdown(), node1.shutdown()));
}

#[test]
fn sever_mid_broadcast_never_fails_the_client_and_replays_in_order() {
    let (node0, node1, proxy, router) = spawn(fast_recovery());
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);

    proxy.sever();
    std::thread::sleep(Duration::from_millis(30));
    // Node 1 is now only a *mirror* for this traffic: every update of
    // node 0's users must succeed byte-identically (the mirror frames
    // are absorbed into the catch-up buffer, not failed)…
    run_wave(&mut client, &mut reference, &users_of(0), 1);
    // …and a standing-query broadcast mid-outage succeeds too, with the
    // id the sequential registry assigns (node 0 — the sole allocator —
    // grants it; the STANDING_INSTALL mirror frame carrying that id is
    // buffered and replays into node 1 on rejoin).
    let area = Rect::new_unchecked(0.05, 0.05, 0.45, 0.95);
    let want_id = reference.add_standing_count(area);
    let got = match client.register_standing_count(area).unwrap() {
        Reply::StandingRegistered(bytes) => wire::decode_standing_ref(&bytes).unwrap(),
        other => panic!("standing registration during outage: {other:?}"),
    };
    assert_eq!((got.kind, got.id), (StandingKind::Count, want_id));

    proxy.restore();
    // Node 1 comes back (buffer replayed first, in order), and the
    // whole population keeps the sequential byte stream.
    run_wave(&mut client, &mut reference, &all_users(), 2);
    let want = reference
        .standing_state(StandingKind::Count, want_id)
        .unwrap();
    match client
        .standing_snapshot(StandingKind::Count, want_id)
        .unwrap()
    {
        Reply::StandingState(bytes) => {
            assert_eq!(
                bytes,
                wire::encode_standing_state(&want).to_vec(),
                "standing snapshot after rejoin"
            );
        }
        other => panic!("standing snapshot: {other:?}"),
    }

    let report = router.shutdown();
    assert_eq!(
        report.route_failures, 0,
        "a dead mirror never fails a client request"
    );
    drop(node0.shutdown());
    // Lockstep proof at the node level: the replayed registry on the
    // rejoined mirror carries the same observable counters (`expected`
    // is summation-order-sensitive f64, so integers pin the claim).
    let engine1 = node1.shutdown();
    let state = engine1
        .standing_state(StandingKind::Count, want_id)
        .unwrap();
    match (state, want) {
        (wire::StandingState::Count(g), wire::StandingState::Count(w)) => {
            assert_eq!(
                (g.seq, g.certain, g.possible),
                (w.seq, w.certain, w.possible),
                "rejoined mirror registry in lockstep"
            );
        }
        _ => panic!("count query answered with a non-count state"),
    }
}

#[test]
fn ack_lost_standing_install_replays_as_a_noop() {
    // The nastiest broadcast fault: node 1 *applies* the mirror install
    // but the ack never reaches the router (the proxy cuts the reply to
    // the envelope that carried it at byte zero). The router must keep
    // the frame and replay it on rejoin, and the replay must be a no-op
    // — the install carries the node-0-granted id, so re-installing a
    // present id changes nothing. Allocation-in-lockstep mirroring
    // would double-register here and skew every later id on node 1.
    // The same holds for a deregistration: dropping an id already gone
    // changes nothing either.
    let (node0, node1, proxy, router) = spawn(fast_recovery());
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);

    let register_identical = |client: &mut NetClient, reference: &mut ShardedEngine, area| {
        let want_id = reference.add_standing_count(area);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.register_standing_count(area) {
                Ok(Reply::StandingRegistered(bytes)) => {
                    let got = wire::decode_standing_ref(&bytes).unwrap();
                    assert_eq!((got.kind, got.id), (StandingKind::Count, want_id));
                    return want_id;
                }
                Err(e) if is_retryable_route_failure(&e) && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => panic!("standing registration: {other:?}"),
            }
        }
    };

    // A standing change rides the next frame to node 1: a query of
    // user 1, whom node 1 owns. `carry` sends one and
    // requires the reference's bytes; `carry_cut` sends one whose ack
    // the proxy cuts, so the client is told to retry.
    let t = stamp(1, 0);
    let carry = |client: &mut NetClient, reference: &ShardedEngine| {
        let want = reference.range_query(1, t, 0.2).unwrap().response;
        assert_eq!(
            client.range_query(1, 0.2, t).unwrap(),
            Reply::Candidates(want.to_vec()),
            "the query carrying a standing change"
        );
    };
    let carry_cut = |client: &mut NetClient| match client.range_query(1, 0.2, t) {
        Err(e) => assert!(is_retryable_route_failure(&e), "kind is RETRYABLE: {e}"),
        Ok(r) => panic!("a query whose ack was cut answered {r:?}"),
    };

    // Query A lands everywhere cleanly.
    let id_a = register_identical(
        &mut client,
        &mut reference,
        Rect::new_unchecked(0.05, 0.05, 0.45, 0.95),
    );
    carry(&mut client, &reference);
    // All traffic is quiesced (closed-loop client), so the next
    // upstream→client bytes are exactly the ack of the next frame to
    // node 1: the envelope carrying query B's install reaches node 1,
    // its ack does not.
    proxy.sever_after_downstream_bytes(0);
    let id_b = register_identical(
        &mut client,
        &mut reference,
        Rect::new_unchecked(0.50, 0.05, 0.95, 0.95),
    );
    carry_cut(&mut client);
    // Query C registers while node 1 is away: its install is buffered
    // behind the parked replay of B's.
    let id_c = register_identical(
        &mut client,
        &mut reference,
        Rect::new_unchecked(0.25, 0.25, 0.75, 0.75),
    );

    proxy.restore();
    // Rejoin replays B's install (a no-op — node 1 already holds id B)
    // then C's, and the cluster stays on the sequential byte stream.
    run_wave(&mut client, &mut reference, &all_users(), 1);

    // Query D lands everywhere cleanly and is deregistered; the envelope
    // carrying the drop reaches node 1, its ack does not, and the rejoin
    // replays the drop of an id node 1 no longer holds.
    let id_d = register_identical(
        &mut client,
        &mut reference,
        Rect::new_unchecked(0.10, 0.10, 0.90, 0.50),
    );
    carry(&mut client, &reference);
    assert!(reference.deregister_standing(StandingKind::Count, id_d));
    assert_eq!(
        client
            .deregister_standing(StandingKind::Count, id_d)
            .unwrap(),
        Reply::Ok
    );
    proxy.sever_after_downstream_bytes(0);
    carry_cut(&mut client);
    proxy.restore();
    run_wave(&mut client, &mut reference, &all_users(), 2);

    let snap = router.metrics_registry().net().snapshot();
    assert!(snap.node_rejoins >= 1, "rejoin counted");
    assert_eq!(snap.mirror_drops, 0, "no preserved frame was dropped");
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0, "no fatal failures");
    drop(node0.shutdown());

    // Node-level proof on the rejoined mirror: exactly the three
    // queries, under exactly the reference's ids — no phantom duplicate
    // from the replayed install, no skewed counter. (`expected` is
    // summation-order-sensitive f64; integers pin the claim.)
    let engine1 = node1.shutdown();
    assert_eq!(engine1.standing_counts().len(), 3, "no phantom queries");
    assert!(
        engine1.standing_state(StandingKind::Count, id_d).is_none(),
        "the dropped query stays dropped"
    );
    for id in [id_a, id_b, id_c] {
        let want = reference.standing_state(StandingKind::Count, id).unwrap();
        let got = engine1.standing_state(StandingKind::Count, id).unwrap();
        match (got, want) {
            (wire::StandingState::Count(g), wire::StandingState::Count(w)) => {
                assert_eq!(
                    (g.id, g.seq, g.certain, g.possible),
                    (w.id, w.seq, w.certain, w.possible),
                    "query {id} on the rejoined mirror"
                );
            }
            _ => panic!("count query answered with a non-count state"),
        }
    }
}

#[test]
fn rows_on_the_wire_when_the_link_dies_are_replayed_before_later_ones() {
    // Mirror rows are idempotent by key but not commutative: replayed
    // out of order, a stale position lands last and stays. The window
    // is an envelope that reached node 1 — two rows for the same user
    // on it — whose acknowledgement was cut: the router cannot know
    // whether they landed, more rows for that user pile up behind them
    // during the outage, and the rejoin has to replay all of them in
    // the order they were produced.
    let (node0, node1, proxy, router) = spawn(fast_recovery());
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);

    // Node 0 owns user 0; node 1 is owed both rows and has been sent
    // neither.
    run_wave(&mut client, &mut reference, &[0], 1);
    run_wave(&mut client, &mut reference, &[0], 2);
    // The next thing node 1 says is lost, and the link with it.
    proxy.sever_after_downstream_bytes(0);
    // Node 1 owns user 1: its query takes the two rows along. They
    // arrive; the answer does not.
    match client.range_query(1, 0.2, stamp(1, 2)) {
        Err(e) => assert!(is_retryable_route_failure(&e), "outcome unknown: {e}"),
        Ok(r) => panic!("the reply was cut, yet the client read {r:?}"),
    }
    // The outage goes on and user 0 keeps moving.
    for wave in 3..=5 {
        run_wave(&mut client, &mut reference, &[0], wave);
    }

    proxy.restore();
    // Every cloak depends on where everybody is: were user 0 anywhere
    // on node 1 but where wave 5 left it, node 1's users would read
    // different bytes here.
    run_wave(&mut client, &mut reference, &all_users(), 6);

    let snap = router.metrics_registry().net().snapshot();
    assert!(snap.node_rejoins >= 1, "rejoin counted");
    assert!(snap.retryable_failures >= 1, "the cut query was retryable");
    assert_eq!(snap.mirror_drops, 0, "nothing was dropped");
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0, "no fatal failures");
    // The planes themselves, not just what a client can see of them.
    let (planes0, planes1) = (
        node0.shutdown().export_state(),
        node1.shutdown().export_state(),
    );
    assert_eq!(planes1.positions, planes0.positions, "position plane");
    assert_eq!(planes1.records, planes0.records, "cloak plane");
}

#[test]
fn sever_mid_run_fails_every_frame_retryable_and_applies_nothing_twice() {
    let (node0, node1, proxy, router) = spawn(fast_recovery());
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);

    // A window of wave-1 updates for node 1's users is one run: one
    // write to node 1, which the link carries four frames and a bit of
    // before it dies. What arrived whole is applied; no reply gets back.
    let owned = users_of(1);
    let frame_len = (lbsp_net::FRAME_OVERHEAD + wire::EXACT_UPDATE_LEN) as u64;
    proxy.sever_after_upstream_bytes(4 * frame_len + 7);
    for &i in &owned {
        client.update_send_only(i, pos(i, 1), stamp(i, 1)).unwrap();
    }
    for &i in &owned {
        match client.read_reply() {
            Err(e) => assert!(is_retryable_route_failure(&e), "update {i}: {e}"),
            Ok(r) => panic!("update {i} answered through a cut link: {r:?}"),
        }
    }

    // The sequential doctrine for an unknown outcome: heal, retry.
    proxy.restore();
    let deadline = Instant::now() + Duration::from_secs(10);
    for &i in &owned {
        reference.process_updates_wire(&[(i, pos(i, 1), stamp(i, 1))]);
        loop {
            match client.update(i, pos(i, 1), stamp(i, 1)) {
                Ok(Reply::Cloaked(_)) => break,
                Err(e) if is_retryable_route_failure(&e) && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => panic!("retried update {i}: {other:?}"),
            }
        }
    }
    // Positions are all a cloak depends on: the next wave reads the
    // sequential engine's bytes on both nodes.
    run_wave(&mut client, &mut reference, &all_users(), 2);

    let snap = router.metrics_registry().net().snapshot();
    assert!(
        snap.retryable_failures >= owned.len() as u64,
        "every frame of the run"
    );
    assert!(snap.node_rejoins >= 1, "rejoin counted");
    assert_eq!(snap.mirror_drops, 0, "nothing was dropped");
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0, "no fatal failures");
    let (planes0, planes1) = (
        node0.shutdown().export_state(),
        node1.shutdown().export_state(),
    );
    assert_eq!(planes1.positions, planes0.positions, "position plane");
    assert_eq!(planes1.records, planes0.records, "cloak plane");
}

#[test]
fn sever_mid_spanning_window_fails_the_owner_retryable_and_the_retry_converges() {
    let (node0, node1, proxy, router) = spawn(fast_recovery());
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);

    // Owners alternate, so each node's share of the window is its own
    // updates with the other node's rows riding ahead of them, all in
    // one write. Node 1's is cut a few frames in: what arrived whole is
    // applied, and no reply gets back.
    let (mine, theirs) = (users_of(0), users_of(1));
    let window: Vec<u64> = mine
        .iter()
        .zip(&theirs)
        .flat_map(|(&a, &b)| [a, b])
        .collect();
    proxy.sever_after_upstream_bytes(300);
    for &i in &window {
        client.update_send_only(i, pos(i, 1), stamp(i, 1)).unwrap();
    }
    for &i in &window {
        // Node 0's replies read every row before them, node 1's
        // included, which is all a cloak depends on.
        let want = reference
            .process_updates_wire(&[(i, pos(i, 1), stamp(i, 1))])
            .remove(0)
            .unwrap()
            .to_vec();
        match (owner_of(i, 2), client.read_reply()) {
            (0, Ok(Reply::Cloaked(bytes))) => assert_eq!(bytes, want, "update {i}"),
            (1, Err(e)) => assert!(is_retryable_route_failure(&e), "update {i}: {e}"),
            (owner, other) => panic!("update {i} (node {owner}): {other:?}"),
        }
    }

    // The outcome of node 1's updates is unknown: heal and retry.
    proxy.restore();
    let cut: Vec<u64> = window
        .iter()
        .copied()
        .filter(|&i| owner_of(i, 2) == 1)
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    for &i in &cut {
        loop {
            match client.update(i, pos(i, 1), stamp(i, 1)) {
                Ok(Reply::Cloaked(_)) => break,
                Err(e) if is_retryable_route_failure(&e) && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => panic!("retried update {i}: {other:?}"),
            }
        }
    }
    run_wave(&mut client, &mut reference, &all_users(), 2);

    let snap = router.metrics_registry().net().snapshot();
    assert!(
        snap.retryable_failures >= cut.len() as u64,
        "every frame node 1 was sent"
    );
    assert!(snap.node_rejoins >= 1, "rejoin counted");
    assert_eq!(snap.mirror_drops, 0, "nothing was dropped");
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0, "no fatal failures");
    let (planes0, planes1) = (
        node0.shutdown().export_state(),
        node1.shutdown().export_state(),
    );
    assert_eq!(planes1.positions, planes0.positions, "position plane");
    assert_eq!(planes1.records, planes0.records, "cloak plane");
}

#[test]
fn idle_node_cut_with_nothing_outstanding_is_noticed_and_rejoins() {
    let (node0, node1, proxy, router) = spawn(fast_recovery());
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);
    let before = router.metrics_registry().net().snapshot();

    // No request is outstanding and the client sends nothing more: only
    // the router itself can notice that node 1's link went away.
    let severed = Instant::now();
    proxy.sever();
    std::thread::sleep(Duration::from_millis(20));
    proxy.restore();
    let rejoined = loop {
        let snap = router.metrics_registry().net().snapshot();
        if snap.reconnect_attempts > before.reconnect_attempts
            && snap.node_rejoins > before.node_rejoins
        {
            break severed.elapsed();
        }
        assert!(
            severed.elapsed() < Duration::from_millis(100),
            "an idle cut must be noticed and healed within 100 ms, counters: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(rejoined < Duration::from_millis(100), "took {rejoined:?}");

    run_wave(&mut client, &mut reference, &all_users(), 1);
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0);
    drop((node0.shutdown(), node1.shutdown()));
}

#[test]
fn slow_node_is_demoted_retryable_and_heals_when_it_speeds_up() {
    let mut cfg = fast_recovery();
    cfg.node_timeout = Duration::from_millis(150);
    let (node0, node1, proxy, router) = spawn(cfg);
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);

    // Every forwarded chunk now takes far longer than the node timeout:
    // the next request for node 1's users must time out into a
    // RETRYABLE demotion — bounded by `node_timeout`, never a hang —
    // and the liveness ping keeps the node in `Reconnecting` for as
    // long as it stays slow.
    proxy.set_delay(Duration::from_millis(600));
    let started = Instant::now();
    match client.update(1, pos(1, 1), stamp(1, 1)) {
        Err(e) => assert!(is_retryable_route_failure(&e), "kind is RETRYABLE: {e}"),
        Ok(r) => panic!("slow node answered in time: {r:?}"),
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "slowness is bounded by node_timeout, took {elapsed:?}"
    );

    proxy.set_delay(Duration::ZERO);
    run_wave(&mut client, &mut reference, &all_users(), 1);
    let snap = router.metrics_registry().net().snapshot();
    assert!(snap.retryable_failures >= 1);
    assert!(snap.node_rejoins >= 1, "recovered once the delay cleared");
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0);
    drop((node0.shutdown(), node1.shutdown()));
}

#[test]
fn catchup_overflow_rejoins_through_bulk_resync() {
    let mut cfg = fast_recovery();
    // Small enough that a handful of mirror frames overflows it.
    cfg.catchup_buffer_bytes = 256;
    let (node0, node1, proxy, router) = spawn(cfg);
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);

    proxy.sever();
    std::thread::sleep(Duration::from_millis(30));
    // Two full waves of node 0's traffic: far more plane bytes than
    // the buffer holds, so the rejoin must go through the bulk
    // donor-resync path instead of ordered replay.
    run_wave(&mut client, &mut reference, &users_of(0), 1);
    run_wave(&mut client, &mut reference, &users_of(0), 2);

    proxy.restore();
    // The stranded node heals — its first reply proves the bulk image
    // (positions and cloaks are exact-bit codecs) reconstructed the
    // planes, because the cloak of a node-1 user depends on the *whole*
    // population's positions.
    run_wave(&mut client, &mut reference, &all_users(), 3);

    let snap = router.metrics_registry().net().snapshot();
    assert!(
        snap.resync_bytes > 0,
        "overflowed rejoin must pay a bulk resync, counters: {snap:?}"
    );
    assert!(snap.node_rejoins >= 1);
    let report = router.shutdown();
    assert_eq!(report.route_failures, 0);
    drop((node0.shutdown(), node1.shutdown()));
}

// ---------------------------------------------------------------------
// Kill → restart from WAL → rejoin (the acceptance guarantee).
// ---------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new() -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("lbsp-cluster-chaos-{}-{n}", std::process::id()));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[test]
fn killed_node_restarts_from_wal_rejoins_and_stays_byte_identical() {
    let dir = TempDir::new();
    let open_node1 = || {
        let mut cfg = EngineConfig::new(world());
        cfg.refine = true;
        lbsp_store::open_engine(dir.path(), cfg, 1, Durability::default())
            .expect("open durable node 1")
    };

    let node0 = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let opened = open_node1();
    assert!(!opened.recovered);
    let node1 = NetServer::bind("127.0.0.1:0", opened.engine, NetConfig::default()).unwrap();
    let proxy = ChaosProxy::bind(node1.local_addr()).unwrap();
    let nodes = [node0.local_addr().to_string(), proxy.addr().to_string()];
    let refs: Vec<&str> = nodes.iter().map(|s| s.as_str()).collect();
    let router = Router::bind("127.0.0.1:0", &refs, world(), fast_recovery()).unwrap();
    let mut reference = fresh_engine();
    let mut client = connect(&router);
    register_all(&mut client, &mut reference);
    run_wave(&mut client, &mut reference, &all_users(), 0);
    run_wave(&mut client, &mut reference, &all_users(), 1);

    // Hard-stop the durable node mid-life and cut its wire.
    proxy.sever();
    drop(node1.shutdown());
    std::thread::sleep(Duration::from_millis(30));
    match client.update(1, pos(1, 2), stamp(1, 2)) {
        Err(e) => assert!(is_retryable_route_failure(&e), "outage is RETRYABLE: {e}"),
        Ok(r) => panic!("killed node answered {r:?}"),
    }
    // The healthy node never notices (mirrors buffered).
    run_wave(&mut client, &mut reference, &users_of(0), 2);

    // Restart from the journal on a fresh port; retarget and heal the
    // proxy; the supervisor replays the buffered frames and the cluster
    // output rejoins the uncrashed byte stream — node 1's users included.
    let opened = open_node1();
    assert!(opened.recovered, "restart recovered WAL state");
    let node1 = NetServer::bind("127.0.0.1:0", opened.engine, NetConfig::default()).unwrap();
    proxy.set_upstream(node1.local_addr());
    proxy.restore();
    run_wave(&mut client, &mut reference, &users_of(1), 2);
    run_wave(&mut client, &mut reference, &all_users(), 3);

    let snap = router.metrics_registry().net().snapshot();
    assert!(snap.node_rejoins >= 1, "the rejoin happened");
    assert!(snap.reconnect_attempts >= 1);
    let report = router.shutdown();
    assert_eq!(
        report.route_failures, 0,
        "a transient single fault leaves no fatal route failures"
    );
    drop((node0.shutdown(), node1.shutdown()));
}
