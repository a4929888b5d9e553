//! A node that misses more outbox entries than one `CARRY` envelope
//! carries, but fewer bytes than the outbox's bound, rejoins by ordered
//! replay — ⌈n/1024⌉ envelopes after its liveness `PING`, no bulk
//! resync — and its planes then match a reference engine fed every
//! update in order.

use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_cluster::{owner_of, Router, RouterConfig};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{ChaosProxy, NetClient, NetConfig, NetServer, Reply};
use std::time::{Duration, Instant};

const USERS: u64 = 24;

fn fresh_engine() -> ShardedEngine {
    let mut cfg = EngineConfig::new(Rect::new_unchecked(0.0, 0.0, 1.0, 1.0));
    cfg.refine = true;
    ShardedEngine::new(cfg, 1)
}

/// One update through the router, byte-compared with the reference.
fn update(client: &mut NetClient, reference: &mut ShardedEngine, user: u64, wave: u64) {
    let p = Point::new(
        0.05 + user as f64 * 0.035 + wave as f64 * 1e-4,
        0.1 + user as f64 * 0.03,
    );
    let t = SimTime::from_secs(wave as f64 + user as f64 * 1e-3);
    let want = reference.process_updates_wire(&[(user, p, t)]);
    let want = want[0].as_ref().expect("registered user cloaks").to_vec();
    assert_eq!(client.update(user, p, t).unwrap(), Reply::Cloaked(want));
}

fn served(node: &NetServer) -> u64 {
    node.counters().snapshot().requests_served
}

#[test]
fn an_outage_past_one_envelope_rejoins_by_ordered_replay() {
    let node0 = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let node1 = NetServer::bind("127.0.0.1:0", fresh_engine(), NetConfig::default()).unwrap();
    let proxy = ChaosProxy::bind(node1.local_addr()).unwrap();
    let nodes = [node0.local_addr().to_string(), proxy.addr().to_string()];
    let refs: Vec<&str> = nodes.iter().map(|s| s.as_str()).collect();
    let cfg = RouterConfig {
        node_timeout: Duration::from_secs(2),
        reconnect_base: Duration::from_millis(2),
        reconnect_cap: Duration::from_millis(10),
        reconnect_attempts: 5_000,
        ..RouterConfig::default()
    };
    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
    let router = Router::bind("127.0.0.1:0", &refs, world, cfg).unwrap();
    let mut client = NetClient::connect(router.local_addr()).unwrap();
    let mut reference = fresh_engine();
    for user in 0..USERS {
        let k = [2u32, 5, 10][(user % 3) as usize];
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(k)).unwrap();
        reference.register(user, profile);
        assert_eq!(
            client.register(user, k, 0.0, f64::INFINITY).unwrap(),
            Reply::Ok
        );
        update(&mut client, &mut reference, user, 0);
    }
    let own: Vec<u64> = (0..USERS).filter(|&u| owner_of(u, 2) == 0).collect();

    // Node 1 misses one mirror row per update of node 0's users: more
    // than one envelope carries, less than 2 envelopes, whatever few
    // rows were still unacknowledged at the cut, and far below the
    // outbox's 4 MiB bound.
    proxy.sever();
    let waves = (wire::CARRY_MAX_FRAMES as u64 + 40).div_ceil(own.len() as u64);
    let missed = waves * own.len() as u64;
    assert!(missed > wire::CARRY_MAX_FRAMES as u64 && missed + 32 <= 2 * 1024);
    for wave in 1..=waves {
        for &user in &own {
            update(&mut client, &mut reference, user, wave);
        }
    }
    let before = served(&node1);
    let rejoins = router.metrics_registry().net().snapshot().node_rejoins;
    proxy.restore();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.metrics_registry().net().snapshot().node_rejoins == rejoins {
        assert!(Instant::now() < deadline, "node 1 never rejoined");
        std::thread::sleep(Duration::from_millis(2));
    }
    let snap = router.metrics_registry().net().snapshot();
    assert_eq!(snap.resync_bytes, 0, "the rejoin took the bulk path");
    assert_eq!(
        served(&node1) - before,
        1 + 2,
        "a liveness PING, then ⌈n/1024⌉ = 2 replay envelopes"
    );

    for user in 0..USERS {
        update(&mut client, &mut reference, user, waves + 1);
    }
    drop(client);
    assert_eq!(router.shutdown().route_failures, 0);
    drop(node0.shutdown());
    let (got, want) = (node1.shutdown().export_state(), reference.export_state());
    assert_eq!(got.positions, want.positions, "node 1 positions");
    assert_eq!(got.records, want.records, "node 1 cloaks");
}
