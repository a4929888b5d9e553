//! The systems under test, and their set-up.
//!
//! Built through public APIs only. Load sizing is fixed here, not left to
//! knobs: the box has two cores, so one generator process drives two
//! connections into servers (same process, loopback) with two poller
//! shards and two engine threads each.

use crate::gen::{self, k_of, BatchStream, Op, Row, UserStream, BATCH_ROWS};
use crate::load::{CallResult, Fail};
use crate::verify::{Answer, A_MIN};
use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_cluster::{Router, RouterConfig};
use lbsp_core::{wire, EngineConfig, ShardedEngine};
use lbsp_geom::{Point, SimTime};
use lbsp_net::{is_route_failure, NetClient, NetConfig, NetServer, Reply};
use lbsp_server::PublicObject;
use std::net::SocketAddr;
use std::time::Duration;

/// Connections (= client threads) of every socket workload: `nproc`.
pub const CONNS: usize = 2;
pub const NET_WORKERS: usize = 2;
pub const ENGINE_THREADS: usize = 2;
/// Population of the socket workloads.
pub const USERS: usize = 20_000;
pub const POIS: usize = 1_000;
/// Population of `engine_batch`: its grids and stores exceed L2.
pub const ENGINE_USERS: usize = 100_000;
pub const ENGINE_POIS: usize = 10_000;
/// Requests of the scripted prefix compared byte for byte at set-up.
pub const PREFIX_REQUESTS: usize = 1_000;
/// Requests in flight per connection while registering and placing.
const SETUP_WINDOW: usize = 32;

/// The flagship configuration: 16×16 cloak grid with multi-level
/// refinement, 4 stripes.
pub fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::new(gen::world());
    cfg.refine = true;
    cfg
}

pub fn new_engine(threads: usize, pois: &[PublicObject]) -> ShardedEngine {
    let mut engine = ShardedEngine::new(engine_config(), threads);
    engine.load_public(pois.to_vec());
    engine
}

pub fn profile(user: u64) -> PrivacyProfile {
    PrivacyProfile::uniform(CloakRequirement {
        k: k_of(user),
        a_min: A_MIN,
        a_max: f64::INFINITY,
    })
    .expect("k >= 1 and a_min <= a_max")
}

/// Registers `positions.len()` users in-process and places them.
pub fn populate(engine: &mut ShardedEngine, positions: &[Point]) -> Result<(), String> {
    for user in 0..positions.len() as u64 {
        engine.register(user, profile(user));
    }
    let rows: Vec<Row> = positions
        .iter()
        .enumerate()
        .map(|(u, p)| (u as u64, *p, SimTime::from_secs(0.0)))
        .collect();
    for chunk in rows.chunks(BATCH_ROWS) {
        if let Some(Err(e)) = engine
            .process_updates(chunk)
            .into_iter()
            .find(Result::is_err)
        {
            return Err(format!("placing users in-process: {e}"));
        }
    }
    Ok(())
}

/// One request against the in-process engine. Kept replies are put on
/// the wire format so one checker serves every workload.
pub fn engine_call(engine: &mut ShardedEngine, op: &Op, keep: bool) -> CallResult {
    match op {
        Op::Batch(rows) => {
            let out = engine.process_updates(rows);
            if let Some(Err(e)) = out.iter().find(|r| r.is_err()) {
                return Err(Fail::Rejected(e.to_string()));
            }
            if !keep {
                return Ok(Vec::new());
            }
            Ok(rows
                .iter()
                .zip(&out)
                .step_by(64)
                .filter_map(|(&(user, pos, t), r)| {
                    let bytes = wire::encode_cloaked_update(r.as_ref().ok()?).to_vec();
                    Some((Op::Update { user, pos, t }, Answer::Cloaked(bytes)))
                })
                .collect())
        }
        Op::Update { user, pos, t } => {
            match engine.process_updates_wire(&[(*user, *pos, *t)]).pop() {
                Some(Ok(b)) => Ok(kept(op, keep, || Answer::Cloaked(b.to_vec()))),
                Some(Err(e)) => Err(Fail::Rejected(e.to_string())),
                None => Err(Fail::Rejected("engine returned no row".into())),
            }
        }
        Op::Query {
            user, radius, t, ..
        } => match engine.range_query(*user, *t, *radius) {
            Ok(a) => Ok(kept(op, keep, || Answer::Candidates(a.response.to_vec()))),
            Err(e) => Err(Fail::Rejected(e.to_string())),
        },
    }
}

fn kept(op: &Op, keep: bool, answer: impl FnOnce() -> Answer) -> Vec<(Op, Answer)> {
    if keep {
        vec![(op.clone(), answer())]
    } else {
        Vec::new()
    }
}

/// One closed-loop request over a socket.
pub fn socket_call(client: &mut NetClient, op: &Op, keep: bool) -> CallResult {
    let reply = match op {
        Op::Update { user, pos, t } => client.update(*user, *pos, *t),
        Op::Query {
            user, radius, t, ..
        } => client.range_query(*user, *radius, *t),
        Op::Batch(_) => return Err(Fail::Broken("a batch has no wire form".into())),
    };
    match (reply, op.is_query()) {
        (Ok(Reply::Cloaked(b)), false) => Ok(kept(op, keep, || Answer::Cloaked(b))),
        (Ok(Reply::Candidates(b)), true) => Ok(kept(op, keep, || Answer::Candidates(b))),
        (Ok(other), _) => Err(Fail::Rejected(format!("unexpected reply {other:?}"))),
        // A ROUTE_FAIL is the cluster refusing one request; the
        // connection is still good.
        (Err(e), _) if is_route_failure(&e) => Err(Fail::Rejected(e.to_string())),
        (Err(e), _) => Err(Fail::Broken(e.to_string())),
    }
}

pub fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    let client = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // A wedged server fails the run instead of hanging it.
    for r in [
        client.set_read_timeout(Some(Duration::from_secs(10))),
        client.set_write_timeout(Some(Duration::from_secs(10))),
    ] {
        r.map_err(|e| format!("socket timeout: {e}"))?;
    }
    Ok(client)
}

/// Resident set of this process (`VmRSS`), megabytes. Set-up reads it
/// when the system under test is populated and before the reference
/// engine exists: what the populated system holds, not what the check
/// of it borrowed.
fn resident_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A served system: one node, or `K` nodes behind a router.
pub struct Sut {
    pub nodes: Vec<NetServer>,
    pub router: Option<Router>,
}

impl Sut {
    /// `routed_nodes == 0` serves one bare node; `K > 0` puts a router
    /// in front of `K` nodes, each holding every POI.
    pub fn start(routed_nodes: usize, pois: &[PublicObject]) -> Result<Sut, String> {
        let nodes = (0..routed_nodes.max(1))
            .map(|_| {
                NetServer::bind(
                    "127.0.0.1:0",
                    new_engine(ENGINE_THREADS, pois),
                    NetConfig::with_workers(NET_WORKERS),
                )
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("bind node: {e}"))?;
        let router = if routed_nodes == 0 {
            None
        } else {
            let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
            let refs: Vec<&str> = addrs.iter().map(String::as_str).collect();
            // The front door serves one connection per worker thread.
            let cfg = RouterConfig {
                net: NetConfig::with_workers(CONNS),
                ..RouterConfig::default()
            };
            Some(
                Router::bind("127.0.0.1:0", &refs, gen::world(), cfg)
                    .map_err(|e| format!("bind router: {e}"))?,
            )
        };
        Ok(Sut { nodes, router })
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.nodes[0].local_addr(),
        }
    }

    /// Stops every thread the system started and waits for them.
    pub fn stop(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for n in self.nodes {
            n.shutdown();
        }
    }
}

/// Registers this connection's users and places them at home, keeping
/// [`SETUP_WINDOW`] requests in flight.
fn register_and_place(addr: SocketAddr, homes: &[Point], conn: usize) -> Result<(), String> {
    let mut client = connect(addr)?;
    let mine: Vec<u64> = (0..homes.len() as u64)
        .filter(|u| *u as usize % CONNS == conn)
        .collect();
    for chunk in mine.chunks(SETUP_WINDOW) {
        for register in [true, false] {
            for &u in chunk {
                let sent = if register {
                    let msg = wire::RegisterMsg {
                        user: u,
                        k: k_of(u),
                        a_min: A_MIN,
                        a_max: f64::INFINITY,
                    };
                    client.send_only(wire::tag::REGISTER, &wire::encode_register(&msg))
                } else {
                    client.update_send_only(u, homes[u as usize], SimTime::from_secs(0.0))
                };
                sent.map_err(|e| format!("set-up send for user {u}: {e}"))?;
            }
            for &u in chunk {
                match (client.read_reply(), register) {
                    (Ok(Reply::Ok), true) | (Ok(Reply::Cloaked(_)), false) => {}
                    (other, _) => return Err(format!("set-up of user {u}: {other:?}")),
                }
            }
        }
    }
    Ok(())
}

/// Drives the scripted prefix — the next [`PREFIX_REQUESTS`] requests of
/// `next_op`, one caller — and requires every reply of the system under
/// test to equal, byte for byte, what the in-process reference engine
/// answers to the same request.
fn verify_prefix(
    reference: &mut ShardedEngine,
    mut next_op: impl FnMut() -> Op,
    mut call: impl FnMut(&Op) -> CallResult,
) -> Result<(), String> {
    for i in 0..PREFIX_REQUESTS {
        let op = next_op();
        match (engine_call(reference, &op, true), call(&op)) {
            (Ok(want), Ok(got)) if want == got => {}
            (want, got) => {
                return Err(format!(
                    "scripted prefix request {i} diverges from the reference: \
                     want {want:?}, got {got:?}"
                ))
            }
        }
    }
    Ok(())
}

/// A socket workload, set up: served, populated, prefix verified.
pub struct SocketFixture {
    pub sut: Sut,
    pub homes: Vec<Point>,
    pub pois: Vec<PublicObject>,
    /// Where the prefix left every user, by id: the timed streams go on
    /// from here.
    pub positions: Vec<Point>,
    /// Resident set once every user was placed, megabytes.
    pub rss_mb: f64,
}

/// Registers every user and places it at home, over [`CONNS`]
/// connections at once.
pub fn place_users(addr: SocketAddr, homes: &[Point]) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| s.spawn(move || register_and_place(addr, homes, c)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "set-up thread panicked".to_string())?)
    })
}

pub fn setup_socket(
    seed: u64,
    routed_nodes: usize,
    update_share: f64,
) -> Result<SocketFixture, String> {
    let pois = gen::pois(seed, POIS);
    // Behind a router a tenth of the users commute across the boundary.
    let homes = gen::homes(seed, USERS, routed_nodes > 0);
    let sut = Sut::start(routed_nodes, &pois)?;
    let addr = sut.addr();
    place_users(addr, &homes)?;
    let rss_mb = resident_mb();
    let mut reference = new_engine(1, &pois);
    populate(&mut reference, &homes)?;
    // The prefix is one connection over every user.
    let mut prefix = UserStream::new(&homes, &homes, seed, 0, 0, 1, update_share);
    let mut client = connect(addr)?;
    verify_prefix(
        &mut reference,
        || prefix.next_op(),
        |op| socket_call(&mut client, op, true),
    )?;
    let positions = prefix.positions().to_vec();
    Ok(SocketFixture {
        sut,
        homes,
        pois,
        positions,
        rss_mb,
    })
}

/// `engine_batch`, set up: populated in-process, prefix verified against
/// a one-thread engine (the byte-identity guarantee at any worker count).
pub struct EngineFixture {
    pub engine: ShardedEngine,
    pub stream: BatchStream,
    pub pois: Vec<PublicObject>,
    /// Resident set once every user was placed, megabytes.
    pub rss_mb: f64,
}

pub fn setup_engine(seed: u64) -> Result<EngineFixture, String> {
    let pois = gen::pois(seed, ENGINE_POIS);
    let mut stream = BatchStream::new(seed, ENGINE_USERS);
    let mut engine = new_engine(ENGINE_THREADS, &pois);
    populate(&mut engine, stream.positions())?;
    let rss_mb = resident_mb();
    let mut reference = new_engine(1, &pois);
    populate(&mut reference, stream.positions())?;
    verify_prefix(
        &mut reference,
        || stream.next_op(),
        |op| engine_call(&mut engine, op, true),
    )?;
    Ok(EngineFixture {
        engine,
        stream,
        pois,
        rss_mb,
    })
}
