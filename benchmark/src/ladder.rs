//! The traced run: a ladder of rungs, then the workload under three
//! offered rates.
//!
//! The same seeded `node_update` and `node_query` request streams are
//! replayed by one closed-loop caller through ever more of the system:
//! cloaking alone, the server-side stores, the engine, the wire codecs,
//! a loopback node, a router in front of one node, then two, and an
//! engine journaling to a WAL. Only calls into public functions are
//! timed; a layer's self time is its rung's median minus the rung below.
//! Counts come from public counters read before and after a rung.

use crate::gen::{self, Op, Row, UserStream, BATCH_ROWS, JITTER};
use crate::hostclock::HostClock;
use crate::load;
use crate::report::{Report, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{self, median_us};
use crate::sut::{self, Sut, ENGINE_THREADS, POIS, USERS};
use crate::workloads::{self, Fixture, Phase, Workload, SHARES};
use lbsp_anonymizer::{CloakRequirement, CloakedUpdate, CloakingAlgorithm, GridCloak};
use lbsp_core::{wire, Durability, HistogramSnapshot, ShardedEngine, Stage};
use lbsp_geom::{Point, Rect};
use lbsp_net::{frame, FrameReader, NetClient, Poll, Reply, FRAME_OVERHEAD, MAX_FRAME_LEN};
use lbsp_server::{
    private_range_candidates, PrivateRecord, PrivateStore, PublicObject, PublicStore,
};
use std::time::{Duration, Instant};

/// Ladder requests per stream, per second of `--seconds`.
const REQUESTS_PER_SEC: usize = 250;
/// Codec calls are tens of nanoseconds — below the clock's resolution —
/// so they are timed in groups of this many and divided.
const CODEC_GROUP: usize = 64;
/// Population of the WAL rung: every registration is journaled and
/// fsynced, so the socket workloads' 20k users would cost the rung more
/// time than the whole run has.
const WAL_USERS: usize = 1_000;

/// Metric values and flags collected along the ladder.
#[derive(Default)]
struct Ladder {
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
    clamped: u32,
    /// Requests the rungs issued; every one was answered, or the rung
    /// would have stopped the run.
    requests: u64,
}

impl Ladder {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records `name = upper − lower`, clamped at zero and flagged when
    /// the rung below measured slower than the rung above.
    fn put_self(&mut self, name: &str, upper: f64, lower: f64) {
        let (v, clamped) = stats::self_time(upper, lower);
        if clamped {
            self.clamped += 1;
            self.notes.push(format!(
                "{name}: rung below is slower ({lower:.2} us > {upper:.2} us); self time clamped to 0"
            ));
        }
        self.put(name, v);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

fn ns_of(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// What every rung replays.
struct Inputs {
    homes: Vec<Point>,
    pois: Vec<PublicObject>,
    /// The `node_update` stream (90 % updates), then the `node_query`
    /// stream (10 % updates) continuing from where it left the users.
    update_stream: Vec<Op>,
    query_stream: Vec<Op>,
}

impl Inputs {
    fn new(seed: u64, n: usize) -> Inputs {
        // Commuter homes, so the two-node rung has handoffs to measure;
        // below the router the boundary means nothing.
        let homes = gen::homes(seed, USERS, true);
        let mut s = UserStream::new(&homes, &homes, seed, 2, 0, 1, 0.9);
        let update_stream: Vec<Op> = (0..n).map(|_| s.next_op()).collect();
        let mut q = UserStream::new(&homes, s.positions(), seed, 3, 0, 1, 0.1);
        let query_stream = (0..n).map(|_| q.next_op()).collect();
        Inputs {
            pois: gen::pois(seed, POIS),
            homes,
            update_stream,
            query_stream,
        }
    }

    fn streams(&self) -> [&[Op]; 2] {
        [&self.update_stream, &self.query_stream]
    }

    fn updates_in_update_stream(&self) -> usize {
        self.update_stream.iter().filter(|o| !o.is_query()).count()
    }

    /// Per op of the update stream: does it move its user across the
    /// `x = 0.5` stripe boundary (a handoff in a two-node cluster)?
    fn crossings(&self) -> Vec<bool> {
        let mut pos = self.homes.clone();
        self.update_stream
            .iter()
            .map(|op| match op {
                Op::Update { user, pos: p, .. } => {
                    let before = std::mem::replace(&mut pos[*user as usize], *p);
                    (before.x >= 0.5) != (p.x >= 0.5)
                }
                _ => false,
            })
            .collect()
    }
}

/// Medians the rungs hand upward, microseconds.
#[derive(Default, Clone, Copy)]
struct Medians {
    update: f64,
    query: f64,
}

/// `r0_cloak` and `r1_server`: the cloaking algorithm and the server-side
/// stores, called directly.
fn rung_components(inp: &Inputs, l: &mut Ladder) -> (Medians, Medians) {
    let mut cloak =
        GridCloak::new(gen::world(), sut::engine_config().grid_side).with_refinement(true);
    for (u, h) in inp.homes.iter().enumerate() {
        cloak.upsert(u as u64, *h);
    }
    let public = PublicStore::bulk_load(inp.pois.clone());
    let mut private = PrivateStore::new();
    let (mut cloak_ns, mut qcloak_ns, mut ingest_ns, mut range_ns) =
        (vec![], vec![], vec![], vec![]);
    let (mut areas, mut k_ratios, mut precisions, mut cands) = (vec![], vec![], vec![], vec![]);
    let (mut attempts, mut fails) = (0u64, 0u64);
    for (s, stream) in inp.streams().into_iter().enumerate() {
        for op in stream {
            match op {
                Op::Update { user, pos, .. } => {
                    let req = CloakRequirement::k_only(gen::k_of(*user));
                    let t = Instant::now();
                    cloak.upsert(*user, *pos);
                    let out = cloak.cloak(*user, &req);
                    let ns = ns_of(t);
                    attempts += 1;
                    let Ok(r) = out else {
                        fails += 1;
                        continue;
                    };
                    fails += u64::from(!r.k_satisfied);
                    let t = Instant::now();
                    private.upsert(PrivateRecord::new(*user, r.region));
                    let ingest = ns_of(t);
                    if s == 0 {
                        cloak_ns.push(ns);
                        ingest_ns.push(ingest);
                        areas.push(r.area());
                        k_ratios.push(f64::from(r.achieved_k) / f64::from(req.k));
                    }
                }
                Op::Query {
                    user, at, radius, ..
                } => {
                    let req = CloakRequirement::k_only(gen::k_of(*user));
                    let t = Instant::now();
                    let out = cloak.cloak(*user, &req);
                    let ns = ns_of(t);
                    let Ok(r) = out else { continue };
                    let t = Instant::now();
                    let found = private_range_candidates(&public, &r.region, *radius);
                    let range = ns_of(t);
                    if s == 1 {
                        qcloak_ns.push(ns);
                        range_ns.push(range);
                        cands.push(found.len() as f64);
                        let exact = found.iter().filter(|o| o.pos.dist(*at) <= *radius).count();
                        if !found.is_empty() {
                            precisions.push(exact as f64 / found.len() as f64);
                        }
                    }
                }
                Op::Batch(_) => {}
            }
        }
    }
    let cloak = Medians {
        update: median_us(&mut cloak_ns),
        query: median_us(&mut qcloak_ns),
    };
    let server = Medians {
        update: median_us(&mut ingest_ns),
        query: median_us(&mut range_ns),
    };
    l.requests += 2 * inp.update_stream.len() as u64;
    l.put("anonymizer.cloak_us", cloak.update);
    l.put("anonymizer.cloak_area_mean", mean(areas));
    l.put("anonymizer.k_ratio_mean", mean(k_ratios));
    l.put(
        "anonymizer.fail_ratio",
        fails as f64 / attempts.max(1) as f64,
    );
    l.put("server.ingest_us", server.update);
    l.put("server.range_us", server.query);
    l.put("server.candidates_per_query", mean(cands));
    l.put("server.candidate_precision", mean(precisions));
    (cloak, server)
}

/// Replies of the engine rung, kept as inputs of the codec rung.
struct EngineReplies {
    cloaks: Vec<(Row, CloakedUpdate)>,
    candidates: Vec<(Op, Vec<(u64, Point)>)>,
}

/// Replays both streams through an in-process engine, one call per
/// request; returns the medians of updates in the update stream and of
/// queries in the query stream, and those requests' replies.
fn replay_engine(
    engine: &mut ShardedEngine,
    inp: &Inputs,
) -> Result<(Medians, EngineReplies), String> {
    let (mut update_ns, mut query_ns) = (vec![], vec![]);
    let mut replies = EngineReplies {
        cloaks: Vec::new(),
        candidates: Vec::new(),
    };
    for (s, stream) in inp.streams().into_iter().enumerate() {
        for op in stream {
            match op {
                Op::Update { user, pos, t } => {
                    let row = (*user, *pos, *t);
                    let start = Instant::now();
                    let out = engine.process_updates(&[row]).pop();
                    let ns = ns_of(start);
                    let cloak = out
                        .and_then(Result::ok)
                        .ok_or_else(|| format!("engine rung: update of user {user} failed"))?;
                    if s == 0 {
                        update_ns.push(ns);
                        replies.cloaks.push((row, cloak));
                    }
                }
                Op::Query {
                    user, radius, t, ..
                } => {
                    let start = Instant::now();
                    let out = engine.range_query(*user, *t, *radius);
                    let ns = ns_of(start);
                    let a = out.map_err(|e| format!("engine rung: query of user {user}: {e}"))?;
                    if s == 1 {
                        query_ns.push(ns);
                        let list = a.candidates.iter().map(|o| (o.id, o.pos)).collect();
                        replies.candidates.push((op.clone(), list));
                    }
                }
                Op::Batch(_) => {}
            }
        }
    }
    let medians = Medians {
        update: median_us(&mut update_ns),
        query: median_us(&mut query_ns),
    };
    Ok((medians, replies))
}

/// Applies `rows` one `process_updates` call each; the calls' times.
fn time_updates(engine: &mut ShardedEngine, rows: &[Row]) -> Vec<u32> {
    rows.iter()
        .map(|row| {
            let start = Instant::now();
            let out = engine.process_updates(std::slice::from_ref(row));
            std::hint::black_box(&out);
            ns_of(start)
        })
        .collect()
}

/// `r2_engine`: `process_updates` with one row and with 256, and
/// `range_query`.
fn rung_engine(
    inp: &Inputs,
    below: (Medians, Medians),
    l: &mut Ladder,
) -> Result<(Medians, EngineReplies), String> {
    let mut engine = sut::new_engine(ENGINE_THREADS, &inp.pois);
    sut::populate(&mut engine, &inp.homes)?;
    let (m, replies) = replay_engine(&mut engine, inp)?;
    let rows: Vec<Row> = replies.cloaks.iter().map(|c| c.0).collect();
    let mut per_row_ns: Vec<u32> = rows
        .chunks(BATCH_ROWS)
        .filter(|c| c.len() == BATCH_ROWS)
        .map(|chunk| {
            let start = Instant::now();
            let out = engine.process_updates(chunk);
            std::hint::black_box(&out);
            ns_of(start) / BATCH_ROWS as u32
        })
        .collect();
    if per_row_ns.is_empty() {
        l.notes
            .push("engine.update_row_us_b256: fewer than 256 updates in the stream".into());
    }
    let (cloak, server) = below;
    l.requests += (2 * inp.update_stream.len() + rows.len() / BATCH_ROWS) as u64;
    l.put("engine.update_us", m.update);
    l.put("engine.update_row_us_b256", median_us(&mut per_row_ns));
    l.put("engine.query_us", m.query);
    l.put_self(
        "engine.update_self_us",
        m.update,
        cloak.update + server.update,
    );
    l.put_self("engine.query_self_us", m.query, cloak.query + server.query);
    Ok((m, replies))
}

/// `r2s_standing`: the engine rung's updates with 256 standing count
/// queries registered — none, then 32 of them, over the region the
/// updates land in.
fn rung_standing(inp: &Inputs, l: &mut Ladder) -> Result<(), String> {
    // Only users homed well right of x = 0.5 move, and a cloak stays
    // inside its user's 1/16-wide grid cell, so a query rectangle left of
    // 0.5 is never touched and one right of 0.55 often is.
    let moving: Vec<Row> = inp
        .update_stream
        .iter()
        .filter_map(|op| match op {
            Op::Update { user, pos, t } if inp.homes[*user as usize].x > 0.6 + JITTER => {
                Some((*user, *pos, *t))
            }
            _ => None,
        })
        .collect();
    let mut rng = crate::rng::Rng::new(0x57a, 0);
    for (hot, name) in [
        (0usize, "standing.update_us_0hot"),
        (32, "standing.update_us_32hot"),
    ] {
        let mut engine = sut::new_engine(ENGINE_THREADS, &inp.pois);
        sut::populate(&mut engine, &inp.homes)?;
        for j in 0..256 {
            let x = if j < hot {
                0.55 + 0.4 * rng.unit()
            } else {
                0.45 * rng.unit()
            };
            let y = 0.9 * rng.unit();
            engine.add_standing_count(Rect::new_unchecked(x, y, x + 0.05, y + 0.05));
        }
        let fan_before = engine.metrics_registry().standing_fanout().snapshot();
        let (seen_before, examined_before) = {
            let c = engine.standing_counts();
            (c.updates_processed(), c.examined_total())
        };
        let mut ns = time_updates(&mut engine, &moving);
        l.requests += ns.len() as u64;
        l.put(name, median_us(&mut ns));
        if hot > 0 {
            let c = engine.standing_counts();
            let seen = (c.updates_processed() - seen_before).max(1) as f64;
            l.put(
                "standing.examined_per_update",
                (c.examined_total() - examined_before) as f64 / seen,
            );
            l.put(
                "standing.adjusted_per_update",
                mean_gained(
                    &fan_before,
                    &engine.metrics_registry().standing_fanout().snapshot(),
                ),
            );
        }
    }
    Ok(())
}

/// Median time of `f` per item, timing [`CODEC_GROUP`] items at once.
fn grouped_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut per_item: Vec<u32> = items
        .chunks(CODEC_GROUP)
        .map(|group| {
            let start = Instant::now();
            group.iter().for_each(&mut f);
            ns_of(start) / group.len() as u32
        })
        .collect();
    median_us(&mut per_item)
}

/// Frames `payload`, then reads the frame back out of memory.
fn frame_round(tag: u8, payload: &[u8]) {
    let bytes = frame::frame_bytes(tag, payload, MAX_FRAME_LEN).expect("payload below the cap");
    let mut reader = FrameReader::new(MAX_FRAME_LEN);
    match reader.poll(&mut bytes.as_slice()) {
        Ok(Poll::Frame(f)) => {
            std::hint::black_box(f);
        }
        other => panic!("a whole frame in memory must parse, got {other:?}"),
    }
}

/// `r3_wire`: encode and decode of each request and its reply, and the
/// frame layer over memory. Returns the codec medians plus the frame
/// cost, all per request.
fn rung_wire(replies: &EngineReplies, l: &mut Ladder) -> (Medians, f64) {
    let update = grouped_us(&replies.cloaks, |((user, position, time), cloak)| {
        let req = wire::encode_exact_update(&wire::ExactUpdateMsg {
            user: *user,
            position: *position,
            time: *time,
        });
        std::hint::black_box(wire::decode_exact_update(&req));
        let reply = wire::encode_cloaked_update(cloak);
        std::hint::black_box(wire::decode_cloaked_update(&reply));
    });
    let query = grouped_us(&replies.candidates, |(op, list)| {
        let Op::Query {
            user, radius, t, ..
        } = op
        else {
            return;
        };
        let req = wire::encode_user_query(&wire::UserQueryMsg {
            user: *user,
            radius: *radius,
            time: *t,
        });
        std::hint::black_box(wire::decode_user_query(&req));
        let reply = wire::encode_candidates(list);
        std::hint::black_box(wire::decode_candidates(&reply));
    });
    let frames = grouped_us(&replies.cloaks, |_| {
        frame_round(wire::tag::EXACT_UPDATE, &[0u8; wire::EXACT_UPDATE_LEN]);
        frame_round(wire::tag::CLOAKED_UPDATE, &[0u8; wire::CLOAKED_UPDATE_LEN]);
    });
    l.put("wire.update_codec_us", update);
    l.put("wire.query_codec_us", query);
    l.put("wire.frame_codec_us", frames);
    l.put(
        "wire.req_bytes_update",
        (FRAME_OVERHEAD + wire::EXACT_UPDATE_LEN) as f64,
    );
    l.put(
        "wire.reply_bytes_update",
        (FRAME_OVERHEAD + wire::CLOAKED_UPDATE_LEN) as f64,
    );
    l.put(
        "wire.req_bytes_query",
        (FRAME_OVERHEAD + wire::USER_QUERY_LEN) as f64,
    );
    l.put(
        "wire.reply_bytes_query",
        mean(
            replies
                .candidates
                .iter()
                .map(|c| (FRAME_OVERHEAD + 4 + 24 * c.1.len()) as f64),
        ),
    );
    (Medians { update, query }, frames)
}

fn encode_request(op: &Op) -> Result<(u8, Vec<u8>), String> {
    match op {
        Op::Update { user, pos, t } => Ok((
            wire::tag::EXACT_UPDATE,
            wire::encode_exact_update(&wire::ExactUpdateMsg {
                user: *user,
                position: *pos,
                time: *t,
            })
            .to_vec(),
        )),
        Op::Query {
            user, radius, t, ..
        } => Ok((
            wire::tag::USER_QUERY,
            wire::encode_user_query(&wire::UserQueryMsg {
                user: *user,
                radius: *radius,
                time: *t,
            })
            .to_vec(),
        )),
        Op::Batch(_) => Err("a batch has no wire form".into()),
    }
}

fn decodes(reply: &Reply, query: bool) -> bool {
    match (reply, query) {
        (Reply::Cloaked(b), false) => wire::decode_cloaked_update(b).is_some(),
        (Reply::Candidates(b), true) => wire::decode_candidates(b).is_some(),
        _ => false,
    }
}

/// One request over a socket: encode, round trip, decode. With a
/// recorder the three steps are spans under a root `request` span.
fn socket_request(
    client: &mut NetClient,
    op: &Op,
    rec: Option<(&mut Recorder, u32)>,
) -> Result<u32, String> {
    let Some((rec, req)) = rec else {
        let (tag, payload) = encode_request(op)?;
        let reply = client.request(tag, &payload).map_err(|e| e.to_string())?;
        return if decodes(&reply, op.is_query()) {
            Ok(0)
        } else {
            Err(format!("unexpected reply {reply:?}"))
        };
    };
    let t0 = rec.now();
    let (tag, payload) = encode_request(op)?;
    let t1 = rec.now();
    let reply = client.request(tag, &payload).map_err(|e| e.to_string())?;
    let t2 = rec.now();
    let ok = decodes(&reply, op.is_query());
    let t3 = rec.now();
    if !ok {
        return Err(format!("unexpected reply {reply:?}"));
    }
    let root = rec.push("request", t0, t3, None, req);
    rec.push("wire.encode", t0, t1, Some(root), req);
    rec.push("net.roundtrip", t1, t2, Some(root), req);
    rec.push("wire.decode", t2, t3, Some(root), req);
    Ok(u32::try_from(t3 - t0).unwrap_or(u32::MAX))
}

/// Replays one stream over a connection, every request traced; returns
/// each op's latency in nanoseconds.
fn replay_socket(
    client: &mut NetClient,
    stream: &[Op],
    rec: &mut Recorder,
) -> Result<Vec<u32>, String> {
    stream
        .iter()
        .map(|op| {
            let req = (rec.len() / 4) as u32;
            socket_request(client, op, Some((rec, req)))
        })
        .collect()
}

/// Median latency, microseconds, of the updates (or the queries) of a
/// replayed stream.
fn median_of_kind(stream: &[Op], ns: &[u32], query: bool) -> f64 {
    let mut of_kind: Vec<u32> = stream
        .iter()
        .zip(ns)
        .filter(|(op, _)| op.is_query() == query)
        .map(|(_, ns)| *ns)
        .collect();
    median_us(&mut of_kind)
}

/// Replays both streams; the medians of the update stream's updates and
/// of the query stream's queries.
fn replay_both(
    client: &mut NetClient,
    inp: &Inputs,
    rec: &mut Recorder,
) -> Result<Medians, String> {
    let update_ns = replay_socket(client, &inp.update_stream, rec)?;
    let query_ns = replay_socket(client, &inp.query_stream, rec)?;
    Ok(Medians {
        update: median_of_kind(&inp.update_stream, &update_ns, false),
        query: median_of_kind(&inp.query_stream, &query_ns, true),
    })
}

/// Mean of the samples a histogram gained between two snapshots.
fn mean_gained(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    (after.sum - before.sum) / (after.count - before.count).max(1) as f64
}

/// Serves `routed_nodes` (0: a bare node) and populates it with the
/// ladder's users over two connections.
fn serve(inp: &Inputs, routed_nodes: usize) -> Result<Sut, String> {
    let sut = Sut::start(routed_nodes, &inp.pois)?;
    sut::place_users(sut.addr(), &inp.homes)?;
    Ok(sut)
}

/// `r4_net`: one loopback node, one connection.
fn rung_net(
    inp: &Inputs,
    below: Medians,
    rec: &mut Recorder,
    secs: f64,
    l: &mut Ladder,
) -> Result<Medians, String> {
    let sut = serve(inp, 0)?;
    let mut client = sut::connect(sut.addr())?;
    let mut ping_ns: Vec<u32> = (0..inp.update_stream.len().min(2_000))
        .map(|_| {
            let start = Instant::now();
            client
                .ping(&[])
                .map(|_| ns_of(start))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    l.put("net.ping_rtt_us", median_us(&mut ping_ns));

    // The same stream, untraced then traced: the ratio of the two rates is
    // what recording spans costs. A fifth of it first, off the clock, so
    // the untraced pass does not pay for a cold server.
    for op in &inp.update_stream[..inp.update_stream.len() / 5] {
        socket_request(&mut client, op, None)?;
    }
    let start = Instant::now();
    for op in &inp.update_stream {
        socket_request(&mut client, op, None)?;
    }
    let untraced_secs = start.elapsed().as_secs_f64();
    let registry = sut.nodes[0].metrics_registry();
    let batch0 = registry.net_batch_size().snapshot();
    let wait0 = registry.stage(Stage::OutboundWait).snapshot();
    let start = Instant::now();
    let update_ns = replay_socket(&mut client, &inp.update_stream, rec)?;
    let traced_secs = start.elapsed().as_secs_f64();
    let query_ns = replay_socket(&mut client, &inp.query_stream, rec)?;
    l.put("trace.overhead_ratio", untraced_secs / traced_secs);

    let m = Medians {
        update: median_of_kind(&inp.update_stream, &update_ns, false),
        query: median_of_kind(&inp.query_stream, &query_ns, true),
    };
    l.put("net.update_rtt_us", m.update);
    l.put("net.query_rtt_us", m.query);
    l.put_self("net.update_self_us", m.update, below.update);
    l.put_self("net.query_self_us", m.query, below.query);
    l.put(
        "net.rows_per_engine_batch",
        mean_gained(&batch0, &registry.net_batch_size().snapshot()),
    );
    l.put(
        "net.outbound_wait_us_per_req",
        mean_gained(&wait0, &registry.stage(Stage::OutboundWait).snapshot()),
    );

    // The first request after 50 ms of quiet finds the poller napping.
    let mut wake_ns: Vec<u32> = (0..(secs as usize).clamp(5, 20))
        .map(|_| {
            std::thread::sleep(Duration::from_millis(50));
            let start = Instant::now();
            client
                .ping(&[])
                .map(|_| ns_of(start))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    // A fifth of the update stream warm, all of it untraced, both traced.
    l.requests += (ping_ns.len() + wake_ns.len() + inp.update_stream.len() * 16 / 5) as u64;
    l.put("net.wake_after_idle_us", median_us(&mut wake_ns));
    drop(client);
    sut.stop();
    Ok(m)
}

/// `r5_router_k1` and `r6_router_k2`: a router in front of one node, then
/// two.
fn rung_cluster(
    inp: &Inputs,
    net: Medians,
    rec: &mut Recorder,
    l: &mut Ladder,
) -> Result<Medians, String> {
    let k1 = {
        let sut = serve(inp, 1)?;
        let mut client = sut::connect(sut.addr())?;
        let m = replay_both(&mut client, inp, rec)?;
        drop(client);
        sut.stop();
        m
    };
    let sut = serve(inp, 2)?;
    let router = sut.router.as_ref().expect("routed");
    let node_totals = |sut: &Sut| {
        sut.nodes.iter().fold((0u64, 0u64), |(frames, bytes), n| {
            let s = n.counters().snapshot();
            (frames + s.requests_served, bytes + s.bytes_in)
        })
    };
    let mut client = sut::connect(sut.addr())?;
    // The counters cover the update stream only.
    let (frames0, bytes0) = node_totals(&sut);
    let handoffs0 = router.handoffs();
    let update_ns = replay_socket(&mut client, &inp.update_stream, rec)?;
    let (frames1, bytes1) = node_totals(&sut);
    let handoffs = router.handoffs() - handoffs0;
    let query_ns = replay_socket(&mut client, &inp.query_stream, rec)?;
    let k2 = Medians {
        update: median_of_kind(&inp.update_stream, &update_ns, false),
        query: median_of_kind(&inp.query_stream, &query_ns, true),
    };

    let crossings = inp.crossings();
    let (mut crossing_ns, mut plain_ns): (Vec<u32>, Vec<u32>) = (vec![], vec![]);
    for ((op, ns), crossed) in inp.update_stream.iter().zip(&update_ns).zip(&crossings) {
        match (op.is_query(), *crossed) {
            (true, _) => {}
            (false, true) => crossing_ns.push(*ns),
            (false, false) => plain_ns.push(*ns),
        }
    }
    if crossing_ns.len() as u64 != handoffs {
        l.notes.push(format!(
            "cluster: {} boundary crossings sent but the router counted {handoffs} handoffs",
            crossing_ns.len()
        ));
    }
    let updates = inp.updates_in_update_stream().max(1) as f64;
    let queries = inp.update_stream.len() as f64 - updates;
    l.requests += 4 * inp.update_stream.len() as u64;
    l.put("cluster.k1_update_rtt_us", k1.update);
    l.put("cluster.k1_query_rtt_us", k1.query);
    l.put("cluster.k2_update_rtt_us", k2.update);
    l.put("cluster.k2_query_rtt_us", k2.query);
    l.put_self("cluster.hop_k1_update_us", k1.update, net.update);
    l.put_self("cluster.hop_k1_query_us", k1.query, net.query);
    l.put_self("cluster.repl_k2_update_us", k2.update, k1.update);
    l.put_self("cluster.repl_k2_query_us", k2.query, k1.query);
    if crossing_ns.is_empty() {
        l.notes
            .push("cluster.handoff_extra_us: no crossing in the stream".into());
        l.put("cluster.handoff_extra_us", 0.0);
    } else {
        l.put_self(
            "cluster.handoff_extra_us",
            median_us(&mut crossing_ns),
            median_us(&mut plain_ns),
        );
    }
    l.put(
        "cluster.handoffs_per_1k_updates",
        handoffs as f64 * 1e3 / updates,
    );
    // Each of the stream's queries is exactly one node frame of known
    // size; what is left is what the updates cost.
    let query_bytes = (FRAME_OVERHEAD + wire::USER_QUERY_LEN) as f64;
    l.put(
        "cluster.node_frames_per_update",
        ((frames1 - frames0) as f64 - queries) / updates,
    );
    l.put(
        "cluster.node_bytes_per_update",
        ((bytes1 - bytes0) as f64 - queries * query_bytes) / updates,
    );
    let counters = router.metrics_registry().net().snapshot();
    l.put(
        "cluster.retryable_failures",
        counters.retryable_failures as f64,
    );
    l.put("cluster.mirror_drops", counters.mirror_drops as f64);
    drop(client);
    sut.stop();
    Ok(k2)
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `r7_wal`: the engine rung's updates through `lbsp_store::open_engine`
/// with an fsync per append, against the same engine without a journal.
fn rung_wal(inp: &Inputs, l: &mut Ladder) -> Result<(), String> {
    let homes = &inp.homes[..WAL_USERS];
    let rows: Vec<Row> = inp
        .update_stream
        .iter()
        .filter_map(|op| match op {
            Op::Update { user, pos, t } => Some((*user % WAL_USERS as u64, *pos, *t)),
            _ => None,
        })
        .take(900)
        .collect();
    let mut plain = sut::new_engine(ENGINE_THREADS, &inp.pois);
    sut::populate(&mut plain, homes)?;
    let plain_us = median_us(&mut time_updates(&mut plain, &rows));

    let dir = std::path::PathBuf::from(format!("{}/wal-{}", crate::out_dir(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = Durability {
        fsync: true,
        snapshot_every: 1024,
    };
    let open = || {
        lbsp_store::open_engine(&dir, sut::engine_config(), ENGINE_THREADS, policy)
            .map_err(|e| format!("WAL rung: {e}"))
    };
    let mut engine = open()?.engine;
    engine.load_public(inp.pois.clone());
    sut::populate(&mut engine, homes)?;
    // Set-up journals about a thousand mutations, so the 1024-mutation
    // snapshot falls in these first updates and not in the timed ones.
    let (head, timed) = rows.split_at(rows.len().min(64));
    time_updates(&mut engine, head);
    let stage = |e: &ShardedEngine, s: Stage| e.metrics_registry().stage(s).snapshot();
    let snapshots0 = stage(&engine, Stage::Snapshot).count;
    let (append0, fsync0) = (
        stage(&engine, Stage::WalAppend),
        stage(&engine, Stage::WalFsync),
    );
    let bytes0 = dir_bytes(&dir);
    let wal_us = median_us(&mut time_updates(&mut engine, timed));
    let bytes1 = dir_bytes(&dir);
    let (append1, fsync1) = (
        stage(&engine, Stage::WalAppend),
        stage(&engine, Stage::WalFsync),
    );
    if stage(&engine, Stage::Snapshot).count != snapshots0 {
        l.notes
            .push("store.wal_bytes_per_update: a snapshot fell inside the timed updates".into());
    }
    l.requests += 2 * rows.len() as u64;
    l.put_self("store.update_extra_us", wal_us, plain_us);
    l.put("store.append_us", mean_gained(&append0, &append1));
    l.put("store.fsync_us", mean_gained(&fsync0, &fsync1));
    l.put(
        "store.wal_bytes_per_update",
        bytes1.saturating_sub(bytes0) as f64 / timed.len().max(1) as f64,
    );
    drop(engine);
    let start = Instant::now();
    let reopened = open()?;
    l.put("store.recover_s", start.elapsed().as_secs_f64());
    l.put("store.recovered_ops", reopened.ops_replayed as f64);
    if !reopened.recovered || reopened.users != WAL_USERS {
        return Err(format!(
            "WAL rung: recovery found {} users, expected {WAL_USERS}",
            reopened.users
        ));
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// How much of the host's recent past sets the offered rates.
const FACTOR_WINDOW: Duration = Duration::from_secs(3);

/// The workload itself at 20 / 40 / 60 % of its frozen rate. The frozen
/// rate is at reference speed, so what is offered is scaled by the host
/// factor of the last seconds: the shares stay shares of what this host
/// can do now, and a slow quarter of an hour does not turn 60 % into an
/// overload.
fn load_phases(
    w: &Workload,
    seed: u64,
    secs: f64,
    clock: &mut HostClock,
    l: &mut Ladder,
) -> Result<workloads::Tally, String> {
    let mut fixture = workloads::setup(w, seed, 1)?.fixture;
    let now = Instant::now();
    let factor = clock.curve().mean(now - FACTOR_WINDOW, now);
    let mut phases = vec![Phase {
        name: "warmup",
        secs: secs * 0.05,
        rate: None,
    }];
    phases.extend(SHARES.iter().map(|(name, share)| Phase {
        name,
        secs: secs * 0.25,
        rate: Some(w.call_rate(*share) / factor),
    }));
    let logs = workloads::drive(w, &mut fixture, seed, &phases)?;
    let mut t = workloads::tally(&fixture, &phases, &logs);
    Fixture::stop(fixture);
    t.notes.push(format!(
        "load: host factor {factor:.4}; offered {:.0} / {:.0} / {:.0} calls/s",
        phases[1].rate.unwrap_or(0.0),
        phases[2].rate.unwrap_or(0.0),
        phases[3].rate.unwrap_or(0.0)
    ));
    let mut slo_rate = 0.0f64;
    let mut late = 0.0f64;
    for ((phase, logs), (_, share)) in phases.iter().zip(&logs).skip(1).zip(SHARES) {
        let lat = workloads::latencies(phase, logs, None, &mut t.notes);
        if phase.name != "r40" {
            l.put(&format!("load.{}.update_p50_us", phase.name), lat[0]);
        }
        l.put(&format!("load.{}.update_p95_us", phase.name), lat[1]);
        l.put(&format!("load.{}.query_p95_us", phase.name), lat[3]);
        late = late.max(load::late_p99_us(logs));
        let clean = logs.iter().all(|x| x.unsent == 0 && x.failed == 0);
        if clean && lat[1] <= w.update_limit_us && lat[3] <= w.query_limit_us {
            slo_rate = slo_rate.max(w.frozen_sat_rps * share);
        }
    }
    l.put("load.slo_rate_rps", slo_rate);
    l.put("load.late_p99_us", late);
    Ok(t)
}

/// The traced run: `--trace 1`.
pub fn run_traced(w: &Workload, seed: u64, secs: f64) -> Result<Report, String> {
    let began = Instant::now();
    let mut clock = HostClock::start();
    let out = crate::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{out}: {e}"))?;
    let n = (REQUESTS_PER_SEC as f64 * secs) as usize;
    let inp = Inputs::new(seed, n);
    let mut l = Ladder::default();
    // Three socket rungs, two streams, four spans a request.
    let mut rec = Recorder::new(n * 2 * 4 * 3 + 16);

    let (cloak, server) = rung_components(&inp, &mut l);
    let (engine, replies) = rung_engine(&inp, (cloak, server), &mut l)?;
    rung_standing(&inp, &mut l)?;
    let (codec, frames) = rung_wire(&replies, &mut l);
    let below_net = Medians {
        update: engine.update + codec.update + frames,
        query: engine.query + codec.query + frames,
    };
    let net = rung_net(&inp, below_net, &mut rec, secs, &mut l)?;
    let k2 = rung_cluster(&inp, net, &mut rec, &mut l)?;
    rung_wal(&inp, &mut l)?;
    let t = load_phases(w, seed, secs, &mut clock, &mut l)?;
    l.put("host.factor", clock.curve().mean(began, Instant::now()));

    // Every marginal cost of an update, summed, against the top rung.
    let marginal: f64 = [
        "anonymizer.cloak_us",
        "server.ingest_us",
        "engine.update_self_us",
        "wire.update_codec_us",
        "wire.frame_codec_us",
        "net.update_self_us",
        "cluster.hop_k1_update_us",
        "cluster.repl_k2_update_us",
    ]
    .iter()
    .filter_map(|name| l.get(name))
    .sum();
    l.put(
        "ladder.sum_vs_rtt_ratio",
        marginal / k2.update.max(f64::MIN_POSITIVE),
    );
    l.put("ladder.clamped_rungs", f64::from(l.clamped));
    l.put("trace.spans", rec.len() as f64);
    let path = format!("{out}/trace.jsonl");
    rec.write_jsonl(&path).map_err(|e| format!("{path}: {e}"))?;

    let mirror_drops = l.get("cluster.mirror_drops").unwrap_or(0.0);
    let late = l.get("load.late_p99_us").unwrap_or(0.0);
    let mut notes = l.notes.clone();
    notes.extend(t.notes);
    if mirror_drops > 0.0 {
        notes.push(format!("VIOLATION: {mirror_drops} mirror frames dropped"));
    }
    // Catalogue order, and nothing outside it.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            l.get(name)
                .map(|v| (name.to_string(), v))
                .ok_or_else(|| format!("traced run produced no {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Report {
        workload: w.name.to_string(),
        seed,
        trace: true,
        metrics,
        attempted: t.attempted + l.requests,
        failed: t.failed,
        correct: t.violations == 0 && mirror_drops == 0.0,
        valid: late <= w.late_cap_us(),
        notes,
    })
}
