//! Edge-case tests for the sharded readiness poller: partial frames at
//! every split point, decode-time accounting, idle-connection cost,
//! hostile framing, slow consumers, graceful drain with a batch in
//! flight, and what a quiet shard wakes for. These pin the behaviors the
//! event-driven rewrite must keep identical to the thread-per-connection
//! server it replaced.

use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::{wire, Stage};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{NetClient, NetConfig, NetServer, Reply, MAX_FRAME_LEN};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn engine() -> ShardedEngine {
    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
    ShardedEngine::new(EngineConfig::new(world), 1)
}

/// Polls `cond` for up to `timeout`, so counter assertions don't race
/// the poller's own sweep cadence.
fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// Encodes one wire frame by hand: u32 LE length of (tag + payload),
/// then the tag byte, then the payload.
fn raw_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() + 1) as u32;
    let mut out = Vec::with_capacity(payload.len() + 5);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(payload);
    out
}

/// Blocking read of one complete frame off a raw socket.
fn read_raw_frame(s: &mut TcpStream) -> std::io::Result<(u8, Vec<u8>)> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    let mut body = vec![0u8; len];
    s.read_exact(&mut body)?;
    let tag = body[0];
    Ok((tag, body[1..].to_vec()))
}

/// The resumable reader must survive a frame split at *every* byte
/// offset, with the tail of the split write carrying a second complete
/// frame — the poller has to finish the partial frame and then drain
/// the buffered one in the same sweep.
#[test]
fn frame_split_at_every_offset_resumes_exactly() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(2)).unwrap();
    let addr = server.local_addr();

    let first = raw_frame(wire::tag::PING, b"split-me");
    let second = raw_frame(wire::tag::PING, b"chaser");
    for cut in 1..first.len() {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&first[..cut]).unwrap();
        // Let the poller observe the partial frame across at least one
        // whole sweep before the rest arrives.
        std::thread::sleep(Duration::from_millis(15));
        let mut rest = first[cut..].to_vec();
        rest.extend_from_slice(&second);
        s.write_all(&rest).unwrap();

        let (tag, payload) = read_raw_frame(&mut s).unwrap();
        assert_eq!(
            (tag, payload.as_slice()),
            (wire::tag::PONG, &b"split-me"[..]),
            "cut at {cut}"
        );
        let (tag, payload) = read_raw_frame(&mut s).unwrap();
        assert_eq!(
            (tag, payload.as_slice()),
            (wire::tag::PONG, &b"chaser"[..]),
            "cut at {cut}"
        );
    }

    let snap = server.counters().snapshot();
    assert_eq!(snap.frames_rejected, 0);
    assert_eq!(snap.errors_returned, 0);
    server.shutdown();
}

/// Decode time bills only poll slices that consumed bytes. A client
/// trickling a frame two bytes at a time with long pauses must not
/// inflate `FrameDecode` by its think time — that was the
/// poll-start-to-frame-completion bug this pins down.
#[test]
fn trickling_client_is_not_billed_idle_decode_time() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(1)).unwrap();
    let addr = server.local_addr();

    let frame = raw_frame(wire::tag::PING, b"trickle");
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    for chunk in frame.chunks(2) {
        s.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    let (tag, payload) = read_raw_frame(&mut s).unwrap();
    assert_eq!(
        (tag, payload.as_slice()),
        (wire::tag::PONG, &b"trickle"[..])
    );
    let trickled_for = started.elapsed();
    assert!(
        trickled_for >= Duration::from_millis(300),
        "trickle finished implausibly fast: {trickled_for:?}"
    );

    let decode = server
        .metrics_registry()
        .stage(Stage::FrameDecode)
        .snapshot();
    assert!(decode.count >= 1, "frame decode was never recorded");
    // Microseconds; the trickle spanned >= 300_000 of them. Billing
    // only byte-consuming slices keeps the max far below that.
    assert!(
        decode.max < 100_000.0,
        "decode max {}us includes idle trickle gaps ({trickled_for:?} total)",
        decode.max
    );
    server.shutdown();
}

/// A hundred connections that never send a byte must cost nothing but
/// sweep reads: no engine crossings, no decode samples, no batches —
/// and every one of them still answers when finally spoken to.
#[test]
fn idle_connections_cost_no_engine_crossings() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(2)).unwrap();
    let addr = server.local_addr();

    let mut clients: Vec<NetClient> = (0..100)
        .map(|_| NetClient::connect(addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let obs = server.metrics_registry();
    let snap = server.counters().snapshot();
    assert_eq!(snap.requests_served, 0, "idle connections served requests");
    assert_eq!(
        snap.engine_batches, 0,
        "idle connections crossed the engine"
    );
    assert_eq!(obs.net_batch_size().count(), 0);
    assert_eq!(obs.stage(Stage::FrameDecode).snapshot().count, 0);
    assert_eq!(snap.idle_disconnects, 0);
    assert!(snap.connections_accepted >= 100);

    for (i, c) in clients.iter_mut().enumerate() {
        let probe = format!("probe-{i}").into_bytes();
        assert_eq!(c.ping(&probe).unwrap(), Reply::Pong(probe));
    }
    drop(clients);
    server.shutdown();
}

/// A length prefix past the frame cap dies before any allocation or
/// reply: the client reads clean EOF with zero reply bytes, and the
/// rejection is counted.
#[test]
fn oversized_frame_closes_with_empty_reply_stream() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(1)).unwrap();
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let claimed = (MAX_FRAME_LEN as u32) + 1;
    s.write_all(&claimed.to_le_bytes()).unwrap();
    s.write_all(&[wire::tag::PING, 0xFF, 0xFF]).unwrap();

    let mut buf = [0u8; 64];
    let n = s.read(&mut buf).unwrap_or(0);
    assert_eq!(
        n,
        0,
        "server replied to an oversized frame: {:?}",
        &buf[..n]
    );
    assert!(
        eventually(Duration::from_secs(5), || {
            server.counters().snapshot().frames_rejected >= 1
        }),
        "oversized frame was not counted as rejected"
    );
    server.shutdown();
}

/// With the outbound queue at its bound, the poller read-gates the
/// connection and the backpressure clock runs; a consumer that never
/// drains is disconnected as slow while a polite neighbor is unharmed.
#[test]
fn slow_consumer_with_full_outbound_queue_is_cut() {
    let cfg = NetConfig {
        workers: 1,
        outbound_bound: 2,
        write_timeout: Duration::from_millis(100),
        backpressure_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine(), cfg).unwrap();
    let addr = server.local_addr();

    let mut rogue = NetClient::connect(addr).unwrap();
    let payload = vec![0xAB; 64 * 1024];
    for _ in 0..4096 {
        if rogue.send_only(wire::tag::PING, &payload).is_err() {
            break;
        }
    }
    assert!(
        eventually(Duration::from_secs(10), || {
            server.counters().snapshot().slow_disconnects >= 1
        }),
        "full-queue consumer was never disconnected"
    );
    let mut polite = NetClient::connect(addr).unwrap();
    assert_eq!(polite.ping(b"hi").unwrap(), Reply::Pong(b"hi".to_vec()));
    drop(rogue);
    drop(polite);
    server.shutdown();
}

/// Shutdown initiated while a pipelined burst of updates sits on the
/// socket: the drain must process every request already sent — through
/// the batch path — and flush every reply before closing.
#[test]
fn graceful_drain_answers_requests_already_on_the_socket() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(1)).unwrap();
    let addr = server.local_addr();

    let mut c = NetClient::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(c.register(1, 2, 0.0, f64::INFINITY).unwrap(), Reply::Ok);
    assert_eq!(c.register(2, 2, 0.0, f64::INFINITY).unwrap(), Reply::Ok);

    const BURST: usize = 50;
    for i in 0..BURST {
        let user = 1 + (i as u64 % 2);
        let t = SimTime::from_secs(1.0 + i as f64 * 0.01);
        let frac = (i as f64) / (BURST as f64);
        c.update_send_only(user, Point::new(0.1 + 0.8 * frac, 0.5), t)
            .unwrap();
    }
    // On the socket before shutdown begins, not racing it.
    c.flush().unwrap();

    let drainer = std::thread::spawn(move || server.shutdown());
    let mut answered = 0usize;
    for i in 0..BURST {
        match c.read_reply() {
            Ok(Reply::Cloaked(_)) | Ok(Reply::Error(_)) => answered += 1,
            Ok(other) => panic!("update {i} got unexpected reply {other:?}"),
            Err(e) => panic!("update {i} lost in drain after {answered} replies: {e}"),
        }
    }
    assert_eq!(answered, BURST);
    let engine = drainer.join().unwrap();
    assert_eq!(engine.registered(), 2);
}

/// A quiet shard that waited on its socket sees everything else (a new
/// connection, another shard's push, shutdown) when its nap ends. The
/// kernel counts the wait's timeout in scheduler ticks and overruns it
/// by up to two (8 ms at 250 Hz, 20 ms at 100 Hz); the rest of this is
/// room for a loaded box.
const TICKS: Duration = Duration::from_millis(50);

/// A lone client on a shard that went quiet is answered at once: its
/// shard waits on the socket, not on a timer. Timer naps had reached
/// 12.8 – 25 ms after 30 ms of quiet, and such a ping waited about 21 ms.
#[test]
fn a_lone_client_after_quiet_is_answered_at_once() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(1)).unwrap();
    let mut c = NetClient::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut rtts: Vec<Duration> = (0..20)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(30));
            let probe = format!("quiet-{i}").into_bytes();
            let sent = Instant::now();
            assert_eq!(c.ping(&probe).unwrap(), Reply::Pong(probe));
            sent.elapsed()
        })
        .collect();
    rtts.sort();
    assert!(
        rtts[10] < Duration::from_millis(5),
        "median round trip after quiet {:?} (all: {rtts:?})",
        rtts[10]
    );
    drop(c);
    server.shutdown();
}

/// The subscriber is alone on its shard and sends nothing, so the shard
/// waits on that quiet socket; a delta pushed from the other shard still
/// reaches it when the nap ends, within `read_poll`.
#[test]
fn a_push_reaches_a_subscriber_whose_shard_waits_on_its_quiet_socket() {
    let cfg = NetConfig {
        workers: 2,
        read_poll: Duration::from_millis(100),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine(), cfg).unwrap();
    let addr = server.local_addr();
    // Round-robin placement: the watcher on one shard, the mover on the
    // other.
    let mut watcher = TcpStream::connect(addr).unwrap();
    watcher.set_nodelay(true).unwrap();
    watcher
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut mover = NetClient::connect(addr).unwrap();
    mover
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
    let msg = wire::RegisterStandingCountMsg { area: world };
    watcher
        .write_all(&raw_frame(
            wire::tag::REGISTER_STANDING_COUNT,
            &wire::encode_register_standing_count(&msg),
        ))
        .unwrap();
    let (tag, _) = read_raw_frame(&mut watcher).unwrap();
    assert_eq!(tag, wire::tag::STANDING_REGISTERED);
    assert_eq!(mover.register(1, 1, 0.0, f64::INFINITY).unwrap(), Reply::Ok);

    // Long enough for the watcher's shard to reach its longest nap.
    std::thread::sleep(Duration::from_millis(250));
    match mover
        .update(1, Point::new(0.5, 0.5), SimTime::from_secs(1.0))
        .unwrap()
    {
        Reply::Cloaked(_) => {}
        other => panic!("update: {other:?}"),
    }
    let moved = Instant::now();
    let (tag, payload) = read_raw_frame(&mut watcher).unwrap();
    let took = moved.elapsed();
    assert_eq!(tag, wire::tag::STANDING_DELTA);
    let Some(wire::StandingState::Count(state)) = wire::decode_standing_state(&payload) else {
        panic!("count delta expected");
    };
    assert_eq!(state.possible, 1);
    assert!(
        took < cfg.read_poll + TICKS,
        "the push waited {took:?} for a shard with read_poll {:?}",
        cfg.read_poll
    );
    drop(watcher);
    drop(mover);
    server.shutdown();
}

/// An idle client's shard waits on its socket; shutdown is still seen
/// when the nap ends, and the quiet connection drains at once.
#[test]
fn shutdown_with_an_idle_client_returns_within_drain_grace_and_one_nap() {
    let cfg = NetConfig {
        workers: 1,
        read_poll: Duration::from_millis(50),
        drain_grace: Duration::from_millis(200),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine(), cfg).unwrap();
    let mut idle = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(idle.ping(b"hi").unwrap(), Reply::Pong(b"hi".to_vec()));
    std::thread::sleep(Duration::from_millis(200));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        drop(server.shutdown());
        let _ = done_tx.send(());
    });
    let bound = cfg.drain_grace + cfg.read_poll + TICKS;
    assert!(
        done_rx.recv_timeout(bound * 10).is_ok(),
        "shutdown did not return"
    );
    let took = started.elapsed();
    assert!(took < bound, "shutdown took {took:?}, bound {bound:?}");
    drop(idle);
}

/// Two connections on one shard: the shard cannot wait on both sockets,
/// so it sleeps its naps, and after quiet each is still answered within
/// one nap.
#[test]
fn a_shard_holding_two_connections_answers_both() {
    let cfg = NetConfig {
        workers: 1,
        read_poll: Duration::from_millis(20),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine(), cfg).unwrap();
    let mut clients: Vec<NetClient> = (0..2)
        .map(|_| NetClient::connect(server.local_addr()).unwrap())
        .collect();
    for round in 0..5 {
        std::thread::sleep(Duration::from_millis(30));
        for (i, c) in clients.iter_mut().enumerate() {
            let probe = format!("{round}-{i}").into_bytes();
            let sent = Instant::now();
            assert_eq!(c.ping(&probe).unwrap(), Reply::Pong(probe));
            let took = sent.elapsed();
            assert!(
                took < cfg.read_poll + TICKS,
                "client {i} waited {took:?} in round {round}"
            );
        }
    }
    drop(clients);
    server.shutdown();
}
