//! Behavioral tests for the transport's protective paths: slow
//! consumers, hostile frames, idle peers, and graceful shutdown. Every
//! scenario must end in a clean disconnect with the right counter
//! bumped — never a panic, never unbounded buffering — and the server
//! must keep serving other connections afterwards.

use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire;
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
/// the server's own cleanup threads.
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

/// A consumer that pipelines large requests but never reads replies
/// fills the socket and the bounded outbound queue; the server must
/// disconnect it (bounded memory, bounded stall) and stay healthy.
#[test]
fn slow_consumer_is_disconnected_not_buffered() {
    let cfg = NetConfig {
        outbound_bound: 2,
        write_timeout: Duration::from_millis(100),
        backpressure_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine(), cfg).unwrap();
    let addr = server.local_addr();

    let mut rogue = NetClient::connect(addr).unwrap();
    let payload = vec![0xAB; 64 * 1024];
    // Pipeline far more echo traffic than the loopback buffers plus the
    // bounded queue can hold, without ever reading a reply. The send
    // loop ends when the server kills the connection.
    let mut sent = 0u32;
    for _ in 0..4096 {
        match rogue.send_only(lbsp_core::wire::tag::PING, &payload) {
            Ok(()) => sent += 1,
            Err(_) => break,
        }
    }
    assert!(
        eventually(Duration::from_secs(10), || {
            server.counters().snapshot().slow_disconnects >= 1
        }),
        "server never recorded the slow disconnect (sent {sent} frames)"
    );

    // The server is still alive for well-behaved clients.
    let mut polite = NetClient::connect(addr).unwrap();
    assert_eq!(polite.ping(b"hi").unwrap(), Reply::Pong(b"hi".to_vec()));

    let snap = server.counters().snapshot();
    assert!(snap.slow_disconnects >= 1);
    drop(rogue);
    drop(polite);
    server.shutdown();
}

/// A length prefix larger than the frame cap is rejected *before* any
/// allocation; the connection dies cleanly and the server keeps going.
#[test]
fn oversized_frame_is_rejected_without_panic() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    // Claim a body of MAX_FRAME_LEN + 1 bytes — hostile, never legal.
    let bogus = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
    raw.write_all(&bogus).unwrap();
    raw.write_all(&[0u8; 16]).unwrap();
    // The server closes on us; the read drains to EOF without a reply.
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = Vec::new();
    let _ = raw.read_to_end(&mut sink);
    assert!(sink.is_empty(), "no reply frame for a rejected frame");

    assert!(eventually(Duration::from_secs(5), || {
        server.counters().snapshot().frames_rejected >= 1
    }));

    let mut client = NetClient::connect(addr).unwrap();
    assert_eq!(client.ping(b"ok").unwrap(), Reply::Pong(b"ok".to_vec()));
    drop(client);
    server.shutdown();
}

/// Shutdown drains requests already buffered on the socket: a client
/// that pipelined 50 updates before shutdown still gets all 50 replies,
/// and the returned engine reflects them.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.register(1, 2, 0.0, f64::INFINITY).unwrap(),
        Reply::Ok
    );

    for i in 0..50u32 {
        let p = Point::new(0.3 + f64::from(i) * 0.001, 0.5);
        client
            .update_send_only(1, p, SimTime::from_secs(f64::from(i)))
            .unwrap();
    }
    // The burst is queued on the client until written.
    client.flush().unwrap();
    // Give loopback a moment to land the frames in the server's socket
    // buffer, then shut down while none of them have been read by us.
    std::thread::sleep(Duration::from_millis(200));
    let shutdown = std::thread::spawn(move || server.shutdown());

    let mut cloaked = 0;
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    loop {
        match client.read_reply() {
            Ok(Reply::Cloaked(_)) => cloaked += 1,
            Ok(other) => panic!("unexpected reply {other:?}"),
            Err(_) => break,
        }
    }
    assert_eq!(cloaked, 50, "every pipelined update was answered");

    let engine = shutdown.join().unwrap();
    assert_eq!(engine.population(), 1);
    assert_eq!(engine.private_len(), 1);
}

/// An update whose position or time is NaN or infinite is refused with
/// an ERROR like any malformed row: it never reaches the engine, and the
/// connection stays up for the next request.
#[test]
fn non_finite_update_is_refused_and_the_connection_stays_up() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.register(1, 1, 0.0, f64::INFINITY).unwrap(),
        Reply::Ok
    );
    let t = SimTime::from_secs(1.0);
    let good = wire::encode_exact_update(&wire::ExactUpdateMsg {
        user: 1,
        position: Point::new(0.5, 0.5),
        time: t,
    });
    // x, y and time overwritten in the row's bytes.
    let bad = [(8, f64::NAN), (16, f64::INFINITY), (24, f64::NEG_INFINITY)];
    for (at, v) in bad {
        let mut row = good.to_vec();
        row[at..at + 8].copy_from_slice(&v.to_le_bytes());
        match client.request(wire::tag::EXACT_UPDATE, &row).unwrap() {
            Reply::Error(_) => {}
            other => panic!("{v} at byte {at} answered {other:?}"),
        }
    }
    assert_eq!(server.counters().snapshot().frames_rejected, 3);
    assert!(matches!(
        client.update(1, Point::new(0.5, 0.5), t).unwrap(),
        Reply::Cloaked(_)
    ));
    assert_eq!(client.ping(b"up").unwrap(), Reply::Pong(b"up".to_vec()));
    drop(client);
    let engine = server.shutdown();
    assert_eq!(engine.population(), 1);
}

/// A connection that goes quiet past the idle timeout is closed and
/// counted; an active one is not.
#[test]
fn idle_connections_time_out() {
    let cfg = NetConfig {
        idle_timeout: Duration::from_millis(150),
        read_poll: Duration::from_millis(10),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine(), cfg).unwrap();
    let mut idle = NetClient::connect(server.local_addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Prove the connection was live, then go silent.
    assert_eq!(idle.ping(b"x").unwrap(), Reply::Pong(b"x".to_vec()));
    let err = match idle.read_reply() {
        Ok(r) => panic!("unexpected reply {r:?}"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
    assert!(eventually(Duration::from_secs(5), || {
        server.counters().snapshot().idle_disconnects >= 1
    }));
    server.shutdown();
}
