//! A pipelined window crosses each hop in one write: the client queues
//! `send_only` frames and writes them together, the server reads them in
//! one sweep and serves a run of updates in one engine crossing, and the
//! replies leave in one `write_vectored` — resumed exactly, mid-frame,
//! when the socket takes only part of it.

use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{NetClient, NetConfig, NetServer, Reply, FRAME_OVERHEAD};
use std::time::{Duration, Instant};

fn engine() -> ShardedEngine {
    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
    ShardedEngine::new(EngineConfig::new(world), 1)
}

fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Long enough that a frame on the wire would have been served.
fn settle() {
    std::thread::sleep(Duration::from_millis(100));
}

/// `send_only` puts nothing on the wire until `read_reply`, `flush`,
/// `Drop` or 64 KiB of queued frames writes it.
#[test]
fn send_only_writes_nothing_until_a_read_a_flush_a_drop_or_64_kib() {
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::default()).unwrap();
    let served = || server.counters().snapshot().requests_served;
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    for i in 0..3u8 {
        client.send_only(wire::tag::PING, &[i]).unwrap();
    }
    settle();
    assert_eq!(served(), 0, "queued, not written");
    client.flush().unwrap();
    assert!(eventually(Duration::from_secs(5), || served() == 3));

    client.send_only(wire::tag::PING, b"read").unwrap();
    settle();
    assert_eq!(served(), 3, "queued behind nothing but itself");
    // The read writes the queue first, then finds the first pong.
    assert_eq!(client.read_reply().unwrap(), Reply::Pong(vec![0]));
    assert!(eventually(Duration::from_secs(5), || served() == 4));

    // Under 64 KiB waits; past it, the send itself writes.
    let half = vec![0x5A; 40 * 1024];
    client.send_only(wire::tag::PING, &half).unwrap();
    settle();
    assert_eq!(served(), 4, "40 KiB queued");
    client.send_only(wire::tag::PING, &half).unwrap();
    assert!(eventually(Duration::from_secs(5), || served() == 6));

    client.send_only(wire::tag::PING, b"drop").unwrap();
    settle();
    assert_eq!(served(), 6);
    drop(client);
    assert!(eventually(Duration::from_secs(5), || served() == 7));
    server.shutdown();
}

/// A 32-update window for 32 distinct users arrives in one read and is
/// exactly one engine crossing of 32 rows.
#[test]
fn a_window_of_32_distinct_updates_is_one_engine_crossing() {
    const WINDOW: u64 = 32;
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(1)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for user in 0..WINDOW {
        assert_eq!(
            client.register(user, 2, 0.0, f64::INFINITY).unwrap(),
            Reply::Ok
        );
    }
    let registry = server.metrics_registry();
    let batches0 = server.counters().snapshot().engine_batches;
    let sizes0 = registry.net_batch_size().snapshot();
    for user in 0..WINDOW {
        let p = Point::new(0.01 + 0.03 * user as f64, 0.5);
        client
            .update_send_only(user, p, SimTime::from_secs(1.0))
            .unwrap();
    }
    for user in 0..WINDOW {
        assert!(
            matches!(client.read_reply(), Ok(Reply::Cloaked(_))),
            "update of user {user}"
        );
    }
    let sizes = registry.net_batch_size().snapshot();
    assert_eq!(server.counters().snapshot().engine_batches - batches0, 1);
    assert_eq!(sizes.count - sizes0.count, 1, "one batch recorded");
    assert_eq!(sizes.sum - sizes0.sum, WINDOW as f64, "of 32 rows");
    drop(client);
    server.shutdown();
}

/// 64 pipelined 60 KiB pings, each payload distinct, read slowly: the
/// server's socket takes a fraction of its queue per `write_vectored`,
/// and every pong still comes back whole and in order, with `bytes_out`
/// the exact sum of the frames.
#[test]
fn large_pipelined_replies_survive_partial_writes_intact_and_in_order() {
    const PINGS: usize = 64;
    const LEN: usize = 60 * 1024;
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(1)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = |i: usize| -> Vec<u8> {
        (0..LEN)
            .map(|j| (i.wrapping_mul(31) ^ j.wrapping_mul(7)) as u8)
            .collect()
    };
    for i in 0..PINGS {
        client.send_only(wire::tag::PING, &payload(i)).unwrap();
    }
    client.flush().unwrap();
    // Let the server fill the socket and stall on it.
    settle();
    for i in 0..PINGS {
        match client.read_reply().unwrap() {
            Reply::Pong(body) => assert!(body == payload(i), "pong {i} differs"),
            other => panic!("pong {i}: {other:?}"),
        }
        if i % 8 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let want = (PINGS * (FRAME_OVERHEAD + LEN)) as u64;
    assert!(
        eventually(Duration::from_secs(5), || {
            server.counters().snapshot().bytes_out == want
        }),
        "bytes_out {} != {want}",
        server.counters().snapshot().bytes_out
    );
    assert_eq!(server.counters().snapshot().slow_disconnects, 0);
    drop(client);
    server.shutdown();
}
