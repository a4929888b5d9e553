//! The sharded readiness loop at the heart of [`crate::FrontDoor`].
//!
//! Std-only event-driven serving: with no `libc` (and `unsafe`
//! forbidden) there is no `epoll`, so readiness is discovered by
//! *sweeping* — each of N poller shards owns a set of **nonblocking**
//! sockets and loops over them, pulling whatever bytes are available,
//! writing whatever the sockets will take, and idling (below) only
//! when a whole sweep made no progress. A shard serves hundreds of
//! connections from one thread; idle connections cost one nonblocking
//! `read` per sweep instead of a dedicated blocked thread each, and
//! the sweep cadence (bounded by `read_poll`) is paid per *shard*, not
//! per connection.
//!
//! Each connection keeps a [`FrameReader`] — one buffer, filled by one
//! `read` per sweep in the common case: the frames it brought are taken
//! out of the buffer, and when the read came back short the reader says
//! [`Poll::Drained`] rather than ask a socket it knows to be empty. A
//! frame split across `WouldBlock` boundaries at any byte offset
//! resumes exactly where it stopped. Frames completed during one read
//! sweep are collected in arrival order and handed to the door's
//! [`Service`] in one call, so a service can amortize a lock
//! acquisition or a journal append over everything the sweep found
//! ready. The shard answers `PING` and `STATS` itself, in place.
//!
//! Fairness: the read sweep starts at a rotating offset and takes at
//! most [`FRAMES_PER_SWEEP`] frames per connection per sweep — what was
//! read beyond that waits in the connection's buffer — so one firehose
//! client cannot starve its shard-mates. A connection whose outbound
//! queue is at its bound is not read at all (read-gating): backpressure
//! propagates to the peer's socket, and what the connection holds on
//! the server stays at its queue plus one read buffer (4 KiB, or one
//! frame).
//!
//! The disconnect doctrine:
//!
//! * **BadFrame** — protocol violation from the reader (zero,
//!   oversized, or truncated frame): counted in `frames_rejected`.
//! * **Slow** — the socket write stalled past `write_timeout`, or the
//!   outbound queue stayed over its bound past `backpressure_timeout`:
//!   counted in `slow_disconnects`, pending output discarded.
//! * **Idle** — no complete frame within `idle_timeout`: counted in
//!   `idle_disconnects`.
//! * **Normal** — peer EOF or graceful drain; buffered replies are
//!   flushed before the socket closes.
//!
//! Shutdown drains: a shard that sees the shutdown flag gives every
//! connection up to `drain_grace` to finish the requests already on
//! its socket (two consecutive quiet polls with nothing buffered and
//! nothing queued = drained), then exits once its connection set is
//! empty and the acceptor has hung up.
//!
//! Idle: a sweep that did nothing climbs one rung of a ladder
//! ([`idle_step`]); any work drops the shard back to the bottom.
//!
//! * **Sweeps 1–8 spin**, but only when the shard's CPU budget
//!   (`available_parallelism`, which honours the affinity mask and the
//!   cgroup quota) is more than one CPU, or unknown. The bytes a spin
//!   waits for come from a peer — a client, the router, another
//!   shard's service — and with one CPU that peer cannot run while the
//!   shard spins, so there these sweeps yield instead.
//! * **Sweeps 9–63 yield.**
//! * **From sweep 64 the shard naps**, 100 µs doubling to `read_poll`
//!   (1 ms while draining). A shard holding exactly one open
//!   connection with nothing queued to write spends the nap waiting on
//!   that socket: a blocking one-byte `peek` with the nap as its read
//!   timeout, so bytes, EOF or an error end it at once. That is every
//!   cluster node's shard holding its router connection, and a
//!   front door with one client. A shard with no connection, or
//!   several, sleeps. Either way a new connection, a standing-delta
//!   push from another shard, the idle timeout and the shutdown flag
//!   are seen when the nap ends. Only epoll could wake a shard with
//!   several sockets, and that needs `unsafe`.
//!
//! The kernel keeps a socket read timeout in scheduler ticks and rounds
//! it up, so a wait that times out runs past its nap: with 4 ms ticks
//! (a two-vCPU x86-64 VM) a 100 µs wait timed out after 4.3–12.3 ms and
//! a 25 ms one after 29–32 ms, where a sleep overran by 50–150 µs.
//! Events other than bytes on the socket are therefore seen within one
//! nap plus up to two ticks.

use crate::frame::{frame_bytes, Frame, FrameReader, Poll};
use crate::server::{
    builtin_reply, is_builtin, unsubscribe_connection, CloseReason, NetConfig, Outbound, Service,
    SharedSubs,
};
use lbsp_core::metrics::NetCounters;
use lbsp_core::{wire, MetricsRegistry, Stage};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames one connection may contribute to a single read sweep before
/// the shard moves on (fairness bound; also caps how far the outbound
/// queue can overshoot its bound within one sweep).
pub(crate) const FRAMES_PER_SWEEP: usize = 32;

/// Queued frames one `write_vectored` offers the socket: a sweep's
/// replies to one connection ([`FRAMES_PER_SWEEP`]) plus the deltas
/// pushed to it, in the common case.
const IOV_PER_WRITE: usize = 64;

/// One outbound frame, already encoded, with a resumable write offset.
struct OutFrame {
    bytes: Vec<u8>,
    written: usize,
    enqueued: Instant,
}

/// One nonblocking connection owned by a shard.
struct Conn {
    stream: TcpStream,
    conn_id: u64,
    reader: FrameReader,
    outbound: VecDeque<OutFrame>,
    /// Best-effort standing-delta pushes from *other* connections'
    /// requests (the sender half lives in the subscription registry).
    push_rx: mpsc::Receiver<Outbound>,
    last_frame: Instant,
    /// When the current front-of-queue write first hit `WouldBlock`.
    stalled_since: Option<Instant>,
    /// Decode time of the frame currently in flight, accumulated only
    /// over polls that actually consumed bytes — a poll that found the
    /// socket empty is the connection being quiet, not decode work.
    decode_acc: Duration,
    /// Consecutive read polls that consumed nothing (drain detector).
    quiet_streak: u32,
    close: Option<CloseReason>,
}

/// Wraps a fresh connection from the acceptor into shard state:
/// nonblocking mode, a frame reader, and a registered delta-push queue.
fn adopt(
    stream: TcpStream,
    cfg: &NetConfig,
    subs: &SharedSubs,
    conn_ids: &Arc<AtomicU64>,
) -> io::Result<Conn> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true).ok();
    let conn_id = conn_ids.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mpsc::sync_channel::<Outbound>(cfg.outbound_bound.max(1));
    subs.lock().senders.insert(conn_id, tx);
    Ok(Conn {
        stream,
        conn_id,
        reader: FrameReader::new(cfg.max_frame),
        outbound: VecDeque::new(),
        push_rx: rx,
        last_frame: Instant::now(),
        stalled_since: None,
        decode_acc: Duration::ZERO,
        quiet_streak: 0,
        close: None,
    })
}

/// Encodes and queues one outbound frame on the connection that owns
/// `cid`. An encoding failure (reply larger than `max_frame`) is
/// treated like a writer failure: the connection is marked slow.
fn enqueue_outbound(
    conns: &mut [Conn],
    index: &HashMap<u64, usize>,
    cid: u64,
    out: Outbound,
    cfg: &NetConfig,
) {
    let Some(&slot) = index.get(&cid) else {
        return;
    };
    let Some(conn) = conns.get_mut(slot) else {
        return;
    };
    let (tag, payload) = out;
    match frame_bytes(tag, &payload, cfg.max_frame) {
        Ok(bytes) => conn.outbound.push_back(OutFrame {
            bytes,
            written: 0,
            enqueued: Instant::now(),
        }),
        Err(_) => conn.close = Some(CloseReason::Slow),
    }
}

/// Accounts `n` bytes the socket took from the front of `conn`'s queue:
/// every frame they complete is counted (`bytes_out`, its outbound
/// wait) and dropped, and a frame they end inside keeps its offset.
fn written_out(conn: &mut Conn, mut n: usize, obs: &MetricsRegistry) {
    while let Some(front) = conn.outbound.front_mut() {
        let left = front.bytes.len().saturating_sub(front.written);
        if n < left {
            front.written = front.written.saturating_add(n);
            return;
        }
        n -= left;
        NetCounters::add(&obs.net().bytes_out, front.bytes.len() as u64);
        obs.stage(Stage::OutboundWait)
            .record_duration(front.enqueued.elapsed());
        conn.outbound.pop_front();
    }
}

/// Serves one shard's connection set to completion. Adopts connections
/// from `incoming` until the acceptor hangs up; exits after shutdown
/// once every connection has drained (bounded by `drain_grace`).
/// `cpus` is the CPU budget the shard runs under, if known (see
/// [`idle_step`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard(
    service: Arc<dyn Service>,
    obs: Arc<MetricsRegistry>,
    cfg: NetConfig,
    shutdown: Arc<AtomicBool>,
    subs: SharedSubs,
    conn_ids: Arc<AtomicU64>,
    incoming: mpsc::Receiver<TcpStream>,
    cpus: Option<usize>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut rotate: usize = 0;
    let mut spins: u32 = 0;
    let mut drain_deadline: Option<Instant> = None;
    let mut incoming_open = true;

    loop {
        let draining = shutdown.load(Ordering::Relaxed);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + cfg.drain_grace);
        }
        let mut did_work = false;

        // Phase 1: adopt connections handed over by the acceptor. A
        // connection that arrives after shutdown began is closed, not
        // served.
        while incoming_open {
            match incoming.try_recv() {
                Ok(stream) => {
                    did_work = true;
                    if draining {
                        let _ = stream.shutdown(Shutdown::Both);
                        NetCounters::add(&obs.net().connections_closed, 1);
                        continue;
                    }
                    match adopt(stream, &cfg, &subs, &conn_ids) {
                        Ok(conn) => conns.push(conn),
                        Err(_) => NetCounters::add(&obs.net().connections_closed, 1),
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => incoming_open = false,
            }
        }

        // Phase 2: absorb standing-delta pushes from other connections'
        // requests (best-effort: the bounded channel already dropped
        // anything beyond the queue bound at send time). Drained
        // *before* this sweep's requests are processed so a push that
        // was already waiting is written ahead of any reply produced
        // by this sweep — a subscriber that sends a request after the
        // delta was routed reads the delta first.
        for conn in &mut conns {
            while let Ok((tag, payload)) = conn.push_rx.try_recv() {
                did_work = true;
                match frame_bytes(tag, &payload, cfg.max_frame) {
                    Ok(bytes) => conn.outbound.push_back(OutFrame {
                        bytes,
                        written: 0,
                        enqueued: Instant::now(),
                    }),
                    Err(_) => conn.close = Some(CloseReason::Slow),
                }
            }
        }

        // Phase 3: read sweep. Rotating start offset + a per-connection
        // frame cap keep one busy peer from starving the rest; ready
        // frames are collected in arrival order for batch processing.
        let mut ready: Vec<(u64, Frame)> = Vec::new();
        let live = conns.len();
        for step in 0..live {
            let idx = rotate.wrapping_add(step) % live.max(1);
            let Some(conn) = conns.get_mut(idx) else {
                continue;
            };
            if conn.close.is_some() {
                continue;
            }
            // Read-gating: a connection whose replies are backed up is
            // not read further — backpressure lands on the peer's
            // socket, not on server memory.
            if conn.outbound.len() >= cfg.outbound_bound.max(1) {
                continue;
            }
            let mut taken = 0usize;
            while taken < FRAMES_PER_SWEEP {
                let before = conn.reader.buffered();
                let poll_start = Instant::now();
                match conn.reader.poll(&mut &conn.stream) {
                    Ok(Poll::Frame(frame)) => {
                        did_work = true;
                        obs.stage(Stage::FrameDecode)
                            .record_duration(conn.decode_acc + poll_start.elapsed());
                        conn.decode_acc = Duration::ZERO;
                        conn.last_frame = Instant::now();
                        conn.quiet_streak = 0;
                        NetCounters::add(&obs.net().bytes_in, frame.wire_len() as u64);
                        ready.push((conn.conn_id, frame));
                        taken = taken.saturating_add(1);
                    }
                    Ok(Poll::Pending | Poll::Drained) => {
                        if conn.reader.buffered() > before {
                            // Bytes arrived but the frame is still
                            // incomplete: this slice is decode work.
                            // A slice that consumed nothing is the
                            // connection sitting quiet — billing it
                            // here was the old frame-decode inflation
                            // bug.
                            conn.decode_acc = conn.decode_acc.saturating_add(poll_start.elapsed());
                            conn.quiet_streak = 0;
                            did_work = true;
                        } else {
                            conn.quiet_streak = conn.quiet_streak.saturating_add(1);
                        }
                        break;
                    }
                    Ok(Poll::Eof) => {
                        conn.close = Some(CloseReason::Normal);
                        break;
                    }
                    Err(e) => {
                        conn.close = Some(match e.kind() {
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => {
                                CloseReason::BadFrame
                            }
                            _ => CloseReason::Normal,
                        });
                        break;
                    }
                }
            }
            if conn.close.is_none() && !draining && conn.last_frame.elapsed() > cfg.idle_timeout {
                conn.close = Some(CloseReason::Idle);
            }
        }
        rotate = rotate.wrapping_add(1);

        // Phase 4: serve the ready frames in arrival order — built-in
        // probes here, each run of everything else in one `serve` call.
        // Frames read before a connection's close was discovered still
        // get replies — they were accepted, and Normal/BadFrame closes
        // flush before the socket shuts. A request is counted once it
        // has been served, so a scrape never counts itself.
        if !ready.is_empty() {
            did_work = true;
            let index: HashMap<u64, usize> = conns
                .iter()
                .enumerate()
                .map(|(i, c)| (c.conn_id, i))
                .collect();
            let mut emit = |served: usize, frames: Vec<(u64, Outbound)>| {
                let errors = frames
                    .iter()
                    .filter(|(_, (tag, _))| *tag == wire::tag::ERROR)
                    .count();
                NetCounters::add(&obs.net().requests_served, served as u64);
                if errors > 0 {
                    NetCounters::add(&obs.net().errors_returned, errors as u64);
                }
                for (to, out) in frames {
                    enqueue_outbound(&mut conns, &index, to, out, &cfg);
                }
            };
            let mut it = ready.into_iter().peekable();
            while let Some((cid, frame)) = it.next() {
                if is_builtin(frame.tag) {
                    emit(1, vec![(cid, builtin_reply(&obs, frame))]);
                    continue;
                }
                let mut run = vec![(cid, frame)];
                run.extend(std::iter::from_fn(|| {
                    it.next_if(|(_, f)| !is_builtin(f.tag))
                }));
                emit(run.len(), service.serve(run, &subs));
            }
        }

        // Phase 5: write sweep. Each connection writes as much of its
        // queue as its socket will take — every queued frame in one
        // `write_vectored`, resumed mid-frame next time round; a stall
        // past `write_timeout` or a queue stuck over its bound past
        // `backpressure_timeout` marks the consumer slow — even a
        // connection already closing normally.
        for conn in &mut conns {
            if matches!(conn.close, Some(CloseReason::Slow)) {
                continue;
            }
            loop {
                if conn.outbound.is_empty() {
                    conn.stalled_since = None;
                    break;
                }
                let mut slices = [IoSlice::new(&[]); IOV_PER_WRITE];
                let mut count = 0usize;
                for (slot, frame) in slices.iter_mut().zip(&conn.outbound) {
                    *slot = IoSlice::new(frame.bytes.get(frame.written..).unwrap_or_default());
                    count = count.saturating_add(1);
                }
                let slices = slices.get(..count).unwrap_or_default();
                match (&conn.stream).write_vectored(slices) {
                    Ok(0) => {
                        conn.close = Some(CloseReason::Slow);
                        break;
                    }
                    Ok(n) => {
                        did_work = true;
                        conn.stalled_since = None;
                        written_out(conn, n, &obs);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        let since = *conn.stalled_since.get_or_insert_with(Instant::now);
                        if since.elapsed() > cfg.write_timeout {
                            conn.close = Some(CloseReason::Slow);
                        }
                        break;
                    }
                    Err(_) => {
                        conn.close = Some(CloseReason::Slow);
                        break;
                    }
                }
            }
            if conn.close.is_none() {
                if let Some(front) = conn.outbound.front() {
                    if conn.outbound.len() > cfg.outbound_bound.max(1)
                        && front.enqueued.elapsed() > cfg.backpressure_timeout
                    {
                        conn.close = Some(CloseReason::Slow);
                    }
                }
            }
        }

        // Phase 6: graceful drain. A connection is drained when two
        // consecutive polls consumed nothing, no partial frame is
        // buffered, and every reply has been flushed; past the grace
        // deadline connections are closed regardless.
        let deadline_passed = drain_deadline.is_some_and(|d| Instant::now() > d);
        if draining {
            for conn in &mut conns {
                if conn.close.is_none()
                    && ((conn.quiet_streak >= 2
                        && conn.reader.buffered() == 0
                        && conn.outbound.is_empty())
                        || deadline_passed)
                {
                    conn.close = Some(CloseReason::Normal);
                }
            }
        }

        // Phase 7: finalize closes. Slow consumers are cut immediately
        // (their queue is the problem); every other reason flushes its
        // outbound first, unless the drain deadline has passed.
        let mut idx = 0;
        while idx < conns.len() {
            let should_close = conns.get(idx).is_some_and(|c| match &c.close {
                None => false,
                Some(CloseReason::Slow) => true,
                Some(_) => c.outbound.is_empty() || deadline_passed,
            });
            if !should_close {
                idx = idx.saturating_add(1);
                continue;
            }
            let conn = conns.swap_remove(idx);
            unsubscribe_connection(&subs, conn.conn_id);
            let _ = conn.stream.shutdown(Shutdown::Both);
            let counters = obs.net();
            match conn.close {
                Some(CloseReason::BadFrame) => NetCounters::add(&counters.frames_rejected, 1),
                Some(CloseReason::Slow) => NetCounters::add(&counters.slow_disconnects, 1),
                Some(CloseReason::Idle) => NetCounters::add(&counters.idle_disconnects, 1),
                _ => {}
            }
            NetCounters::add(&counters.connections_closed, 1);
            did_work = true;
        }

        // Exit: shutting down, everything drained, acceptor gone.
        if draining && conns.is_empty() && !incoming_open {
            break;
        }

        // Phase 8: the idle ladder (module docs, "Idle").
        if did_work {
            spins = 0;
            continue;
        }
        spins = spins.saturating_add(1);
        let open = conns.iter().filter(|c| c.close.is_none()).count();
        let queued = conns.iter().any(|c| !c.outbound.is_empty());
        match idle_step(spins, cpus, open, queued, cfg.read_poll, draining) {
            Idle::Spin => std::hint::spin_loop(),
            Idle::Yield => std::thread::yield_now(),
            Idle::Sleep(nap) => std::thread::sleep(nap),
            Idle::Wait(nap) => {
                if let Some(conn) = conns.iter_mut().find(|c| c.close.is_none()) {
                    if !wait_readable(&conn.stream, nap) {
                        conn.close = Some(CloseReason::Normal);
                    }
                }
            }
        }
    }
}

/// What a shard does after a sweep that found nothing to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Idle {
    /// Busy-wait one sweep.
    Spin,
    /// Offer the CPU to another thread for one sweep.
    Yield,
    /// Sleep this long.
    Sleep(Duration),
    /// Block on the shard's one connection until it is readable, or
    /// this long.
    Wait(Duration),
}

/// The idle ladder, for the `empty`th consecutive sweep that found
/// nothing (counted from 1). Sweeps 1–8 spin, or yield when `cpus` says
/// the shard has one CPU to itself (`None`: unknown, spin); sweeps
/// 9–63 yield; from sweep 64 the shard naps 100 µs, doubling each sweep
/// up to `read_poll` (1 ms while draining). A nap is a [`Idle::Wait`]
/// on the socket when the shard holds exactly one open connection and
/// nothing is queued to write, and a [`Idle::Sleep`] otherwise.
fn idle_step(
    empty: u32,
    cpus: Option<usize>,
    open: usize,
    queued: bool,
    read_poll: Duration,
    draining: bool,
) -> Idle {
    if empty <= 8 {
        return if cpus == Some(1) {
            Idle::Yield
        } else {
            Idle::Spin
        };
    }
    if empty < 64 {
        return Idle::Yield;
    }
    let mut nap = Duration::from_micros(100u64 << empty.saturating_sub(64).min(8));
    nap = nap.min(read_poll.max(Duration::from_micros(100)));
    if draining {
        nap = nap.min(Duration::from_millis(1));
    }
    if open == 1 && !queued {
        Idle::Wait(nap)
    } else {
        Idle::Sleep(nap)
    }
}

/// Blocks until `stream` has bytes, reads EOF or fails, or `nap` has
/// passed: a blocking one-byte `peek` with `nap` as its read timeout,
/// between two mode switches. The socket keeps whatever arrived for the
/// next sweep's read. Returns `false` when the socket could not be put
/// back into nonblocking mode, so the caller closes it rather than let
/// a later read block the shard.
fn wait_readable(stream: &TcpStream, nap: Duration) -> bool {
    let armed = stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_read_timeout(Some(nap)));
    match armed {
        Ok(()) => drop(stream.peek(&mut [0u8; 1])),
        Err(_) => std::thread::sleep(nap),
    }
    stream.set_nonblocking(true).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const POLL: Duration = Duration::from_millis(25);

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn one_cpu_never_spins() {
        for empty in 1..200 {
            for open in 0..3 {
                for queued in [false, true] {
                    for draining in [false, true] {
                        assert_ne!(
                            idle_step(empty, Some(1), open, queued, POLL, draining),
                            Idle::Spin,
                            "sweep {empty}, {open} open"
                        );
                    }
                }
            }
        }
        assert_eq!(idle_step(1, Some(1), 1, false, POLL, false), Idle::Yield);
        assert_eq!(idle_step(8, Some(1), 1, false, POLL, false), Idle::Yield);
    }

    #[test]
    fn two_cpus_or_an_unknown_count_spin_for_eight_sweeps() {
        for cpus in [Some(2), Some(64), None] {
            for empty in 1..=8 {
                assert_eq!(idle_step(empty, cpus, 1, false, POLL, false), Idle::Spin);
            }
            for empty in 9..64 {
                assert_eq!(idle_step(empty, cpus, 1, false, POLL, false), Idle::Yield);
            }
            assert_eq!(
                idle_step(64, cpus, 0, false, POLL, false),
                Idle::Sleep(us(100))
            );
        }
    }

    #[test]
    fn only_one_open_connection_with_nothing_queued_waits_on_its_socket() {
        for cpus in [Some(1), Some(2)] {
            assert_eq!(
                idle_step(64, cpus, 1, false, POLL, false),
                Idle::Wait(us(100))
            );
            assert_eq!(
                idle_step(64, cpus, 1, true, POLL, false),
                Idle::Sleep(us(100))
            );
            for open in [0, 2, 3, 500] {
                for queued in [false, true] {
                    assert_eq!(
                        idle_step(64, cpus, open, queued, POLL, false),
                        Idle::Sleep(us(100)),
                        "{open} open"
                    );
                }
            }
        }
    }

    #[test]
    fn naps_double_from_100us_capped_by_read_poll_and_by_1ms_while_draining() {
        let nap = |empty, read_poll, draining| match idle_step(
            empty, None, 0, false, read_poll, draining,
        ) {
            Idle::Sleep(d) => d,
            other => panic!("sweep {empty}: {other:?}"),
        };
        let wanted = [
            100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_000, 25_000,
        ];
        for (i, want) in wanted.into_iter().enumerate() {
            assert_eq!(nap(64 + i as u32, POLL, false), us(want), "nap {i}");
        }
        assert_eq!(nap(u32::MAX, POLL, false), POLL);
        assert_eq!(nap(66, us(300), false), us(300));
        assert_eq!(nap(70, us(300), false), us(300));
        // A read_poll under the floor does not shorten the first nap.
        assert_eq!(nap(64, us(10), false), us(100));
        assert_eq!(nap(67, POLL, true), us(800));
        assert_eq!(nap(68, POLL, true), Duration::from_millis(1));
        assert_eq!(nap(u32::MAX, POLL, true), Duration::from_millis(1));
        assert_eq!(
            idle_step(90, Some(1), 1, false, POLL, true),
            Idle::Wait(Duration::from_millis(1))
        );
    }

    /// A connected pair, the server half nonblocking as a shard holds it.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    #[test]
    fn a_wait_ends_when_bytes_arrive_and_leaves_them_for_the_read() {
        let (server, mut client) = pair();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            client.write_all(b"x").unwrap();
            client
        });
        let started = Instant::now();
        assert!(wait_readable(&server, Duration::from_secs(10)));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the byte woke the wait"
        );
        let _client = writer.join().unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(io::Read::read(&mut &server, &mut byte).unwrap(), 1);
        assert_eq!(&byte, b"x");
        // Back in nonblocking mode: an empty socket does not block.
        let err = io::Read::read(&mut &server, &mut byte).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn a_wait_ends_at_eof() {
        let (server, client) = pair();
        drop(client);
        let started = Instant::now();
        assert!(wait_readable(&server, Duration::from_secs(10)));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// A quiet wait times out. The read timeout counts scheduler ticks,
    /// so it overruns its nap by up to two of them (8 ms at 250 Hz,
    /// 20 ms at 100 Hz); the bound here leaves room for a loaded box.
    #[test]
    fn a_quiet_wait_times_out_near_its_nap() {
        let (server, _client) = pair();
        for nap in [us(100), Duration::from_millis(1), Duration::from_millis(25)] {
            let started = Instant::now();
            assert!(wait_readable(&server, nap));
            let took = started.elapsed();
            assert!(took >= nap, "{nap:?} wait ended after {took:?}");
            assert!(
                took < nap + Duration::from_millis(100),
                "{nap:?} wait ended after {took:?}"
            );
        }
        let mut byte = [0u8; 1];
        let err = io::Read::read(&mut &server, &mut byte).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
