//! A blocking client for the framed LBS protocol.
//!
//! One [`NetClient`] wraps one TCP connection. The request methods
//! ([`NetClient::register`], [`NetClient::update`],
//! [`NetClient::range_query`], [`NetClient::ping`]) are closed-loop:
//! send one frame, wait for its reply. For load generators and tests
//! that need pipelining, the [`NetClient::send_only`] /
//! [`NetClient::read_reply`] halves are exposed separately; a window of
//! `send_only` frames is queued on the client and leaves in one `write`.

use crate::frame::{append_frame, Frame, FrameReader, Poll, MAX_FRAME_LEN};
use lbsp_core::wire;
use lbsp_geom::{Point, Rect, SimTime};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What the server said in response to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Request accepted, nothing further to report (registration).
    Ok,
    /// The raw cloaked-update bytes the anonymizer forwarded to the
    /// untrusted server tier (decodable with
    /// [`wire::decode_cloaked_update`]).
    Cloaked(Vec<u8>),
    /// The raw candidate-list bytes of a private query answer
    /// (decodable with [`wire::decode_candidates`]).
    Candidates(Vec<u8>),
    /// Echo of a ping payload.
    Pong(Vec<u8>),
    /// The raw observability snapshot bytes of a STATS scrape
    /// (decodable with [`wire::decode_stats_snapshot`]).
    Stats(Vec<u8>),
    /// A standing query was registered; the payload is the
    /// [`wire::StandingRefMsg`] bytes naming it (decodable with
    /// [`wire::decode_standing_ref`]).
    StandingRegistered(Vec<u8>),
    /// A standing query's current state, answering a snapshot request
    /// (decodable with [`wire::decode_standing_state`]).
    StandingState(Vec<u8>),
    /// A donor node's replicated planes, answering a cluster resync
    /// pull (decodable with [`wire::decode_resync_state`]). Only a
    /// cluster router ever sees this reply.
    ResyncState(Vec<u8>),
    /// The server rejected the request with a message; the connection
    /// is still usable.
    Error(String),
}

/// Queued request bytes past which [`NetClient::send_only`] writes
/// without waiting for a read: a window never holds more than this plus
/// one frame on the client.
const FLUSH_AT: usize = 64 * 1024;

/// A blocking connection to a [`crate::NetServer`].
///
/// Requests are encoded into one per-client buffer and written when the
/// client next needs the server: by [`NetClient::read_reply`] (and so by
/// every closed-loop request method), by [`NetClient::flush`], by `Drop`,
/// or when the buffer passes 64 KiB.
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded frames not yet written, oldest first.
    queued: Vec<u8>,
    /// Unsolicited [`wire::tag::STANDING_DELTA`] payloads received while
    /// waiting for replies, in arrival order. Drained with
    /// [`NetClient::take_standing_deltas`].
    deltas: VecDeque<Vec<u8>>,
}

impl NetClient {
    /// Connects to `addr` with no I/O timeouts (suitable for loopback
    /// tests and benchmarks).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(NetClient {
            stream,
            reader: FrameReader::new(MAX_FRAME_LEN),
            queued: Vec::new(),
            deltas: VecDeque::new(),
        })
    }

    /// Sets a read timeout so a dead server cannot hang the client.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    /// Sets a write timeout so a stalled server (full socket buffers,
    /// wedged peer) cannot hang the sending half either.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(t)
    }

    /// Queues one frame without waiting for a reply (pipelining half).
    ///
    /// Nothing reaches the socket yet: the frame is encoded onto the
    /// client's buffer, which the next [`NetClient::read_reply`],
    /// [`NetClient::flush`] or drop writes in one `write` — so a window
    /// of frames arrives at the server together — or this call writes
    /// itself once the buffer passes 64 KiB.
    ///
    /// # Errors
    /// `InvalidInput` for a payload over the frame cap (nothing is
    /// queued); otherwise whatever a flush this call triggers returns.
    pub fn send_only(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        append_frame(&mut self.queued, tag, payload, MAX_FRAME_LEN)?;
        if self.queued.len() > FLUSH_AT {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every frame [`NetClient::send_only`] queued, in one
    /// `write_all`. A no-op when nothing is queued.
    ///
    /// # Errors
    /// The socket's write error (a write timeout, a closed peer). The
    /// queued frames are discarded either way: after a failed write the
    /// server may hold any prefix of them, so the connection is no
    /// longer in a state a retry could repair.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.queued.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.queued);
        self.queued.clear();
        // A one-off large frame does not pin its buffer for life.
        self.queued.shrink_to(FLUSH_AT);
        written
    }

    /// Writes what is queued, then blocks until the next reply frame
    /// arrives (pipelining half).
    ///
    /// With a read timeout set, each `Pending` poll is allowed as long
    /// as the frame made *progress* during the interval — a server
    /// trickling a large reply is not a dead server. The call fails
    /// with [`io::ErrorKind::TimedOut`] only after a full quiet
    /// interval in which zero new bytes arrived.
    ///
    /// Unsolicited server-push frames ([`wire::tag::STANDING_DELTA`])
    /// are not replies: they are stashed in arrival order for
    /// [`NetClient::take_standing_deltas`] and the wait continues.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        self.flush()?;
        loop {
            let before = self.reader.buffered();
            match self.reader.poll(&mut self.stream)? {
                Poll::Frame(f) if f.tag == wire::tag::STANDING_DELTA => {
                    self.deltas.push_back(f.payload);
                }
                Poll::Frame(f) => return classify_reply(f),
                Poll::Pending => {
                    // A read timeout (if the caller set one) surfaces
                    // as Pending. Give up only if the interval was
                    // completely quiet; a partial frame that grew means
                    // the peer is alive, so keep waiting.
                    if self.reader.buffered() == before {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out waiting for reply",
                        ));
                    }
                }
                // The reader skipped a read it expected to find
                // nothing behind; this caller would rather wait.
                Poll::Drained => {}
                Poll::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server closed the connection",
                    ))
                }
            }
        }
    }

    /// One closed-loop request: queue, then write and wait for the
    /// reply.
    pub fn request(&mut self, tag: u8, payload: &[u8]) -> io::Result<Reply> {
        self.send_only(tag, payload)?;
        self.read_reply()
    }

    /// Registers `user` with a uniform cloaking requirement.
    pub fn register(&mut self, user: u64, k: u32, a_min: f64, a_max: f64) -> io::Result<Reply> {
        let msg = wire::RegisterMsg {
            user,
            k,
            a_min,
            a_max,
        };
        self.request(wire::tag::REGISTER, &wire::encode_register(&msg))
    }

    /// Reports an exact location update; on success the reply carries
    /// the cloaked bytes the anonymizer produced.
    pub fn update(&mut self, user: u64, position: Point, time: SimTime) -> io::Result<Reply> {
        let msg = wire::ExactUpdateMsg {
            user,
            position,
            time,
        };
        self.request(wire::tag::EXACT_UPDATE, &wire::encode_exact_update(&msg))
    }

    /// Pipelined variant of [`NetClient::update`]: queues the update
    /// frame (see [`NetClient::send_only`]); pair with
    /// [`NetClient::read_reply`].
    pub fn update_send_only(
        &mut self,
        user: u64,
        position: Point,
        time: SimTime,
    ) -> io::Result<()> {
        let msg = wire::ExactUpdateMsg {
            user,
            position,
            time,
        };
        self.send_only(wire::tag::EXACT_UPDATE, &wire::encode_exact_update(&msg))
    }

    /// Asks for public objects within `radius` of the user's current
    /// (cloaked) position.
    pub fn range_query(&mut self, user: u64, radius: f64, time: SimTime) -> io::Result<Reply> {
        let msg = wire::UserQueryMsg { user, radius, time };
        self.request(wire::tag::USER_QUERY, &wire::encode_user_query(&msg))
    }

    /// Round-trips an arbitrary payload (liveness / latency probe).
    pub fn ping(&mut self, payload: &[u8]) -> io::Result<Reply> {
        self.request(wire::tag::PING, payload)
    }

    /// Scrapes the server's observability registry; on success the
    /// reply carries bytes for [`wire::decode_stats_snapshot`].
    pub fn stats(&mut self) -> io::Result<Reply> {
        self.request(wire::tag::STATS, &[])
    }

    /// Registers a standing count query over `area` and subscribes this
    /// connection to its delta pushes; on success the reply carries
    /// [`wire::StandingRefMsg`] bytes naming the query.
    pub fn register_standing_count(&mut self, area: Rect) -> io::Result<Reply> {
        let msg = wire::RegisterStandingCountMsg { area };
        self.request(
            wire::tag::REGISTER_STANDING_COUNT,
            &wire::encode_register_standing_count(&msg),
        )
    }

    /// Registers a standing private range query for `user` and
    /// subscribes this connection to its delta pushes.
    pub fn register_standing_range(&mut self, user: u64, radius: f64) -> io::Result<Reply> {
        let msg = wire::RegisterStandingRangeMsg { user, radius };
        self.request(
            wire::tag::REGISTER_STANDING_RANGE,
            &wire::encode_register_standing_range(&msg),
        )
    }

    /// Drops a standing query.
    pub fn deregister_standing(&mut self, kind: wire::StandingKind, id: u64) -> io::Result<Reply> {
        let msg = wire::StandingRefMsg { kind, id };
        self.request(
            wire::tag::DEREGISTER_STANDING,
            &wire::encode_standing_ref(&msg),
        )
    }

    /// Reads a standing query's current state; on success the reply
    /// carries bytes for [`wire::decode_standing_state`].
    pub fn standing_snapshot(&mut self, kind: wire::StandingKind, id: u64) -> io::Result<Reply> {
        let msg = wire::StandingRefMsg { kind, id };
        self.request(
            wire::tag::STANDING_SNAPSHOT,
            &wire::encode_standing_ref(&msg),
        )
    }

    /// Drains the standing-delta payloads received so far, in arrival
    /// order (each decodable with [`wire::decode_standing_state`]).
    pub fn take_standing_deltas(&mut self) -> Vec<Vec<u8>> {
        self.deltas.drain(..).collect()
    }
}

impl Drop for NetClient {
    /// Writes what is still queued, like a `BufWriter`: frames sent with
    /// [`NetClient::send_only`] reach the server even when nobody reads
    /// their replies. Errors are ignored; call [`NetClient::flush`] to
    /// see them.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Maps a reply frame to a [`Reply`].
///
/// Public so consumers that manage their own sockets (the cluster
/// router's pipelined node channels) classify frames with the same
/// doctrine as [`NetClient::read_reply`].
///
/// A `tag::ERROR` frame is an *application* rejection — the server
/// understood the request and said no; the connection stays usable and
/// it becomes [`Reply::Error`]. An unrecognized tag is a *protocol*
/// violation — the peer is not speaking this protocol (or the stream
/// desynchronized) — and must not masquerade as a server rejection, so
/// it surfaces as an [`io::ErrorKind::InvalidData`] error instead.
pub fn classify_reply(f: Frame) -> io::Result<Reply> {
    match f.tag {
        wire::tag::OK => Ok(Reply::Ok),
        wire::tag::CLOAKED_UPDATE => Ok(Reply::Cloaked(f.payload)),
        wire::tag::CANDIDATES => Ok(Reply::Candidates(f.payload)),
        wire::tag::PONG => Ok(Reply::Pong(f.payload)),
        wire::tag::STATS_SNAPSHOT => Ok(Reply::Stats(f.payload)),
        wire::tag::STANDING_REGISTERED => Ok(Reply::StandingRegistered(f.payload)),
        wire::tag::STANDING_STATE => Ok(Reply::StandingState(f.payload)),
        wire::tag::RESYNC_STATE => Ok(Reply::ResyncState(f.payload)),
        wire::tag::ERROR => Ok(Reply::Error(
            String::from_utf8_lossy(&f.payload).into_owned(),
        )),
        // A routing failure is a *transport* fact — the cluster node
        // that owns the request could not serve it — not an application
        // rejection, so it must never fold into `Reply::Error`. It
        // surfaces as a kinded I/O error the caller can match with
        // [`is_route_failure`] / [`is_retryable_route_failure`]: a
        // RETRYABLE kind byte means the node is mid-reconnect and the
        // request is worth retrying (its outcome is unknown — see
        // `is_retryable_route_failure` for the idempotency caveat);
        // DOWN means the node is dark for good. A
        // malformed payload (pre-kind router, hostile bytes) is treated
        // as DOWN with the whole payload as the message.
        wire::tag::ROUTE_FAIL => {
            let (kind, msg) = wire::decode_route_fail(&f.payload).unwrap_or((
                wire::ROUTE_FAIL_DOWN,
                String::from_utf8_lossy(&f.payload).into_owned(),
            ));
            let text = if kind == wire::ROUTE_FAIL_RETRYABLE {
                format!("cluster node retrying: {msg}")
            } else {
                format!("cluster node unreachable: {msg}")
            };
            Err(io::Error::new(io::ErrorKind::NotConnected, text))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("protocol violation: unrecognized reply tag 0x{other:02x}"),
        )),
    }
}

/// `true` when an error is a cluster routing failure — the
/// [`wire::tag::ROUTE_FAIL`] reply a router sends when the node owning
/// the request could not serve it (either kind).
pub fn is_route_failure(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::NotConnected
        && (e.to_string().starts_with("cluster node unreachable:")
            || e.to_string().starts_with("cluster node retrying:"))
}

/// `true` when an error is a RETRYABLE cluster routing failure — the
/// owning node is mid-reconnect and the caller should back off briefly
/// and retry. The outcome of the failed attempt is *unknown*, not
/// "not applied": the node may have served the request and lost only
/// the reply. Retrying is therefore unconditionally safe for
/// idempotent requests — updates, queries, snapshots, deregisters —
/// while a retried standing registration can, in that narrow
/// reply-lost window, leave a client-invisible orphan allocation on
/// node 0 (see the recovery-doctrine caveats in DESIGN.md).
pub fn is_retryable_route_failure(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::NotConnected && e.to_string().starts_with("cluster node retrying:")
}
