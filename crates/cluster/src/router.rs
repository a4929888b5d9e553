//! The cluster's routing tier.
//!
//! A [`Router`] is an [`lbsp_net::FrontDoor`] — the same listener,
//! poller shards and connection doctrine a single
//! [`lbsp_net::NetServer`] serves through — whose [`Service`] forwards
//! each request to the node owning it over one pipelined connection per
//! cluster node, plus one reconnect supervisor per node. Clients never
//! learn the cluster topology: they connect to the router exactly as
//! they would to a single node.
//!
//! ## Replication and ownership
//!
//! The cloaking algorithm is *global*: every cloak is computed against
//! the summed population of the whole world, so a partitioned cluster
//! can only answer byte-identically to one sequential engine if every
//! node sees the full position plane. The router therefore maintains
//! two replicated planes and one single-copy plane:
//!
//! * **Position plane** — once the owning node has answered an
//!   `EXACT_UPDATE`, every other node is owed the same row (positions
//!   advance even when the cloak failed, exactly like the sequential
//!   engine).
//! * **Cloak plane** — when the owner answered with a cloak, every
//!   other node is owed that too, so the private stores and
//!   standing-count registries stay in lockstep. Non-owners drain the
//!   resulting changed-set internally; only the owner pushes deltas.
//!
//!   Row and cloak are one [`wire::tag::MIRROR_UPDATE`] entry in each
//!   other node's *outbox*. Nothing is sent for it: the entry rides
//!   the next frame the router begins on that node — an update the
//!   node owns, a query, a snapshot — inside one
//!   [`wire::tag::CARRY`] envelope, which the node opens by applying
//!   the carried entries in order and then serving the request, whose
//!   reply acknowledges them. The router is a node's only writer and
//!   each channel is FIFO, so a node never serves a frame before every
//!   mirror row the router produced before that frame: a closed-loop
//!   client still reads the sequential engine's bytes. A node that is
//!   asked nothing is sent its outbox once 32 rows are waiting, and
//!   [`Router::shutdown`] sends what is left.
//! * **User state (single copy)** — a user's privacy profile and
//!   standing-range registrations live on exactly one node for the
//!   user's whole life, [`owner_of`] the user's id: a fixed hash, not
//!   the user's position. The user's registration, queries and updates
//!   all go to that node, so an update never crosses nodes and no
//!   user's state ever moves from one node to another.
//!
//! Standing-query registrations and deregistrations go to node 0 alone,
//! the sole id allocator, and the client sees its reply. What node 0
//! changed then waits in every other node's outbox as one
//! [`wire::tag::STANDING_INSTALL`] entry and rides the next frame to
//! the node like a mirror row: the query installed *under the granted
//! id* rather than allocated, or the deregistered id dropped. Every
//! outbox entry is therefore idempotent by key — a replay after an
//! ack-lost outage is a no-op — instead of depending on every node
//! allocating in lockstep. Deltas pushed by
//! whichever node processed an update are fanned out to subscribed
//! router connections through the front door's subscription registry
//! ([`lbsp_net::route_deltas`]), as on a single node.
//!
//! ## Concurrency
//!
//! Each node connection is a [`NodeChannel`]: a pipelined send half
//! (serialized by a [`LockRank::ClusterNode`] mutex) plus an *inbox*
//! (a [`LockRank::ClusterInbox`] mutex and a condvar) that matches reply
//! frames to an in-order ticket queue. The router runs no reader
//! thread: a caller whose reply is not in reads the node socket itself
//! when nobody else does, filing each frame it reads to the ticket it
//! answers, and parks on the condvar while another caller reads. So a
//! reply usually wakes the caller that needs it straight from the
//! socket, with no hand-off between threads. What nobody waits for —
//! the reply to an outbox flush, the close of an idle connection — the
//! node's supervisor reads, without blocking, on each tick.
//! An update costs one node round trip — the owner's — whatever the
//! cluster size, and so does a standing broadcast — node 0's; requests
//! owned by distinct nodes make progress concurrently. A front-door
//! shard routes one sweep at a time, so `net.workers` sweeps are in
//! flight at once; a shard's other connections wait behind a node round
//! trip exactly as a node's wait behind its engine mutex.
//!
//! A sweep is served as *runs* (`Core::serve_run`): a maximal run of
//! registrations, queries and updates — no user twice — is begun as
//! one write to each node it needs and then waited in arrival order.
//! A frame of node `m` must find placed the row of every earlier update
//! of its run, yet another node's update is answered only after the run
//! is begun. The row is known from the request, so it rides ahead: it
//! joins `m`'s outbox, with no cloak, just before `m`'s next frame and
//! travels in that frame's envelope. The full entry follows once the
//! owner answers, and placing the row again changes nothing. An update
//! after another node's row is served as a batch of one, every earlier
//! row placed, so a window whose updates alternate owners reads the
//! closed-loop sequential engine's bytes; consecutive updates to one
//! node batch, as on a single node.
//!
//! Only standing counts read other users' cloaks. While one is
//! registered — the router counts them as their broadcasts pass — a
//! node pushing count deltas for its update must hold every earlier
//! cloak of the run, and a cloak exists only once its owner answered:
//! a run that holds an update for node `n` takes nothing more for any
//! other node. (A count the router did not see registered, made on a
//! node directly or through another router, is not fenced.) A row sent
//! ahead of an owner that then fails — its begin refused, its reply
//! lost — is the recovery doctrine's unknown outcome: the client
//! retries, and the retry converges the planes. A snapshot, an
//! undecodable payload or an unknown tag is a run of one, and so is
//! every frame of a closed-loop client. Standing broadcasts are the
//! only frames served outside a run, one at a time.
//!
//! What replaces the old global request mutex is a single
//! [`LockRank::ClusterRouter`] read/write gate. Runs hold it *shared*;
//! standing-query broadcasts, which every registry must observe at the
//! same point in the request stream, and the bulk rejoin resync hold it
//! *exclusive*, quiescing in-flight runs first. The routing tables
//! themselves live under a short [`LockRank::ClusterCore`] mutex that is
//! never held across node I/O.
//!
//! Single-connection ordering is unchanged: a closed-loop client still
//! observes byte-identical replies to the sequential engine, because
//! its own requests never overlap. Requests racing on *different*
//! connections for the *same* user keep the single-node doctrine — one
//! device is one connection, and cross-device races settle on whichever
//! hop reaches the owner first.
//!
//! ## Recovery doctrine
//!
//! A node that cannot be reached (connect failure, I/O error, timeout)
//! is *demoted*, not executed: its channel enters `Reconnecting` and a
//! per-node supervisor thread retries the connection under capped
//! exponential backoff with deterministic jitter. While a node is away:
//!
//! * Requests the node *owns* answer a kinded
//!   [`wire::tag::ROUTE_FAIL`] marked [`wire::ROUTE_FAIL_RETRYABLE`] —
//!   the client should simply retry. These bump `retryable_failures`,
//!   **not** `route_failures`.
//! * Traffic the node merely *mirrors* (mirror rows, standing
//!   installs and drops) keeps accumulating in
//!   the node's outbox — bounded in bytes while the node is away — and
//!   is replayed in the order it was produced on rejoin, an envelope
//!   per round trip, so a transient outage is invisible to clients of
//!   other nodes. The outbox is one structure, not an in-flight list
//!   and a backlog: an entry leaves it only when the reply to the
//!   frame that carried it arrives, and demotion moves nothing, so
//!   rows that were on the wire when the link died are replayed ahead
//!   of rows produced later, never after them. Every such frame is
//!   idempotent by key — but not commutative — so replaying, in
//!   order, some that already landed before the cut ends in the same
//!   state. A preserved-class frame is dropped only when its node
//!   turns terminally `Down`; the drop bumps the `mirror_drops`
//!   counter and logs, because it marks real divergence.
//! * If the outbox overflows its byte bound, reconstructible plane
//!   frames are dropped and the rejoin instead performs a bulk
//!   [`wire::tag::RESYNC_PULL`] / [`wire::tag::RESYNC_PUSH`] transfer
//!   from a healthy donor under the exclusive gate. Standing installs
//!   are retained across the overflow — they are not reconstructible
//!   from plane state — and replayed after the bulk image lands.
//!
//! Only when every reconnect attempt is exhausted — or the node refuses
//! a carried mirror frame, which no reconnect can mend — does the node
//! turn `Down`, terminally, and requests needing it answer
//! `ROUTE_FAIL` kind [`wire::ROUTE_FAIL_DOWN`], bumping
//! `route_failures`. Failure text names nodes by *index only*: socket
//! addresses are cluster topology and never cross the public socket.

use lbsp_core::metrics::NetCounters;
use lbsp_core::{wire, LockRank, MetricsRegistry, TrackedMutex, TrackedRwLock};
use lbsp_geom::Rect;
use lbsp_net::frame::append_frame;
use lbsp_net::{
    classify_reply, drop_query, route_deltas, subscribe, Frame, FrameReader, FrontDoor, NetConfig,
    Outbound, Poll, Reply, Service, SharedSubs, MAX_FRAME_LEN,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Changed standing-query states drained from node connections during
/// one routed request: ((kind code, query id), state bytes).
type DeltaBatch = Vec<((u8, u64), Vec<u8>)>;

/// Node lifecycle states (the `state` atomic of a [`NodeChannel`]).
/// `Up → Reconnecting` on any transport fault, `Reconnecting → Up` when
/// the supervisor completes a rejoin, `Reconnecting → Down` when it
/// gives up. `Down` is terminal.
const NODE_UP: u8 = 0;
/// See [`NODE_UP`].
const NODE_RECONNECTING: u8 = 1;
/// See [`NODE_UP`].
const NODE_DOWN: u8 = 2;

/// Tuning knobs of a [`Router`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// The client-facing front door — the same knobs, meaning the same
    /// thing, as on a single node: `workers` poller shards (and so
    /// requests routed at once), timeouts, bounded queues.
    pub net: NetConfig,
    /// Read/write timeout on each router→node connection. A node that
    /// stays quiet past this bound is demoted to `Reconnecting`.
    pub node_timeout: Duration,
    /// First reconnect backoff delay; doubles per attempt.
    pub reconnect_base: Duration,
    /// Ceiling on the reconnect backoff delay.
    pub reconnect_cap: Duration,
    /// Reconnect attempts before a node is declared down for good.
    pub reconnect_attempts: u32,
    /// Byte bound on the per-node catch-up buffer of mirror frames
    /// missed while a node reconnects. Overflowing it switches the
    /// rejoin from ordered replay to a bulk donor resync.
    pub catchup_buffer_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            net: NetConfig::default(),
            node_timeout: Duration::from_secs(2),
            reconnect_base: Duration::from_millis(50),
            reconnect_cap: Duration::from_secs(1),
            reconnect_attempts: 20,
            catchup_buffer_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What the cluster did over the router's lifetime, reported by
/// [`Router::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterReport {
    /// Requests answered with a *fatal* [`wire::tag::ROUTE_FAIL`]
    /// (kind `DOWN`); retryable failures are counted separately.
    pub route_failures: u64,
    /// Client requests served.
    pub requests_served: u64,
}

/// What a ticket's caller takes from the inbox: the reply frame plus
/// any standing-delta payloads that rode ahead of it.
type TicketResult = io::Result<(Frame, Vec<Vec<u8>>)>;

/// One outstanding request on a node connection, waiting for its reply.
struct Ticket {
    /// Names the ticket to its [`PendingCall`].
    seq: u64,
    /// Outbox entries that left in this request's envelope: its reply
    /// acknowledges them, whether or not anyone still waits for it.
    carried: usize,
    /// The call was dropped without waiting: the reply is still read
    /// and counted, then discarded.
    abandoned: bool,
}

/// Unsent outbox entries at which an `Up` node is sent an envelope with
/// no request: a node with no traffic of its own is never more rows
/// behind than this, and pays one hop per this many.
const FLUSH_AT: usize = 32;

/// How long a node's supervisor dozes between looks at an `Up` node.
const SUPERVISOR_TICK: Duration = Duration::from_millis(10);

/// How many reads a caller's wait is cut into: a read blocks at most
/// this fraction of `node_timeout`, so a caller that takes the reading
/// role late still gives up close to its own deadline.
const READS_PER_TIMEOUT: u32 = 4;

/// One frame to begin on a node: the mirror rows it must find placed —
/// they join the outbox ahead of it — and its request, `None` for a
/// flush ([`NodeChannel::send_carrying`]).
type Carrier<'f> = (Vec<&'f [u8]>, Option<(u8, &'f [u8])>);

/// Frames framed for one write to a node, with the ticket each takes.
#[derive(Default)]
struct Outgoing {
    bytes: Vec<u8>,
    tickets: Vec<Framed>,
}

/// A framed frame's ticket: the outbox entries its envelope carries,
/// and whether a caller waits for its reply.
struct Framed {
    carried: usize,
    wanted: bool,
}

impl Outgoing {
    fn frame(
        &mut self,
        ch: &NodeChannel,
        tag: u8,
        payload: &[u8],
        carried: usize,
        wanted: bool,
    ) -> io::Result<()> {
        append_frame(&mut self.bytes, tag, payload, MAX_FRAME_LEN)
            .map_err(|e| ch.retryable_error(&format!("cannot frame a request ({e})")))?;
        self.tickets.push(Framed { carried, wanted });
        Ok(())
    }
}

/// The mutable send half of a node channel, serialized so pipelined
/// frames (and their tickets) leave in one well-defined order.
struct SendHalf {
    /// Write half of the node socket, connected lazily.
    stream: Option<TcpStream>,
    /// The reply side of the same connection.
    inbox: Option<Arc<Inbox>>,
}

/// The read half of a node connection and its frame decoder.
struct ReadHalf {
    stream: TcpStream,
    frames: FrameReader,
}

/// The reply side of one node connection, read by the callers waiting
/// on it (module docs, "Concurrency"): a caller whose reply is not in
/// takes the *reading role* if nobody holds it, and otherwise parks on
/// `filed`.
struct Inbox {
    slots: TrackedMutex<Slots>,
    /// Notified when a frame is filed, the reading role comes free, or
    /// the connection is lost.
    filed: Condvar,
}

/// An [`Inbox`]'s state, under [`LockRank::ClusterInbox`]. Nothing is
/// acquired under it, and nobody reads the socket while holding it
/// unless the read cannot block.
struct Slots {
    /// The read half while nobody reads; `None` while a caller holds
    /// the reading role.
    reader: Option<ReadHalf>,
    /// Tickets whose reply has not arrived, in send order.
    tickets: VecDeque<Ticket>,
    /// The next ticket's number.
    next_seq: u64,
    /// Replies read and not yet taken by their callers.
    answered: Vec<(u64, TicketResult)>,
    /// Standing-delta payloads read since the last reply: they go to
    /// the caller of the next one.
    pushed: Vec<Vec<u8>>,
    /// The connection is gone: every ticket not yet answered fails, and
    /// nothing more is filed.
    lost: bool,
    /// Callers parked on [`Inbox::filed`].
    parked: usize,
}

/// A node's outbox, under [`LockRank::ClusterRecovery`]: every mirror
/// frame the router produced for the node that the node has not
/// acknowledged, oldest first. While the node is `Up` these are
/// [`wire::tag::MIRROR_UPDATE`] rows waiting for (or riding) the next
/// frame to it; while it reconnects, everything it misses. An entry
/// leaves only when the reply to the frame that carried it arrives, so
/// whatever happens to the connection the outbox is what a rejoin has
/// to replay, in the order it was produced.
struct Recovery {
    /// The unacknowledged frames, in the order they were produced.
    buffer: VecDeque<Outbound>,
    /// How many at the head are on the wire, their carrier's reply
    /// outstanding; the rest are unsent.
    sent: usize,
    /// Approximate bytes queued (payload + per-frame overhead).
    buffered_bytes: usize,
    /// The buffer overflowed: plane frames were dropped and the rejoin
    /// must bulk-resync from a donor before replaying what remains.
    overflowed: bool,
    /// When the current outage began (drives the downtime histogram).
    down_since: Option<Instant>,
}

/// A pipelined connection to one cluster node: requests are written
/// under a short send lock (tickets first, then frames, so whoever reads
/// always finds the ticket queued before the reply can arrive) and
/// replies are matched to tickets in order by whoever reads them (see
/// [`Inbox`]). Multiple requests may be in flight at once; per-node
/// frame order is exactly ticket order.
struct NodeChannel {
    index: usize,
    addr: String,
    node_timeout: Duration,
    /// [`NODE_UP`] / [`NODE_RECONNECTING`] / [`NODE_DOWN`]. Transport
    /// faults demote `Up → Reconnecting`; only the supervisor moves a
    /// node out of `Reconnecting`.
    state: AtomicU8,
    send: TrackedMutex<SendHalf>,
    recovery: TrackedMutex<Recovery>,
    /// Outbox entries seen acknowledged (their carrier's reply arrived)
    /// that the outbox has yet to drop: filing a reply takes no outbox
    /// lock, so acknowledging does not wait on a request mid-send.
    acked: AtomicUsize,
    /// Byte bound on the outbox of a reconnecting node (from
    /// [`RouterConfig`]).
    catchup_buffer_bytes: usize,
}

/// A begun call on a [`NodeChannel`]; [`PendingCall::wait`] blocks for
/// the reply. Dropping it without waiting is safe — the reply is still
/// read, counted and discarded, keeping the pipeline aligned.
struct PendingCall<'a> {
    channel: &'a NodeChannel,
    inbox: Arc<Inbox>,
    seq: u64,
    /// The reply was taken (or given up on): nothing to abandon.
    settled: bool,
}

/// `true` for buffered frame tags that must survive a catch-up buffer
/// overflow: unlike plane traffic they cannot be reconstructed from a
/// donor's state image (the standing id counters would desynchronize).
fn retained_on_overflow(tag: u8) -> bool {
    tag == wire::tag::STANDING_INSTALL
}

/// Rough accounting cost of one buffered frame.
fn frame_cost(payload: &[u8]) -> usize {
    payload.len() + 8
}

impl Recovery {
    fn push(&mut self, tag: u8, payload: &[u8]) {
        self.buffered_bytes += frame_cost(payload);
        self.buffer.push_back((tag, payload.to_vec()));
    }

    /// Drops the `n` oldest entries: their carrier was answered.
    fn acknowledge(&mut self, n: usize) {
        for (_, payload) in self.buffer.drain(..n.min(self.buffer.len())) {
            self.buffered_bytes = self.buffered_bytes.saturating_sub(frame_cost(&payload));
        }
        self.sent = self.sent.saturating_sub(n);
    }
}

impl NodeChannel {
    fn new(
        index: usize,
        addr: String,
        node_timeout: Duration,
        catchup_buffer_bytes: usize,
    ) -> NodeChannel {
        NodeChannel {
            index,
            addr,
            node_timeout,
            state: AtomicU8::new(NODE_UP),
            send: TrackedMutex::new(
                LockRank::ClusterNode,
                SendHalf {
                    stream: None,
                    inbox: None,
                },
            ),
            recovery: TrackedMutex::new(
                LockRank::ClusterRecovery,
                Recovery {
                    buffer: VecDeque::new(),
                    sent: 0,
                    buffered_bytes: 0,
                    overflowed: false,
                    down_since: None,
                },
            ),
            acked: AtomicUsize::new(0),
            catchup_buffer_bytes,
        }
    }

    /// Terminal failure: the node exhausted its reconnect budget.
    /// Client-facing — names the node by index only, never by address.
    fn down_error(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::NotConnected,
            format!("node {} is down", self.index),
        )
    }

    /// Transient failure: the supervisor is reconnecting; the client
    /// should retry. Marked by `WouldBlock`, which nothing else on this
    /// path produces, so [`Core::answer`] can pick the `ROUTE_FAIL`
    /// kind from the error alone. Client-facing — index only.
    fn retryable_error(&self, what: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("node {} {what}; retry shortly", self.index),
        )
    }

    /// Consistency failure: the node answered, but with something the
    /// protocol forbids. Not retryable. Client-facing — index only.
    fn failed_error(&self, e: &io::Error) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("node {} failed: {e}", self.index),
        )
    }

    /// Cuts the socket and closes its inbox: every outstanding ticket
    /// fails at once, and nothing read from the old connection is filed
    /// any more — no acknowledgement from it can reach a later outbox.
    fn cut(&self) {
        cut_connection(&mut self.send.lock());
    }

    /// Transport fault: demote `Up → Reconnecting`, stamp the outage
    /// start, and cut the socket. The supervisor takes it from here. A
    /// node already reconnecting (or down) just gets the cut.
    fn demote(&self) {
        if self
            .state
            .compare_exchange(
                NODE_UP,
                NODE_RECONNECTING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            let mut rec = self.recovery.lock();
            if rec.down_since.is_none() {
                rec.down_since = Some(Instant::now());
            }
        }
        self.cut();
    }

    /// Terminal: the node is down for the router's lifetime.
    fn poison(&self) {
        self.state.store(NODE_DOWN, Ordering::SeqCst);
        self.cut();
    }

    /// The supervisor's look at an `Up` node: reads, without blocking,
    /// whatever the node sent that no caller is reading — the reply to
    /// a flush nobody waits for, the end of a connection the node cut —
    /// and drops the entries those replies acknowledged from the outbox.
    /// The send lock is held throughout, so no write ever meets the
    /// socket in nonblocking mode.
    fn reap_idle(&self) {
        {
            let mut send = self.send.lock();
            let lost = match (&send.stream, &send.inbox) {
                (Some(_), Some(inbox)) => inbox.read_ready(self),
                _ => false,
            };
            if lost {
                cut_connection(&mut send);
            }
        }
        if self.acked.load(Ordering::SeqCst) > 0 {
            let mut rec = self.recovery.lock();
            rec.acknowledge(self.acked.swap(0, Ordering::SeqCst));
        }
    }

    /// Sends one request frame — and, in the same envelope, every
    /// outbox entry not yet sent — and returns a handle to its future
    /// reply, fast-failing with the kinded error the recovery doctrine
    /// promises when the node is reconnecting or down.
    fn begin(&self, tag: u8, payload: &[u8]) -> io::Result<PendingCall<'_>> {
        self.single(self.begin_all(vec![(Vec::new(), Some((tag, payload)))]))
    }

    /// [`NodeChannel::begin`] for a run's share of this node: before
    /// each request, the rows it must find placed join the outbox, and
    /// every entry still unsent rides that request's envelope. Every
    /// frame leaves in one write. The calls come back in request order;
    /// all of them are begun or none.
    ///
    /// The outbox lock is held from picking the entries to the write,
    /// so frames leave in the order their `begin`s were ordered: a node
    /// never serves a frame before every mirror row produced before
    /// that frame was begun.
    fn begin_all(&self, requests: Vec<Carrier<'_>>) -> io::Result<Vec<PendingCall<'_>>> {
        let begun = {
            let mut rec = self.recovery.lock();
            match self.state.load(Ordering::SeqCst) {
                NODE_UP => self.send_carrying(&mut rec, requests),
                NODE_RECONNECTING => return Err(self.retryable_error("is reconnecting")),
                _ => return Err(self.down_error()),
            }
        };
        self.demote_on_err(begun)
    }

    /// [`NodeChannel::begin`] without the state gate and with nothing
    /// riding along: the supervisor's liveness `PING`, resync image and
    /// replay go out exactly as written, while the node is still
    /// officially `Reconnecting`.
    fn begin_internal(&self, tag: u8, payload: &[u8]) -> io::Result<PendingCall<'_>> {
        let mut out = Outgoing::default();
        let begun = out
            .frame(self, tag, payload, 0, true)
            .and_then(|()| self.begin_locked(&out));
        self.demote_on_err(self.single(begun))
    }

    /// The call a one-frame begin began.
    fn single<'a>(&self, begun: io::Result<Vec<PendingCall<'a>>>) -> io::Result<PendingCall<'a>> {
        begun?
            .pop()
            .ok_or_else(|| self.retryable_error("began no call"))
    }

    /// Every failure to put a frame on the wire is a transport fault:
    /// demote. The demotion lives here — outside any guard scope — so
    /// the locked halves never reach for the recovery lock (rank
    /// `ClusterRecovery`) while the send lock (rank `ClusterNode`) is
    /// live.
    fn demote_on_err<T>(&self, begun: io::Result<T>) -> io::Result<T> {
        if begun.is_err() {
            self.demote();
        }
        begun
    }

    /// Puts `carriers` on the wire in one write and marks the entries
    /// they carried sent. For each, its rows join the outbox, then the
    /// unsent entries ride in an envelope around its request — an
    /// envelope with no request when it has none (a flush), a bare
    /// request when nothing is unsent — preceded by request-less
    /// envelopes while more are unsent than one envelope carries, so a
    /// request never leaves ahead of an entry produced before it. Only
    /// a carrier's own frame gets a call. Rows whose write fails stay
    /// in the outbox, like every entry not acknowledged, for the
    /// rejoin to replay. Caller holds the outbox.
    fn send_carrying(
        &self,
        rec: &mut Recovery,
        carriers: Vec<Carrier<'_>>,
    ) -> io::Result<Vec<PendingCall<'_>>> {
        rec.acknowledge(self.acked.swap(0, Ordering::SeqCst));
        let mut out = Outgoing::default();
        let mut sent = rec.sent;
        for (rows, request) in carriers {
            for row in rows {
                rec.push(wire::tag::MIRROR_UPDATE, row);
            }
            loop {
                let unsent = rec.buffer.len().saturating_sub(sent);
                let carried = unsent.min(wire::CARRY_MAX_FRAMES);
                let last = carried == unsent;
                let rides = request.filter(|_| last);
                match rides {
                    Some((tag, payload)) if carried == 0 => {
                        out.frame(self, tag, payload, 0, true)?;
                    }
                    _ => {
                        let entries = rec.buffer.iter().skip(sent).take(carried);
                        let envelope =
                            wire::encode_carry(entries.map(|(t, p)| (*t, p.as_slice())), rides)
                                .ok_or_else(|| {
                                    self.retryable_error("holds a frame no envelope can carry")
                                })?;
                        out.frame(self, wire::tag::CARRY, &envelope, carried, last)?;
                    }
                }
                sent += carried;
                if last {
                    break;
                }
            }
        }
        let calls = self.begin_locked(&out)?;
        rec.sent = sent;
        Ok(calls)
    }

    /// Lazy connect, tickets, frames — all under the send lock, the
    /// frames in one write; errors are returned pre-kinded but the
    /// caller performs the demotion.
    fn begin_locked(&self, out: &Outgoing) -> io::Result<Vec<PendingCall<'_>>> {
        let mut send = self.send.lock();
        if send.stream.is_none() {
            match self.connect() {
                Ok((wstream, rstream)) => install_connection(&mut send, wstream, rstream),
                Err(e) => {
                    return Err(self.retryable_error(&format!("is unreachable ({e})")));
                }
            }
        }
        let SendHalf {
            stream: Some(stream),
            inbox: Some(inbox),
        } = &mut *send
        else {
            return Err(self.retryable_error("has no live connection"));
        };
        // Tickets before frames: a reply cannot arrive before its
        // request bytes leave, so whoever reads it finds its ticket
        // already queued. A lost inbox fails the begin at once: its
        // tickets would burn the caller's full node timeout finding
        // that out.
        let first = inbox
            .queue_tickets(&out.tickets)
            .ok_or_else(|| self.retryable_error("lost its connection"))?;
        let calls = (first..)
            .zip(&out.tickets)
            .filter(|(_, t)| t.wanted)
            .map(|(seq, _)| PendingCall {
                channel: self,
                inbox: Arc::clone(inbox),
                seq,
                settled: false,
            })
            .collect();
        if let Err(e) = stream.write_all(&out.bytes) {
            return Err(self.retryable_error(&format!("write failed ({e})")));
        }
        Ok(calls)
    }

    /// Establishes the node connection: write half + cloned read half
    /// for the inbox.
    fn connect(&self) -> io::Result<(TcpStream, TcpStream)> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(self.node_timeout)).ok();
        let rstream = stream.try_clone()?;
        let slice = (self.node_timeout / READS_PER_TIMEOUT).max(Duration::from_millis(1));
        rstream.set_read_timeout(Some(slice)).ok();
        Ok((stream, rstream))
    }

    /// Appends a mirror frame — a row, or a standing install or drop,
    /// each small and fixed in size, so an envelope always carries it —
    /// to the node's outbox: while the node reconnects, to be replayed
    /// on rejoin; while it is `Up`, to ride the envelope of the next
    /// frame to the node. `false` — nothing queued — once the node is
    /// terminally `Down`. The state is read under the outbox lock, the
    /// same lock the supervisor holds when it flips the node back up, so
    /// a queued frame is never stranded.
    ///
    /// The [`FLUSH_AT`]th unsent row of an `Up` node sends the outbox
    /// in an envelope of its own. Nobody waits for it: whoever reads the
    /// node's socket next — a caller, or the supervisor within a tick —
    /// acknowledges its entries when the node answers, and a node that
    /// has stopped answering is found out by whoever next waits on it,
    /// or by the write that fills its socket (`node_timeout`).
    ///
    /// Overflow policy, while reconnecting: plane frames (mirrored
    /// updates) are dropped once the byte bound is hit — a bulk donor
    /// resync reconstructs them wholesale, and purges the ones already
    /// queued — while standing installs are retained regardless,
    /// because no state image can replace them.
    fn queue(&self, tag: u8, payload: &[u8]) -> bool {
        let flush = {
            let mut rec = self.recovery.lock();
            match self.state.load(Ordering::SeqCst) {
                NODE_RECONNECTING => {
                    let cost = frame_cost(payload);
                    let over =
                        rec.overflowed || rec.buffered_bytes + cost > self.catchup_buffer_bytes;
                    if !over || retained_on_overflow(tag) {
                        rec.push(tag, payload);
                    } else {
                        rec.overflowed = true;
                    }
                    return true;
                }
                NODE_UP => {
                    rec.push(tag, payload);
                    // Only a row sends a flush: a standing change waits
                    // with the rows.
                    if tag != wire::tag::MIRROR_UPDATE
                        || rec.buffer.len().saturating_sub(rec.sent) < FLUSH_AT
                    {
                        return true;
                    }
                    self.send_carrying(&mut rec, vec![(Vec::new(), None)])
                }
                _ => return false,
            }
        };
        // A flush that did not get out costs nothing: the rows are
        // still in the outbox of a node that is now reconnecting.
        let _ = self.demote_on_err(flush);
        true
    }

    /// Sends whatever the outbox of an `Up` node still holds unsent;
    /// the reply also says that everything sent before it has landed.
    fn flush(&self) -> Option<PendingCall<'_>> {
        let flush = {
            let mut rec = self.recovery.lock();
            if self.state.load(Ordering::SeqCst) != NODE_UP || rec.buffer.is_empty() {
                return None;
            }
            self.send_carrying(&mut rec, vec![(Vec::new(), None)])
        };
        self.demote_on_err(flush).ok()?.pop()
    }
}

/// Installs a fresh connection on a locked send half: the write stream,
/// and a new inbox over the read half.
fn install_connection(send: &mut SendHalf, wstream: TcpStream, rstream: TcpStream) {
    send.stream = Some(wstream);
    send.inbox = Some(Arc::new(Inbox {
        slots: TrackedMutex::new(
            LockRank::ClusterInbox,
            Slots {
                reader: Some(ReadHalf {
                    stream: rstream,
                    frames: FrameReader::new(MAX_FRAME_LEN),
                }),
                tickets: VecDeque::new(),
                next_seq: 0,
                answered: Vec::new(),
                pushed: Vec::new(),
                lost: false,
                parked: 0,
            },
        ),
        filed: Condvar::new(),
    }));
}

/// Cuts a locked send half's connection: shuts the socket down and
/// loses its inbox (see [`NodeChannel::cut`]).
fn cut_connection(send: &mut SendHalf) {
    if let Some(s) = send.stream.take() {
        // Qualified call: `s.shutdown(..)` would collide with
        // `Router::shutdown` in the lint's same-file call resolution
        // and manufacture a phantom lock edge.
        let _ = TcpStream::shutdown(&s, Shutdown::Both);
    }
    if let Some(inbox) = send.inbox.take() {
        let mut slots = inbox.slots.lock();
        slots.fail();
        inbox.wake(&slots);
    }
}

impl Slots {
    /// Files one frame read from the node: a standing-delta push is
    /// stashed for the next reply's caller; any other frame answers the
    /// oldest ticket, counting the outbox entries it acknowledges — so
    /// a reply nobody waits for still acknowledges. A reply with no
    /// ticket outstanding means the stream desynchronized. A reply that
    /// says the node refused a carried frame condemns the node: its
    /// planes no longer match the cluster's, and no reconnect mends
    /// that. `true` when the connection is lost.
    fn file_frame(&mut self, frame: Frame, ch: &NodeChannel) -> bool {
        if self.lost {
            return true;
        }
        if frame.tag == wire::tag::STANDING_DELTA {
            self.pushed.push(frame.payload);
            return false;
        }
        let Some(ticket) = self.tickets.pop_front() else {
            self.lose(ch);
            return true;
        };
        let refused = (frame.tag == wire::tag::ERROR)
            .then(|| wire::decode_carry_rejected(&frame.payload))
            .flatten();
        if let Some(at) = refused {
            let text = String::from_utf8_lossy(&frame.payload).into_owned();
            eprintln!(
                "router: node {} rejected carried frame {at}: {text}",
                ch.index
            );
            ch.state.store(NODE_DOWN, Ordering::SeqCst);
            self.settle(
                ticket,
                Err(io::Error::new(io::ErrorKind::InvalidData, text)),
            );
            self.fail();
            return true;
        }
        ch.acked.fetch_add(ticket.carried, Ordering::SeqCst);
        let pushed = std::mem::take(&mut self.pushed);
        self.settle(ticket, Ok((frame, pushed)));
        false
    }

    fn settle(&mut self, ticket: Ticket, result: TicketResult) {
        if !ticket.abandoned {
            self.answered.push((ticket.seq, result));
        }
    }

    /// The connection failed under whoever read it: demote rather than kill —
    /// the supervisor decides whether the outage is survivable — and
    /// fail every ticket not yet answered. The demotion happens before
    /// any caller can see its ticket fail.
    fn lose(&mut self, ch: &NodeChannel) {
        if self.lost {
            // Cut already: the node's state may belong to a newer
            // connection by now.
            return;
        }
        let _ = ch.state.compare_exchange(
            NODE_UP,
            NODE_RECONNECTING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.fail();
    }

    /// Marks the connection gone: unanswered tickets fail, and nothing
    /// more is filed.
    fn fail(&mut self) {
        self.lost = true;
        self.tickets.clear();
    }
}

impl Inbox {
    /// Queues `tickets` in send order and returns the first one's
    /// number; `None` once the connection is lost.
    fn queue_tickets(&self, tickets: &[Framed]) -> Option<u64> {
        let mut slots = self.slots.lock();
        if slots.lost {
            return None;
        }
        let first = slots.next_seq;
        for t in tickets {
            let seq = slots.next_seq;
            slots.next_seq += 1;
            slots.tickets.push_back(Ticket {
                seq,
                carried: t.carried,
                abandoned: !t.wanted,
            });
        }
        Some(first)
    }

    /// Wakes the parked callers, if there are any.
    fn wake(&self, slots: &Slots) {
        if slots.parked > 0 {
            self.filed.notify_all();
        }
    }

    /// Blocks until ticket `seq` is answered or lost, or until
    /// `deadline` (`None`). While its reply is not in, the caller reads
    /// the socket itself if nobody does — one frame at a time, filing
    /// each — and otherwise parks until somebody files one.
    fn await_answer(&self, ch: &NodeChannel, seq: u64, deadline: Instant) -> Option<TicketResult> {
        loop {
            let mut half = match self.take_turn(seq, deadline) {
                Ok(half) => half,
                Err(answer) => return answer,
            };
            // `Drained` reads again; a read-timeout tick is `Pending`,
            // and the next turn re-checks the deadline.
            let polled = loop {
                match half.frames.poll(&mut half.stream) {
                    Ok(Poll::Drained) => {}
                    polled => break polled,
                }
            };
            let mut slots = self.slots.lock();
            slots.reader = Some(half);
            match polled {
                Ok(Poll::Frame(frame)) => {
                    slots.file_frame(frame, ch);
                }
                Ok(Poll::Pending | Poll::Drained) => {}
                Ok(Poll::Eof) | Err(_) => slots.lose(ch),
            }
            self.wake(&slots);
        }
    }

    /// A waiting caller's next turn: the reading role, or — `Err` — its
    /// answer, the loss of the connection, or `None` at the deadline.
    /// Parks while another caller reads.
    fn take_turn(&self, seq: u64, deadline: Instant) -> Result<ReadHalf, Option<TicketResult>> {
        let mut slots = self.slots.lock();
        loop {
            if let Some(i) = slots.answered.iter().position(|(s, _)| *s == seq) {
                return Err(Some(slots.answered.swap_remove(i).1));
            }
            if slots.lost {
                return Err(Some(Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "node connection lost",
                ))));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(None);
            }
            if let Some(half) = slots.reader.take() {
                return Ok(half);
            }
            slots.parked += 1;
            slots = slots.wait_timeout(&self.filed, deadline - now).0;
            slots.parked -= 1;
        }
    }

    /// Reads and files, without blocking, every frame the socket holds
    /// while no caller holds the reading role. Caller holds the send
    /// half, so no write is in flight while the socket is nonblocking.
    /// `true` when the connection turned out lost.
    fn read_ready(&self, ch: &NodeChannel) -> bool {
        let mut slots = self.slots.lock();
        if slots.lost {
            return true;
        }
        let Some(mut half) = slots.reader.take() else {
            return false;
        };
        let mut lost = half.stream.set_nonblocking(true).is_err();
        let mut filed = false;
        while !lost {
            match half.frames.poll(&mut half.stream) {
                Ok(Poll::Frame(frame)) => {
                    lost = slots.file_frame(frame, ch);
                    filed = true;
                }
                // The last read came back short: read once more, so a
                // close behind the last frame is seen this tick.
                Ok(Poll::Drained) => {}
                Ok(Poll::Pending) => break,
                Ok(Poll::Eof) | Err(_) => lost = true,
            }
        }
        if half.stream.set_nonblocking(false).is_err() {
            lost = true;
        }
        slots.reader = Some(half);
        if lost {
            slots.lose(ch);
        }
        if filed || lost {
            self.wake(&slots);
        }
        lost
    }
}

impl PendingCall<'_> {
    /// Blocks for the reply; delta pushes that rode ahead of it are
    /// appended to `deltas`. A timeout or transport failure demotes the
    /// node (retryable); a protocol-violating reply, or one refusing a
    /// carried frame, poisons it (fatal — reconnecting cannot fix a
    /// node that answers garbage or has diverged).
    fn wait(mut self, deltas: &mut DeltaBatch) -> io::Result<Outbound> {
        let deadline = Instant::now() + self.channel.node_timeout;
        let answer = self.inbox.await_answer(self.channel, self.seq, deadline);
        self.settled = true;
        match answer {
            Some(Ok((frame, pushed))) => {
                for bytes in pushed {
                    if let Some(key) = delta_key(&bytes) {
                        deltas.push((key, bytes));
                    }
                }
                match classify_reply(frame) {
                    Ok(reply) => Ok(reply_frame(reply)),
                    Err(e) => {
                        self.channel.poison();
                        Err(self.channel.failed_error(&e))
                    }
                }
            }
            Some(Err(e)) if e.kind() == io::ErrorKind::InvalidData => {
                self.channel.poison();
                Err(self.channel.failed_error(&e))
            }
            Some(Err(e)) => {
                self.channel.demote();
                Err(self
                    .channel
                    .retryable_error(&format!("dropped the connection ({e})")))
            }
            None => {
                self.channel.demote();
                Err(self.channel.retryable_error("timed out"))
            }
        }
    }
}

impl Drop for PendingCall<'_> {
    /// A call dropped without waiting abandons its ticket: whoever
    /// reads the reply counts it and discards it.
    fn drop(&mut self) {
        if self.settled {
            return;
        }
        let mut slots = self.inbox.slots.lock();
        if let Some(ticket) = slots.tickets.iter_mut().find(|t| t.seq == self.seq) {
            ticket.abandoned = true;
        } else if let Some(i) = slots.answered.iter().position(|(s, _)| *s == self.seq) {
            let _ = slots.answered.swap_remove(i);
        }
    }
}

/// The routing bookkeeping, held only for table lookups — never across
/// node I/O.
#[derive(Default)]
struct Tables {
    /// Users some node accepted a registration of: only their updates
    /// move a position, so only theirs are mirrored.
    registered: HashSet<u64>,
    /// Standing-range query id → subject user (routes snapshots to the
    /// node owning that user).
    range_user: HashMap<u64, u64>,
}

/// The node that owns `user` for the user's whole life in a cluster of
/// `nodes` (clamped to at least 1): the SplitMix64 finalizer of the id,
/// modulo the node count. Fixed and unkeyed, so every router over the
/// same nodes agrees; a hash rather than `user % nodes`, so ids that
/// share a residue — one client's users, say — still spread over the
/// nodes.
pub fn owner_of(user: u64, nodes: usize) -> usize {
    let mut z = user;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let nodes = u64::try_from(nodes.max(1)).unwrap_or(u64::MAX);
    usize::try_from(z % nodes).unwrap_or(0)
}

/// Subscription actions the core requests; applied after routing so the
/// subscription table never nests inside the routing path.
enum SubAction {
    /// Subscribe the requesting connection to a standing-query key.
    Subscribe((u8, u64)),
    /// Forget every subscription to a deregistered query.
    DropQuery((u8, u64)),
}

/// The router's routing core: one pipelined channel per node, the
/// request gate, and the routing tables.
struct Core {
    channels: Vec<NodeChannel>,
    /// The request gate. Shared by runs; exclusive quiesces the cluster
    /// for operations every node must observe at the same point in the
    /// request stream (standing broadcasts, bulk rejoin resyncs).
    gate: TrackedRwLock<()>,
    tables: TrackedMutex<Tables>,
    /// Standing count queries registered through this router and not
    /// dropped. Changed only under the exclusive gate, read once per
    /// run: while one exists, runs keep to one updating node.
    counts: AtomicUsize,
    /// Counter sink for transport accounting on paths that do not
    /// otherwise carry the registry (mirror-frame drops).
    obs: Arc<MetricsRegistry>,
}

impl Core {
    fn channel(&self, i: usize) -> io::Result<&NodeChannel> {
        self.channels
            .get(i)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no node {i}")))
    }

    /// One closed-loop request to node `i` (begin + wait).
    fn call(
        &self,
        i: usize,
        tag: u8,
        payload: &[u8],
        deltas: &mut DeltaBatch,
    ) -> io::Result<Outbound> {
        self.channel(i)?.begin(tag, payload)?.wait(deltas)
    }

    /// Hands node `i` a mirror frame it is not being asked to answer:
    /// into its outbox ([`NodeChannel::queue`]), dropped only when the
    /// node is terminally `Down`. Returns `false` on a drop;
    /// doctrine-preserved frames (standing installs) additionally bump
    /// `mirror_drops` and log, because losing one means state diverged
    /// and stays diverged.
    fn absorb_mirror(&self, i: usize, tag: u8, payload: &[u8]) -> bool {
        let Ok(ch) = self.channel(i) else {
            return false;
        };
        if ch.queue(tag, payload) {
            return true;
        }
        if retained_on_overflow(tag) {
            NetCounters::add(&self.obs.net().mirror_drops, 1);
            eprintln!(
                "router: node {i} went down holding an undeliverable \
                 preserved frame 0x{tag:02x}; state diverged"
            );
        }
        false
    }

    /// What the other nodes need of an update node `target` answered
    /// with `reply` — the row, and the owner's cloak when it produced
    /// one (positions advance even when the cloak failed, exactly like
    /// the sequential engine) — goes into their outboxes as one
    /// [`wire::tag::MIRROR_UPDATE`] entry each and rides the next frame
    /// begun on that node. An unavailable mirror never fails the
    /// request; its entry waits for the rejoin replay.
    fn mirror_update(
        &self,
        target: usize,
        row: wire::ExactUpdateMsg,
        reply: Outbound,
    ) -> io::Result<Outbound> {
        if self.channels.len() == 1 {
            return Ok(reply);
        }
        let cloak = if reply.0 == wire::tag::CLOAKED_UPDATE {
            let Some(cloak) = wire::decode_cloaked_update(&reply.1) else {
                let owner = self.channel(target)?;
                owner.poison();
                return Err(owner.failed_error(&io::Error::new(
                    io::ErrorKind::InvalidData,
                    "undecodable cloaked update",
                )));
            };
            Some(cloak)
        } else {
            None
        };
        let mirror = wire::encode_mirror_update(&wire::MirrorUpdateMsg { row, cloak });
        for i in (0..self.channels.len()).filter(|&i| i != target) {
            self.absorb_mirror(i, wire::tag::MIRROR_UPDATE, &mirror);
        }
        Ok(reply)
    }

    /// A standing registration or deregistration: one round trip to
    /// node 0, the sole id allocator, whose reply is the client's. If
    /// node 0 is away the broadcast fails before any other node sees
    /// it; if it refuses, nothing changed, and nothing changes anywhere.
    /// Otherwise what it changed — the id it granted, installed under
    /// that id, or the id it dropped — goes into every other node's
    /// outbox as one idempotent [`wire::tag::STANDING_INSTALL`] entry.
    /// Queued under the exclusive gate once node 0 has answered, it
    /// reaches every node after the same mirror rows and before any
    /// later frame. (The narrow window where node 0 applied a
    /// registration but its ack was lost is documented in DESIGN.md.)
    /// The exclusive gate quiesces every run in flight, so the cluster
    /// observes the frame alone. `Err` means a node needed for the
    /// request is unavailable (or broke cluster consistency);
    /// [`Core::answer`] turns it into a kinded [`wire::tag::ROUTE_FAIL`]
    /// reply.
    fn route_broadcast(
        &self,
        frame: &Frame,
        deltas: &mut DeltaBatch,
        subs_out: &mut Vec<SubAction>,
    ) -> io::Result<Outbound> {
        let _gate = self.gate.write();
        let reply = self.call(0, frame.tag, &frame.payload, deltas)?;
        let granted = || wire::decode_standing_ref(&reply.1).map(|r| r.id);
        let change = match (frame.tag, reply.0) {
            (wire::tag::DEREGISTER_STANDING, wire::tag::OK) => {
                wire::decode_standing_ref(&frame.payload).map(|r| wire::StandingInstallMsg::Drop {
                    kind: r.kind,
                    id: r.id,
                })
            }
            (wire::tag::REGISTER_STANDING_COUNT, wire::tag::STANDING_REGISTERED) => granted()
                .zip(wire::decode_register_standing_count(&frame.payload))
                .map(|(id, m)| wire::StandingInstallMsg::Count { id, area: m.area }),
            (wire::tag::REGISTER_STANDING_RANGE, wire::tag::STANDING_REGISTERED) => granted()
                .zip(wire::decode_register_standing_range(&frame.payload))
                .map(|(id, m)| wire::StandingInstallMsg::Range {
                    id,
                    user: m.user,
                    radius: m.radius,
                }),
            _ => return Ok(reply),
        }
        .ok_or_else(|| {
            // Node 0 took a frame this router cannot parse — a version
            // skew, not an outage.
            io::Error::new(
                io::ErrorKind::InvalidData,
                "node 0 accepted a standing broadcast this router cannot decode",
            )
        })?;
        let payload = wire::encode_standing_install(&change);
        for i in 1..self.channels.len() {
            self.absorb_mirror(i, wire::tag::STANDING_INSTALL, &payload);
        }
        match change {
            wire::StandingInstallMsg::Count { id, .. } => {
                self.counts.fetch_add(1, Ordering::SeqCst);
                subs_out.push(SubAction::Subscribe((wire::StandingKind::Count.code(), id)));
            }
            wire::StandingInstallMsg::Range { id, user, .. } => {
                subs_out.push(SubAction::Subscribe((wire::StandingKind::Range.code(), id)));
                self.tables.lock().range_user.insert(id, user);
            }
            wire::StandingInstallMsg::Drop { kind, id } => {
                subs_out.push(SubAction::DropQuery((kind.code(), id)));
                match kind {
                    wire::StandingKind::Count => {
                        let _ = self
                            .counts
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                                Some(n.saturating_sub(1))
                            });
                    }
                    wire::StandingKind::Range => {
                        self.tables.lock().range_user.remove(&id);
                    }
                }
            }
        }
        Ok(reply)
    }
}

/// Maps a node's [`Reply`] back to the wire frame it arrived as.
fn reply_frame(reply: Reply) -> Outbound {
    match reply {
        Reply::Ok => (wire::tag::OK, Vec::new()),
        Reply::Cloaked(b) => (wire::tag::CLOAKED_UPDATE, b),
        Reply::Candidates(b) => (wire::tag::CANDIDATES, b),
        Reply::Pong(b) => (wire::tag::PONG, b),
        Reply::Stats(b) => (wire::tag::STATS_SNAPSHOT, b),
        Reply::StandingRegistered(b) => (wire::tag::STANDING_REGISTERED, b),
        Reply::StandingState(b) => (wire::tag::STANDING_STATE, b),
        Reply::ResyncState(b) => (wire::tag::RESYNC_STATE, b),
        Reply::Error(s) => (wire::tag::ERROR, s.into_bytes()),
    }
}

/// The subscription key of a standing-delta payload.
fn delta_key(payload: &[u8]) -> Option<(u8, u64)> {
    match wire::decode_standing_state(payload)? {
        wire::StandingState::Count(s) => Some((wire::StandingKind::Count.code(), s.id)),
        wire::StandingState::Range(s) => Some((wire::StandingKind::Range.code(), s.id)),
    }
}

/// `true` for tags that only router→node hops may carry; a client
/// sending one to the router is refused rather than forwarded, so the
/// public socket cannot inject into the trusted replication planes.
fn is_internal(tag: u8) -> bool {
    matches!(
        tag,
        wire::tag::MIRROR_UPDATE
            | wire::tag::CARRY
            | wire::tag::RESYNC_PULL
            | wire::tag::RESYNC_PUSH
            | wire::tag::STANDING_INSTALL
    )
}

type SharedCore = Arc<Core>;

/// The cluster's client-facing tier: a front door whose service is the
/// routing core, and the per-node reconnect supervisors.
pub struct Router {
    door: FrontDoor,
    /// Tells the supervisors to exit (the door has its own flag).
    stopping: Arc<AtomicBool>,
    supervisors: Vec<JoinHandle<()>>,
    core: SharedCore,
}

impl Router {
    /// Binds the public socket at `addr` and starts routing requests to
    /// the nodes at `node_addrs`; the node at `node_addrs[i]` is node `i`
    /// of [`owner_of`]. Node connections are established lazily, so
    /// nodes may come up after the router. One reconnect supervisor per
    /// node heals transient outages per the recovery doctrine in the
    /// module docs. `_world` is ignored: ownership does not depend on
    /// position, and the argument stays only for existing callers.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        node_addrs: &[&str],
        _world: Rect,
        cfg: RouterConfig,
    ) -> io::Result<Router> {
        if node_addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one node",
            ));
        }
        let obs = Arc::new(MetricsRegistry::new());
        let core: SharedCore = Arc::new(Core {
            channels: node_addrs
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    NodeChannel::new(
                        i,
                        (*a).to_string(),
                        cfg.node_timeout,
                        cfg.catchup_buffer_bytes,
                    )
                })
                .collect(),
            gate: TrackedRwLock::new(LockRank::ClusterRouter, ()),
            tables: TrackedMutex::new(LockRank::ClusterCore, Tables::default()),
            counts: AtomicUsize::new(0),
            obs: Arc::clone(&obs),
        });
        let service: Arc<dyn Service> = core.clone();
        let door = FrontDoor::bind(addr, cfg.net, Arc::clone(&obs), service)?;
        let stopping = Arc::new(AtomicBool::new(false));
        let supervisors = (0..core.channels.len())
            .map(|i| {
                spawn_supervisor(
                    Arc::clone(&core),
                    i,
                    Arc::clone(&obs),
                    cfg,
                    Arc::clone(&stopping),
                )
            })
            .collect();
        Ok(Router {
            door,
            stopping,
            supervisors,
            core,
        })
    }

    /// The bound public address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.door.local_addr()
    }

    /// The router's own observability registry (connection counters,
    /// `route_failures`, reconnect/rejoin/resync counters, the
    /// node-downtime histogram; scraped by `STATS` on the public
    /// socket).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.core.obs
    }

    /// Always 0: a user has one owner for life, so no user's state is
    /// ever handed from node to node. Kept only for existing callers.
    pub fn handoffs(&self) -> u64 {
        0
    }

    /// Door first: draining connections finish their requests against
    /// live node channels, with the supervisors still healing. Then
    /// every `Up` node is sent what its outbox still holds (each wait
    /// bounded by `node_timeout`), so the engines the nodes hand back
    /// hold every row the router answered for. Only then are the
    /// channels cut and the supervisors joined.
    fn stop(&mut self) {
        self.door.stop();
        let flushes: Vec<PendingCall<'_>> = self
            .core
            .channels
            .iter()
            .filter_map(NodeChannel::flush)
            .collect();
        for call in flushes {
            let _ = call.wait(&mut Vec::new());
        }
        self.stopping.store(true, Ordering::Relaxed);
        for ch in &self.core.channels {
            ch.poison();
        }
        for h in self.supervisors.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: stops accepting, lets live connections drain
    /// (bounded by the configured grace), joins every thread —
    /// supervisors included — closes the node connections, and reports
    /// what the cluster did.
    pub fn shutdown(mut self) -> RouterReport {
        self.stop();
        let snap = self.core.obs.net().snapshot();
        RouterReport {
            route_failures: snap.route_failures,
            requests_served: snap.requests_served,
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if !self.supervisors.is_empty() {
            self.stop();
        }
    }
}

/// One node's reconnect supervisor: looks at the node each tick while
/// it is up ([`NodeChannel::reap_idle`]), runs the backoff/rejoin
/// protocol when it observes `Reconnecting`, and exits when the node
/// turns terminally down (or the router stops).
fn spawn_supervisor(
    core: SharedCore,
    index: usize,
    obs: Arc<MetricsRegistry>,
    cfg: RouterConfig,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while !shutdown.load(Ordering::Relaxed) {
            let Some(ch) = core.channels.get(index) else {
                return;
            };
            match ch.state.load(Ordering::SeqCst) {
                NODE_RECONNECTING => supervise_outage(&core, index, &obs, &cfg, &shutdown),
                NODE_DOWN => return,
                _ => {
                    ch.reap_idle();
                    std::thread::sleep(SUPERVISOR_TICK);
                }
            }
        }
    })
}

/// Handles one outage end to end: reconnect under capped backoff, then
/// resync the node's planes and flip it back up — or declare it down
/// when the attempt budget runs out. Progress is narrated on stderr so
/// operators (and the CI chaos stage) can grep the recovery timeline.
fn supervise_outage(
    core: &SharedCore,
    index: usize,
    obs: &Arc<MetricsRegistry>,
    cfg: &RouterConfig,
    shutdown: &Arc<AtomicBool>,
) {
    let Ok(ch) = core.channel(index) else { return };
    {
        let mut rec = ch.recovery.lock();
        if rec.down_since.is_none() {
            rec.down_since = Some(Instant::now());
        }
    }
    eprintln!("router: node {index} connection lost; reconnecting");
    let mut attempt: u32 = 0;
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        attempt += 1;
        if attempt > cfg.reconnect_attempts.max(1) {
            ch.poison();
            let ms = finish_outage(ch, obs);
            eprintln!(
                "router: node {index} declared down after {} reconnect attempts ({ms} ms)",
                attempt - 1
            );
            return;
        }
        NetCounters::add(&obs.net().reconnect_attempts, 1);
        match ch.connect() {
            Ok((wstream, rstream)) => {
                install_connection(&mut ch.send.lock(), wstream, rstream);
                match resync_node(core, index, obs) {
                    Ok(summary) => {
                        let ms = finish_outage(ch, obs);
                        NetCounters::add(&obs.net().node_rejoins, 1);
                        eprintln!("router: node {index} rejoined ({summary}, downtime {ms} ms)");
                        return;
                    }
                    // Transient: the node slipped away again mid-resync
                    // (the wait demoted it back); keep trying.
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        eprintln!("router: node {index} resync attempt {attempt} failed: {e}");
                        sleep_backoff(cfg, index, attempt, shutdown);
                    }
                    // Consistency failure: the node (or its donor)
                    // answered garbage. Reconnecting cannot fix that.
                    Err(e) => {
                        ch.poison();
                        let ms = finish_outage(ch, obs);
                        eprintln!(
                            "router: node {index} declared down — resync rejected: {e} ({ms} ms)"
                        );
                        return;
                    }
                }
            }
            Err(e) => {
                eprintln!("router: node {index} reconnect attempt {attempt} failed: {e}");
                sleep_backoff(cfg, index, attempt, shutdown);
            }
        }
    }
}

/// Ends the outage clock: records the downtime histogram sample and
/// returns the outage length in milliseconds.
fn finish_outage(ch: &NodeChannel, obs: &MetricsRegistry) -> u64 {
    let ms = {
        let mut rec = ch.recovery.lock();
        rec.down_since
            .take()
            .map(|t| u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    };
    obs.node_downtime().record(ms as f64);
    ms
}

/// Brings a freshly reconnected node's planes back in sync and flips it
/// `Up`. The normal path replays the outbox in the order it was
/// produced; an overflowed outbox triggers a bulk donor resync under the
/// exclusive gate first, then replays the retained (non-reconstructible)
/// frames. Returns a human-readable summary for the rejoin log line.
fn resync_node(core: &SharedCore, index: usize, obs: &Arc<MetricsRegistry>) -> io::Result<String> {
    let ch = core.channel(index)?;
    // Liveness first: a freshly-accepted socket proves nothing (a dying
    // peer — or a chaos proxy — can accept and then drop). Requiring a
    // PING round trip before any replay keeps a node that cannot answer
    // in `Reconnecting` instead of flapping through phantom rejoins,
    // and keeps the `node_rejoins` counter honest.
    let mut scratch: DeltaBatch = Vec::new();
    let pong = ch
        .begin_internal(wire::tag::PING, b"rejoin")?
        .wait(&mut scratch)?;
    if pong.0 != wire::tag::PONG {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("node {index} failed the rejoin liveness check"),
        ));
    }
    let overflowed = {
        // The connection the outbox was last sent on is gone and its
        // inbox lost, so it files nothing more: nothing is on the wire,
        // and no acknowledgement counted from here on is for an entry
        // of this outbox.
        let mut rec = ch.recovery.lock();
        rec.sent = 0;
        ch.acked.store(0, Ordering::SeqCst);
        rec.overflowed
    };
    if overflowed {
        // Quiesce routing: the donor's image and the replayed tail must
        // land as one atomic step in the cluster's request stream.
        let _gate = core.gate.write();
        {
            // The image supersedes every plane frame still queued.
            let mut rec = ch.recovery.lock();
            rec.buffer.retain(|(t, _)| retained_on_overflow(*t));
            rec.buffered_bytes = rec.buffer.iter().map(|(_, p)| frame_cost(p)).sum();
        }
        let bulk = bulk_resync(core, ch)?;
        NetCounters::add(
            &obs.net().resync_bytes,
            u64::try_from(bulk).unwrap_or(u64::MAX),
        );
        let replayed = replay_buffer(ch, true)?;
        Ok(format!(
            "bulk resync {bulk} bytes + {replayed} retained frames"
        ))
    } else {
        let replayed = replay_buffer(ch, false)?;
        Ok(format!("replayed {replayed} buffered frames"))
    }
}

/// The bulk half of an overflowed rejoin: pull a full plane image from
/// the first healthy donor and push it into the rejoining node. Caller
/// holds the exclusive gate.
fn bulk_resync(core: &Core, ch: &NodeChannel) -> io::Result<usize> {
    let donor = core
        .channels
        .iter()
        .position(|c| c.index != ch.index && c.state.load(Ordering::SeqCst) == NODE_UP)
        .ok_or_else(|| {
            // Retryable: a candidate donor may itself be mid-rejoin.
            io::Error::new(
                io::ErrorKind::WouldBlock,
                "no healthy donor for bulk resync",
            )
        })?;
    let mut scratch: DeltaBatch = Vec::new();
    let (rtag, body) = core.call(donor, wire::tag::RESYNC_PULL, &[], &mut scratch)?;
    if rtag != wire::tag::RESYNC_STATE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "node {donor} failed resync pull: {}",
                String::from_utf8_lossy(&body)
            ),
        ));
    }
    let reply = ch
        .begin_internal(wire::tag::RESYNC_PUSH, &body)?
        .wait(&mut scratch)?;
    if reply.0 != wire::tag::OK {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "node {} rejected resync image: {}",
                ch.index,
                String::from_utf8_lossy(&reply.1)
            ),
        ));
    }
    Ok(body.len())
}

/// How many entries at the head of an outbox one replay envelope takes:
/// those that fit the envelope's framing, within half a frame's bytes.
/// 0: the head goes bare — a payload past the envelope's `u16` length.
fn replay_run(buffer: &VecDeque<Outbound>) -> usize {
    let mut bytes = 0usize;
    buffer
        .iter()
        .take(wire::CARRY_MAX_FRAMES)
        .take_while(|(_, payload)| {
            bytes += frame_cost(payload);
            payload.len() <= usize::from(u16::MAX) && bytes <= MAX_FRAME_LEN / 2
        })
        .count()
}

/// Replays the outbox head-first, an envelope of entries per round trip,
/// until it drains, then flips the node `Up` *under the outbox lock* —
/// the same lock appenders hold — so no frame can slip in behind the
/// flip and strand. Mirror traffic arriving mid-replay simply queues
/// behind the head and is replayed in turn. An entry is dropped only
/// once the node answered for it; a transport failure propagates
/// (retryable) and the supervisor starts the outage over with the
/// outbox as it stands.
///
/// `after_bulk`: a donor image was just installed under the exclusive
/// gate, which is what clears the overflow mark. Without one, an outbox
/// that overflowed *while* it was being replayed has dropped rows no
/// replay will bring back, and the rejoin must start over through the
/// bulk path.
fn replay_buffer(ch: &NodeChannel, after_bulk: bool) -> io::Result<usize> {
    let mut replayed = 0usize;
    loop {
        let (tag, payload, run) = {
            let mut rec = ch.recovery.lock();
            let Some((tag, payload)) = rec.buffer.front() else {
                if rec.overflowed && !after_bulk {
                    return Err(ch.retryable_error("overflowed its outbox mid-replay"));
                }
                rec.overflowed = false;
                ch.state.store(NODE_UP, Ordering::SeqCst);
                return Ok(replayed);
            };
            let run = replay_run(&rec.buffer);
            let entries = rec.buffer.iter().take(run);
            match wire::encode_carry(entries.map(|(t, p)| (*t, p.as_slice())), None) {
                Some(envelope) if run > 0 => (wire::tag::CARRY, envelope.to_vec(), run),
                _ => (*tag, payload.clone(), 0),
            }
        };
        let mut scratch: DeltaBatch = Vec::new();
        let reply = ch.begin_internal(tag, &payload)?.wait(&mut scratch)?;
        // Every outbox entry is idempotent by key, so `OK` is the only
        // answer to a replay, an envelope's refusal included (the
        // inbox already turned that into a fatal error).
        if reply.0 != wire::tag::OK {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node {} answered a replay with 0x{:02x}", ch.index, reply.0),
            ));
        }
        ch.recovery.lock().acknowledge(run.max(1));
        replayed += run.max(1);
    }
}

/// Sleeps one backoff step — capped exponential with deterministic
/// xorshift jitter (no RNG, no clock seed: reruns take identical
/// schedules) — waking early on shutdown.
fn sleep_backoff(cfg: &RouterConfig, node: usize, attempt: u32, shutdown: &Arc<AtomicBool>) {
    let base = u64::try_from(cfg.reconnect_base.as_millis())
        .unwrap_or(u64::MAX)
        .max(1);
    let cap = u64::try_from(cfg.reconnect_cap.as_millis())
        .unwrap_or(u64::MAX)
        .max(base);
    let shift = attempt.saturating_sub(1).min(16);
    let delay = base.saturating_mul(1u64 << shift).min(cap);
    let mut x = u64::try_from(node)
        .unwrap_or(0)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt))
        | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let delay = delay.saturating_add(x % (delay / 4 + 1));
    let deadline = Instant::now() + Duration::from_millis(delay);
    while Instant::now() < deadline && !shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(delay.min(5)));
    }
}

/// A frame's place in a run, decoded once: the node serving it, whose
/// it is — `None` for a frame that is a run of its own — and, for an
/// update of a registered user, the row the other nodes are owed.
struct Lane {
    node: usize,
    user: Option<u64>,
    row: Option<wire::ExactUpdateMsg>,
}

/// A frame of a run, with the connection it arrived on.
type RunFrame = (u64, Frame, Lane);

impl Service for Core {
    /// A sweep's frames in arrival order, each served as part of a run
    /// ([`Core::serve_run`]): a maximal run of registrations, queries
    /// and updates, no user twice — and, while a standing count is
    /// registered, nothing more for any other node once it holds an
    /// update for a node — or a run of one. Standing broadcasts go
    /// through [`Core::route_broadcast`]; a cluster-internal tag is
    /// refused before anything else.
    fn serve(&self, ready: Vec<(u64, Frame)>, subs: &SharedSubs) -> Vec<(u64, Outbound)> {
        let mut emitted = Vec::with_capacity(ready.len());
        let mut ready = ready.into_iter().peekable();
        while let Some((conn_id, frame)) = ready.next() {
            if is_internal(frame.tag) {
                NetCounters::add(&self.obs.net().frames_rejected, 1);
                let text = format!("cluster-internal request tag 0x{:02x}", frame.tag);
                emitted.push((conn_id, (wire::tag::ERROR, text.into_bytes())));
                continue;
            }
            let gate = self.gate.read();
            let Some(lane) = self.lane(&frame) else {
                drop(gate);
                let mut deltas: DeltaBatch = Vec::new();
                let mut sub_actions: Vec<SubAction> = Vec::new();
                let result = self.route_broadcast(&frame, &mut deltas, &mut sub_actions);
                self.answer(conn_id, result, deltas, sub_actions, subs, &mut emitted);
                continue;
            };
            // A node that pushes count deltas for its update must hold
            // every earlier cloak of the run, and a cloak exists only
            // once its owner has answered: while a count is registered,
            // a run holding an update for one node takes nothing more
            // for another. Otherwise rows ride ahead and any node may.
            let fenced = self.counts.load(Ordering::SeqCst) > 0;
            let mut updating = lane.row.filter(|_| fenced).map(|_| lane.node);
            let first = lane.user;
            let mut run: Vec<RunFrame> = vec![(conn_id, frame, lane)];
            if let Some(user) = first {
                // Built only when a second frame could join.
                let mut users: Option<HashSet<u64>> = None;
                while let Some((_, next)) = ready.peek() {
                    let Some(next_lane) = self.lane(next) else {
                        break;
                    };
                    let Some(next_user) = next_lane.user else {
                        break;
                    };
                    if updating.is_some_and(|n| n != next_lane.node) {
                        break;
                    }
                    let users = users.get_or_insert_with(|| HashSet::from([user]));
                    if !users.insert(next_user) {
                        break;
                    }
                    if fenced && next_lane.row.is_some() {
                        updating = Some(next_lane.node);
                    }
                    if let Some((conn_id, frame)) = ready.next() {
                        run.push((conn_id, frame, next_lane));
                    }
                }
            }
            self.serve_run(run, subs, &mut emitted);
            drop(gate);
        }
        emitted
    }
}

impl Core {
    /// Where `frame` goes as part of a run: a registration, query or
    /// update to its user's owner, an update carrying the row the other
    /// nodes are owed when the user is registered (an unknown user's
    /// update is refused by its owner as the sequential engine refuses
    /// it, and no plane moves). A run of its own: a snapshot to the node
    /// answering it, an undecodable payload or an unknown tag to node 0
    /// (whose reply carries the error text a single server gives).
    /// `None` for a standing broadcast. Caller holds the gate.
    fn lane(&self, frame: &Frame) -> Option<Lane> {
        let nodes = self.channels.len();
        let alone = |node| {
            Some(Lane {
                node,
                user: None,
                row: None,
            })
        };
        let user_lane = |user, row| {
            Some(Lane {
                node: owner_of(user, nodes),
                user: Some(user),
                row,
            })
        };
        match frame.tag {
            wire::tag::REGISTER => {
                wire::decode_register(&frame.payload).map_or(alone(0), |m| user_lane(m.user, None))
            }
            wire::tag::USER_QUERY => wire::decode_user_query(&frame.payload)
                .map_or(alone(0), |m| user_lane(m.user, None)),
            wire::tag::EXACT_UPDATE => match wire::decode_exact_update(&frame.payload) {
                Some(row) => {
                    let known = self.tables.lock().registered.contains(&row.user);
                    user_lane(row.user, known.then_some(row))
                }
                None => alone(0),
            },
            wire::tag::REGISTER_STANDING_COUNT
            | wire::tag::REGISTER_STANDING_RANGE
            | wire::tag::DEREGISTER_STANDING => None,
            // Count registries are replicated in lockstep, so any node
            // can answer; node 0 does. A range query is maintained only
            // on the node owning its subject user.
            wire::tag::STANDING_SNAPSHOT => match wire::decode_standing_ref(&frame.payload) {
                Some(r) if r.kind == wire::StandingKind::Range => {
                    let subject = self.tables.lock().range_user.get(&r.id).copied();
                    alone(subject.map_or(0, |u| owner_of(u, nodes)))
                }
                _ => alone(0),
            },
            _ => alone(0),
        }
    }

    /// Serves a run: each node's frames begun back to back in one write
    /// ([`NodeChannel::begin_all`]), then every reply waited in arrival
    /// order and settled: an update's mirror entry queued, a
    /// registration recorded. A node that cannot be begun on answers
    /// each of its frames with that failure. Caller holds the gate, so
    /// no broadcast interleaves, and the next run is begun only after
    /// this run's mirror entries are queued.
    ///
    /// A frame of node `m` must find placed the row of every earlier
    /// update of the run, and another node's update is answered only
    /// after the run is begun: its row — no cloak yet — joins `m`'s
    /// outbox just ahead of `m`'s next frame and rides that frame's
    /// envelope. The full entry, cloak and row, follows once the owner
    /// answers, and placing the row again changes nothing. A row after
    /// `m`'s last frame of the run is not sent ahead.
    fn serve_run(&self, run: Vec<RunFrame>, subs: &SharedSubs, emitted: &mut Vec<(u64, Outbound)>) {
        let mut nodes: Vec<usize> = run.iter().map(|(_, _, lane)| lane.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let rows: Vec<Option<_>> = if nodes.len() > 1 {
            run.iter()
                .map(|(_, _, lane)| {
                    let row = lane.row?;
                    Some(wire::encode_mirror_update(&wire::MirrorUpdateMsg {
                        row,
                        cloak: None,
                    }))
                })
                .collect()
        } else {
            Vec::new()
        };
        // Each frame's call, keyed by its place in the run.
        let mut begun: Vec<(usize, io::Result<PendingCall<'_>>)> = Vec::with_capacity(run.len());
        for node in nodes {
            let mut places = Vec::new();
            let mut carriers: Vec<Carrier<'_>> = Vec::new();
            let mut ahead: Vec<&[u8]> = Vec::new();
            for (i, (_, frame, lane)) in run.iter().enumerate() {
                if lane.node == node {
                    places.push(i);
                    let request = (frame.tag, frame.payload.as_slice());
                    carriers.push((std::mem::take(&mut ahead), Some(request)));
                } else if let Some(Some(row)) = rows.get(i) {
                    ahead.push(row);
                }
            }
            match self.channel(node).and_then(|ch| ch.begin_all(carriers)) {
                Ok(calls) => begun.extend(places.into_iter().zip(calls.into_iter().map(Ok))),
                Err(e) => begun.extend(
                    places
                        .into_iter()
                        .map(|i| (i, Err(io::Error::new(e.kind(), e.to_string())))),
                ),
            }
        }
        begun.sort_unstable_by_key(|(i, _)| *i);
        for ((conn_id, frame, lane), (_, call)) in run.into_iter().zip(begun) {
            let mut deltas: DeltaBatch = Vec::new();
            let result = call
                .and_then(|call| call.wait(&mut deltas))
                .and_then(|reply| match (lane.row, lane.user) {
                    (Some(row), _) => self.mirror_update(lane.node, row, reply),
                    (None, Some(user))
                        if frame.tag == wire::tag::REGISTER && reply.0 == wire::tag::OK =>
                    {
                        self.tables.lock().registered.insert(user);
                        Ok(reply)
                    }
                    _ => Ok(reply),
                });
            self.answer(conn_id, result, deltas, Vec::new(), subs, emitted);
        }
    }

    /// Emits one routed frame's outcome: its subscription actions
    /// applied, standing deltas drained from node connections fanned
    /// out to subscribers — this connection's own ahead of the reply —
    /// then the reply. Routing errors become kinded
    /// [`wire::tag::ROUTE_FAIL`] replies: `WouldBlock` means a node is
    /// mid-reconnect (`RETRYABLE`, bumping `retryable_failures`);
    /// anything else is fatal (`DOWN`, bumping `route_failures`).
    fn answer(
        &self,
        conn_id: u64,
        result: io::Result<Outbound>,
        deltas: DeltaBatch,
        sub_actions: Vec<SubAction>,
        subs: &SharedSubs,
        emitted: &mut Vec<(u64, Outbound)>,
    ) {
        for action in sub_actions {
            match action {
                SubAction::Subscribe(key) => subscribe(subs, conn_id, key),
                SubAction::DropQuery(key) => drop_query(subs, key),
            }
        }
        emitted.extend(route_deltas(subs, deltas, |cid| cid == conn_id));
        match result {
            Ok(reply) => emitted.push((conn_id, reply)),
            Err(e) => {
                let counters = self.obs.net();
                let kind = if e.kind() == io::ErrorKind::WouldBlock {
                    NetCounters::add(&counters.retryable_failures, 1);
                    wire::ROUTE_FAIL_RETRYABLE
                } else {
                    NetCounters::add(&counters.route_failures, 1);
                    wire::ROUTE_FAIL_DOWN
                };
                let body = wire::encode_route_fail(kind, &e.to_string()).to_vec();
                emitted.push((conn_id, (wire::tag::ROUTE_FAIL, body)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_net::frame::write_frame;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A stand-in node that answers every frame `OK` and reports the
    /// moment it has written its first answer.
    fn ok_node() -> (String, mpsc::Receiver<Instant>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut frames = FrameReader::new(MAX_FRAME_LEN);
            loop {
                match frames.poll(&mut stream) {
                    Ok(Poll::Frame(_)) => {
                        if write_frame(&mut stream, wire::tag::OK, &[], MAX_FRAME_LEN).is_err() {
                            return;
                        }
                        let _ = tx.send(Instant::now());
                    }
                    Ok(Poll::Pending | Poll::Drained) => {}
                    Ok(Poll::Eof) | Err(_) => return,
                }
            }
        });
        (addr, rx)
    }

    #[test]
    fn a_share_with_more_unsent_entries_than_an_envelope_carries_leads_with_flushes() {
        let (addr, answered) = ok_node();
        let cfg = RouterConfig::default();
        let ch = NodeChannel::new(0, addr, cfg.node_timeout, cfg.catchup_buffer_bytes);
        let rows: Vec<[u8; 4]> = (0..wire::CARRY_MAX_FRAMES as u32 + 5)
            .map(u32::to_le_bytes)
            .collect();
        let ahead = rows.iter().map(|r| r.as_slice()).collect();
        let calls = ch
            .begin_all(vec![(ahead, Some((wire::tag::PING, b"x".as_slice())))])
            .expect("begun");
        assert_eq!(calls.len(), 1, "only the request's frame has a caller");
        for call in calls {
            assert_eq!(
                call.wait(&mut Vec::new()).expect("answered").0,
                wire::tag::OK
            );
        }
        // A flush of one envelope's worth, then the request's envelope
        // with the rest; reading the request's reply filed the flush's.
        for _ in 0..2 {
            answered
                .recv_timeout(Duration::from_secs(5))
                .expect("the node answers each envelope");
        }
        assert_eq!(ch.acked.load(Ordering::SeqCst), rows.len());
        ch.poison();
    }

    #[test]
    fn a_flush_nobody_waits_for_is_acknowledged_within_two_supervisor_ticks() {
        let (addr, answered) = ok_node();
        let cfg = RouterConfig::default();
        let obs = Arc::new(MetricsRegistry::new());
        let core: SharedCore = Arc::new(Core {
            channels: vec![NodeChannel::new(
                0,
                addr,
                cfg.node_timeout,
                cfg.catchup_buffer_bytes,
            )],
            gate: TrackedRwLock::new(LockRank::ClusterRouter, ()),
            tables: TrackedMutex::new(LockRank::ClusterCore, Tables::default()),
            counts: AtomicUsize::new(0),
            obs: Arc::clone(&obs),
        });
        let stopping = Arc::new(AtomicBool::new(false));
        let supervisor = spawn_supervisor(Arc::clone(&core), 0, obs, cfg, Arc::clone(&stopping));
        let ch = &core.channels[0];

        // The node is asked nothing: the FLUSH_AT-th row sends the
        // outbox in an envelope of its own, and no caller waits for it.
        for i in 0..FLUSH_AT {
            assert!(ch.queue(wire::tag::MIRROR_UPDATE, &[i as u8]));
        }
        let replied = answered
            .recv_timeout(Duration::from_secs(5))
            .expect("the node answers the flush");
        let unacknowledged = || {
            let held = ch.recovery.lock().buffer.len();
            held.saturating_sub(ch.acked.load(Ordering::SeqCst))
        };
        // Two ticks, and room for a loaded test host's scheduler.
        let bound = 2 * SUPERVISOR_TICK + Duration::from_millis(30);
        while unacknowledged() > 0 {
            assert!(
                replied.elapsed() < bound,
                "{} outbox entries still unacknowledged {:?} after the node answered",
                unacknowledged(),
                replied.elapsed()
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        stopping.store(true, Ordering::Relaxed);
        ch.poison();
        supervisor.join().unwrap();
    }
}
