//! The TCP front door, and the node tier built on it.
//!
//! [`FrontDoor`] is the one connection-serving stack in the workspace;
//! a tier plugs in as a [`Service`]. [`NetServer`] is the door plus a
//! service over a `ShardedEngine`; the cluster `Router` is the door
//! plus a service that routes each frame to the node owning it.
//!
//! Threading model (std-only, no async runtime):
//!
//! * **Acceptor** — one thread accepts TCP connections and places each
//!   on a shard's bounded hand-off queue, round-robin. When the chosen
//!   shard's queue is full the other shards are tried once around;
//!   only when *every* queue is full is the connection refused
//!   (counted, never silently dropped into an unbounded buffer).
//! * **Poller shards** — `workers` threads each own a *set* of
//!   nonblocking connections and run the readiness loop in
//!   [`crate::poller`]: sweep for readable bytes, hand the ready frames
//!   to the service in arrival order, and write replies as the sockets
//!   accept them. Requests from one connection are served in arrival
//!   order, which is what makes the network path byte-identical to the
//!   in-process path for a closed-loop client. Idle connections cost a
//!   nonblocking read per shard sweep, not a blocked thread each.
//! * **Outbound queues** — each connection's replies queue on its
//!   shard, bounded by `outbound_bound`. A consumer that stops reading
//!   stalls its socket write (bounded by `write_timeout`) and then its
//!   queue (bounded by `backpressure_timeout`); either way the
//!   connection is disconnected instead of buffering without limit,
//!   and a connection at its bound is not even read (read-gating).
//!
//! `PING` and `STATS` are answered by the door itself, from the
//! registry it was bound with, so every tier answers them identically
//! and a service never sees them.
//!
//! Shutdown is graceful: the acceptor stops, each live connection
//! finishes the requests already buffered on its socket (bounded by
//! `drain_grace`), outbound queues flush, and [`NetServer::shutdown`]
//! returns the engine so callers can inspect the final state the
//! network workload produced.

use crate::frame::{Frame, MAX_FRAME_LEN};
use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_core::metrics::NetCounters;
use lbsp_core::{wire, LockRank, MetricsRegistry, ShardedEngine, TrackedMutex};
use lbsp_geom::SimTime;
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One queued outbound frame: (tag, payload bytes).
pub type Outbound = (u8, Vec<u8>);

/// Who hears about which standing query.
///
/// A connection that registers a standing query is subscribed to it:
/// whenever an update changes that query's answer, the new state is
/// pushed as an unsolicited [`wire::tag::STANDING_DELTA`] frame. For a
/// connection on *another* shard (or elsewhere on the same shard) the
/// push is best-effort through its bounded delta channel (`try_send`,
/// dropped when full — a slow subscriber must never stall the
/// updater); the updating connection's own deltas ride in front of its
/// reply on its ordinary outbound queue and get the normal
/// backpressure treatment (see [`route_deltas`]).
#[derive(Default)]
pub struct StandingSubs {
    /// (kind code, query id) → subscribed connection ids.
    by_query: HashMap<(u8, u64), Vec<u64>>,
    /// Live connections' delta-push channels, by connection id.
    pub(crate) senders: HashMap<u64, mpsc::SyncSender<Outbound>>,
}

/// The subscription registry handle a [`FrontDoor`] shares with its
/// poller shards and passes to every [`Service::serve`] call.
pub type SharedSubs = Arc<TrackedMutex<StandingSubs>>;

/// What a tier does with the frames its front door read.
pub trait Service: Send + Sync {
    /// Serves one sweep's ready frames — in arrival order, each tagged
    /// with the id of the connection it arrived on — and returns
    /// `(conn_id, frame)` pairs in emit order: per request, any
    /// [`wire::tag::STANDING_DELTA`] frames for that connection, then
    /// exactly one reply. `PING` and `STATS` never reach a service.
    ///
    /// `serve` runs on the shard's thread, so whatever it blocks on
    /// (an engine mutex, a WAL fsync, a node round trip) the shard's
    /// other connections wait behind.
    fn serve(&self, ready: Vec<(u64, Frame)>, subs: &SharedSubs) -> Vec<(u64, Outbound)>;
}

/// Tuning knobs of a [`FrontDoor`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Poller shards serving connections (at least 1), on a node and on
    /// a router alike. Each shard is one thread owning a set of
    /// nonblocking connections; a connection is pinned to its shard for
    /// life, and a shard serves one sweep's requests at a time, so this
    /// is also the number of requests in flight.
    pub workers: usize,
    /// Accepted connections that may wait *per shard* for adoption
    /// before the acceptor starts refusing new ones (it tries every
    /// shard once around before giving up).
    pub accept_backlog: usize,
    /// Upper bound on a quiet shard's nap between readiness sweeps.
    /// Naps start at 100 µs and double up to this. A shard holding one
    /// connection naps waiting on that socket, so the connection's own
    /// bytes wake it at once; any other shard sleeps. The nap bounds
    /// when the shard sees a new connection, a standing-delta push from
    /// another shard, an idle timeout or shutdown: within one nap, plus
    /// up to two scheduler ticks when it waited on a socket (the
    /// kernel's read timeout counts ticks). An idle *shard* pays one
    /// wakeup per interval, regardless of how many connections it holds.
    pub read_poll: Duration,
    /// Disconnect a connection with no complete frame for this long.
    pub idle_timeout: Duration,
    /// Maximum time one socket write may stall before the consumer is
    /// declared slow and disconnected.
    pub write_timeout: Duration,
    /// Responses that may queue per connection before backpressure.
    pub outbound_bound: usize,
    /// Maximum time a request may wait for space in the outbound queue
    /// before the consumer is declared slow and disconnected.
    pub backpressure_timeout: Duration,
    /// After shutdown begins, how long a connection may keep draining
    /// already-buffered requests before being closed regardless.
    pub drain_grace: Duration,
    /// Frame body size cap (see [`MAX_FRAME_LEN`]).
    pub max_frame: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            workers: 4,
            accept_backlog: 64,
            read_poll: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(2),
            outbound_bound: 64,
            backpressure_timeout: Duration::from_secs(2),
            drain_grace: Duration::from_secs(1),
            max_frame: MAX_FRAME_LEN,
        }
    }
}

impl NetConfig {
    /// A config with `workers` poller shards and defaults elsewhere.
    pub fn with_workers(workers: usize) -> NetConfig {
        NetConfig {
            workers,
            ..NetConfig::default()
        }
    }
}

/// Why a connection ended (drives which counter is bumped).
pub(crate) enum CloseReason {
    /// Peer closed cleanly, or the handler is shutting down.
    Normal,
    /// Protocol violation (oversized/zero/truncated frame).
    BadFrame,
    /// Outbound queue or socket write stalled past its bound.
    Slow,
    /// No traffic within the idle timeout.
    Idle,
}

/// The one TCP front door: listener, acceptor, poller shards,
/// connection ids and the standing-query subscription registry, serving
/// whatever [`Service`] it was bound with.
pub struct FrontDoor {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl FrontDoor {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `service`. Connection counters and the
    /// frame-decode / outbound-wait stage timings land in `obs`, which
    /// is also what the built-in `STATS` reply snapshots.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        cfg: NetConfig,
        obs: Arc<MetricsRegistry>,
        service: Arc<dyn Service>,
    ) -> io::Result<FrontDoor> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let subs: SharedSubs = Arc::new(TrackedMutex::new(
            LockRank::NetStandingSubs,
            StandingSubs::default(),
        ));
        let conn_ids = Arc::new(AtomicU64::new(1));

        // One bounded hand-off queue per shard: acceptor -> shard. The
        // channel is single-producer single-consumer, so no lock sits
        // on the accept path.
        let shard_count = cfg.workers.max(1);
        // The CPU budget (affinity mask and quota) every shard inherits
        // from this thread, read once per door.
        let cpus = std::thread::available_parallelism().ok().map(usize::from);
        let mut shard_txs = Vec::with_capacity(shard_count);
        let shards = (0..shard_count)
            .map(|_| {
                let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(cfg.accept_backlog.max(1));
                shard_txs.push(conn_tx);
                let service = Arc::clone(&service);
                let obs = Arc::clone(&obs);
                let shutdown = Arc::clone(&shutdown);
                let subs = Arc::clone(&subs);
                let conn_ids = Arc::clone(&conn_ids);
                std::thread::spawn(move || {
                    crate::poller::run_shard(
                        service, obs, cfg, shutdown, subs, conn_ids, conn_rx, cpus,
                    );
                })
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(s) = stream else { continue };
                    NetCounters::add(&obs.net().connections_accepted, 1);
                    // Round-robin placement; a full shard queue falls
                    // through to the next shard once around. Only when
                    // every queue is full is the connection refused —
                    // never buffered without bound.
                    let mut pending = Some(s);
                    for k in 0..shard_txs.len() {
                        let idx = next.wrapping_add(k) % shard_txs.len().max(1);
                        let (Some(tx), Some(s)) = (shard_txs.get(idx), pending.take()) else {
                            break;
                        };
                        match tx.try_send(s) {
                            Ok(()) => {
                                next = idx.wrapping_add(1);
                                break;
                            }
                            Err(TrySendError::Full(s)) | Err(TrySendError::Disconnected(s)) => {
                                pending = Some(s);
                            }
                        }
                    }
                    if let Some(s) = pending {
                        NetCounters::add(&obs.net().connections_refused, 1);
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }
                // Dropping the shard senders lets draining shards exit.
            })
        };

        Ok(FrontDoor {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            shards,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets every connection finish the requests
    /// already on its socket (bounded by `drain_grace`), and joins every
    /// thread; the service is dropped with the last shard. Idempotent,
    /// and run on drop.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            // Wake the acceptor out of its blocking accept.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
        // The acceptor dropped the shard hand-off senders on exit, so
        // each shard finishes its drain and sees a closed queue.
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The node tier: a [`FrontDoor`] serving one `ShardedEngine`.
pub struct NetServer {
    door: FrontDoor,
    engine: Arc<TrackedMutex<ShardedEngine>>,
    /// The engine's own metrics registry, shared (not copied) so the
    /// network counters, per-stage timings, and cloaking histograms all
    /// land in one place — and one STATS scrape reports all of them.
    obs: Arc<MetricsRegistry>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `engine` with the given configuration.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: ShardedEngine,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        // Share the engine's registry rather than keeping a separate
        // counter set: scrapes then see engine stages and net counters
        // in one consistent snapshot.
        let obs = Arc::clone(engine.metrics_registry());
        let engine = Arc::new(TrackedMutex::new(LockRank::Engine, engine));
        let service = Arc::new(EngineService {
            engine: Arc::clone(&engine),
            obs: Arc::clone(&obs),
        });
        let door = FrontDoor::bind(addr, cfg, Arc::clone(&obs), service)?;
        Ok(NetServer { door, engine, obs })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.door.local_addr()
    }

    /// The live counter set (shared with every server thread).
    pub fn counters(&self) -> &NetCounters {
        self.obs.net()
    }

    /// The full observability registry backing this server — the same
    /// one the engine records into, and the one a `STATS` scrape
    /// snapshots.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Graceful shutdown: connections finish the requests already on
    /// their sockets (bounded by `drain_grace`), outbound queues flush,
    /// and the engine — with every state change the network workload
    /// made — is returned to the caller.
    pub fn shutdown(self) -> ShardedEngine {
        let NetServer {
            mut door, engine, ..
        } = self;
        door.stop();
        Arc::into_inner(engine)
            // lint: allow(panic) -- invariant: stop() joined every shard
            // thread and with them dropped the service, so the engine Arc
            // is uniquely owned here; a miss is a server bug, not hostile
            // input.
            .expect("engine uniquely owned after stop()")
            .into_inner()
    }
}

/// The tags the front door answers itself, for every tier.
pub(crate) fn is_builtin(tag: u8) -> bool {
    matches!(tag, wire::tag::PING | wire::tag::STATS)
}

/// Answers an [`is_builtin`] frame from the registry the door was
/// bound with.
pub(crate) fn builtin_reply(obs: &MetricsRegistry, frame: Frame) -> Outbound {
    if frame.tag == wire::tag::PING {
        return (wire::tag::PONG, frame.payload);
    }
    // A scrape takes no arguments; a payload means the peer is
    // confused, and silently ignoring it would hide that.
    if !frame.payload.is_empty() {
        NetCounters::add(&obs.net().frames_rejected, 1);
        return (
            wire::tag::ERROR,
            b"stats request carries a payload".to_vec(),
        );
    }
    (
        wire::tag::STATS_SNAPSHOT,
        wire::encode_stats_snapshot(&obs.snapshot()).to_vec(),
    )
}

/// Removes a closing connection from the subscription registry: its
/// delta-push sender and every per-query subscription entry.
pub(crate) fn unsubscribe_connection(subs: &SharedSubs, conn_id: u64) {
    let mut subs = subs.lock();
    subs.senders.remove(&conn_id);
    subs.by_query.retain(|_, conns| {
        conns.retain(|&c| c != conn_id);
        !conns.is_empty()
    });
}

/// Subscribes `conn_id` to a standing query key (idempotent).
pub fn subscribe(subs: &SharedSubs, conn_id: u64, key: (u8, u64)) {
    let mut subs = subs.lock();
    let conns = subs.by_query.entry(key).or_default();
    if !conns.contains(&conn_id) {
        conns.push(conn_id);
    }
}

/// Forgets every subscription to a deregistered standing query.
pub fn drop_query(subs: &SharedSubs, key: (u8, u64)) {
    subs.lock().by_query.remove(&key);
}

/// Fans changed standing-query states — `((kind code, query id), state
/// bytes)` — out to their subscribers. Deltas for a connection the
/// current `serve` call is answering (`is_own`) are returned, to be
/// emitted ahead of its reply per the standing-delta contract; every
/// other subscriber gets a best-effort push through its channel, dropped
/// when full — the `seq` field lets those subscribers resynchronize.
pub fn route_deltas(
    subs: &SharedSubs,
    deltas: Vec<((u8, u64), Vec<u8>)>,
    is_own: impl Fn(u64) -> bool,
) -> Vec<(u64, Outbound)> {
    let mut own = Vec::new();
    if deltas.is_empty() {
        return own;
    }
    let subs = subs.lock();
    for (key, bytes) in deltas {
        for &cid in subs.by_query.get(&key).into_iter().flatten() {
            if is_own(cid) {
                own.push((cid, (wire::tag::STANDING_DELTA, bytes.clone())));
            } else if let Some(tx) = subs.senders.get(&cid) {
                let _ = tx.try_send((wire::tag::STANDING_DELTA, bytes.clone()));
            }
        }
    }
    own
}

/// The node tier's [`Service`]: frames into the shared engine. The
/// engine is the same deterministic sharded engine the in-process
/// pipeline uses, behind one mutex.
struct EngineService {
    engine: Arc<TrackedMutex<ShardedEngine>>,
    obs: Arc<MetricsRegistry>,
}

impl Service for EngineService {
    /// Contiguous runs of `EXACT_UPDATE` — the hot path of the paper's
    /// workload — collapse into one engine crossing; every other tag is
    /// handled singly.
    fn serve(&self, ready: Vec<(u64, Frame)>, subs: &SharedSubs) -> Vec<(u64, Outbound)> {
        let mut emitted = Vec::with_capacity(ready.len());
        let mut it = ready.into_iter().peekable();
        while let Some((cid, frame)) = it.next() {
            if frame.tag == wire::tag::EXACT_UPDATE {
                let mut batch = vec![(cid, frame)];
                batch.extend(std::iter::from_fn(|| {
                    it.next_if(|(_, f)| f.tag == wire::tag::EXACT_UPDATE)
                }));
                emitted.extend(self.handle_update_batch(subs, batch));
            } else if frame.tag == wire::tag::CARRY {
                emitted.extend(self.handle_carry(&frame.payload, cid, subs));
            } else {
                emitted.push((cid, self.handle_request(frame, cid, subs)));
            }
        }
        emitted
    }
}

impl EngineService {
    /// Runs one batch of `EXACT_UPDATE` frames — a contiguous ready run
    /// from one poller sweep, each tagged with the connection it arrived
    /// on — through a *single* engine crossing, and routes the results.
    ///
    /// Rows are fed to `process_updates_wire` in arrival order, so for a
    /// closed-loop client (at most one update in flight per connection)
    /// the cloaked bytes are identical to processing each frame alone —
    /// a batch of one is the same call the in-process reference makes.
    /// A client that pipelines several updates for the same user into
    /// one sweep gets the engine's documented batch semantics: every row
    /// settles against the user's final position in the batch, exactly
    /// as the in-process pipeline's batched reference does.
    ///
    /// Standing-query changes are captured once, after the whole batch,
    /// while the engine is still locked, and fanned out by
    /// [`route_deltas`]: deltas for connections *in* the batch are
    /// returned ahead of the replies.
    ///
    /// Returns `(conn_id, frame)` pairs in emit order. Counters: one
    /// `engine_batches` per crossing, `frames_rejected` per malformed
    /// row.
    fn handle_update_batch(
        &self,
        subs: &SharedSubs,
        batch: Vec<(u64, Frame)>,
    ) -> Vec<(u64, Outbound)> {
        let counters = self.obs.net();
        // Decode every frame first; malformed payloads keep their reply
        // slot (an ERROR in arrival order) without joining the engine rows.
        let mut rows: Vec<(u64, lbsp_geom::Point, SimTime)> = Vec::with_capacity(batch.len());
        let mut slots: Vec<(u64, bool)> = Vec::with_capacity(batch.len());
        for (cid, frame) in &batch {
            match wire::decode_exact_update(&frame.payload) {
                Some(msg) => {
                    rows.push((msg.user, msg.position, msg.time));
                    slots.push((*cid, true));
                }
                None => {
                    NetCounters::add(&counters.frames_rejected, 1);
                    slots.push((*cid, false));
                }
            }
        }
        // One lock, one journal append, one standing-query capture for
        // the whole run. The wire state of every standing query the batch
        // changed is read while the engine is still locked: a delta is
        // exactly the state right after this batch, before any later
        // request.
        let (out, deltas) = if rows.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let mut eng = self.engine.lock();
            let out = eng.process_updates_wire(&rows);
            let changed = eng.take_standing_changes();
            let mut deltas: Vec<((u8, u64), Vec<u8>)> = Vec::with_capacity(changed.len());
            for (kind, id) in changed {
                if let Some(state) = eng.standing_state(kind, id) {
                    deltas.push((
                        (kind.code(), id),
                        wire::encode_standing_state(&state).to_vec(),
                    ));
                }
            }
            NetCounters::add(&counters.engine_batches, 1);
            self.obs.net_batch_size().record(rows.len() as f64);
            (out, deltas)
        };
        let mut emitted = if deltas.is_empty() {
            Vec::with_capacity(slots.len())
        } else {
            let batch_conns: HashSet<u64> = slots.iter().map(|&(cid, _)| cid).collect();
            route_deltas(subs, deltas, |cid| batch_conns.contains(&cid))
        };
        let mut results = out.into_iter();
        for (cid, decoded) in slots {
            let reply: Outbound = if decoded {
                match results.next() {
                    Some(Ok(bytes)) => (wire::tag::CLOAKED_UPDATE, bytes.into()),
                    Some(Err(e)) => (wire::tag::ERROR, e.to_string().into_bytes()),
                    None => (
                        wire::tag::ERROR,
                        b"internal error: engine returned no result row".to_vec(),
                    ),
                }
            } else {
                (wire::tag::ERROR, b"malformed update payload".to_vec())
            };
            emitted.push((cid, reply));
        }
        emitted
    }

    /// Opens a [`wire::tag::CARRY`] envelope from a router peer: the
    /// carried frames are applied in order, then the request the
    /// envelope was begun for is served as if it had arrived bare — its
    /// reply (after any deltas of its own) is the envelope's, and tells
    /// the router the carried frames landed. Consecutive mirror rows are
    /// one [`ShardedEngine::apply_mirror`]: one engine lock, one journal
    /// record, one sync. Rows move only positions and cloaks touch only
    /// the private map and the counts, so all the rows, then all the
    /// cloaks, end where each entry in turn would. A carried frame that
    /// answers anything but `OK` stops the envelope there: what came
    /// before it stands, nothing after it is applied, and the reply
    /// names it, because the router takes a refused mirror frame as this
    /// node having diverged.
    ///
    /// Kept out of line: only a router sends envelopes, and inlined
    /// into [`Service::serve`] it grows the single-node dispatch.
    #[inline(never)]
    fn handle_carry(
        &self,
        payload: &[u8],
        conn_id: u64,
        subs: &SharedSubs,
    ) -> Vec<(u64, Outbound)> {
        let rejected = |index: usize, reason: &str| {
            let text = wire::encode_carry_rejected(index, reason).to_vec();
            vec![(conn_id, (wire::tag::ERROR, text))]
        };
        let Some(msg) = wire::decode_carry(payload) else {
            NetCounters::add(&self.obs.net().frames_rejected, 1);
            return rejected(0, "malformed carry envelope");
        };
        let mut carried = msg.carried.into_iter().enumerate().peekable();
        while let Some((index, (tag, payload))) = carried.next() {
            if tag != wire::tag::MIRROR_UPDATE {
                let (rtag, body) = self.handle_request(Frame { tag, payload }, conn_id, subs);
                if rtag != wire::tag::OK {
                    return rejected(index, &String::from_utf8_lossy(&body));
                }
                continue;
            }
            let (mut rows, mut cloaks) = (Vec::new(), Vec::new());
            let mut malformed = None;
            let mut next = Some((index, payload));
            while let Some((i, payload)) = next {
                let Some(m) = wire::decode_mirror_update(&payload) else {
                    malformed = Some(i);
                    break;
                };
                rows.push((m.row.user, m.row.position, m.row.time));
                cloaks.extend(m.cloak);
                next = carried
                    .next_if(|(_, (t, _))| *t == wire::tag::MIRROR_UPDATE)
                    .map(|(i, (_, p))| (i, p));
            }
            if !rows.is_empty() {
                self.engine.lock().apply_mirror(&rows, &cloaks);
            }
            if let Some(i) = malformed {
                NetCounters::add(&self.obs.net().frames_rejected, 1);
                return rejected(i, "malformed mirror-update payload");
            }
        }
        match msg.request {
            Some((tag, payload)) => self.serve(vec![(conn_id, Frame { tag, payload })], subs),
            None => vec![(conn_id, (wire::tag::OK, Vec::new()))],
        }
    }

    /// Decodes one request frame and runs it against the engine, giving
    /// its one reply — malformed payloads and engine errors come back as
    /// [`wire::tag::ERROR`] with a UTF-8 message, so the client can tell
    /// a rejected request from a dead connection.
    fn handle_request(&self, frame: Frame, conn_id: u64, subs: &SharedSubs) -> Outbound {
        let engine = &self.engine;
        let counters = self.obs.net();
        let err = |msg: String| (wire::tag::ERROR, msg.into_bytes());
        match frame.tag {
            wire::tag::REGISTER => {
                let Some(msg) = wire::decode_register(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed register payload".into());
                };
                let req = CloakRequirement {
                    k: msg.k,
                    a_min: msg.a_min,
                    a_max: msg.a_max,
                };
                match PrivacyProfile::uniform(req) {
                    Ok(profile) => {
                        engine.lock().register(msg.user, profile);
                        (wire::tag::OK, Vec::new())
                    }
                    Err(e) => err(e.to_string()),
                }
            }
            wire::tag::USER_QUERY => {
                let Some(msg) = wire::decode_user_query(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed query payload".into());
                };
                let ans = engine.lock().range_query(msg.user, msg.time, msg.radius);
                match ans {
                    Ok(a) => (wire::tag::CANDIDATES, a.response.into()),
                    Err(e) => err(e.to_string()),
                }
            }
            wire::tag::REGISTER_STANDING_COUNT => {
                let Some(msg) = wire::decode_register_standing_count(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed standing-count registration".into());
                };
                let id = engine.lock().add_standing_count(msg.area);
                let kind = wire::StandingKind::Count;
                subscribe(subs, conn_id, (kind.code(), id));
                (
                    wire::tag::STANDING_REGISTERED,
                    wire::encode_standing_ref(&wire::StandingRefMsg { kind, id }).to_vec(),
                )
            }
            wire::tag::REGISTER_STANDING_RANGE => {
                let Some(msg) = wire::decode_register_standing_range(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed standing-range registration".into());
                };
                let id = engine.lock().add_standing_range(msg.user, msg.radius);
                let kind = wire::StandingKind::Range;
                subscribe(subs, conn_id, (kind.code(), id));
                (
                    wire::tag::STANDING_REGISTERED,
                    wire::encode_standing_ref(&wire::StandingRefMsg { kind, id }).to_vec(),
                )
            }
            wire::tag::DEREGISTER_STANDING => {
                let Some(msg) = wire::decode_standing_ref(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed standing-query reference".into());
                };
                if engine.lock().deregister_standing(msg.kind, msg.id) {
                    drop_query(subs, (msg.kind.code(), msg.id));
                    (wire::tag::OK, Vec::new())
                } else {
                    err("unknown standing query".into())
                }
            }
            wire::tag::STANDING_SNAPSHOT => {
                let Some(msg) = wire::decode_standing_ref(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed standing-query reference".into());
                };
                match engine.lock().standing_state(msg.kind, msg.id) {
                    Some(state) => (
                        wire::tag::STANDING_STATE,
                        wire::encode_standing_state(&state).to_vec(),
                    ),
                    None => err("unknown standing query".into()),
                }
            }
            // Cluster-internal frames (trusted anonymizer-tier hops from a
            // router peer). A mirrored update never touches the range
            // registry and its cloak ingest drains its changed set
            // internally, so it routes no standing deltas. STANDING_INSTALL
            // is the exception: a mirror node owns some users and pushes
            // deltas for the queries it installs, so that arm subscribes
            // like a registration does, and forgets like a deregistration
            // does.
            wire::tag::MIRROR_UPDATE => {
                let Some(msg) = wire::decode_mirror_update(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed mirror-update payload".into());
                };
                let row = (msg.row.user, msg.row.position, msg.row.time);
                engine.lock().apply_mirror(&[row], msg.cloak.as_slice());
                (wire::tag::OK, Vec::new())
            }
            wire::tag::STANDING_INSTALL => {
                let Some(msg) = wire::decode_standing_install(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed standing-install payload".into());
                };
                // Install the id node 0 granted; a duplicate id means this
                // is an ack-lost replay and the install is a no-op. Either
                // way the connection is (re)subscribed — subscribe is
                // idempotent — so delta push survives the replayed path.
                // A drop of an id already gone is such a replay too: `OK`.
                match msg {
                    wire::StandingInstallMsg::Count { id, area } => {
                        engine.lock().install_standing_count(id, area);
                        subscribe(subs, conn_id, (wire::StandingKind::Count.code(), id));
                    }
                    wire::StandingInstallMsg::Range { id, user, radius } => {
                        engine.lock().install_standing_range(id, user, radius);
                        subscribe(subs, conn_id, (wire::StandingKind::Range.code(), id));
                    }
                    wire::StandingInstallMsg::Drop { kind, id } => {
                        engine.lock().deregister_standing(kind, id);
                        drop_query(subs, (kind.code(), id));
                    }
                }
                (wire::tag::OK, Vec::new())
            }
            wire::tag::RESYNC_PULL => {
                // Bulk rejoin donation: the router asks a healthy node for a
                // full image of its replicated planes (positions + cloaks).
                // Read-only and unjournaled — the donor's state is the
                // source of truth, not an event.
                if !frame.payload.is_empty() {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed resync-pull payload".into());
                }
                let state = engine.lock().resync_export();
                (
                    wire::tag::RESYNC_STATE,
                    wire::encode_resync_state(&state).to_vec(),
                )
            }
            wire::tag::RESYNC_PUSH => {
                let Some(state) = wire::decode_resync_state(&frame.payload) else {
                    NetCounters::add(&counters.frames_rejected, 1);
                    return err("malformed resync-state payload".into());
                };
                // One mirror op, journaled, so the installed image
                // survives a second crash of the rejoiner.
                engine.lock().apply_mirror(&state.rows, &state.cloaks);
                (wire::tag::OK, Vec::new())
            }
            other => {
                NetCounters::add(&counters.frames_rejected, 1);
                err(format!("unknown request tag 0x{other:02x}"))
            }
        }
    }
}
