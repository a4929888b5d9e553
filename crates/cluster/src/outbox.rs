//! A node's outbox: every mirror entry the router produced for one node
//! that the node has not acknowledged, oldest first, as a pure state
//! machine — no I/O, no lock, no clock. The router's `NodeChannel`
//! holds one under its `ClusterRecovery` lock.
//!
//! Each entry has a sequence number, local to the router, one more than
//! the entry before it, and each connection to the node a number of its
//! own. Two marks say where the outbox stands:
//!
//! * the *acknowledgement mark*: every entry through it has landed, and
//!   the outbox holds exactly the entries after it. A reply on the
//!   current connection acknowledges through the last number its
//!   envelope carried, taken as a max. A reply of an older connection
//!   acknowledges nothing: the replay that followed its cut may have
//!   re-applied older entries on top of the ones it carried, so only a
//!   reply on the replaying connection can say those landed last;
//! * the *sent mark*: every entry through it is on the current
//!   connection or acknowledged. A cut — a new connection — rewinds it
//!   to the acknowledgement mark, so what was on the wire when the link
//!   died leaves again ahead of what came after it.
//!
//! One rule cuts every envelope ([`Outbox::send`]), whether it carries a
//! request, flushes, drains the outbox at shutdown or replays it on a
//! rejoin.

use lbsp_core::wire;
use lbsp_net::Outbound;
use std::collections::VecDeque;
use std::ops::Range;

/// Unsent entries at which an `Up` node is sent an envelope with no
/// request: at most this many rows behind, one hop per this many.
const FLUSH_AT: usize = 32;

/// One envelope as [`Outbox::send`] cuts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Envelope {
    /// The sequence numbers it carries; empty for a bare frame.
    pub(crate) seqs: Range<u64>,
    /// The last envelope of the frame: the one a request rides.
    pub(crate) last: bool,
}

impl Envelope {
    /// What the envelope's reply acknowledges through: the last number
    /// it carried or, bare, the last sent ahead of it on its connection.
    pub(crate) fn through(&self) -> u64 {
        self.seqs.end - 1
    }
}

#[cfg_attr(test, derive(Debug, Clone, PartialEq, Eq, Hash))]
pub(crate) struct Outbox {
    /// The unacknowledged entries; the first is number `acked + 1`.
    entries: VecDeque<Outbound>,
    /// The acknowledgement mark.
    acked: u64,
    /// The sent mark, `acked ..= acked + entries.len()`.
    sent: u64,
    /// Approximate bytes held (payload + per-entry overhead).
    bytes: usize,
    /// Byte bound on what a node that is away may hold.
    bound: usize,
    /// Plane entries were dropped at the bound: the rejoin must take the
    /// bulk path.
    overflowed: bool,
    /// Most entries one envelope carries.
    cap: usize,
    /// The current connection's number.
    conn: u64,
}

/// `true` for entries that must survive an overflow: unlike plane rows
/// no donor's state image can replace them.
pub(crate) fn retained_on_overflow(tag: u8) -> bool {
    tag == wire::tag::STANDING_INSTALL
}

/// Rough accounting cost of one entry.
fn cost(payload: &[u8]) -> usize {
    payload.len() + 8
}

impl Outbox {
    /// An empty outbox holding at most `bound` bytes while its node is
    /// away.
    pub(crate) fn new(bound: usize) -> Outbox {
        Outbox {
            entries: VecDeque::new(),
            acked: 0,
            sent: 0,
            bytes: 0,
            bound,
            overflowed: false,
            cap: wire::CARRY_MAX_FRAMES,
            conn: 0,
        }
    }

    /// Appends an entry. `away`: the node is not `Up`, so a plane row
    /// past the byte bound is dropped and marks the overflow.
    pub(crate) fn push(&mut self, entry: Outbound, away: bool) {
        let c = cost(&entry.1);
        if away
            && !retained_on_overflow(entry.0)
            && (self.overflowed || self.bytes + c > self.bound)
        {
            self.overflowed = true;
            return;
        }
        self.bytes += c;
        self.entries.push_back(entry);
    }

    /// Entries not yet sent on the current connection.
    pub(crate) fn unsent(&self) -> usize {
        self.entries.len() - usize::try_from(self.sent - self.acked).unwrap_or(usize::MAX)
    }

    /// The [`FLUSH_AT`]th unsent entry is waiting.
    pub(crate) fn flush_due(&self) -> bool {
        self.unsent() >= FLUSH_AT
    }

    /// The one envelope rule: every unsent entry leaves, at most `cap` to
    /// an envelope, in as many envelopes as that takes and at least one.
    /// A request rides the last, so when more than one envelope's worth
    /// is unsent, request-less envelopes go first and no request leaves
    /// ahead of an entry produced before it. Marks them all sent.
    pub(crate) fn send(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        let mut left = self.unsent();
        loop {
            let n = left.min(self.cap);
            let first = self.sent + 1;
            self.sent += n as u64;
            left -= n;
            out.push(Envelope {
                seqs: first..self.sent + 1,
                last: left == 0,
            });
            if left == 0 {
                return out;
            }
        }
    }

    /// The entries `env` carries, oldest first.
    pub(crate) fn carried(
        &self,
        env: &Envelope,
    ) -> impl ExactSizeIterator<Item = (u8, &[u8])> + '_ {
        let skip = usize::try_from(env.seqs.start - self.acked - 1).unwrap_or(usize::MAX);
        let n = usize::try_from(env.seqs.end - env.seqs.start).unwrap_or(0);
        self.entries
            .iter()
            .skip(skip)
            .take(n)
            .map(|(t, p)| (*t, p.as_slice()))
    }

    /// A reply on connection `conn` acknowledged everything through
    /// `through`: if `conn` is the current one, the entries up to it
    /// leave, and the marks move up to it if they were below.
    pub(crate) fn acknowledge(&mut self, (conn, through): (u64, u64)) {
        if conn != self.conn {
            return;
        }
        while self.acked < through {
            let Some((_, payload)) = self.entries.pop_front() else {
                break;
            };
            self.bytes -= cost(&payload);
            self.acked += 1;
        }
        self.sent = self.sent.max(self.acked);
    }

    /// A new connection replaces the one the sent entries left on: they
    /// are unsent again. Returns the new connection's number.
    pub(crate) fn cut(&mut self) -> u64 {
        self.sent = self.acked;
        self.conn += 1;
        self.conn
    }

    /// Every entry is acknowledged.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The rejoin must go through the bulk path.
    pub(crate) fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The bulk path's purge, before a donor's image lands: the image
    /// supersedes every plane row held, so they count as acknowledged,
    /// and the retained entries follow as new ones, in order, unsent.
    pub(crate) fn purge(&mut self) {
        let held = std::mem::take(&mut self.entries);
        self.acked += held.len() as u64;
        self.sent = self.acked;
        self.bytes = 0;
        for entry in held.into_iter().filter(|(t, _)| retained_on_overflow(*t)) {
            self.push(entry, false);
        }
    }

    /// A drained replay may flip its node `Up` — unless the outbox
    /// overflowed without a donor image (`after_bulk`) to bring back the
    /// rows it dropped. Clears the overflow on success.
    pub(crate) fn rejoined(&mut self, after_bulk: bool) -> bool {
        if self.overflowed && !after_bulk {
            return false;
        }
        self.overflowed = false;
        true
    }

    /// The acknowledgement mark.
    #[cfg(test)]
    pub(crate) fn acked(&self) -> u64 {
        self.acked
    }
}

#[cfg(test)]
impl Outbox {
    /// An outbox whose envelopes carry at most `cap` entries, so a
    /// small-scope check can cross the envelope boundary.
    fn with_cap(bound: usize, cap: usize) -> Outbox {
        Outbox {
            cap,
            ..Outbox::new(bound)
        }
    }
}

/// An exhaustive small-scope check of [`Outbox`]: a breadth-first walk
/// over every interleaving, up to [`tests::MAX_DEPTH`] steps, of a
/// router driving one outbox and a model node that applies entries
/// idempotently by key, with the oracles checked at every state.
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};

    const ROW: u8 = wire::tag::MIRROR_UPDATE;
    const INSTALL: u8 = wire::tag::STANDING_INSTALL;
    /// Two entries an envelope, and two entries' bytes (a model entry's
    /// payload is 2 bytes) while the node is away.
    const CAP: usize = 2;
    const BOUND: usize = 2 * 10;
    /// The scope: entries produced, requests begun, connections cut.
    const MAX_PRODUCED: usize = 3;
    const MAX_BEGINS: u8 = 1;
    const MAX_CUTS: u8 = 2;
    /// Steps from the empty start.
    pub(super) const MAX_DEPTH: usize = 64;

    /// A model node's planes: two users' last positions (0: none) and
    /// whether standing query 0 is installed.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
    struct Planes {
        rows: [u8; 2],
        standing: bool,
    }

    impl Planes {
        /// Applies one entry, idempotently by key.
        fn apply(&mut self, (tag, payload): &Outbound) {
            match (*tag, payload.as_slice()) {
                (ROW, &[user, pos]) => self.rows[usize::from(user)] = pos,
                (INSTALL, &[_, on]) => self.standing = on == 1,
                _ => panic!("not a model entry"),
            }
        }

        /// A reference fed `entries` in production order.
        fn of(entries: &[Outbound]) -> Planes {
            let mut planes = Planes::default();
            entries.iter().for_each(|e| planes.apply(e));
            planes
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Link {
        Up,
        /// Reconnecting, with no connection.
        Away,
        /// A new connection is installed and the sent mark rewound;
        /// `bulk_due` until the donor image lands when the outbox
        /// overflowed, `after_bulk` once it has (the exclusive gate is
        /// then held: nothing is produced).
        Rejoining {
            bulk_due: bool,
            after_bulk: bool,
        },
    }

    /// A frame on the wire: the entries it carries and, for a request,
    /// how many entries were produced when it was begun.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Frame {
        through: (u64, u64),
        entries: Vec<Outbound>,
        request: Option<usize>,
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// A row of user 0 or 1, or (2) standing query 0 installed, or
        /// dropped if it is installed.
        Produce(u8),
        Begin,
        Flush,
        Deliver,
        Reply,
        LoseReply,
        Cut,
        /// A reply of a cut connection acknowledges late.
        Stale,
        Rejoin,
        Replay,
        Finish,
        Bulk,
    }

    const STEPS: [Step; 14] = [
        Step::Produce(0),
        Step::Produce(1),
        Step::Produce(2),
        Step::Begin,
        Step::Flush,
        Step::Deliver,
        Step::Reply,
        Step::LoseReply,
        Step::Cut,
        Step::Stale,
        Step::Rejoin,
        Step::Replay,
        Step::Finish,
        Step::Bulk,
    ];

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        outbox: Outbox,
        link: Link,
        wire: VecDeque<Frame>,
        /// Replies the node sent and the router has not read:
        /// (connection, through).
        replies: VecDeque<(u64, u64)>,
        /// Replies of cut connections.
        stale: VecDeque<(u64, u64)>,
        node: Planes,
        produced: Vec<Outbound>,
        /// The highest mark any reply acknowledged through.
        acked_hi: u64,
        begins: u8,
        cuts: u8,
    }

    impl World {
        fn new() -> World {
            World {
                outbox: Outbox::with_cap(BOUND, CAP),
                link: Link::Up,
                wire: VecDeque::new(),
                replies: VecDeque::new(),
                stale: VecDeque::new(),
                node: Planes::default(),
                produced: Vec::new(),
                acked_hi: 0,
                begins: 0,
                cuts: 0,
            }
        }

        fn quiescent(&self) -> bool {
            self.link == Link::Up && self.wire.is_empty() && self.outbox.unsent() == 0
        }

        /// Puts what the outbox sends on the wire.
        fn send(&mut self, request: bool) -> Result<(), String> {
            for env in self.outbox.send() {
                if !env.seqs.is_empty() && env.seqs.start <= self.acked_hi {
                    return Err(format!(
                        "entry {} was sent again after a reply acknowledged through {}",
                        env.seqs.start, self.acked_hi
                    ));
                }
                let entries = self
                    .outbox
                    .carried(&env)
                    .map(|(t, p)| (t, p.to_vec()))
                    .collect();
                self.wire.push_back(Frame {
                    through: (self.outbox.conn, env.through()),
                    entries,
                    request: (request && env.last).then_some(self.produced.len()),
                });
            }
            Ok(())
        }

        fn acknowledge(&mut self, (conn, through): (u64, u64)) {
            if conn == self.outbox.conn {
                self.acked_hi = self.acked_hi.max(through);
            }
            self.outbox.acknowledge((conn, through));
        }

        /// The connection dies: frames on the wire are lost, and the
        /// replies not yet read may still be filed late.
        fn drop_link(&mut self) {
            self.stale.extend(self.replies.drain(..));
            self.wire.clear();
            self.link = Link::Away;
        }

        /// Takes `step`: `None`, with nothing changed, when it is not
        /// enabled; `Err` when it breaks an oracle.
        fn step(&mut self, step: Step) -> Option<Result<(), String>> {
            let w = self;
            let rejoining = matches!(
                w.link,
                Link::Rejoining {
                    bulk_due: false,
                    ..
                }
            );
            match step {
                Step::Produce(kind) => {
                    let gated = matches!(
                        w.link,
                        Link::Rejoining {
                            after_bulk: true,
                            ..
                        }
                    );
                    if w.produced.len() >= MAX_PRODUCED || gated {
                        return None;
                    }
                    let entry = match kind {
                        0 | 1 => (ROW, vec![kind, w.produced.len() as u8 + 1]),
                        _ => {
                            let on = Planes::of(&w.produced).standing;
                            (INSTALL, vec![0, u8::from(!on)])
                        }
                    };
                    let (away, before) = (w.link != Link::Up, w.outbox.bytes);
                    w.produced.push(entry.clone());
                    w.outbox.push(entry, away);
                    if away && kind < 2 && w.outbox.bytes > before.max(BOUND) {
                        return Some(Err("a row took an away node's outbox past its bound".into()));
                    }
                }
                Step::Begin if w.link == Link::Up && w.begins < MAX_BEGINS => {
                    w.begins += 1;
                    if let Err(e) = w.send(true) {
                        return Some(Err(e));
                    }
                }
                Step::Flush | Step::Replay => {
                    let link_ok = match step {
                        Step::Flush => w.link == Link::Up,
                        _ => rejoining,
                    };
                    if !link_ok || w.outbox.unsent() == 0 {
                        return None;
                    }
                    if let Err(e) = w.send(false) {
                        return Some(Err(e));
                    }
                }
                Step::Deliver => {
                    let frame = w.wire.pop_front()?;
                    frame.entries.iter().for_each(|e| w.node.apply(e));
                    if let Some(p) = frame.request {
                        if w.node != Planes::of(&w.produced[..p]) {
                            return Some(Err(
                                "a request was served before an entry produced ahead of it".into(),
                            ));
                        }
                    }
                    w.replies.push_back(frame.through);
                }
                Step::Reply => {
                    let through = w.replies.pop_front()?;
                    w.acknowledge(through);
                }
                Step::LoseReply => {
                    w.replies.pop_front()?;
                }
                Step::Cut if w.link != Link::Away && w.cuts < MAX_CUTS => {
                    w.cuts += 1;
                    w.drop_link();
                }
                Step::Stale => {
                    let through = w.stale.pop_front()?;
                    w.acknowledge(through);
                }
                Step::Rejoin if w.link == Link::Away => {
                    w.outbox.cut();
                    w.link = Link::Rejoining {
                        bulk_due: w.outbox.overflowed(),
                        after_bulk: false,
                    };
                }
                Step::Bulk
                    if w.link
                        == (Link::Rejoining {
                            bulk_due: true,
                            after_bulk: false,
                        }) =>
                {
                    // The donor is up to date: its image is the
                    // reference's planes, standing queries aside.
                    w.outbox.purge();
                    w.node.rows = Planes::of(&w.produced).rows;
                    w.link = Link::Rejoining {
                        bulk_due: false,
                        after_bulk: true,
                    };
                }
                Step::Finish if rejoining && w.outbox.is_empty() => {
                    let Link::Rejoining { after_bulk, .. } = w.link else {
                        return None;
                    };
                    if w.outbox.rejoined(after_bulk) {
                        w.link = Link::Up;
                    } else {
                        w.drop_link();
                    }
                }
                _ => return None,
            }
            if w.quiescent() && w.node != Planes::of(&w.produced) {
                return Some(Err(
                    "the node's planes differ from the reference at a quiescent point".into(),
                ));
            }
            Some(Ok(()))
        }

        /// Runs the router's own recovery from here — flush, deliver,
        /// read, rejoin, bulk, replay — until the node is quiescent; a
        /// replay stalled by a lost reply times out into a cut.
        fn drain(&mut self) -> Result<(), String> {
            for _ in 0..64 {
                if self.quiescent() {
                    return Ok(());
                }
                let step = match self.link {
                    _ if !self.wire.is_empty() => Step::Deliver,
                    _ if !self.replies.is_empty() => Step::Reply,
                    Link::Up => Step::Flush,
                    Link::Away => Step::Rejoin,
                    Link::Rejoining { bulk_due: true, .. } => Step::Bulk,
                    _ if self.outbox.unsent() > 0 => Step::Replay,
                    _ if self.outbox.is_empty() => Step::Finish,
                    _ => {
                        self.drop_link();
                        continue;
                    }
                };
                self.step(step).ok_or("a recovery step was not enabled")??;
            }
            Err("the node never became quiescent".into())
        }
    }

    /// A state's fingerprint: the walk keeps these, not the states.
    fn fingerprint(world: &World) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        world.hash(&mut h);
        h.finish()
    }

    #[test]
    fn every_interleaving_keeps_the_outbox_oracles() {
        let start = World::new();
        let mut seen = HashSet::from([fingerprint(&start)]);
        let mut frontier = vec![(start, Vec::new())];
        let mut depth = 0;
        while !frontier.is_empty() && depth < MAX_DEPTH {
            depth += 1;
            let mut next = Vec::new();
            for (world, path) in frontier {
                // A step that is not enabled leaves the state as it was.
                let mut w = world.clone();
                for step in STEPS {
                    let Some(checked) = w.step(step) else {
                        continue;
                    };
                    let reached = std::mem::replace(&mut w, world.clone());
                    let mut path: Vec<Step> = path.clone();
                    path.push(step);
                    // The drain depends on the state alone: once a state.
                    let fresh = checked.is_ok() && seen.insert(fingerprint(&reached));
                    let drained = match checked {
                        Ok(()) if fresh => reached.clone().drain(),
                        other => other,
                    };
                    if let Err(why) = drained {
                        panic!("{why}, after {path:?}");
                    }
                    if fresh {
                        next.push((reached, path));
                    }
                }
            }
            frontier = next;
        }
        eprintln!(
            "outbox explorer: {} states, closed at depth {depth}",
            seen.len()
        );
        assert!(
            frontier.is_empty(),
            "the scope has states past depth {MAX_DEPTH}"
        );
    }
}
