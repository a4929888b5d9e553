//! Wire formats for the two trust-boundary hops.
//!
//! The paper's privacy argument is about *what crosses each boundary*:
//! the user→anonymizer hop carries `(true id, exact point)`, the
//! anonymizer→server hop carries `(pseudonym, cloaked rectangle)` and
//! nothing else. These encodings make the claim executable — the server
//! hop message type simply has no field for an exact location or a true
//! identity, and the byte layout is fixed, so tests can assert the exact
//! information content.
//!
//! Encoding: fixed-width little-endian fields, each message composed
//! from the primitives in `codec.rs`, which also holds the strictness
//! every decoder here shares (exact length, guarded prefixes, validated
//! rectangles and requirements).

use crate::codec::{self, Get, Put, Reader};
use crate::standing::StandingQuery;
use bytes::{BufMut, Bytes, BytesMut};
use lbsp_anonymizer::{CloakRequirement, CloakedUpdate, Pseudonym};
use lbsp_geom::{Point, Rect, SimTime};

/// Message tags used by the framed network transport (`lbsp-net`).
///
/// Every frame on the wire is `u32 length (LE) + u8 tag + payload`; the
/// tag selects which codec in this module interprets the payload.
/// Request tags (`0x0_`) flow client → server, response tags (`0x8_`)
/// flow server → client.
pub mod tag {
    /// Client → server: register a user (payload: [`super::RegisterMsg`]).
    pub const REGISTER: u8 = 0x01;
    /// Client → server: exact location update on the trusted hop
    /// (payload: [`super::ExactUpdateMsg`]).
    pub const EXACT_UPDATE: u8 = 0x02;
    /// Client → server: private range query by the user
    /// (payload: [`super::UserQueryMsg`]).
    pub const USER_QUERY: u8 = 0x03;
    /// Either direction: liveness probe; the payload is echoed back.
    pub const PING: u8 = 0x04;
    /// Client → server: scrape the metrics registry (empty payload).
    pub const STATS: u8 = 0x05;
    /// Client → server: register a standing count query over an area
    /// (payload: [`super::RegisterStandingCountMsg`]); subscribes the
    /// connection to that query's deltas.
    pub const REGISTER_STANDING_COUNT: u8 = 0x06;
    /// Client → server: register a standing private range query on the
    /// trusted hop (payload: [`super::RegisterStandingRangeMsg`]);
    /// subscribes the connection to that query's deltas.
    pub const REGISTER_STANDING_RANGE: u8 = 0x07;
    /// Client → server: drop a standing query
    /// (payload: [`super::StandingRefMsg`]).
    pub const DEREGISTER_STANDING: u8 = 0x08;
    /// Client → server: read a standing query's current state
    /// (payload: [`super::StandingRefMsg`]).
    pub const STANDING_SNAPSHOT: u8 = 0x09;
    // Retired, never to be reused: 0x22 and 0x23 (a user's state pulled
    // from one node and pushed into another while ownership followed
    // position) and their reply 0x90. A user has one owner for life, so
    // no user's state moves between nodes.
    /// Cluster router → node (`0x2_` = intra-cluster requests): export
    /// the node's replicated planes for a rejoining peer (empty
    /// payload); the node answers with a
    /// [`RESYNC_STATE`] frame. Part of the bulk `NODE_RESYNC` transfer
    /// used when a rejoining node's catch-up buffer overflowed.
    pub const RESYNC_PULL: u8 = 0x24;
    /// Cluster router → node: install a donor node's replicated planes
    /// on a rejoining node (payload: the [`super::ResyncState`] bytes).
    /// Applied through the ordinary shadow/ingest journal ops, so the
    /// installed state is WAL-durable on the rejoined node.
    pub const RESYNC_PUSH: u8 = 0x25;
    /// Cluster router → node: install a standing query under the id
    /// node 0 assigned, or drop one node 0 deregistered (payload:
    /// [`super::StandingInstallMsg`]). Mirror nodes never allocate
    /// standing-query ids themselves — node 0 answers the client's
    /// registration and the router hands the granted id on in this
    /// frame, so replaying it after an ack-lost outage is a keyed no-op
    /// instead of a second allocation. It travels inside a [`CARRY`]
    /// envelope.
    pub const STANDING_INSTALL: u8 = 0x26;
    /// Cluster router → node: mirror an update another node owns
    /// (payload: [`super::MirrorUpdateMsg`]) — the exact row into this
    /// node's position plane and, when the owner cloaked, the owner's
    /// cloaked reply into its private store and standing-count
    /// registry. Cluster-internal trusted hop — both ends are
    /// anonymizer processes. It travels inside a [`CARRY`] envelope.
    pub const MIRROR_UPDATE: u8 = 0x27;
    /// Cluster router → node: an envelope (payload:
    /// [`super::CarryMsg`]) of mirror frames the node applies
    /// in order, followed by the one request the envelope was begun
    /// for, which the node then serves; that request's reply
    /// acknowledges the carried frames. An envelope with no request is
    /// a flush, answered [`OK`]. A carried frame the node refuses
    /// answers [`ERROR`] with [`super::encode_carry_rejected`] text and
    /// nothing after it is applied.
    pub const CARRY: u8 = 0x28;
    /// Server → client: request acknowledged, empty payload.
    pub const OK: u8 = 0x80;
    /// Server → client: a cloaked update (payload: the
    /// [`super::encode_cloaked_update`] bytes).
    pub const CLOAKED_UPDATE: u8 = 0x81;
    /// Server → client: a candidate list (payload: the
    /// [`super::encode_candidates`] bytes).
    pub const CANDIDATES: u8 = 0x82;
    /// Server → client: echo of a [`PING`] payload.
    pub const PONG: u8 = 0x83;
    /// Server → client: an encoded registry snapshot (payload: the
    /// [`super::encode_stats_snapshot`] bytes).
    pub const STATS_SNAPSHOT: u8 = 0x84;
    /// Server → client: a standing query was registered
    /// (payload: [`super::StandingRefMsg`] naming the new query).
    pub const STANDING_REGISTERED: u8 = 0x85;
    /// Server → client: a standing query's state, in reply to
    /// [`STANDING_SNAPSHOT`] (payload: the
    /// [`super::encode_standing_state`] bytes).
    pub const STANDING_STATE: u8 = 0x86;
    /// Server → client, *unsolicited*: a subscribed standing query's
    /// answer changed; same payload as [`STANDING_STATE`]. Pushed
    /// through the per-connection writer queue ahead of the reply to
    /// the update that caused it.
    pub const STANDING_DELTA: u8 = 0x87;
    /// Node → cluster router: the node's replicated planes, in reply to
    /// [`RESYNC_PULL`] (payload: the [`super::ResyncState`] bytes).
    pub const RESYNC_STATE: u8 = 0x91;
    /// Server → client: the request failed; payload is UTF-8 error text.
    pub const ERROR: u8 = 0xEE;
    /// Cluster router → client: the owning node could not serve the
    /// request; payload is [`super::encode_route_fail`] bytes — a kind
    /// byte ([`super::ROUTE_FAIL_RETRYABLE`] while the node is
    /// reconnecting, [`super::ROUTE_FAIL_DOWN`] once retries are
    /// exhausted) followed by UTF-8 text naming the node *by index*
    /// (never by address). Deliberately distinct from [`ERROR`] so a
    /// routing failure surfaces as a *kinded* transport error, never
    /// masquerading as an application-level refusal.
    pub const ROUTE_FAIL: u8 = 0xEF;
}

/// Byte length of an encoded user→anonymizer update.
pub const EXACT_UPDATE_LEN: usize = 8 + 16 + 8;
/// Byte length of an encoded anonymizer→server update.
pub const CLOAKED_UPDATE_LEN: usize = 8 + 32 + 8 + 4 + 1;

/// A user→anonymizer message: true id + exact location + time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactUpdateMsg {
    /// True user id (trusted hop only).
    pub user: u64,
    /// Exact device location.
    pub position: Point,
    /// Timestamp.
    pub time: SimTime,
}

impl Put for ExactUpdateMsg {
    fn put(&self, b: &mut impl BufMut) {
        (self.user, self.position, self.time).put(b);
    }
}

/// The row, refused when its position or time is NaN or infinite, so no
/// such row from a peer reaches the grid, the cloak, the journal or a
/// mirror.
impl Get for ExactUpdateMsg {
    fn get(r: &mut Reader<'_>) -> Option<ExactUpdateMsg> {
        let (user, position, secs) = r.get::<(u64, Point, f64)>()?;
        (position.is_finite() && secs.is_finite()).then(|| ExactUpdateMsg {
            user,
            position,
            time: SimTime::from_secs(secs),
        })
    }
}

/// Encodes a user→anonymizer update.
pub fn encode_exact_update(msg: &ExactUpdateMsg) -> Bytes {
    codec::to_bytes(msg, EXACT_UPDATE_LEN)
}

/// Decodes a user→anonymizer update; a NaN or infinite coordinate or
/// time is refused.
pub fn decode_exact_update(buf: &[u8]) -> Option<ExactUpdateMsg> {
    codec::decode(buf, Reader::get)
}

/// Encodes an anonymizer→server update: pseudonym + rectangle + time +
/// achieved k + satisfaction flags. No exact point, no true id — by
/// construction.
pub fn encode_cloaked_update(msg: &CloakedUpdate) -> Bytes {
    codec::to_bytes(msg, CLOAKED_UPDATE_LEN)
}

/// Decodes an anonymizer→server update.
pub fn decode_cloaked_update(buf: &[u8]) -> Option<CloakedUpdate> {
    codec::decode(buf, Reader::get)
}

/// Byte length of a [`MirrorUpdateMsg`] whose owner produced no cloak.
pub const MIRROR_UPDATE_ROW_LEN: usize = EXACT_UPDATE_LEN;
/// Byte length of a [`MirrorUpdateMsg`] carrying the owner's cloak.
pub const MIRROR_UPDATE_CLOAKED_LEN: usize = EXACT_UPDATE_LEN + CLOAKED_UPDATE_LEN;

/// What a node that does not own an update needs of it
/// ([`tag::MIRROR_UPDATE`]): the exact row for its position plane —
/// positions advance even when the owner's cloak failed, exactly like
/// the sequential engine — and the owner's cloaked reply, when there is
/// one, for its private store. Cluster-internal trusted hop, same
/// doctrine as [`ExactUpdateMsg`]: the struct is deliberately *not*
/// server-bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MirrorUpdateMsg {
    /// The update as the client sent it.
    pub row: ExactUpdateMsg,
    /// The owner's reply, when it cloaked.
    pub cloak: Option<CloakedUpdate>,
}

/// Encodes a mirrored update: the row, then the cloak if there is one.
pub fn encode_mirror_update(msg: &MirrorUpdateMsg) -> Bytes {
    let mut b = BytesMut::with_capacity(MIRROR_UPDATE_CLOAKED_LEN);
    msg.row.put(&mut b);
    if let Some(cloak) = &msg.cloak {
        cloak.put(&mut b);
    }
    b.freeze()
}

/// Decodes a mirrored update: exactly one of the two legal lengths, the
/// row held to [`decode_exact_update`]'s rules and the cloak to
/// [`decode_cloaked_update`]'s.
pub fn decode_mirror_update(buf: &[u8]) -> Option<MirrorUpdateMsg> {
    codec::decode(buf, |r| {
        let row = r.get()?;
        let cloak = if r.remaining() == 0 {
            None
        } else {
            Some(r.get()?)
        };
        Some(MirrorUpdateMsg { row, cloak })
    })
}

/// Most frames one [`tag::CARRY`] envelope may carry.
pub const CARRY_MAX_FRAMES: usize = 1024;

/// A [`tag::CARRY`] envelope: mirror frames to apply, in order, and
/// the request to serve after them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CarryMsg {
    /// The carried frames, `(tag, payload)`, oldest first.
    pub carried: Vec<(u8, Vec<u8>)>,
    /// The request the envelope was begun for; `None` is a flush.
    pub request: Option<(u8, Vec<u8>)>,
}

/// `true` for a tag a [`tag::CARRY`] envelope may carry: the frames a
/// router mirrors to a node without needing anything back but `OK`.
fn is_carriable(tag: u8) -> bool {
    matches!(tag, tag::MIRROR_UPDATE | tag::STANDING_INSTALL)
}

/// Encodes an envelope: a `u16` count, `tag + u16 length + payload` per
/// carried frame, then the request's tag and payload to the end of the
/// buffer (nothing, for a flush). `None` when the envelope is one
/// [`decode_carry`] would refuse: more than [`CARRY_MAX_FRAMES`]
/// frames, a carried tag that is not a mirror frame, a carried payload
/// over `u16::MAX` bytes, or an envelope for a request.
pub fn encode_carry<'a>(
    carried: impl ExactSizeIterator<Item = (u8, &'a [u8])>,
    request: Option<(u8, &[u8])>,
) -> Option<Bytes> {
    if carried.len() > CARRY_MAX_FRAMES || request.is_some_and(|(t, _)| t == tag::CARRY) {
        return None;
    }
    let mut b = BytesMut::new();
    u16::try_from(carried.len()).ok()?.put(&mut b);
    for (tag, payload) in carried {
        if !is_carriable(tag) {
            return None;
        }
        (tag, u16::try_from(payload.len()).ok()?).put(&mut b);
        b.extend_from_slice(payload);
    }
    if let Some((tag, payload)) = request {
        tag.put(&mut b);
        b.extend_from_slice(payload);
    }
    Some(b.freeze())
}

/// Decodes an envelope. Strict: the count is within
/// [`CARRY_MAX_FRAMES`], every carried frame is whole and is a mirror
/// frame (so nothing a client may send rides along, nothing that needs
/// an answer of its own, and envelopes do not nest), and the request is
/// not an envelope. Whatever follows the carried frames *is*
/// the request, so surplus bytes fail that request's own strict codec.
pub fn decode_carry(buf: &[u8]) -> Option<CarryMsg> {
    codec::decode(buf, |r| {
        let count = usize::from(r.get::<u16>()?);
        if count > CARRY_MAX_FRAMES {
            return None;
        }
        let mut carried = Vec::with_capacity(count);
        for _ in 0..count {
            let (tag, len) = r.get::<(u8, u16)>()?;
            let payload = r.take(usize::from(len))?;
            if !is_carriable(tag) {
                return None;
            }
            carried.push((tag, payload.to_vec()));
        }
        let request = match r.rest() {
            [] => None,
            [tag::CARRY, ..] => return None,
            [tag, payload @ ..] => Some((*tag, payload.to_vec())),
        };
        Some(CarryMsg { carried, request })
    })
}

/// What every [`encode_carry_rejected`] text starts with.
const CARRY_REJECTED: &str = "carried frame ";

/// The [`tag::ERROR`] text answering an envelope whose carried frame
/// `index` the node refused: that frame and everything after it,
/// request included, were not applied.
pub fn encode_carry_rejected(index: usize, reason: &str) -> Bytes {
    Bytes::from(format!("{CARRY_REJECTED}{index} rejected: {reason}").into_bytes())
}

/// The index named by an [`encode_carry_rejected`] text; `None` for any
/// other error text.
pub fn decode_carry_rejected(buf: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(buf).ok()?;
    let (index, _) = text
        .strip_prefix(CARRY_REJECTED)?
        .split_once(" rejected: ")?;
    index.parse().ok()
}

/// Byte length of an encoded cloaked private-range-query request.
pub const RANGE_QUERY_LEN: usize = 8 + 32 + 8 + 8;

/// The anonymizer→server message for a private range query (Fig. 5a):
/// pseudonym, cloaked region, radius, time. Like the update hop, there
/// is no field that could carry an exact location.
// lint: server-bound
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQueryMsg {
    /// Pseudonymized querying identity.
    pub pseudonym: Pseudonym,
    /// The cloaked region standing in for the user's position.
    pub region: Rect,
    /// Query radius in world units.
    pub radius: f64,
    /// Query timestamp.
    pub time: SimTime,
}

/// Encodes a private range query request.
pub fn encode_range_query(msg: &RangeQueryMsg) -> Bytes {
    let fields = (msg.pseudonym.0, msg.region, msg.radius, msg.time);
    codec::to_bytes(&fields, RANGE_QUERY_LEN)
}

/// Decodes a private range query request; a negative or non-finite
/// radius is refused.
pub fn decode_range_query(buf: &[u8]) -> Option<RangeQueryMsg> {
    codec::decode(buf, |r| {
        Some(RangeQueryMsg {
            pseudonym: Pseudonym(r.get()?),
            region: r.get()?,
            radius: r.radius()?,
            time: r.get()?,
        })
    })
}

/// Encodes the candidate list a private query returns to the device:
/// a length-prefixed array of `(id, x, y)` entries. The response flows
/// server→anonymizer→user, so object coordinates are fine to include —
/// they are public data.
pub fn encode_candidates(candidates: &[(u64, Point)]) -> Bytes {
    candidate_bytes(candidates.iter().copied())
}

/// The body of [`encode_candidates`], straight from any list that knows
/// its length — e.g. the public objects a query found — without
/// collecting the pairs first: one buffer of the reply's exact size,
/// each entry written in place.
pub fn candidate_bytes(candidates: impl ExactSizeIterator<Item = (u64, Point)>) -> Bytes {
    let mut out = vec![0; 4 + 24 * candidates.len()];
    codec::put_list_u32(&mut out.as_mut_slice(), candidates);
    Bytes::from(out)
}

/// Decodes a candidate list.
pub fn decode_candidates(buf: &[u8]) -> Option<Vec<(u64, Point)>> {
    codec::decode(buf, |r| r.list_u32(24))
}

/// Byte length of an encoded registration request.
pub const REGISTER_LEN: usize = 8 + 4 + 8 + 8;

/// A client→service registration: true user id plus a uniform cloaking
/// requirement `(k, a_min, a_max)`. Sent on the trusted hop only — like
/// [`ExactUpdateMsg`], it may carry the true identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegisterMsg {
    /// True user id.
    pub user: u64,
    /// Required anonymity level.
    pub k: u32,
    /// Minimum acceptable cloak area.
    pub a_min: f64,
    /// Maximum acceptable cloak area (`f64::INFINITY` = unbounded).
    pub a_max: f64,
}

/// Encodes a registration request.
pub fn encode_register(msg: &RegisterMsg) -> Bytes {
    let req = CloakRequirement {
        k: msg.k,
        a_min: msg.a_min,
        a_max: msg.a_max,
    };
    codec::to_bytes(&(msg.user, req), REGISTER_LEN)
}

/// Decodes a registration request; the requirement must pass
/// [`CloakRequirement::validate`].
pub fn decode_register(buf: &[u8]) -> Option<RegisterMsg> {
    codec::decode(buf, |r| {
        let (user, req) = r.get::<(u64, CloakRequirement)>()?;
        Some(RegisterMsg {
            user,
            k: req.k,
            a_min: req.a_min,
            a_max: req.a_max,
        })
    })
}

/// Byte length of an encoded user-side query request.
pub const USER_QUERY_LEN: usize = 8 + 8 + 8;

/// A client→service private range query on the trusted hop: the user
/// asks "objects within `radius` of me" by id — the service looks up the
/// user's cloak itself, so no location crosses the wire at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserQueryMsg {
    /// True user id (trusted hop only).
    pub user: u64,
    /// Query radius in world units.
    pub radius: f64,
    /// Query timestamp.
    pub time: SimTime,
}

/// Encodes a user-side query request.
pub fn encode_user_query(msg: &UserQueryMsg) -> Bytes {
    codec::to_bytes(&(msg.user, msg.radius, msg.time), USER_QUERY_LEN)
}

/// Decodes a user-side query request; a negative or non-finite radius
/// is refused.
pub fn decode_user_query(buf: &[u8]) -> Option<UserQueryMsg> {
    codec::decode(buf, |r| {
        Some(UserQueryMsg {
            user: r.get()?,
            radius: r.radius()?,
            time: r.get()?,
        })
    })
}

/// Lead bytes of the standing layouts: an install's or a state's kind
/// (a count or a range), or a drop.
pub(crate) const STANDING_COUNT: u8 = 0;
pub(crate) const STANDING_RANGE: u8 = 1;
const STANDING_DROP: u8 = 2;

/// Byte length of an encoded standing-count registration.
pub const REGISTER_STANDING_COUNT_LEN: usize = 32;

/// Registration of a standing count query: the monitored area and
/// nothing else. Crosses the server boundary, so — like
/// [`RangeQueryMsg`] — it must have no field that could carry an exact
/// location or a true identity.
// lint: server-bound
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegisterStandingCountMsg {
    /// The area whose expected population the query monitors.
    pub area: Rect,
}

/// Encodes a standing-count registration.
pub fn encode_register_standing_count(msg: &RegisterStandingCountMsg) -> Bytes {
    codec::to_bytes(&msg.area, REGISTER_STANDING_COUNT_LEN)
}

/// Decodes a standing-count registration.
pub fn decode_register_standing_count(buf: &[u8]) -> Option<RegisterStandingCountMsg> {
    codec::decode(buf, |r| Some(RegisterStandingCountMsg { area: r.get()? }))
}

/// Byte length of an encoded standing-range registration.
pub const REGISTER_STANDING_RANGE_LEN: usize = 16;

/// Registration of a standing private range query on the *trusted* hop:
/// the user asks "keep me updated on objects within `radius` of me" by
/// id — like [`UserQueryMsg`], the service resolves the user's cloak
/// itself, so no location crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegisterStandingRangeMsg {
    /// True user id (trusted hop only).
    pub user: u64,
    /// Query radius in world units.
    pub radius: f64,
}

/// Encodes a standing-range registration.
pub fn encode_register_standing_range(msg: &RegisterStandingRangeMsg) -> Bytes {
    codec::to_bytes(&(msg.user, msg.radius), REGISTER_STANDING_RANGE_LEN)
}

/// Decodes a standing-range registration; a negative or non-finite
/// radius is refused.
pub fn decode_register_standing_range(buf: &[u8]) -> Option<RegisterStandingRangeMsg> {
    codec::decode(buf, |r| {
        Some(RegisterStandingRangeMsg {
            user: r.get()?,
            radius: r.radius()?,
        })
    })
}

/// Byte length of an encoded standing-query reference.
pub const STANDING_REF_LEN: usize = 8;

/// A reference to a registered standing query, of either kind: its id.
/// Payload of [`tag::DEREGISTER_STANDING`] / [`tag::STANDING_SNAPSHOT`]
/// requests and of the [`tag::STANDING_REGISTERED`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandingRefMsg {
    /// Query id.
    pub id: u64,
}

/// Encodes a standing-query reference.
pub fn encode_standing_ref(msg: &StandingRefMsg) -> Bytes {
    codec::to_bytes(&msg.id, STANDING_REF_LEN)
}

/// Decodes a standing-query reference.
pub fn decode_standing_ref(buf: &[u8]) -> Option<StandingRefMsg> {
    codec::decode(buf, |r| Some(StandingRefMsg { id: r.get()? }))
}

/// Byte length of an encoded standing-count install.
pub const STANDING_INSTALL_COUNT_LEN: usize = 1 + 8 + REGISTER_STANDING_COUNT_LEN;
/// Byte length of an encoded standing-range install.
pub const STANDING_INSTALL_RANGE_LEN: usize = 1 + 8 + REGISTER_STANDING_RANGE_LEN;
/// Byte length of an encoded standing-query drop.
pub const STANDING_INSTALL_DROP_LEN: usize = 1 + STANDING_REF_LEN;

/// A change node 0 made to its standing registry, as handed on to the
/// other nodes in a [`tag::STANDING_INSTALL`] frame: a registration
/// with the id node 0 granted, so the node installs *that* id instead
/// of allocating one, or a deregistration naming the id to drop. Keyed
/// by id, each is idempotent — a replay after an ack-lost outage is a
/// no-op — which is what lets the router keep these frames in a node's
/// outbox without knowing whether the first delivery landed.
/// Cluster-internal trusted hop (a range install carries a true user
/// id), same doctrine as [`RegisterStandingRangeMsg`] on the client hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StandingInstallMsg {
    /// Install `query` under `id`.
    Install {
        /// The node-0-granted query id.
        id: u64,
        /// What the query asks.
        query: StandingQuery,
    },
    /// Drop the standing query `id`; dropping an id the node does not
    /// hold changes nothing.
    Drop {
        /// The id node 0 deregistered.
        id: u64,
    },
}

/// An install is the kind's lead byte, the granted id, then the same
/// parameter bytes the client registration carried; a drop is a lead
/// byte no kind has, then the id. The journal logs an install in this
/// layout too.
impl Put for StandingInstallMsg {
    fn put(&self, b: &mut impl BufMut) {
        match *self {
            StandingInstallMsg::Install {
                id,
                query: StandingQuery::Count { area },
            } => (STANDING_COUNT, id, area).put(b),
            StandingInstallMsg::Install {
                id,
                query: StandingQuery::Range { subject, radius },
            } => (STANDING_RANGE, id, subject, radius).put(b),
            StandingInstallMsg::Drop { id } => (STANDING_DROP, id).put(b),
        }
    }
}

/// The parameters are held to the client registration's rules.
impl Get for StandingInstallMsg {
    fn get(r: &mut Reader<'_>) -> Option<StandingInstallMsg> {
        let code = r.get()?;
        let id = r.get()?;
        let query = match code {
            STANDING_DROP => return Some(StandingInstallMsg::Drop { id }),
            STANDING_COUNT => StandingQuery::Count { area: r.get()? },
            STANDING_RANGE => StandingQuery::Range {
                subject: r.get()?,
                radius: r.radius()?,
            },
            _ => return None,
        };
        Some(StandingInstallMsg::Install { id, query })
    }
}

/// Encodes a standing-query install or drop.
pub fn encode_standing_install(msg: &StandingInstallMsg) -> Bytes {
    codec::to_bytes(msg, STANDING_INSTALL_COUNT_LEN)
}

/// Decodes a standing-query install or drop.
pub fn decode_standing_install(buf: &[u8]) -> Option<StandingInstallMsg> {
    codec::decode(buf, Reader::get)
}

/// Byte length of an encoded standing-count state.
pub const STANDING_COUNT_STATE_LEN: usize = 1 + 8 + 8 + 8 + 8 + 8;

/// The state of a standing count query: aggregate statistics only
/// (expected count and the `[certain, possible]` interval). Crosses the
/// server boundary in [`tag::STANDING_STATE`] / [`tag::STANDING_DELTA`]
/// frames, so the taint rule checks it structurally — no field may
/// carry a position or identity.
// lint: server-bound
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandingCountState {
    /// Query id in the count registry.
    pub id: u64,
    /// Change sequence number (bumped per interval change).
    pub seq: u64,
    /// Expected count over the monitored area.
    pub expected: f64,
    /// Members certainly inside the area.
    pub certain: u64,
    /// Members possibly inside the area.
    pub possible: u64,
}

/// The state of a standing private range query: the cached candidate
/// objects, sorted by id. Object coordinates are public data (the same
/// rule as [`encode_candidates`]), and the answer flows back to the
/// owning user over the trusted hop.
#[derive(Debug, Clone, PartialEq)]
pub struct StandingRangeState {
    /// Query id in the range registry.
    pub id: u64,
    /// Change sequence number (bumped per candidate-set change).
    pub seq: u64,
    /// Candidate objects, sorted by id.
    pub candidates: Vec<(u64, Point)>,
}

/// A standing query's current answer, as carried by
/// [`tag::STANDING_STATE`] replies and [`tag::STANDING_DELTA`] pushes.
#[derive(Debug, Clone, PartialEq)]
pub enum StandingState {
    /// A count query's interval and expectation.
    Count(StandingCountState),
    /// A range query's candidate set.
    Range(StandingRangeState),
}

impl StandingState {
    /// The query id of this state.
    pub fn id(&self) -> u64 {
        match self {
            StandingState::Count(c) => c.id,
            StandingState::Range(r) => r.id,
        }
    }

    /// The change sequence number of this state.
    pub fn seq(&self) -> u64 {
        match self {
            StandingState::Count(c) => c.seq,
            StandingState::Range(r) => r.seq,
        }
    }
}

/// Encodes a standing-query state: kind, id and seq, then a count
/// state's expectation and interval or a range state's candidate list.
pub fn encode_standing_state(state: &StandingState) -> Bytes {
    let mut b = BytesMut::with_capacity(STANDING_COUNT_STATE_LEN);
    match state {
        StandingState::Count(c) => {
            (STANDING_COUNT, c.id, c.seq).put(&mut b);
            (c.expected, c.certain, c.possible).put(&mut b);
        }
        StandingState::Range(r) => {
            (STANDING_RANGE, r.id, r.seq).put(&mut b);
            codec::put_list_u32(&mut b, r.candidates.iter());
        }
    }
    b.freeze()
}

/// Decodes a standing-query state: the kind byte selects the layout, and
/// a count state with a non-finite expectation or an inverted interval
/// is refused.
pub fn decode_standing_state(buf: &[u8]) -> Option<StandingState> {
    codec::decode(buf, |r| {
        let (kind, id, seq) = r.get::<(u8, u64, u64)>()?;
        match kind {
            STANDING_COUNT => {
                let (expected, certain, possible) = r.get::<(f64, u64, u64)>()?;
                (expected.is_finite() && certain <= possible).then_some(StandingState::Count(
                    StandingCountState {
                        id,
                        seq,
                        expected,
                        certain,
                        possible,
                    },
                ))
            }
            STANDING_RANGE => Some(StandingState::Range(StandingRangeState {
                id,
                seq,
                candidates: r.list_u32(24)?,
            })),
            _ => None,
        }
    })
}

/// [`tag::ROUTE_FAIL`] kind byte: the owning node is mid-reconnect and
/// the client should retry shortly. The outcome of the failed request
/// is *unknown*, not "not applied": when the fault was a lost reply
/// (rather than a refused send) the node may have applied the request
/// before the cut. Retrying is unconditionally safe for idempotent
/// requests — updates, queries, snapshots — while a retried standing
/// registration can, in that narrow reply-lost window, leave an orphan
/// allocation on node 0 (client-invisible; see the recovery-doctrine
/// caveats in DESIGN.md).
pub const ROUTE_FAIL_RETRYABLE: u8 = 0;
/// [`tag::ROUTE_FAIL`] kind byte: the node exhausted its reconnect
/// budget (or the failure is non-transient) and its users are dark.
pub const ROUTE_FAIL_DOWN: u8 = 1;

/// Encodes a kinded routing failure: one kind byte followed by UTF-8
/// text describing the failure (node index + failure kind — never a
/// socket address; internal topology stays behind the router).
pub fn encode_route_fail(kind: u8, message: &str) -> Bytes {
    Bytes::from([&[kind], message.as_bytes()].concat())
}

/// Decodes a kinded routing failure. Strict: rejects the empty payload,
/// unknown kind bytes, and non-UTF-8 text.
pub fn decode_route_fail(buf: &[u8]) -> Option<(u8, String)> {
    let (&kind, text) = buf.split_first()?;
    if kind != ROUTE_FAIL_RETRYABLE && kind != ROUTE_FAIL_DOWN {
        return None;
    }
    Some((kind, String::from_utf8(text.to_vec()).ok()?))
}

/// A donor node's replicated planes, carried by [`tag::RESYNC_STATE`] /
/// [`tag::RESYNC_PUSH`] frames when a rejoining node's catch-up buffer
/// overflowed: every tracked position (the shadow plane) and every
/// private cloak record (the ingest plane). Cluster-internal trusted
/// hop — both ends are anonymizer processes, same doctrine as
/// [`MirrorUpdateMsg`] on [`tag::MIRROR_UPDATE`] — so position rows are
/// legal here and the struct is deliberately *not* server-bound.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResyncState {
    /// Position-plane rows `(user id, position, time)`, ascending by id.
    pub rows: Vec<(u64, Point, SimTime)>,
    /// Ingest-plane records, ascending by pseudonym.
    pub cloaks: Vec<CloakedUpdate>,
}

/// The `u32`-prefixed rows, then the `u32`-prefixed cloak records.
impl Put for ResyncState {
    fn put(&self, b: &mut impl BufMut) {
        codec::put_list_u32(b, self.rows.iter());
        codec::put_list_u32(b, self.cloaks.iter());
    }
}

/// The rows as the sender's plane holds them, and every cloak record
/// held to [`decode_cloaked_update`]'s rules.
impl Get for ResyncState {
    fn get(r: &mut Reader<'_>) -> Option<ResyncState> {
        Some(ResyncState {
            rows: r.list_u32(EXACT_UPDATE_LEN)?,
            cloaks: r.list_u32(CLOAKED_UPDATE_LEN)?,
        })
    }
}

/// Encodes a resync state transfer.
pub fn encode_resync_state(state: &ResyncState) -> Bytes {
    let len = 8 + EXACT_UPDATE_LEN * state.rows.len() + CLOAKED_UPDATE_LEN * state.cloaks.len();
    codec::to_bytes(state, len)
}

/// Decodes a resync state transfer.
pub fn decode_resync_state(buf: &[u8]) -> Option<ResyncState> {
    codec::decode(buf, Reader::get)
}

use crate::metrics::{NetCountersSnapshot, LOCK_HOLD_BUCKETS};
use crate::obs::{LockHoldRow, RegistrySnapshot, CLOAK_FAILURE_KINDS, HIST_BUCKETS, STAGE_COUNT};

/// Version byte leading every encoded [`RegistrySnapshot`]; bumped on
/// any layout change so a stale scraper fails loudly instead of
/// misreading counters. Version 2 added the `standing_update` stage and
/// the `standing_fanout` value histogram; version 3 added the
/// `wal_append` / `wal_fsync` / `snapshot` durability stages; version 4
/// added the `route_failures` transport counter (cluster routing);
/// version 5 added the `net_batch_size` value histogram and the
/// `engine_batches` transport counter (per-shard request batching);
/// version 6 added the `node_downtime` value histogram and the
/// `retryable_failures` / `reconnect_attempts` / `node_rejoins` /
/// `resync_bytes` transport counters (cluster self-healing); version 7
/// added the `mirror_drops` transport counter (doctrine-preserved
/// mirror frames lost to terminally down nodes).
pub const STATS_SNAPSHOT_VERSION: u8 = 7;

/// Byte length of the fixed (lock-free) part of an encoded snapshot:
/// version, the stage histograms and 6 value histograms (count, sum,
/// min, max and the buckets, 8 bytes each), the cloak-failure counters,
/// the 17 net counters, and the lock-row count.
pub const STATS_FIXED_LEN: usize =
    1 + (STAGE_COUNT + 6) * 8 * (4 + HIST_BUCKETS) + CLOAK_FAILURE_KINDS.len() * 8 + 17 * 8 + 1;

/// One lock row: the rank name's length in one byte (a longer name is
/// cut at 255 bytes), the name, acquisitions, total µs, then the
/// hold-time buckets.
impl Put for LockHoldRow {
    fn put(&self, b: &mut impl BufMut) {
        let len = u8::try_from(self.rank_label.len()).unwrap_or(u8::MAX);
        len.put(b);
        let name = self.rank_label.as_bytes();
        b.put_slice(name.get(..usize::from(len)).unwrap_or(name));
        (self.acquisitions, self.total_micros, self.buckets).put(b);
    }
}

/// A lock row whose name is UTF-8.
impl Get for LockHoldRow {
    fn get(r: &mut Reader<'_>) -> Option<LockHoldRow> {
        let len = r.get::<u8>()?;
        let name = r.take(usize::from(len))?;
        let (acquisitions, total_micros, buckets) =
            r.get::<(u64, u64, [u64; LOCK_HOLD_BUCKETS])>()?;
        Some(LockHoldRow {
            rank_label: String::from_utf8(name.to_vec()).ok()?,
            acquisitions,
            total_micros,
            buckets,
        })
    }
}

/// Encodes a registry snapshot for the `STATS_SNAPSHOT` reply. The
/// payload carries aggregate statistics only — histograms, counters,
/// and lock hold times; there is no field for a position or identity
/// (the lint taint rule checks [`RegistrySnapshot`] structurally).
pub fn encode_stats_snapshot(snap: &RegistrySnapshot) -> Bytes {
    let s = snap;
    let mut b = BytesMut::with_capacity(STATS_FIXED_LEN + s.locks.len() * 160);
    (STATS_SNAPSHOT_VERSION, &s.stages).put(&mut b);
    (&s.cloak_area, &s.achieved_k, &s.candidate_set_size).put(&mut b);
    (&s.standing_fanout, &s.net_batch_size, &s.node_downtime).put(&mut b);
    s.cloak_failures.put(&mut b);
    let n = &s.net;
    [
        n.connections_accepted,
        n.connections_refused,
        n.connections_closed,
        n.requests_served,
        n.errors_returned,
        n.frames_rejected,
        n.slow_disconnects,
        n.idle_disconnects,
        n.bytes_in,
        n.bytes_out,
        n.route_failures,
        n.engine_batches,
        n.retryable_failures,
        n.reconnect_attempts,
        n.node_rejoins,
        n.resync_bytes,
        n.mirror_drops,
    ]
    .put(&mut b);
    // A u8 count is plenty (the rank registry is single digits); rows
    // past 255 are cut at encode time.
    let rows = u8::try_from(s.locks.len()).unwrap_or(u8::MAX);
    rows.put(&mut b);
    for row in s.locks.iter().take(usize::from(rows)) {
        row.put(&mut b);
    }
    b.freeze()
}

/// Decodes a registry snapshot: the version byte must match and every
/// rank name must be UTF-8.
pub fn decode_stats_snapshot(buf: &[u8]) -> Option<RegistrySnapshot> {
    codec::decode(buf, |r| {
        if r.get::<u8>()? != STATS_SNAPSHOT_VERSION {
            return None;
        }
        // Fields are read in the order they are written.
        Some(RegistrySnapshot {
            stages: r.get()?,
            cloak_area: r.get()?,
            achieved_k: r.get()?,
            candidate_set_size: r.get()?,
            standing_fanout: r.get()?,
            net_batch_size: r.get()?,
            node_downtime: r.get()?,
            cloak_failures: r.get()?,
            net: NetCountersSnapshot {
                connections_accepted: r.get()?,
                connections_refused: r.get()?,
                connections_closed: r.get()?,
                requests_served: r.get()?,
                errors_returned: r.get()?,
                frames_rejected: r.get()?,
                slow_disconnects: r.get()?,
                idle_disconnects: r.get()?,
                bytes_in: r.get()?,
                bytes_out: r.get()?,
                route_failures: r.get()?,
                engine_batches: r.get()?,
                retryable_failures: r.get()?,
                reconnect_attempts: r.get()?,
                node_rejoins: r.get()?,
                resync_bytes: r.get()?,
                mirror_drops: r.get()?,
            },
            locks: {
                let rows = r.get::<u8>()?;
                (0..rows).map(|_| r.get()).collect::<Option<_>>()?
            },
        })
    })
}

#[cfg(test)]
mod tests {
    // Tests exercise hostile-input shapes with direct slicing; the
    // panic-freedom bar applies to the codecs, not their tests.
    #![allow(clippy::indexing_slicing, clippy::cast_possible_truncation)]

    use super::*;
    use lbsp_anonymizer::CloakedRegion;

    fn sample_cloaked() -> CloakedUpdate {
        CloakedUpdate {
            pseudonym: Pseudonym(0xABCD_EF01_2345_6789),
            region: CloakedRegion {
                region: Rect::new_unchecked(0.25, 0.5, 0.375, 0.625),
                achieved_k: 42,
                k_satisfied: true,
                area_satisfied: false,
            },
            time: SimTime::from_secs(1234.5),
        }
    }

    #[test]
    fn exact_update_roundtrip() {
        let msg = ExactUpdateMsg {
            user: 7,
            position: Point::new(0.123, 0.456),
            time: SimTime::from_secs(99.5),
        };
        let bytes = encode_exact_update(&msg);
        assert_eq!(bytes.len(), EXACT_UPDATE_LEN);
        assert_eq!(decode_exact_update(&bytes), Some(msg));
    }

    #[test]
    fn exact_update_rejects_non_finite_position_or_time() {
        let good = ExactUpdateMsg {
            user: 7,
            position: Point::new(0.5, 0.5),
            time: SimTime::from_secs(1.0),
        };
        let cloak = encode_cloaked_update(&sample_cloaked());
        // x, y and time, written over the bytes of a good row (a
        // `SimTime` cannot hold NaN or -inf, a sender's bytes can).
        for at in [8, 16, 24] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut row = encode_exact_update(&good).to_vec();
                row[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(decode_exact_update(&row), None, "{bad} at {at}");
                // A mirror reuses the row codec, so it refuses the row too.
                assert_eq!(decode_mirror_update(&row), None);
                row.extend_from_slice(&cloak);
                assert_eq!(decode_mirror_update(&row), None);
            }
        }
        assert_eq!(decode_exact_update(&encode_exact_update(&good)), Some(good));
    }

    #[test]
    fn cloaked_update_roundtrip() {
        let msg = sample_cloaked();
        let bytes = encode_cloaked_update(&msg);
        assert_eq!(bytes.len(), CLOAKED_UPDATE_LEN);
        assert_eq!(decode_cloaked_update(&bytes), Some(msg));
    }

    #[test]
    fn corrupted_rect_rejected() {
        let msg = sample_cloaked();
        let mut bytes = encode_cloaked_update(&msg).to_vec();
        // Overwrite max_x (offset 8 + 16) with a value below min_x.
        bytes[24..32].copy_from_slice(&(-5.0f64).to_le_bytes());
        assert_eq!(decode_cloaked_update(&bytes), None);
    }

    #[test]
    fn cloaked_message_carries_no_exact_location() {
        // Structural check: a k>1 cloak encodes only region bounds; the
        // payload is the documented fixed length with no room for a
        // point beyond the rectangle.
        let msg = sample_cloaked();
        let bytes = encode_cloaked_update(&msg);
        assert_eq!(bytes.len(), CLOAKED_UPDATE_LEN);
        // The true id must not appear anywhere in the payload (here id 7
        // vs pseudonym): trivially true by construction; assert the
        // pseudonym round-trips instead of an id.
        let decoded = decode_cloaked_update(&bytes).unwrap();
        assert_eq!(decoded.pseudonym, msg.pseudonym);
    }

    #[test]
    fn range_query_roundtrip_and_validation() {
        let msg = RangeQueryMsg {
            pseudonym: Pseudonym(42),
            region: Rect::new_unchecked(0.1, 0.2, 0.3, 0.4),
            radius: 0.05,
            time: SimTime::from_secs(77.0),
        };
        let bytes = encode_range_query(&msg);
        assert_eq!(bytes.len(), RANGE_QUERY_LEN);
        assert_eq!(decode_range_query(&bytes), Some(msg));
        // Truncation rejected.
        assert_eq!(decode_range_query(&bytes[..RANGE_QUERY_LEN - 1]), None);
        // Negative radius rejected.
        let mut bad = bytes.to_vec();
        bad[40..48].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(decode_range_query(&bad), None);
    }

    #[test]
    fn candidate_list_roundtrip() {
        let list = vec![(1u64, Point::new(0.1, 0.2)), (9u64, Point::new(0.9, 0.8))];
        let bytes = encode_candidates(&list);
        assert_eq!(decode_candidates(&bytes), Some(list));
        // Empty list.
        assert_eq!(decode_candidates(&encode_candidates(&[])), Some(vec![]));
        // Truncated payloads rejected.
        assert_eq!(decode_candidates(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_candidates(&[1, 0]), None);
        // A length prefix larger than the payload is rejected.
        let mut lying = bytes.to_vec();
        lying[0..4].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(decode_candidates(&lying), None);
    }

    #[test]
    fn register_roundtrip_and_validation() {
        let msg = RegisterMsg {
            user: 42,
            k: 25,
            a_min: 0.01,
            a_max: f64::INFINITY,
        };
        let bytes = encode_register(&msg);
        assert_eq!(bytes.len(), REGISTER_LEN);
        assert_eq!(decode_register(&bytes), Some(msg));
        assert_eq!(decode_register(&bytes[..REGISTER_LEN - 1]), None);
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_register(&long), None);
        // k = 0, a NaN / negative a_min, a NaN a_max and a_max < a_min
        // are rejected: the requirement rule of `CloakRequirement::validate`.
        for (k, a_min, a_max) in [
            (0, 0.0, 1.0),
            (25, f64::NAN, 1.0),
            (25, -0.5, 1.0),
            (25, 2.0, 1.0),
            (25, 0.0, f64::NAN),
        ] {
            let bad = RegisterMsg {
                k,
                a_min,
                a_max,
                ..msg
            };
            assert_eq!(decode_register(&encode_register(&bad)), None);
        }
    }

    #[test]
    fn user_query_roundtrip_and_validation() {
        let msg = UserQueryMsg {
            user: 7,
            radius: 0.25,
            time: SimTime::from_secs(12.0),
        };
        let bytes = encode_user_query(&msg);
        assert_eq!(bytes.len(), USER_QUERY_LEN);
        assert_eq!(decode_user_query(&bytes), Some(msg));
        assert_eq!(decode_user_query(&bytes[..USER_QUERY_LEN - 1]), None);
        let mut long = bytes.to_vec();
        long.push(9);
        assert_eq!(decode_user_query(&long), None);
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let msg = UserQueryMsg { radius: bad, ..msg };
            assert_eq!(decode_user_query(&encode_user_query(&msg)), None);
        }
    }

    #[test]
    fn standing_registration_roundtrips_and_validation() {
        let count = RegisterStandingCountMsg {
            area: Rect::new_unchecked(0.1, 0.2, 0.3, 0.4),
        };
        let bytes = encode_register_standing_count(&count);
        assert_eq!(bytes.len(), REGISTER_STANDING_COUNT_LEN);
        assert_eq!(decode_register_standing_count(&bytes), Some(count));
        assert_eq!(
            decode_register_standing_count(&bytes[..bytes.len() - 1]),
            None
        );
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_register_standing_count(&long), None);
        // An inverted rectangle is rejected.
        let mut bad = bytes.to_vec();
        bad[16..24].copy_from_slice(&(-5.0f64).to_le_bytes());
        assert_eq!(decode_register_standing_count(&bad), None);

        let range = RegisterStandingRangeMsg {
            user: 9,
            radius: 0.125,
        };
        let bytes = encode_register_standing_range(&range);
        assert_eq!(bytes.len(), REGISTER_STANDING_RANGE_LEN);
        assert_eq!(decode_register_standing_range(&bytes), Some(range));
        assert_eq!(
            decode_register_standing_range(&bytes[..bytes.len() - 1]),
            None
        );
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_register_standing_range(&long), None);
        for bad_radius in [-0.1, f64::NAN, f64::INFINITY] {
            let bad = RegisterStandingRangeMsg {
                radius: bad_radius,
                ..range
            };
            assert_eq!(
                decode_register_standing_range(&encode_register_standing_range(&bad)),
                None
            );
        }
    }

    #[test]
    fn standing_ref_roundtrip_and_validation() {
        let msg = StandingRefMsg { id: 77 };
        let bytes = encode_standing_ref(&msg);
        assert_eq!(bytes.len(), STANDING_REF_LEN);
        assert_eq!(decode_standing_ref(&bytes), Some(msg));
        assert_eq!(decode_standing_ref(&bytes[..bytes.len() - 1]), None);
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_standing_ref(&long), None);
    }

    #[test]
    fn standing_install_roundtrip_and_validation() {
        let count = StandingInstallMsg::Install {
            id: 41,
            query: StandingQuery::Count {
                area: Rect::new_unchecked(-3.0, 1.5, 9.0, 4.0),
            },
        };
        let bytes = encode_standing_install(&count);
        assert_eq!(bytes.len(), STANDING_INSTALL_COUNT_LEN);
        assert_eq!(decode_standing_install(&bytes), Some(count));
        assert_eq!(decode_standing_install(&bytes[..bytes.len() - 1]), None);
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_standing_install(&long), None);

        let range = StandingInstallMsg::Install {
            id: 42,
            query: StandingQuery::Range {
                subject: 7,
                radius: 2.25,
            },
        };
        let bytes = encode_standing_install(&range);
        assert_eq!(bytes.len(), STANDING_INSTALL_RANGE_LEN);
        assert_eq!(decode_standing_install(&bytes), Some(range));
        assert_eq!(decode_standing_install(&bytes[..bytes.len() - 1]), None);

        // An unknown kind code is rejected, as is a kind/length mismatch
        // (count-length body claiming the range kind).
        let mut bad = encode_standing_install(&count).to_vec();
        bad[0] = 9;
        assert_eq!(decode_standing_install(&bad), None);
        bad[0] = STANDING_RANGE;
        assert_eq!(decode_standing_install(&bad), None);
        assert_eq!(decode_standing_install(&[]), None);

        let drop = StandingInstallMsg::Drop { id: 43 };
        let bytes = encode_standing_install(&drop);
        assert_eq!(bytes.len(), STANDING_INSTALL_DROP_LEN);
        assert_eq!(decode_standing_install(&bytes), Some(drop));
        assert_eq!(decode_standing_install(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn standing_count_state_roundtrip_and_validation() {
        let state = StandingState::Count(StandingCountState {
            id: 4,
            seq: 12,
            expected: 3.25,
            certain: 2,
            possible: 5,
        });
        let bytes = encode_standing_state(&state);
        assert_eq!(bytes.len(), STANDING_COUNT_STATE_LEN);
        assert_eq!(decode_standing_state(&bytes), Some(state.clone()));
        assert_eq!(decode_standing_state(&bytes[..bytes.len() - 1]), None);
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_standing_state(&long), None);
        // A non-finite expected count is rejected.
        let mut bad = bytes.to_vec();
        bad[17..25].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_standing_state(&bad), None);
        // certain > possible (an inverted interval) is rejected.
        let mut inverted = bytes.to_vec();
        inverted[25..33].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(decode_standing_state(&inverted), None);
    }

    #[test]
    fn standing_range_state_roundtrip_and_validation() {
        let state = StandingState::Range(StandingRangeState {
            id: 8,
            seq: 3,
            candidates: vec![(1, Point::new(0.1, 0.2)), (5, Point::new(0.9, 0.4))],
        });
        let bytes = encode_standing_state(&state);
        assert_eq!(decode_standing_state(&bytes), Some(state.clone()));
        // Empty candidate lists round-trip too.
        let empty = StandingState::Range(StandingRangeState {
            id: 8,
            seq: 4,
            candidates: Vec::new(),
        });
        assert_eq!(
            decode_standing_state(&encode_standing_state(&empty)),
            Some(empty)
        );
        assert_eq!(decode_standing_state(&bytes[..bytes.len() - 1]), None);
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_standing_state(&long), None);
        // A count prefix promising more candidates than present is
        // rejected.
        let mut lying = bytes.to_vec();
        lying[17..21].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(decode_standing_state(&lying), None);
        // An unknown kind byte is rejected.
        let mut bad = bytes.to_vec();
        bad[0] = 7;
        assert_eq!(decode_standing_state(&bad), None);
        // The empty payload is rejected.
        assert_eq!(decode_standing_state(&[]), None);
    }

    #[test]
    fn route_fail_roundtrip_and_validation() {
        for kind in [ROUTE_FAIL_RETRYABLE, ROUTE_FAIL_DOWN] {
            let bytes = encode_route_fail(kind, "node 1 is reconnecting");
            assert_eq!(
                decode_route_fail(&bytes),
                Some((kind, "node 1 is reconnecting".to_string()))
            );
        }
        // The empty message is legal; the empty payload is not.
        let bytes = encode_route_fail(ROUTE_FAIL_DOWN, "");
        assert_eq!(
            decode_route_fail(&bytes),
            Some((ROUTE_FAIL_DOWN, String::new()))
        );
        assert_eq!(decode_route_fail(&[]), None);
        // Unknown kind bytes and non-UTF-8 text are rejected.
        assert_eq!(decode_route_fail(&[7, b'x']), None);
        assert_eq!(decode_route_fail(&[ROUTE_FAIL_DOWN, 0xFF, 0xFE]), None);
    }

    #[test]
    fn resync_state_roundtrip_and_validation() {
        let state = ResyncState {
            rows: vec![
                (1, Point::new(0.1, 0.2), SimTime::from_secs(3.0)),
                (9, Point::new(0.7, 0.8), SimTime::ZERO),
            ],
            cloaks: vec![sample_cloaked()],
        };
        let bytes = encode_resync_state(&state);
        assert_eq!(decode_resync_state(&bytes), Some(state.clone()));
        // The empty transfer round-trips too.
        let empty = ResyncState::default();
        assert_eq!(
            decode_resync_state(&encode_resync_state(&empty)),
            Some(empty)
        );
        // Truncation and trailing garbage rejected.
        assert_eq!(decode_resync_state(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_resync_state(&[]), None);
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_resync_state(&long), None);
        // A row count promising more entries than present is rejected.
        let mut lying = bytes.to_vec();
        lying[0..4].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(decode_resync_state(&lying), None);
        // An invalid embedded cloak rectangle is rejected: max_x of the
        // cloak record (offset 4 + 2*32 + 4 + 8 + 16).
        let off = 4 + 64 + 4 + 8 + 16;
        let mut bad = bytes.to_vec();
        bad[off..off + 8].copy_from_slice(&(-5.0f64).to_le_bytes());
        assert_eq!(decode_resync_state(&bad), None);
    }

    #[test]
    fn mirror_update_has_two_legal_lengths_and_no_other() {
        let row = ExactUpdateMsg {
            user: 17,
            position: Point::new(0.25, 0.75),
            time: SimTime::from_secs(9.5),
        };
        let bare = MirrorUpdateMsg { row, cloak: None };
        let bytes = encode_mirror_update(&bare);
        assert_eq!(bytes.len(), MIRROR_UPDATE_ROW_LEN);
        assert_eq!(decode_mirror_update(&bytes), Some(bare));
        let cloaked = MirrorUpdateMsg {
            row,
            cloak: Some(sample_cloaked()),
        };
        let bytes = encode_mirror_update(&cloaked);
        assert_eq!(bytes.len(), MIRROR_UPDATE_CLOAKED_LEN);
        assert_eq!(decode_mirror_update(&bytes), Some(cloaked));
        // Every other length — every cut, one byte more — is refused.
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_mirror_update(&long), None);
        for cut in (0..bytes.len()).filter(|&c| c != MIRROR_UPDATE_ROW_LEN) {
            assert_eq!(decode_mirror_update(&bytes[..cut]), None, "cut {cut}");
        }
        // The cloak half is held to the cloak codec: an inverted
        // rectangle (max_x, at row + pseudonym + min_x + min_y) fails.
        let off = EXACT_UPDATE_LEN + 8 + 16;
        let mut bad = bytes.to_vec();
        bad[off..off + 8].copy_from_slice(&(-5.0f64).to_le_bytes());
        assert_eq!(decode_mirror_update(&bad), None);
    }

    #[test]
    fn carry_roundtrip_and_validation() {
        let row = encode_exact_update(&ExactUpdateMsg {
            user: 3,
            position: Point::new(0.5, 0.5),
            time: SimTime::ZERO,
        });
        let carried = vec![
            (tag::MIRROR_UPDATE, row.to_vec()),
            (tag::STANDING_INSTALL, vec![1, 2, 3]),
            (tag::STANDING_INSTALL, Vec::new()),
        ];
        let encode = |carried: &[(u8, Vec<u8>)], request: Option<(u8, &[u8])>| {
            encode_carry(carried.iter().map(|(t, p)| (*t, p.as_slice())), request)
        };
        // With a request, with an empty-payload request, and as a flush.
        for request in [
            Some((tag::USER_QUERY, &b"query"[..])),
            Some((tag::PING, &[][..])),
            None,
        ] {
            let bytes = encode(&carried, request).expect("legal envelope");
            let want = CarryMsg {
                carried: carried.clone(),
                request: request.map(|(t, p)| (t, p.to_vec())),
            };
            assert_eq!(decode_carry(&bytes), Some(want));
        }
        // Nothing carried, nothing asked: still an envelope.
        let empty = encode(&[], None).expect("empty envelope");
        assert_eq!(empty.len(), 2);
        assert_eq!(decode_carry(&empty), Some(CarryMsg::default()));

        // Truncated anywhere inside the carried frames: refused. (Past
        // them every cut is a shorter request, which is that request's
        // codec's business.)
        let bytes = encode(&carried, None).expect("legal envelope");
        for cut in 0..bytes.len() {
            assert_eq!(decode_carry(&bytes[..cut]), None, "cut {cut}");
        }
        // Envelopes do not nest, neither as a carried frame nor as the
        // request, and nothing a client may send rides along.
        for inner in [
            tag::CARRY,
            tag::EXACT_UPDATE,
            tag::DEREGISTER_STANDING,
            tag::RESYNC_PULL,
            tag::OK,
        ] {
            let smuggled = vec![(inner, vec![0; 4])];
            assert!(encode(&smuggled, None).is_none(), "tag 0x{inner:02x}");
            let mut raw = 1u16.to_le_bytes().to_vec();
            raw.push(inner);
            raw.extend(4u16.to_le_bytes());
            raw.extend([0; 4]);
            assert_eq!(decode_carry(&raw), None, "tag 0x{inner:02x}");
        }
        assert!(encode(&carried, Some((tag::CARRY, &[][..]))).is_none());
        let mut nested = encode(&carried, None).expect("legal envelope").to_vec();
        nested.push(tag::CARRY);
        assert_eq!(decode_carry(&nested), None);
        // The count is capped, whatever follows it.
        let many: Vec<(u8, Vec<u8>)> = vec![(tag::MIRROR_UPDATE, Vec::new()); CARRY_MAX_FRAMES + 1];
        assert!(encode(&many, None).is_none());
        let mut raw = (CARRY_MAX_FRAMES as u16 + 1).to_le_bytes().to_vec();
        raw.extend(many.iter().flat_map(|(t, _)| [*t, 0, 0]));
        assert_eq!(decode_carry(&raw), None);
        assert!(decode_carry(&raw[..raw.len() - 3]).is_none());
        assert!(encode(&many[..CARRY_MAX_FRAMES], None).is_some());
        // A carried payload the u16 length cannot express is refused at
        // the encoder.
        let huge = vec![(tag::STANDING_INSTALL, vec![0; usize::from(u16::MAX) + 1])];
        assert!(encode(&huge, None).is_none());
    }

    #[test]
    fn carry_rejection_text_is_recognised_and_nothing_else_is() {
        let text = encode_carry_rejected(7, "malformed mirror-update payload");
        assert_eq!(decode_carry_rejected(&text), Some(7));
        assert!(std::str::from_utf8(&text)
            .unwrap()
            .contains("malformed mirror-update"));
        for other in [
            &b"unknown user"[..],
            b"malformed update payload",
            b"carried frame",
            b"carried frame x rejected: y",
            b"carried frame 3 was fine",
            b"",
            &[0xFF, 0xFE],
        ] {
            assert_eq!(decode_carry_rejected(other), None);
        }
    }

    #[test]
    fn tags_are_distinct() {
        let tags = [
            tag::REGISTER,
            tag::EXACT_UPDATE,
            tag::USER_QUERY,
            tag::PING,
            tag::STATS,
            tag::REGISTER_STANDING_COUNT,
            tag::REGISTER_STANDING_RANGE,
            tag::DEREGISTER_STANDING,
            tag::STANDING_SNAPSHOT,
            tag::RESYNC_PULL,
            tag::RESYNC_PUSH,
            tag::STANDING_INSTALL,
            tag::MIRROR_UPDATE,
            tag::CARRY,
            tag::OK,
            tag::CLOAKED_UPDATE,
            tag::CANDIDATES,
            tag::PONG,
            tag::STATS_SNAPSHOT,
            tag::STANDING_REGISTERED,
            tag::STANDING_STATE,
            tag::STANDING_DELTA,
            tag::RESYNC_STATE,
            tag::ERROR,
            tag::ROUTE_FAIL,
        ];
        let set: std::collections::HashSet<u8> = tags.iter().copied().collect();
        assert_eq!(set.len(), tags.len());
    }

    fn sample_snapshot() -> RegistrySnapshot {
        use crate::obs::{MetricsRegistry, Stage};
        use std::time::Duration;
        let r = MetricsRegistry::new();
        r.stage(Stage::Cloak)
            .record_duration(Duration::from_micros(150));
        r.stage(Stage::PrivateQuery)
            .record_duration(Duration::from_micros(90));
        r.cloak_area().record(0.015625);
        r.achieved_k().record(25.0);
        r.candidate_set_size().record(17.0);
        r.standing_fanout().record(3.0);
        r.record_cloak_failure(1);
        crate::metrics::NetCounters::add(&r.net().requests_served, 3);
        crate::metrics::NetCounters::add(&r.net().bytes_in, 512);
        r.snapshot()
    }

    #[test]
    fn stats_snapshot_roundtrip() {
        let snap = sample_snapshot();
        let bytes = encode_stats_snapshot(&snap);
        assert!(bytes.len() >= STATS_FIXED_LEN);
        assert_eq!(decode_stats_snapshot(&bytes), Some(snap));
    }

    #[test]
    fn stats_snapshot_strictness() {
        let snap = sample_snapshot();
        let bytes = encode_stats_snapshot(&snap);
        // Truncation anywhere is rejected.
        assert_eq!(decode_stats_snapshot(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_stats_snapshot(&bytes[..STATS_FIXED_LEN - 1]), None);
        assert_eq!(decode_stats_snapshot(&[]), None);
        // Trailing garbage is rejected.
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode_stats_snapshot(&long), None);
        // A wrong version byte is rejected.
        let mut wrong = bytes.to_vec();
        wrong[0] = STATS_SNAPSHOT_VERSION + 1;
        assert_eq!(decode_stats_snapshot(&wrong), None);
        // A lock-row count promising more rows than present is rejected.
        let empty_locks = RegistrySnapshot {
            locks: Vec::new(),
            ..sample_snapshot()
        };
        let mut lying = encode_stats_snapshot(&empty_locks).to_vec();
        let last = lying.len() - 1;
        lying[last] = 4;
        assert_eq!(decode_stats_snapshot(&lying), None);
    }

    #[test]
    fn stats_snapshot_carries_no_location_fields() {
        // Executable form of the boundary claim: the scrape payload of a
        // populated system is pure aggregates — fixed-size histograms
        // and counters — with no per-user rows that could scale with
        // (or leak) tracked positions.
        let snap = sample_snapshot();
        let bytes = encode_stats_snapshot(&snap);
        assert_eq!(
            bytes.len(),
            STATS_FIXED_LEN
                + snap
                    .locks
                    .iter()
                    .map(|r| 1 + r.rank_label.len() + 16 + 8 * LOCK_HOLD_BUCKETS)
                    .sum::<usize>()
        );
    }

    #[test]
    fn flag_combinations_roundtrip() {
        for (ks, as_) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut msg = sample_cloaked();
            msg.region.k_satisfied = ks;
            msg.region.area_satisfied = as_;
            let decoded = decode_cloaked_update(&encode_cloaked_update(&msg)).unwrap();
            assert_eq!(decoded.region.k_satisfied, ks);
            assert_eq!(decoded.region.area_satisfied, as_);
        }
    }
}
