//! The one codec under [`crate::wire`] and [`crate::journal`]: each
//! primitive both formats share is written, read and validated here,
//! under the policy DESIGN.md states in "Codec layer". [`Put`] writes a
//! value's fixed-width little-endian fields; [`Get`] reads one back from
//! a [`Reader`], which returns `None` instead of panicking on any input:
//! journal bytes re-read from disk are as untrusted as the network's.

use crate::engine::EngineConfig;
use crate::obs::HistogramSnapshot;
use bytes::{BufMut, Bytes, BytesMut};
use lbsp_anonymizer::{
    CloakRequirement, CloakedRegion, CloakedUpdate, PrivacyProfile, ProfileEntry, Pseudonym,
};
use lbsp_geom::{Point, Rect, SimTime, TimeInterval, TimeOfDay, MINUTES_PER_DAY};
use lbsp_server::PublicObject;

/// A value with a fixed byte layout.
pub(crate) trait Put {
    /// Writes this value's bytes (appended, or in place into a slice).
    fn put(&self, b: &mut impl BufMut);
}

/// A value that can be read back from its [`Put`] layout.
pub(crate) trait Get: Sized {
    /// Reads one value; `None` on short input or an invalid value.
    fn get(r: &mut Reader<'_>) -> Option<Self>;
}

/// A bounds-checked cursor over untrusted bytes.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

/// Decodes `buf` with `f`, which must read it to its last byte: short
/// input and trailing bytes both fail.
pub(crate) fn decode<'a, T>(
    buf: &'a [u8],
    f: impl FnOnce(&mut Reader<'a>) -> Option<T>,
) -> Option<T> {
    let mut r = Reader { buf };
    let value = f(&mut r)?;
    r.buf.is_empty().then_some(value)
}

/// `v`'s bytes in one buffer allocated with `cap` bytes.
pub(crate) fn to_bytes<T: Put + ?Sized>(v: &T, cap: usize) -> Bytes {
    let mut b = BytesMut::with_capacity(cap);
    v.put(&mut b);
    b.freeze()
}

/// Writes a `u32` count, then the items. A list longer than `u32::MAX`
/// is cut to what the prefix can state, never wrapped.
pub(crate) fn put_list_u32<T: Put>(b: &mut impl BufMut, items: impl ExactSizeIterator<Item = T>) {
    let n = u32::try_from(items.len()).unwrap_or(u32::MAX);
    n.put(b);
    items.take(n as usize).for_each(|item| item.put(b));
}

/// Writes a `u64` count, then the items.
pub(crate) fn put_list_u64<T: Put>(b: &mut impl BufMut, items: impl ExactSizeIterator<Item = T>) {
    (items.len() as u64).put(b);
    items.for_each(|item| item.put(b));
}

impl<'a> Reader<'a> {
    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Reads one value.
    pub(crate) fn get<T: Get>(&mut self) -> Option<T> {
        T::get(self)
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.buf.split_at_checked(n)?;
        self.buf = rest;
        Some(head)
    }

    /// Every byte not read yet.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.buf.split_first_chunk::<N>()?;
        self.buf = rest;
        Some(*head)
    }

    /// A radius: finite and non-negative.
    pub(crate) fn radius(&mut self) -> Option<f64> {
        self.get::<f64>().filter(|r| r.is_finite() && *r >= 0.0)
    }

    /// A `u32`-prefixed list of entries of at least `min_entry` bytes.
    pub(crate) fn list_u32<T: Get>(&mut self, min_entry: usize) -> Option<Vec<T>> {
        let n = self.get::<u32>()?;
        self.list(u64::from(n), min_entry)
    }

    /// A `u64`-prefixed list of entries of at least `min_entry` bytes.
    pub(crate) fn list_u64<T: Get>(&mut self, min_entry: usize) -> Option<Vec<T>> {
        let n = self.get::<u64>()?;
        self.list(n, min_entry)
    }

    /// `n` entries, once `n` entries of `min_entry` bytes are known to
    /// fit in what is left: a hostile prefix cannot force a huge
    /// allocation.
    fn list<T: Get>(&mut self, n: u64, min_entry: usize) -> Option<Vec<T>> {
        if n.checked_mul(min_entry as u64)? > self.remaining() as u64 {
            return None;
        }
        let mut out = Vec::with_capacity(usize::try_from(n).ok()?);
        for _ in 0..n {
            out.push(self.get()?);
        }
        Some(out)
    }
}

impl<T: Put + ?Sized> Put for &T {
    fn put(&self, b: &mut impl BufMut) {
        (**self).put(b);
    }
}

impl Put for u8 {
    fn put(&self, b: &mut impl BufMut) {
        b.put_u8(*self);
    }
}

impl Get for u8 {
    fn get(r: &mut Reader<'_>) -> Option<u8> {
        r.array().map(u8::from_le_bytes)
    }
}

impl Put for u16 {
    fn put(&self, b: &mut impl BufMut) {
        b.put_slice(&self.to_le_bytes());
    }
}

impl Get for u16 {
    fn get(r: &mut Reader<'_>) -> Option<u16> {
        r.array().map(u16::from_le_bytes)
    }
}

impl Put for u32 {
    fn put(&self, b: &mut impl BufMut) {
        b.put_u32_le(*self);
    }
}

impl Get for u32 {
    fn get(r: &mut Reader<'_>) -> Option<u32> {
        r.array().map(u32::from_le_bytes)
    }
}

impl Put for u64 {
    fn put(&self, b: &mut impl BufMut) {
        b.put_u64_le(*self);
    }
}

impl Get for u64 {
    fn get(r: &mut Reader<'_>) -> Option<u64> {
        r.array().map(u64::from_le_bytes)
    }
}

impl Put for f64 {
    fn put(&self, b: &mut impl BufMut) {
        b.put_f64_le(*self);
    }
}

impl Get for f64 {
    fn get(r: &mut Reader<'_>) -> Option<f64> {
        r.array().map(f64::from_le_bytes)
    }
}

/// One byte, 0 or 1; any other byte is refused.
impl Put for bool {
    fn put(&self, b: &mut impl BufMut) {
        u8::from(*self).put(b);
    }
}

impl Get for bool {
    fn get(r: &mut Reader<'_>) -> Option<bool> {
        match r.get::<u8>()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<A: Put, B: Put> Put for (A, B) {
    fn put(&self, b: &mut impl BufMut) {
        self.0.put(b);
        self.1.put(b);
    }
}

impl<A: Get, B: Get> Get for (A, B) {
    fn get(r: &mut Reader<'_>) -> Option<(A, B)> {
        Some((r.get()?, r.get()?))
    }
}

impl<A: Put, B: Put, C: Put> Put for (A, B, C) {
    fn put(&self, b: &mut impl BufMut) {
        self.0.put(b);
        self.1.put(b);
        self.2.put(b);
    }
}

impl<A: Get, B: Get, C: Get> Get for (A, B, C) {
    fn get(r: &mut Reader<'_>) -> Option<(A, B, C)> {
        Some((r.get()?, r.get()?, r.get()?))
    }
}

impl<A: Put, B: Put, C: Put, D: Put> Put for (A, B, C, D) {
    fn put(&self, b: &mut impl BufMut) {
        self.0.put(b);
        self.1.put(b);
        self.2.put(b);
        self.3.put(b);
    }
}

impl<A: Get, B: Get, C: Get, D: Get> Get for (A, B, C, D) {
    fn get(r: &mut Reader<'_>) -> Option<(A, B, C, D)> {
        Some((r.get()?, r.get()?, r.get()?, r.get()?))
    }
}

impl<T: Put, const N: usize> Put for [T; N] {
    fn put(&self, b: &mut impl BufMut) {
        self.iter().for_each(|v| v.put(b));
    }
}

impl<T: Get + Default, const N: usize> Get for [T; N] {
    fn get(r: &mut Reader<'_>) -> Option<[T; N]> {
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for v in &mut out {
            *v = r.get()?;
        }
        Some(out)
    }
}

impl Put for SimTime {
    fn put(&self, b: &mut impl BufMut) {
        self.as_secs().put(b);
    }
}

impl Get for SimTime {
    fn get(r: &mut Reader<'_>) -> Option<SimTime> {
        r.get().map(SimTime::from_secs)
    }
}

impl Put for Point {
    fn put(&self, b: &mut impl BufMut) {
        (self.x, self.y).put(b);
    }
}

impl Get for Point {
    fn get(r: &mut Reader<'_>) -> Option<Point> {
        Some(Point::new(r.get()?, r.get()?))
    }
}

/// `min_x, min_y, max_x, max_y`; decoded only when [`Rect::new`] accepts it.
impl Put for Rect {
    fn put(&self, b: &mut impl BufMut) {
        [self.min_x(), self.min_y(), self.max_x(), self.max_y()].put(b);
    }
}

impl Get for Rect {
    fn get(r: &mut Reader<'_>) -> Option<Rect> {
        let [x0, y0, x1, y1] = r.get::<[f64; 4]>()?;
        Rect::new(x0, y0, x1, y1).ok()
    }
}

/// A presence byte, then the rectangle when present.
impl Put for Option<Rect> {
    fn put(&self, b: &mut impl BufMut) {
        self.is_some().put(b);
        if let Some(rect) = self {
            rect.put(b);
        }
    }
}

impl Get for Option<Rect> {
    fn get(r: &mut Reader<'_>) -> Option<Option<Rect>> {
        match r.get::<bool>()? {
            false => Some(None),
            true => r.get().map(Some),
        }
    }
}

/// `k, a_min, a_max`; decoded only when [`CloakRequirement::validate`]
/// accepts it.
impl Put for CloakRequirement {
    fn put(&self, b: &mut impl BufMut) {
        (self.k, self.a_min, self.a_max).put(b);
    }
}

impl Get for CloakRequirement {
    fn get(r: &mut Reader<'_>) -> Option<CloakRequirement> {
        let (k, a_min, a_max) = r.get()?;
        let req = CloakRequirement { k, a_min, a_max };
        req.validate().ok().map(|()| req)
    }
}

impl Put for ProfileEntry {
    fn put(&self, b: &mut impl BufMut) {
        let i = &self.interval;
        (i.start.minutes(), i.end.minutes(), self.requirement).put(b);
    }
}

impl Get for ProfileEntry {
    fn get(r: &mut Reader<'_>) -> Option<ProfileEntry> {
        let (start, end) = r.get::<(u32, u32)>()?;
        if start >= MINUTES_PER_DAY || end >= MINUTES_PER_DAY {
            return None;
        }
        Some(ProfileEntry {
            interval: TimeInterval::new(
                TimeOfDay::from_minutes(start),
                TimeOfDay::from_minutes(end),
            ),
            requirement: r.get()?,
        })
    }
}

impl Put for PrivacyProfile {
    fn put(&self, b: &mut impl BufMut) {
        self.default_requirement().put(b);
        put_list_u32(b, self.entries().iter());
    }
}

impl Get for PrivacyProfile {
    fn get(r: &mut Reader<'_>) -> Option<PrivacyProfile> {
        let default = r.get()?;
        PrivacyProfile::new(r.list_u32(28)?, default).ok()
    }
}

/// Pseudonym, rectangle, time, achieved k, then one flags byte (bit 0:
/// k satisfied, bit 1: area satisfied).
impl Put for CloakedUpdate {
    fn put(&self, b: &mut impl BufMut) {
        let c = &self.region;
        (self.pseudonym.0, c.region, self.time, c.achieved_k).put(b);
        (u8::from(c.k_satisfied) | (u8::from(c.area_satisfied) << 1)).put(b);
    }
}

impl Get for CloakedUpdate {
    fn get(r: &mut Reader<'_>) -> Option<CloakedUpdate> {
        let (pseudonym, region, time, achieved_k) = r.get()?;
        let flags = r.get::<u8>()?;
        Some(CloakedUpdate {
            pseudonym: Pseudonym(pseudonym),
            region: CloakedRegion {
                region,
                achieved_k,
                k_satisfied: flags & 1 != 0,
                area_satisfied: flags & 2 != 0,
            },
            time,
        })
    }
}

impl Put for PublicObject {
    fn put(&self, b: &mut impl BufMut) {
        (self.id, self.pos, self.tag).put(b);
    }
}

impl Get for PublicObject {
    fn get(r: &mut Reader<'_>) -> Option<PublicObject> {
        Some(PublicObject::new(r.get()?, r.get()?, r.get()?))
    }
}

/// The largest `grid_side` a decoded config may carry: the engine
/// allocates `grid_side²` cells up front, so a larger side from a
/// damaged log would exhaust memory instead of failing the decode.
const MAX_GRID_SIDE: u32 = 4096;

impl Put for EngineConfig {
    fn put(&self, b: &mut impl BufMut) {
        (self.world, self.grid_side, self.refine, self.secret).put(b);
    }
}

/// Decodes a config the engine can be built from: a world of positive
/// width and height (the grid divides it into cells) and a grid side in
/// `1..=MAX_GRID_SIDE`; anything else is refused, not left to panic in
/// the grid constructor.
impl Get for EngineConfig {
    fn get(r: &mut Reader<'_>) -> Option<EngineConfig> {
        let (world, grid_side, refine, secret) = r.get::<(Rect, u32, bool, u64)>()?;
        let buildable =
            world.width() > 0.0 && world.height() > 0.0 && (1..=MAX_GRID_SIDE).contains(&grid_side);
        buildable.then_some(EngineConfig {
            world,
            grid_side,
            refine,
            secret,
        })
    }
}

impl Put for HistogramSnapshot {
    fn put(&self, b: &mut impl BufMut) {
        (self.count, self.sum, self.min, self.max).put(b);
        self.buckets.put(b);
    }
}

impl Get for HistogramSnapshot {
    fn get(r: &mut Reader<'_>) -> Option<HistogramSnapshot> {
        Some(HistogramSnapshot {
            count: r.get()?,
            sum: r.get()?,
            min: r.get()?,
            max: r.get()?,
            buckets: r.get()?,
        })
    }
}
