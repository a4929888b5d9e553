//! Standing (continuous) queries, maintained incrementally.
//!
//! The paper's scalability story (Secs. 1 and 5.3) asks for continuous
//! queries to be "processed incrementally" at the server. One registry,
//! one id space, holds both kinds this reproduction serves:
//!
//! * a **count** — the public count of Fig. 6a kept current over an
//!   area: each cloak update adjusts only the queries its old or new
//!   cloak touches, by the change of that record's inclusion
//!   probability, and the interval and PDF formats are derived from the
//!   kept per-pseudonym contributions on demand;
//! * a **range** — a user's "keep me updated on objects within r of
//!   me", refreshed only when that user's cloak changes, since the
//!   candidate set is a function of (cloak, radius) alone.
//!
//! Both share one `next_id`, one set of changed ids and one `seq` rule:
//! an entry's `seq` is bumped each time its answer changes (a count's
//! `[certain, possible]` interval, a range's candidate set), and the id
//! joins the changed set the delta push drains.
//!
//! **Exact sums.** A count's expected value is the sum of its members'
//! inclusion probabilities. Each `p` is kept as the `f64` it is (the PDF
//! and the certain test read it), and the sum is kept in fixed point: a
//! `u128` of `round(p · 2⁶²)` terms, gaining a term on insert and losing
//! the same term on removal. Integer addition is exact and commutes, so
//! the sum depends on the current contributions alone — not on the
//! order of the edits that led there — and a restore rebuilds it from
//! them. [`StandingRegistry::expected`] is within `n · 2⁻⁶³` of the
//! exact sum of `n` contributions, plus one rounding to `f64`.
//!
//! **Inexact certain membership.** A cloak that lies inside the area
//! for any practical purpose can produce an overlap ratio a few ulps
//! below 1.0; the certain test tolerates [`lbsp_geom::EPSILON`].
//!
//! Update cost scales with the queries an update touches, not with the
//! number registered: a uniform grid over the count areas ([`AreaIndex`])
//! routes a cloak update to the counts whose area it may intersect, and
//! ranges are indexed by their subject, so a cloak update for a user
//! with no standing range is O(1).

use crate::wire::{StandingCountState, StandingRangeState, StandingState};
use crate::UserId;
use lbsp_geom::{Rect, EPSILON};
use lbsp_server::{
    private_range_candidates, PoissonBinomial, PseudonymId, PublicObject, PublicStore,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifier of a standing query, of either kind.
pub type StandingQueryId = u64;

/// Contributions at or above `1 - EPSILON` count as certain members;
/// shares [`lbsp_geom::EPSILON`] with the rest of the geometry layer.
const CERTAIN_THRESHOLD: f64 = 1.0 - EPSILON;

/// One unit of probability in the fixed-point sum: 2⁶².
const ONE: f64 = (1u64 << 62) as f64;

/// The fixed-point term of one inclusion probability.
fn fixed(p: f64) -> u128 {
    (p * ONE).round() as u128
}

/// What a standing query asks: the parameters it is registered with,
/// installed on another node with, and journaled with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StandingQuery {
    /// The public count of the cloaked users in `area`.
    Count {
        /// The monitored area.
        area: Rect,
    },
    /// The private range query of `subject` (a true user id; trusted
    /// hop only) with radius `radius`.
    Range {
        /// The user whose cloak the query follows.
        subject: UserId,
        /// Query radius in world units.
        radius: f64,
    },
}

/// A standing query's maintained answer, as exported for durability:
/// everything a restore needs, and nothing derivable (a count's sum and
/// certain tally are rebuilt from its contributions).
#[derive(Debug, Clone, PartialEq)]
pub enum StandingEntry {
    /// A count query.
    Count {
        /// The monitored area.
        area: Rect,
        /// `(pseudonym, inclusion probability)` pairs, non-zero ones
        /// only, in ascending pseudonym order.
        contributions: Vec<(PseudonymId, f64)>,
    },
    /// A range query.
    Range {
        /// The user whose cloak the query follows.
        subject: UserId,
        /// Query radius (already clamped non-negative).
        radius: f64,
        /// The cloak the cached candidates were computed for.
        cloak: Option<Rect>,
        /// Cached candidates, sorted by object id.
        candidates: Vec<PublicObject>,
    },
}

/// One exported entry: its id, its change sequence number and its
/// answer.
#[derive(Debug, Clone, PartialEq)]
pub struct StandingEntryState {
    /// Query id.
    pub id: StandingQueryId,
    /// Change sequence number.
    pub seq: u64,
    /// The maintained answer.
    pub entry: StandingEntry,
}

/// Raw state of a [`StandingRegistry`], as exported for durability.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StandingRegistryState {
    /// Entries in ascending id order.
    pub entries: Vec<StandingEntryState>,
    /// Next id to assign.
    pub next_id: StandingQueryId,
    /// Ids with undelivered answer changes, ascending.
    pub changed: Vec<StandingQueryId>,
    /// Cloak records applied to the counts.
    pub updates_processed: u64,
    /// Counts examined through the area index.
    pub examined_total: u64,
    /// Range refreshes that recomputed candidates.
    pub recomputes: u64,
    /// Range refreshes served from the cached candidate set.
    pub reuses: u64,
}

/// A count query's live state.
#[derive(Debug)]
struct Count {
    area: Rect,
    /// Pseudonym → current inclusion probability (non-zero ones only),
    /// ordered so the PDF and the export are deterministic.
    contributions: BTreeMap<PseudonymId, f64>,
    /// Σ `fixed(p)` over the contributions.
    sum: u128,
    /// Members whose contribution passes [`CERTAIN_THRESHOLD`].
    certain: usize,
}

impl Count {
    fn new(area: Rect) -> Count {
        Count {
            area,
            contributions: BTreeMap::new(),
            sum: 0,
            certain: 0,
        }
    }

    fn set(&mut self, pseudonym: PseudonymId, p: f64) {
        let old = if p > 0.0 {
            self.contributions.insert(pseudonym, p).unwrap_or(0.0)
        } else {
            self.contributions.remove(&pseudonym).unwrap_or(0.0)
        };
        self.sum = self.sum + fixed(p.max(0.0)) - fixed(old);
        self.certain += usize::from(p >= CERTAIN_THRESHOLD);
        self.certain -= usize::from(old >= CERTAIN_THRESHOLD);
    }

    fn interval(&self) -> (usize, usize) {
        (self.certain, self.contributions.len())
    }
}

/// A range query's live state.
#[derive(Debug)]
struct Range {
    subject: UserId,
    radius: f64,
    cloak: Option<Rect>,
    candidates: Vec<PublicObject>,
}

#[derive(Debug)]
enum Body {
    Count(Count),
    Range(Range),
}

#[derive(Debug)]
struct Entry {
    body: Body,
    seq: u64,
}

/// A uniform grid over the bounding box of all count areas.
///
/// Each cell lists the counts whose area touches it; an update only
/// examines the counts listed in the cells its old/new cloak covers.
/// Rebuilt when a count comes or goes (rare) so the per-update path
/// stays allocation-light. False positives from coarse cells are
/// harmless: every candidate is still checked against its actual area.
#[derive(Debug, Default)]
struct AreaIndex {
    bounds: Option<Rect>,
    side: usize,
    cells: Vec<Vec<StandingQueryId>>,
}

impl AreaIndex {
    fn rebuild(&mut self, entries: &HashMap<StandingQueryId, Entry>) {
        let mut areas: Vec<(StandingQueryId, Rect)> = entries
            .iter()
            .filter_map(|(&id, e)| match &e.body {
                Body::Count(c) => Some((id, c.area)),
                Body::Range(_) => None,
            })
            .collect();
        areas.sort_unstable_by_key(|&(id, _)| id);
        *self = AreaIndex::default();
        let Some(bounds) = areas.iter().map(|&(_, a)| a).reduce(|b, a| b.union(&a)) else {
            return;
        };
        let side = ((areas.len() as f64).sqrt().ceil() as usize).clamp(1, 64);
        self.bounds = Some(bounds);
        self.side = side;
        self.cells = vec![Vec::new(); side * side];
        for (id, area) in areas {
            let (xs, ys) = self.span(&area);
            for cy in ys {
                for cx in xs.clone() {
                    self.cells[cy * side + cx].push(id);
                }
            }
        }
    }

    /// Inclusive cell ranges covered by `r`, clamped into the grid.
    fn span(
        &self,
        r: &Rect,
    ) -> (
        std::ops::RangeInclusive<usize>,
        std::ops::RangeInclusive<usize>,
    ) {
        let Some(b) = self.bounds else {
            #[allow(clippy::reversed_empty_ranges)]
            return (1..=0, 1..=0);
        };
        let hi = self.side as isize - 1;
        let axis = |lo: f64, up: f64, blo: f64, extent: f64| {
            let scale = if extent > 0.0 {
                self.side as f64 / extent
            } else {
                0.0
            };
            let i0 = (((lo - blo) * scale).floor() as isize).clamp(0, hi) as usize;
            let i1 = (((up - blo) * scale).floor() as isize).clamp(0, hi) as usize;
            i0..=i1
        };
        (
            axis(r.min_x(), r.max_x(), b.min_x(), b.width()),
            axis(r.min_y(), r.max_y(), b.min_y(), b.height()),
        )
    }

    /// Counts whose cells the old/new regions cover, sorted and
    /// deduplicated.
    fn candidates(&self, old: Option<&Rect>, new: Option<&Rect>) -> Vec<StandingQueryId> {
        let Some(b) = self.bounds else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for r in [old, new].into_iter().flatten() {
            if !r.intersects(&b) {
                continue;
            }
            let (xs, ys) = self.span(r);
            for cy in ys {
                for cx in xs.clone() {
                    out.extend_from_slice(&self.cells[cy * self.side + cx]);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Every standing query, of both kinds, under one id space.
#[derive(Debug, Default)]
pub struct StandingRegistry {
    entries: HashMap<StandingQueryId, Entry>,
    next_id: StandingQueryId,
    /// Queries whose answer changed since the last
    /// [`StandingRegistry::take_changed`].
    changed: BTreeSet<StandingQueryId>,
    /// The count areas.
    areas: AreaIndex,
    /// Subject → that user's range queries, in ascending id order.
    by_user: HashMap<UserId, Vec<StandingQueryId>>,
    updates_processed: u64,
    examined_total: u64,
    /// Range refreshes that recomputed candidates.
    pub recomputes: u64,
    /// Range refreshes served from the cached candidate set.
    pub reuses: u64,
}

impl StandingRegistry {
    /// Creates an empty registry.
    pub fn new() -> StandingRegistry {
        StandingRegistry::default()
    }

    /// Registers `query` under the next free id; a count is seeded from
    /// `records`, the current `(pseudonym, cloak)` pairs.
    pub fn register<I>(&mut self, query: StandingQuery, records: I) -> StandingQueryId
    where
        I: IntoIterator<Item = (PseudonymId, Rect)>,
    {
        let id = self.next_id;
        assert!(self.install(id, query, records));
        id
    }

    /// Installs `query` under a caller-chosen id (a cluster node installs
    /// the id node 0 granted; a replayed journal, the id it logged).
    /// Idempotent: returns `false` and changes nothing if `id` is
    /// already present. `next_id` advances past `id`, so a later local
    /// allocation never collides with an installed id.
    pub fn install<I>(&mut self, id: StandingQueryId, query: StandingQuery, records: I) -> bool
    where
        I: IntoIterator<Item = (PseudonymId, Rect)>,
    {
        if self.entries.contains_key(&id) {
            return false;
        }
        self.next_id = self.next_id.max(id + 1);
        let body = match query {
            StandingQuery::Count { area } => {
                let mut count = Count::new(area);
                for (pseudonym, region) in records {
                    count.set(pseudonym, region.overlap_fraction(&area));
                }
                Body::Count(count)
            }
            StandingQuery::Range { subject, radius } => Body::Range(Range {
                subject,
                radius: radius.max(0.0),
                cloak: None,
                candidates: Vec::new(),
            }),
        };
        let counted = matches!(body, Body::Count(_));
        self.insert(id, Entry { body, seq: 0 });
        if counted {
            self.areas.rebuild(&self.entries);
        }
        true
    }

    /// Adds an entry to the map and, for a range, to its subject's ids;
    /// the caller rebuilds the area index for a count.
    fn insert(&mut self, id: StandingQueryId, entry: Entry) {
        if let Body::Range(r) = &entry.body {
            let ids = self.by_user.entry(r.subject).or_default();
            let at = ids.partition_point(|&q| q < id);
            ids.insert(at, id);
        }
        self.entries.insert(id, entry);
    }

    /// Drops a standing query of either kind.
    pub fn deregister(&mut self, id: StandingQueryId) -> bool {
        let Some(e) = self.entries.remove(&id) else {
            return false;
        };
        self.changed.remove(&id);
        match e.body {
            Body::Count(_) => self.areas.rebuild(&self.entries),
            Body::Range(r) => {
                if let Some(ids) = self.by_user.get_mut(&r.subject) {
                    ids.retain(|&q| q != id);
                    if ids.is_empty() {
                        self.by_user.remove(&r.subject);
                    }
                }
            }
        }
        true
    }

    /// The id [`StandingRegistry::register`] allocates next.
    pub fn next_id(&self) -> StandingQueryId {
        self.next_id
    }

    /// Number of standing queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when a query with this id is registered.
    pub fn contains(&self, id: StandingQueryId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Applies one cloak record to the counts: `pseudonym` moved from
    /// `old` (None on first appearance) to `new` (None on departure).
    /// Only counts whose area intersects either region are touched.
    /// A count whose interval changes bumps its `seq`; with `push` it
    /// also joins the changed set (a mirrored record, whose owner
    /// pushes, passes `false`). Returns how many counts were adjusted.
    pub fn on_record(
        &mut self,
        pseudonym: PseudonymId,
        old: Option<&Rect>,
        new: Option<&Rect>,
        push: bool,
    ) -> usize {
        self.updates_processed += 1;
        let ids = self.areas.candidates(old, new);
        self.examined_total += ids.len() as u64;
        let mut fanout = 0;
        for id in ids {
            let Some(Entry {
                body: Body::Count(q),
                seq,
            }) = self.entries.get_mut(&id)
            else {
                continue;
            };
            let affected = old.is_some_and(|r| r.intersects(&q.area))
                || new.is_some_and(|r| r.intersects(&q.area));
            if !affected {
                continue;
            }
            fanout += 1;
            let before = q.interval();
            q.set(pseudonym, new.map_or(0.0, |r| r.overlap_fraction(&q.area)));
            if q.interval() != before {
                *seq += 1;
                if push {
                    self.changed.insert(id);
                }
            }
        }
        fanout
    }

    /// Called when `user`'s cloak becomes `new_cloak`: refreshes that
    /// user's range queries (found through the per-user index — other
    /// users' queries are never visited). A query whose cloak is
    /// unchanged keeps its candidate set; a changed cloak recomputes
    /// against `store`. Returns how many queries were refreshed.
    pub fn on_cloak(&mut self, user: UserId, new_cloak: &Rect, store: &PublicStore) -> usize {
        let Some(ids) = self.by_user.get(&user) else {
            return 0;
        };
        for &id in ids {
            let Some(Entry {
                body: Body::Range(r),
                seq,
            }) = self.entries.get_mut(&id)
            else {
                continue;
            };
            if r.cloak.as_ref() == Some(new_cloak) {
                self.reuses += 1;
                continue;
            }
            let candidates = private_range_candidates(store, new_cloak, r.radius);
            if candidates != r.candidates {
                *seq += 1;
                self.changed.insert(id);
            }
            r.candidates = candidates;
            r.cloak = Some(*new_cloak);
            self.recomputes += 1;
        }
        ids.len()
    }

    fn count(&self, id: StandingQueryId) -> Option<&Count> {
        match &self.entries.get(&id)?.body {
            Body::Count(c) => Some(c),
            Body::Range(_) => None,
        }
    }

    fn range(&self, id: StandingQueryId) -> Option<&Range> {
        match &self.entries.get(&id)?.body {
            Body::Range(r) => Some(r),
            Body::Count(_) => None,
        }
    }

    /// Expected count of a count query: its fixed-point sum, converted
    /// once.
    pub fn expected(&self, id: StandingQueryId) -> Option<f64> {
        self.count(id).map(|c| c.sum as f64 / ONE)
    }

    /// `[certain, possible]` interval of a count query.
    pub fn interval(&self, id: StandingQueryId) -> Option<(usize, usize)> {
        self.count(id).map(Count::interval)
    }

    /// Exact count PDF of a count query (computed on demand).
    pub fn pdf(&self, id: StandingQueryId) -> Option<PoissonBinomial> {
        let probs: Vec<f64> = self.count(id)?.contributions.values().copied().collect();
        Some(PoissonBinomial::new(&probs))
    }

    /// The area a count query monitors.
    pub fn area(&self, id: StandingQueryId) -> Option<Rect> {
        self.count(id).map(|c| c.area)
    }

    /// Current candidate set of a range query (empty before its
    /// subject's first cloak), sorted by object id.
    pub fn candidates(&self, id: StandingQueryId) -> Option<&[PublicObject]> {
        self.range(id).map(|r| r.candidates.as_slice())
    }

    /// The subject of a range query.
    pub fn subject(&self, id: StandingQueryId) -> Option<UserId> {
        self.range(id).map(|r| r.subject)
    }

    /// Change sequence number of a query.
    pub fn seq(&self, id: StandingQueryId) -> Option<u64> {
        self.entries.get(&id).map(|e| e.seq)
    }

    /// A query's current answer in its wire form: the payload of
    /// `STANDING_STATE` replies and `STANDING_DELTA` pushes.
    pub fn state(&self, id: StandingQueryId) -> Option<StandingState> {
        let e = self.entries.get(&id)?;
        Some(match &e.body {
            Body::Count(c) => StandingState::Count(StandingCountState {
                id,
                seq: e.seq,
                expected: c.sum as f64 / ONE,
                certain: c.certain as u64,
                possible: c.contributions.len() as u64,
            }),
            Body::Range(r) => StandingState::Range(StandingRangeState {
                id,
                seq: e.seq,
                candidates: r.candidates.iter().map(|o| (o.id, o.pos)).collect(),
            }),
        })
    }

    /// Drains the queries whose answer changed since the last call, in
    /// ascending id order.
    pub fn take_changed(&mut self) -> Vec<StandingQueryId> {
        std::mem::take(&mut self.changed).into_iter().collect()
    }

    /// Cloak records applied to the counts so far.
    pub fn updates_processed(&self) -> u64 {
        self.updates_processed
    }

    /// Counts examined through the area index across all records
    /// (including near misses the exact area test filtered out).
    pub fn examined_total(&self) -> u64 {
        self.examined_total
    }

    /// Exports the registry's raw state, entries in ascending id order:
    /// two registries with equal logical state export equal values.
    pub fn export_state(&self) -> StandingRegistryState {
        let mut entries: Vec<StandingEntryState> = self
            .entries
            .iter()
            .map(|(&id, e)| StandingEntryState {
                id,
                seq: e.seq,
                entry: match &e.body {
                    Body::Count(c) => StandingEntry::Count {
                        area: c.area,
                        contributions: c.contributions.iter().map(|(&p, &v)| (p, v)).collect(),
                    },
                    Body::Range(r) => StandingEntry::Range {
                        subject: r.subject,
                        radius: r.radius,
                        cloak: r.cloak,
                        candidates: r.candidates.clone(),
                    },
                },
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.id);
        StandingRegistryState {
            entries,
            next_id: self.next_id,
            changed: self.changed.iter().copied().collect(),
            updates_processed: self.updates_processed,
            examined_total: self.examined_total,
            recomputes: self.recomputes,
            reuses: self.reuses,
        }
    }

    /// Rebuilds a registry from exported state. A count's sum and
    /// certain tally are re-derived from its contributions, and the
    /// indexes are rebuilt, so the result behaves exactly like the
    /// registry that produced the export.
    pub fn restore_state(state: &StandingRegistryState) -> StandingRegistry {
        let mut reg = StandingRegistry {
            next_id: state.next_id,
            changed: state.changed.iter().copied().collect(),
            updates_processed: state.updates_processed,
            examined_total: state.examined_total,
            recomputes: state.recomputes,
            reuses: state.reuses,
            ..StandingRegistry::default()
        };
        for es in &state.entries {
            let body = match &es.entry {
                StandingEntry::Count {
                    area,
                    contributions,
                } => {
                    let mut count = Count::new(*area);
                    for &(pseudonym, p) in contributions {
                        count.set(pseudonym, p);
                    }
                    Body::Count(count)
                }
                StandingEntry::Range {
                    subject,
                    radius,
                    cloak,
                    candidates,
                } => Body::Range(Range {
                    subject: *subject,
                    radius: *radius,
                    cloak: *cloak,
                    candidates: candidates.clone(),
                }),
            };
            reg.insert(es.id, Entry { body, seq: es.seq });
        }
        reg.areas.rebuild(&reg.entries);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_geom::Point;
    use lbsp_server::{PrivateRecord, PrivateStore, PublicCountQuery};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new_unchecked(x0, y0, x1, y1)
    }

    fn count(reg: &mut StandingRegistry, area: Rect) -> StandingQueryId {
        reg.register(StandingQuery::Count { area }, [])
    }

    fn range(reg: &mut StandingRegistry, subject: UserId, radius: f64) -> StandingQueryId {
        reg.register(StandingQuery::Range { subject, radius }, [])
    }

    fn store() -> PublicStore {
        PublicStore::bulk_load(
            (0..100)
                .map(|i| {
                    let p = Point::new(0.05 + 0.1 * (i % 10) as f64, 0.05 + 0.1 * (i / 10) as f64);
                    PublicObject::new(i, p, 0)
                })
                .collect(),
        )
    }

    #[test]
    fn counts_and_ranges_share_one_id_space() {
        let mut reg = StandingRegistry::new();
        let c = count(&mut reg, rect(0.0, 0.0, 0.5, 0.5));
        let r = range(&mut reg, 7, 0.1);
        assert_eq!((c, r), (0, 1));
        // An install under a granted id is idempotent, of either kind,
        // and allocation continues past it.
        let q = StandingQuery::Count {
            area: rect(0.5, 0.5, 1.0, 1.0),
        };
        assert!(reg.install(5, q, []));
        assert!(!reg.install(5, q, []));
        assert!(!reg.install(r, q, []), "the range holds id 1");
        assert_eq!(range(&mut reg, 9, 0.2), 6);
        assert_eq!((reg.area(r), reg.subject(c)), (None, None));
        // Dropping the count leaves the range with its id.
        assert!(reg.deregister(c));
        assert!(!reg.deregister(c));
        assert_eq!(reg.subject(r), Some(7));
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn expected_does_not_drift_over_a_million_updates() {
        // A long randomized stream of moves and departures: the kept
        // expected count still agrees with a from-scratch evaluation to
        // 1e-9 at the end.
        let mut rng = StdRng::seed_from_u64(20060406);
        let areas = [
            rect(0.0, 0.0, 0.3, 0.3),
            rect(0.2, 0.2, 0.7, 0.7),
            rect(0.6, 0.1, 0.9, 0.4),
            rect(0.1, 0.6, 0.8, 0.95),
        ];
        let mut store = PrivateStore::new();
        let mut reg = StandingRegistry::new();
        let ids: Vec<_> = areas.iter().map(|&a| count(&mut reg, a)).collect();
        for step in 0..1_000_000u64 {
            let id = step % 500;
            if step % 97 == 0 {
                if let Some(old) = store.remove(id) {
                    reg.on_record(id, Some(&old), None, true);
                }
                continue;
            }
            let x0: f64 = rng.random_range(0.0..0.9);
            let y0: f64 = rng.random_range(0.0..0.9);
            let w: f64 = rng.random_range(0.01..0.1);
            let r = rect(x0, y0, (x0 + w).min(1.0), (y0 + w).min(1.0));
            let old = store.upsert(PrivateRecord::new(id, r));
            reg.on_record(id, old.as_ref(), Some(&r), true);
        }
        for (a, q) in areas.iter().zip(&ids) {
            let full = PublicCountQuery::new(*a).evaluate(store.iter());
            let inc = reg.expected(*q).unwrap();
            let drift = (full.expected - inc).abs();
            assert!(drift < 1e-9, "drift {drift:e} after 1M updates");
            assert_eq!(reg.interval(*q).unwrap().1, full.possible);
        }
    }

    #[test]
    fn certain_membership_tolerates_inexact_overlap_ratios() {
        let area = rect(0.0, 0.0, 1.0, 1.0);
        let mut reg = StandingRegistry::new();
        let q = count(&mut reg, area);
        // The cloak overhangs the area's edge by one ulp, so the overlap
        // ratio lands a hair below 1.0 though the cloak is, for any
        // practical purpose, inside.
        let r = rect(0.9, 0.9, 1.0 + f64::EPSILON, 1.0);
        let frac = r.overlap_fraction(&area);
        assert!(frac < 1.0 && frac > 1.0 - 1e-12, "premise: {frac}");
        reg.on_record(3, None, Some(&r), true);
        assert_eq!(reg.interval(q), Some((1, 1)));
    }

    #[test]
    fn area_index_routes_updates_to_overlapping_counts_only() {
        // 200 counts packed into the left half; an update in the right
        // half examines a handful of them, not the population.
        let mut reg = StandingRegistry::new();
        for i in 0..200u64 {
            let (x, y) = ((i % 20) as f64 * 0.02, (i / 20) as f64 * 0.04);
            count(&mut reg, rect(x, y, x + 0.02, y + 0.04));
        }
        let right = count(&mut reg, rect(0.8, 0.1, 0.9, 0.3));
        let fanout = reg.on_record(1, None, Some(&rect(0.82, 0.15, 0.86, 0.2)), true);
        assert_eq!(fanout, 1, "only the right-half count is adjusted");
        assert!(reg.examined_total() < 20, "{}", reg.examined_total());
        assert_eq!(reg.expected(right), Some(1.0));
        assert_eq!(reg.updates_processed(), 1);
    }

    #[test]
    fn answer_changes_bump_seq_and_only_pushed_ones_queue() {
        let mut reg = StandingRegistry::new();
        let q = count(&mut reg, rect(0.0, 0.0, 0.5, 0.5));
        let (r, r2) = (rect(0.1, 0.1, 0.2, 0.2), rect(0.2, 0.2, 0.3, 0.3));
        reg.on_record(9, None, Some(&r), true);
        assert_eq!((reg.seq(q), reg.take_changed()), (Some(1), vec![q]));
        assert!(reg.take_changed().is_empty(), "drained");
        // A move that keeps the member certain leaves the interval.
        reg.on_record(9, Some(&r), Some(&r2), true);
        assert_eq!((reg.seq(q), reg.take_changed()), (Some(1), vec![]));
        // A mirrored departure bumps seq but queues nothing.
        reg.on_record(9, Some(&r2), None, false);
        assert_eq!((reg.seq(q), reg.take_changed()), (Some(2), vec![]));
        assert_eq!(
            (reg.expected(q), reg.interval(q)),
            (Some(0.0), Some((0, 0)))
        );
    }

    #[test]
    fn a_range_recomputes_on_a_new_cloak_and_reuses_an_old_one() {
        let store = store();
        let mut reg = StandingRegistry::new();
        let q = range(&mut reg, 7, 0.15);
        let far = range(&mut reg, 8, -5.0);
        assert_eq!(reg.candidates(q), Some(&[][..]), "no cloak yet");
        let cloak = rect(0.4, 0.4, 0.6, 0.6);
        assert_eq!(reg.on_cloak(7, &cloak, &store), 1);
        let direct = private_range_candidates(&store, &cloak, 0.15);
        assert_eq!(reg.candidates(q), Some(direct.as_slice()));
        assert_eq!((reg.seq(q), reg.take_changed()), (Some(1), vec![q]));
        reg.on_cloak(7, &cloak, &store);
        assert_eq!((reg.recomputes, reg.reuses), (1, 1));
        assert!(reg.take_changed().is_empty(), "a reuse changes nothing");
        assert_eq!(reg.on_cloak(3, &cloak, &store), 0, "user 3 has none");
        // A negative radius clamps to 0: only objects in the cloak.
        reg.on_cloak(8, &cloak, &store);
        let inside = reg.candidates(far).unwrap();
        assert!(!inside.is_empty() && inside.iter().all(|o| cloak.contains_point(o.pos)));
        assert!(reg.deregister(q));
        assert_eq!(reg.on_cloak(7, &rect(0.0, 0.0, 0.2, 0.2), &store), 0);
    }

    #[test]
    fn export_restore_roundtrip_is_exact() {
        let store = store();
        let mut rng = StdRng::seed_from_u64(77);
        let mut reg = StandingRegistry::new();
        for a in [rect(0.0, 0.0, 0.4, 0.4), rect(0.3, 0.3, 0.9, 0.9)] {
            count(&mut reg, a);
        }
        range(&mut reg, 3, 0.1);
        let mut prev: HashMap<PseudonymId, Rect> = HashMap::new();
        let step = |reg: &mut StandingRegistry, prev: &mut HashMap<_, _>, id, r: Rect| {
            let old = prev.insert(id, r);
            reg.on_record(id, old.as_ref(), Some(&r), true);
            reg.on_cloak(id, &r, &store);
        };
        let stream: Vec<(u64, Rect)> = (0..300u64)
            .map(|i| {
                let (x0, y0) = (rng.random_range(0.0..0.9), rng.random_range(0.0..0.9));
                (i % 40, rect(x0, y0, x0 + 0.08, y0 + 0.08))
            })
            .collect();
        for &(id, r) in &stream[..200] {
            step(&mut reg, &mut prev, id, r);
        }
        // Leave some changes undelivered.
        let _ = reg.take_changed();
        for &(id, r) in &stream[200..250] {
            step(&mut reg, &mut prev, id, r);
        }
        let state = reg.export_state();
        let mut restored = StandingRegistry::restore_state(&state);
        assert_eq!(restored.export_state(), state, "roundtrip is lossless");
        let mut prev2 = prev.clone();
        for &(id, r) in &stream[250..] {
            step(&mut reg, &mut prev, id, r);
            step(&mut restored, &mut prev2, id, r);
        }
        assert_eq!(restored.export_state(), reg.export_state());
        for q in 0..3 {
            assert_eq!(reg.state(q), restored.state(q), "query {q}");
        }
        assert_eq!(reg.take_changed(), restored.take_changed());
    }
}
