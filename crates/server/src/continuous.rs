//! Continuous public count queries with incremental evaluation.
//!
//! The paper's scalability story (Secs. 1 and 5.3) leans on the
//! SINA-style insight that "processing the continuous queries at the
//! location-based server should be done incrementally". This module
//! implements it for the public range-count query class: standing
//! queries register once, and each cloak update adjusts only the
//! affected queries by the *delta* of the record's inclusion
//! probability, instead of recomputing every query from scratch.
//!
//! The maintained quantity is the expected count (the paper's format 1);
//! the interval and PDF formats are derived on demand from the
//! maintained per-query contribution maps.
//!
//! Two long-run correctness hazards are handled explicitly:
//!
//! * **Float drift** — the expected count is a sum that is edited
//!   millions of times on a live server. It is kept with Neumaier
//!   compensated summation and re-summed from the contribution map
//!   every [`RECONCILE_EVERY`] mutations, so the incremental value
//!   tracks a full recompute to well under 1e-9 indefinitely. All
//!   float accumulation happens in a deterministic order (contributions
//!   are keyed in a `BTreeMap`, registration seeds are sorted), which
//!   is what lets the sharded engine reproduce the sequential path
//!   bit-for-bit.
//! * **Inexact "certain" membership** — a cloak that for any practical
//!   purpose lies inside the query area can produce an overlap ratio a
//!   few ulps below 1.0; the certain-count test tolerates
//!   [`lbsp_geom::EPSILON`].
//!
//! Update cost scales with the queries an update actually overlaps, not
//! with the number registered: a uniform grid over the query areas
//! ([`AreaIndex`]) routes each update to the handful of standing
//! queries whose area intersects the old or new cloak.

use crate::{PoissonBinomial, PseudonymId};
use lbsp_geom::{Rect, EPSILON};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifier for a registered continuous query.
pub type QueryId = u64;

/// Contributions at or above `1 - EPSILON` count as certain members;
/// shares [`lbsp_geom::EPSILON`] with the rest of the geometry layer.
const CERTAIN_THRESHOLD: f64 = 1.0 - EPSILON;

/// Mutations between deterministic re-summations of a query's expected
/// count. The compensated sum alone keeps the error near one ulp per
/// mutation; the periodic reconcile bounds it outright.
const RECONCILE_EVERY: u64 = 4096;

#[derive(Debug)]
struct StandingQuery {
    area: Rect,
    /// pseudonym -> current inclusion probability (only non-zero ones).
    /// Ordered so re-summation and PDF extraction are deterministic.
    contributions: BTreeMap<PseudonymId, f64>,
    /// Neumaier running sum and compensation term of the contributions.
    sum: f64,
    comp: f64,
    /// Members whose contribution passes [`CERTAIN_THRESHOLD`].
    certain: usize,
    /// Contribution edits since the last reconcile.
    mutations: u64,
    /// Bumped whenever the `[certain, possible]` interval changes;
    /// drives standing-delta push over the wire.
    seq: u64,
}

impl StandingQuery {
    fn new(area: Rect) -> StandingQuery {
        StandingQuery {
            area,
            contributions: BTreeMap::new(),
            sum: 0.0,
            comp: 0.0,
            certain: 0,
            mutations: 0,
            seq: 0,
        }
    }

    /// Neumaier's variant of compensated summation: the low-order bits
    /// lost by `sum + v` are captured in `comp` whichever operand is
    /// larger.
    fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Re-derives the sum and certain count from the contribution map
    /// in key order. Deterministic, so both the sequential server and
    /// the sharded engine reconcile to identical bits.
    fn reconcile(&mut self) {
        self.sum = 0.0;
        self.comp = 0.0;
        let probs: Vec<f64> = self.contributions.values().copied().collect();
        for p in probs {
            self.add(p);
        }
        self.certain = self
            .contributions
            .values()
            .filter(|&&p| p >= CERTAIN_THRESHOLD)
            .count();
        self.mutations = 0;
    }

    fn set_contribution(&mut self, pseudonym: PseudonymId, p: f64) {
        let old = if p > 0.0 {
            self.contributions.insert(pseudonym, p).unwrap_or(0.0)
        } else {
            self.contributions.remove(&pseudonym).unwrap_or(0.0)
        };
        self.add(p);
        self.add(-old);
        self.certain += usize::from(p >= CERTAIN_THRESHOLD);
        self.certain -= usize::from(old >= CERTAIN_THRESHOLD);
        self.mutations += 1;
        if self.mutations >= RECONCILE_EVERY {
            self.reconcile();
        }
    }

    fn expected(&self) -> f64 {
        self.sum + self.comp
    }

    fn interval(&self) -> (usize, usize) {
        (self.certain, self.contributions.len())
    }
}

/// A uniform grid over the bounding box of all registered query areas.
///
/// Each cell lists the queries whose area touches it; an update only
/// examines the queries listed in the cells its old/new cloak covers.
/// Rebuilt on register/deregister (rare) so the per-update path stays
/// allocation-light. False positives from coarse cells are harmless:
/// every candidate is still checked against the actual query area.
#[derive(Debug, Default)]
struct AreaIndex {
    bounds: Option<Rect>,
    side: usize,
    cells: Vec<Vec<QueryId>>,
}

impl AreaIndex {
    fn rebuild(&mut self, queries: &HashMap<QueryId, StandingQuery>) {
        self.bounds = None;
        self.side = 0;
        self.cells.clear();
        let mut bounds: Option<Rect> = None;
        for q in queries.values() {
            bounds = Some(match bounds {
                Some(b) => b.union(&q.area),
                None => q.area,
            });
        }
        let Some(bounds) = bounds else { return };
        let side = ((queries.len() as f64).sqrt().ceil() as usize).clamp(1, 64);
        self.bounds = Some(bounds);
        self.side = side;
        self.cells = vec![Vec::new(); side * side];
        let mut ids: Vec<QueryId> = queries.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let Some(q) = queries.get(&id) else { continue };
            let (xs, ys) = self.span(&q.area);
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

    /// Queries whose cells the old/new regions cover, sorted and
    /// deduplicated (the sorted order also makes downstream float
    /// application deterministic).
    fn candidates(&self, old: Option<&Rect>, new: Option<&Rect>) -> Vec<QueryId> {
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

/// Raw state of one standing count query, as exported for durability.
///
/// This is a *bit-exact* dump, not a logical summary: `sum`/`comp` are
/// the Neumaier accumulator pair (whose low-order bits depend on the
/// full history of contribution edits), `mutations` is the reconcile
/// countdown, and `seq` the change sequence number. Restoring anything
/// less would make a recovered registry diverge from one that never
/// crashed on the very next update. The `certain` count is *not*
/// exported — it is derivable from the contributions and re-derived on
/// restore.
#[derive(Debug, Clone, PartialEq)]
pub struct StandingCountQueryState {
    /// Query id.
    pub id: QueryId,
    /// Monitored area.
    pub area: Rect,
    /// `(pseudonym, inclusion probability)` pairs in ascending
    /// pseudonym order (the map's natural order).
    pub contributions: Vec<(PseudonymId, f64)>,
    /// Neumaier running sum (raw bits).
    pub sum: f64,
    /// Neumaier compensation term (raw bits).
    pub comp: f64,
    /// Contribution edits since the last reconcile.
    pub mutations: u64,
    /// Change sequence number.
    pub seq: u64,
}

/// Raw state of a [`ContinuousRangeCount`] registry (see
/// [`StandingCountQueryState`] for why this is a bit-exact dump).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContinuousCountState {
    /// Queries in ascending id order.
    pub queries: Vec<StandingCountQueryState>,
    /// Next id to assign.
    pub next_id: QueryId,
    /// Ids with undelivered interval changes, ascending.
    pub changed: Vec<QueryId>,
    /// Updates applied since creation.
    pub updates_processed: u64,
    /// Cumulative queries examined through the area index.
    pub examined_total: u64,
}

/// A registry of standing count queries, maintained incrementally.
#[derive(Debug, Default)]
pub struct ContinuousRangeCount {
    queries: HashMap<QueryId, StandingQuery>,
    next_id: QueryId,
    index: AreaIndex,
    /// Queries whose `[certain, possible]` interval changed since the
    /// last [`ContinuousRangeCount::take_changed`].
    changed: BTreeSet<QueryId>,
    /// Updates applied since creation (for experiment reporting).
    updates_processed: u64,
    /// Cumulative queries examined through the area index — the cost
    /// proxy the E14 experiment asserts on.
    examined_total: u64,
}

impl ContinuousRangeCount {
    /// Creates an empty registry.
    pub fn new() -> ContinuousRangeCount {
        ContinuousRangeCount::default()
    }

    /// Registers a standing query over `area`, seeded from the current
    /// private records (`initial` provides `(pseudonym, region)` pairs).
    ///
    /// Seeds are applied in pseudonym order regardless of the caller's
    /// iteration order, so the float accumulation — and therefore the
    /// wire-encoded expected count — is identical whichever store the
    /// seeds come from and whatever order it iterates in.
    pub fn register<I>(&mut self, area: Rect, initial: I) -> QueryId
    where
        I: IntoIterator<Item = (PseudonymId, Rect)>,
    {
        let id = self.next_id;
        assert!(self.register_at(id, area, initial));
        id
    }

    /// Installs a standing query under a caller-chosen id (cluster
    /// mirrors install the id node 0 granted instead of allocating).
    /// Idempotent: returns `false` and leaves the registry untouched if
    /// `id` is already present. `next_id` advances past `id` so a later
    /// local allocation can never collide with an installed one. Seed
    /// ordering follows the same pseudonym-sort contract as
    /// [`ContinuousRangeCount::register`].
    pub fn register_at<I>(&mut self, id: QueryId, area: Rect, initial: I) -> bool
    where
        I: IntoIterator<Item = (PseudonymId, Rect)>,
    {
        if self.queries.contains_key(&id) {
            return false;
        }
        self.next_id = self.next_id.max(id + 1);
        let mut q = StandingQuery::new(area);
        let mut seeds: Vec<(PseudonymId, Rect)> = initial.into_iter().collect();
        seeds.sort_unstable_by_key(|&(pseudonym, _)| pseudonym);
        for (pseudonym, region) in seeds {
            q.set_contribution(pseudonym, region.overlap_fraction(&area));
        }
        self.queries.insert(id, q);
        self.index.rebuild(&self.queries);
        true
    }

    /// Deregisters a query.
    pub fn deregister(&mut self, id: QueryId) -> bool {
        let removed = self.queries.remove(&id).is_some();
        if removed {
            self.changed.remove(&id);
            self.index.rebuild(&self.queries);
        }
        removed
    }

    /// Number of standing queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Applies one cloak update: the record moved from `old` (None on
    /// first appearance) to `new` (None on departure). Only queries
    /// whose area intersects either region are touched; the area index
    /// keeps the scan proportional to overlapping queries, not to the
    /// number registered. Returns how many queries were adjusted.
    pub fn on_update(
        &mut self,
        pseudonym: PseudonymId,
        old: Option<&Rect>,
        new: Option<&Rect>,
    ) -> usize {
        self.updates_processed += 1;
        let ids = self.index.candidates(old, new);
        self.examined_total += ids.len() as u64;
        let mut fanout = 0;
        for id in ids {
            let Some(q) = self.queries.get_mut(&id) else {
                continue;
            };
            let affected = old.is_some_and(|r| r.intersects(&q.area))
                || new.is_some_and(|r| r.intersects(&q.area));
            if !affected {
                continue;
            }
            fanout += 1;
            let before = q.interval();
            let p = new.map_or(0.0, |r| r.overlap_fraction(&q.area));
            q.set_contribution(pseudonym, p);
            if q.interval() != before {
                q.seq += 1;
                self.changed.insert(id);
            }
        }
        fanout
    }

    /// `true` when a query with this id is registered.
    pub fn contains(&self, id: QueryId) -> bool {
        self.queries.contains_key(&id)
    }

    /// Current expected count of a query.
    pub fn expected(&self, id: QueryId) -> Option<f64> {
        self.queries.get(&id).map(StandingQuery::expected)
    }

    /// Current `[certain, possible]` interval of a query. A member is
    /// certain when its inclusion probability reaches `1 - EPSILON`:
    /// overlap ratios of fully-contained cloaks can land a few ulps
    /// below 1.0 and must not be demoted to merely possible.
    pub fn interval(&self, id: QueryId) -> Option<(usize, usize)> {
        self.queries.get(&id).map(StandingQuery::interval)
    }

    /// Current exact count PDF of a query (computed on demand).
    pub fn pdf(&self, id: QueryId) -> Option<PoissonBinomial> {
        let q = self.queries.get(&id)?;
        let probs: Vec<f64> = q.contributions.values().copied().collect();
        Some(PoissonBinomial::new(&probs))
    }

    /// The area a query monitors.
    pub fn area(&self, id: QueryId) -> Option<Rect> {
        self.queries.get(&id).map(|q| q.area)
    }

    /// Change sequence number of a query: bumped each time its
    /// `[certain, possible]` interval changes.
    pub fn seq(&self, id: QueryId) -> Option<u64> {
        self.queries.get(&id).map(|q| q.seq)
    }

    /// Drains the set of queries whose interval changed since the last
    /// call, in ascending id order.
    pub fn take_changed(&mut self) -> Vec<QueryId> {
        std::mem::take(&mut self.changed).into_iter().collect()
    }

    /// Updates processed so far.
    pub fn updates_processed(&self) -> u64 {
        self.updates_processed
    }

    /// Cumulative queries examined via the area index across all
    /// updates (including near-misses filtered by the exact area test).
    pub fn examined_total(&self) -> u64 {
        self.examined_total
    }

    /// Exports the registry's raw state for durability. Canonical: all
    /// vectors come out sorted, so two registries with equal logical
    /// state export equal values regardless of hash-map order.
    pub fn export_state(&self) -> ContinuousCountState {
        let mut queries: Vec<StandingCountQueryState> = self
            .queries
            .iter()
            .map(|(&id, q)| StandingCountQueryState {
                id,
                area: q.area,
                contributions: q.contributions.iter().map(|(&p, &v)| (p, v)).collect(),
                sum: q.sum,
                comp: q.comp,
                mutations: q.mutations,
                seq: q.seq,
            })
            .collect();
        queries.sort_unstable_by_key(|q| q.id);
        ContinuousCountState {
            queries,
            next_id: self.next_id,
            changed: self.changed.iter().copied().collect(),
            updates_processed: self.updates_processed,
            examined_total: self.examined_total,
        }
    }

    /// Rebuilds a registry from exported state. The `certain` count is
    /// re-derived from the contributions (it is a pure function of
    /// them) and the area index is rebuilt; everything else — including
    /// the raw accumulator bits — is restored verbatim, so the result
    /// behaves identically to the registry that produced the export.
    pub fn restore_state(state: &ContinuousCountState) -> ContinuousRangeCount {
        let mut queries: HashMap<QueryId, StandingQuery> =
            HashMap::with_capacity(state.queries.len());
        for qs in &state.queries {
            let contributions: BTreeMap<PseudonymId, f64> =
                qs.contributions.iter().copied().collect();
            let certain = contributions
                .values()
                .filter(|&&p| p >= CERTAIN_THRESHOLD)
                .count();
            queries.insert(
                qs.id,
                StandingQuery {
                    area: qs.area,
                    contributions,
                    sum: qs.sum,
                    comp: qs.comp,
                    certain,
                    mutations: qs.mutations,
                    seq: qs.seq,
                },
            );
        }
        let mut index = AreaIndex::default();
        index.rebuild(&queries);
        ContinuousRangeCount {
            queries,
            next_id: state.next_id,
            index,
            changed: state.changed.iter().copied().collect(),
            updates_processed: state.updates_processed,
            examined_total: state.examined_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrivateRecord, PrivateStore, PublicCountQuery};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new_unchecked(x0, y0, x1, y1)
    }

    #[test]
    fn register_seeds_from_existing_records() {
        let mut store = PrivateStore::new();
        store.upsert(PrivateRecord::new(1, rect(0.0, 0.0, 0.2, 0.2)));
        store.upsert(PrivateRecord::new(2, rect(0.4, 0.4, 0.8, 0.8)));
        let mut cont = ContinuousRangeCount::new();
        let q = cont.register(
            rect(0.0, 0.0, 0.5, 0.5),
            store.iter().map(|r| (r.pseudonym, r.region)),
        );
        // Record 1 fully inside (p=1); record 2 overlap fraction:
        // intersection [0.4,0.5]^2 area 0.01 over region area 0.16.
        let expected = cont.expected(q).unwrap();
        assert!((expected - (1.0 + 0.01 / 0.16)).abs() < 1e-9);
        assert_eq!(cont.interval(q), Some((1, 2)));
    }

    #[test]
    fn register_at_is_idempotent_and_guides_next_id() {
        let mut cont = ContinuousRangeCount::new();
        assert!(cont.register_at(5, rect(0.0, 0.0, 0.5, 0.5), std::iter::empty()));
        // A replay of the same install is a no-op.
        assert!(!cont.register_at(5, rect(0.0, 0.0, 0.5, 0.5), std::iter::empty()));
        assert_eq!(cont.len(), 1);
        // Local allocation continues past the installed id.
        assert_eq!(
            cont.register(rect(0.5, 0.5, 1.0, 1.0), std::iter::empty()),
            6
        );
        // Out-of-order installs never collide with allocation either.
        assert!(cont.register_at(3, rect(0.0, 0.0, 0.1, 0.1), std::iter::empty()));
        assert_eq!(
            cont.register(rect(0.5, 0.5, 1.0, 1.0), std::iter::empty()),
            7
        );
    }

    #[test]
    fn incremental_matches_full_recompute() {
        // Drive a store and the continuous monitor with the same update
        // stream; the maintained expected count must equal a from-scratch
        // evaluation at every step.
        let area = rect(0.25, 0.25, 0.75, 0.75);
        let mut store = PrivateStore::new();
        let mut cont = ContinuousRangeCount::new();
        let q = cont.register(area, std::iter::empty());
        let moves: Vec<(PseudonymId, Rect)> = (0..50u64)
            .map(|i| {
                let t = i as f64 / 50.0;
                let x = (t * 0.9).min(0.9);
                (i % 10, rect(x, 0.3, x + 0.1, 0.45))
            })
            .collect();
        for (pseudonym, region) in moves {
            let old = store.upsert(PrivateRecord::new(pseudonym, region));
            cont.on_update(pseudonym, old.as_ref(), Some(&region));
            let full = PublicCountQuery::new(area).evaluate(store.iter());
            let inc = cont.expected(q).unwrap();
            assert!(
                (full.expected - inc).abs() < 1e-9,
                "incremental {inc} vs full {}",
                full.expected
            );
            assert_eq!(cont.interval(q).unwrap().1, full.possible);
        }
        assert_eq!(cont.updates_processed(), 50);
    }

    #[test]
    fn expected_does_not_drift_over_a_million_updates() {
        use rand::rngs::StdRng;
        use rand::{RngExt as _, SeedableRng};
        // A long randomized stream of moves and departures: the
        // incrementally-maintained expected count must still agree with
        // a from-scratch evaluation to 1e-9 at the end. This is the
        // regression test for the old `expected += p - old` drift.
        let mut rng = StdRng::seed_from_u64(20060406);
        let areas = [
            rect(0.0, 0.0, 0.3, 0.3),
            rect(0.2, 0.2, 0.7, 0.7),
            rect(0.6, 0.1, 0.9, 0.4),
            rect(0.1, 0.6, 0.8, 0.95),
        ];
        let mut store = PrivateStore::new();
        let mut cont = ContinuousRangeCount::new();
        let ids: Vec<QueryId> = areas
            .iter()
            .map(|a| cont.register(*a, std::iter::empty()))
            .collect();
        for step in 0..1_000_000u64 {
            let id = step % 500;
            if step % 97 == 0 {
                if let Some(old) = store.remove(id) {
                    cont.on_update(id, Some(&old), None);
                }
                continue;
            }
            let x0: f64 = rng.random_range(0.0..0.9);
            let y0: f64 = rng.random_range(0.0..0.9);
            let w: f64 = rng.random_range(0.01..0.1);
            let r = rect(x0, y0, (x0 + w).min(1.0), (y0 + w).min(1.0));
            let old = store.upsert(PrivateRecord::new(id, r));
            cont.on_update(id, old.as_ref(), Some(&r));
        }
        for (a, q) in areas.iter().zip(&ids) {
            let full = PublicCountQuery::new(*a).evaluate(store.iter());
            let inc = cont.expected(*q).unwrap();
            assert!(
                (full.expected - inc).abs() < 1e-9,
                "drift {:e} after 1M updates",
                (full.expected - inc).abs()
            );
            assert_eq!(cont.interval(*q).unwrap().1, full.possible);
        }
    }

    #[test]
    fn certain_membership_tolerates_inexact_overlap_ratios() {
        let area = rect(0.0, 0.0, 1.0, 1.0);
        let mut cont = ContinuousRangeCount::new();
        let q = cont.register(area, std::iter::empty());
        // The cloak overhangs the query edge by one ulp, so the overlap
        // ratio lands a hair below 1.0 even though the region is, for
        // any practical purpose, fully inside the query area. (A cloak
        // with bounds exactly inside yields intersection == cloak and
        // the ratio x/x is exactly 1.0 in IEEE arithmetic — the inexact
        // case needs this overhang.)
        let r = rect(0.9, 0.9, 1.0 + f64::EPSILON, 1.0);
        let frac = r.overlap_fraction(&area);
        assert!(frac < 1.0, "premise: the ratio is inexact ({frac})");
        assert!(frac > 1.0 - 1e-12, "premise: but only by ulps ({frac})");
        cont.on_update(3, None, Some(&r));
        assert_eq!(
            cont.interval(q),
            Some((1, 1)),
            "ulp-inexact full overlap still counts as certain"
        );
    }

    #[test]
    fn departures_remove_contributions() {
        let area = rect(0.0, 0.0, 1.0, 1.0);
        let mut cont = ContinuousRangeCount::new();
        let q = cont.register(area, std::iter::empty());
        let r = rect(0.4, 0.4, 0.6, 0.6);
        cont.on_update(7, None, Some(&r));
        assert!((cont.expected(q).unwrap() - 1.0).abs() < 1e-12);
        cont.on_update(7, Some(&r), None);
        assert_eq!(cont.expected(q).unwrap(), 0.0);
        assert_eq!(cont.interval(q), Some((0, 0)));
    }

    #[test]
    fn unaffected_queries_are_untouched() {
        let mut cont = ContinuousRangeCount::new();
        let q1 = cont.register(rect(0.0, 0.0, 0.1, 0.1), std::iter::empty());
        let q2 = cont.register(rect(0.9, 0.9, 1.0, 1.0), std::iter::empty());
        let r = rect(0.4, 0.4, 0.6, 0.6);
        let fanout = cont.on_update(1, None, Some(&r));
        assert_eq!(fanout, 0, "no query overlaps the update");
        assert_eq!(cont.expected(q1), Some(0.0));
        assert_eq!(cont.expected(q2), Some(0.0));
    }

    #[test]
    fn area_index_routes_updates_to_overlapping_queries_only() {
        // Many queries packed into the left half of the world; updates
        // confined to the right half must examine only the handful of
        // right-half queries, independent of the left-half population.
        let mut cont = ContinuousRangeCount::new();
        for i in 0..200u64 {
            let x = (i % 20) as f64 * 0.02;
            let y = (i / 20) as f64 * 0.04;
            cont.register(rect(x, y, x + 0.02, y + 0.04), std::iter::empty());
        }
        let right = cont.register(rect(0.8, 0.1, 0.9, 0.3), std::iter::empty());
        let examined_before = cont.examined_total();
        let r = rect(0.82, 0.15, 0.86, 0.2);
        let fanout = cont.on_update(1, None, Some(&r));
        assert_eq!(fanout, 1, "only the right-half query is adjusted");
        let examined = cont.examined_total() - examined_before;
        assert!(
            examined < 20,
            "grid examined {examined} of 201 registered queries"
        );
        assert!((cont.expected(right).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interval_changes_bump_seq_and_feed_take_changed() {
        let mut cont = ContinuousRangeCount::new();
        let q = cont.register(rect(0.0, 0.0, 0.5, 0.5), std::iter::empty());
        assert_eq!(cont.seq(q), Some(0));
        assert!(cont.take_changed().is_empty());
        // A record appears inside the area: possible count changes.
        let r = rect(0.1, 0.1, 0.2, 0.2);
        cont.on_update(9, None, Some(&r));
        assert_eq!(cont.seq(q), Some(1));
        assert_eq!(cont.take_changed(), vec![q]);
        assert!(cont.take_changed().is_empty(), "drained");
        // The record moves within the area, staying certain: the
        // interval is unchanged, so no delta is signalled.
        let r2 = rect(0.2, 0.2, 0.3, 0.3);
        cont.on_update(9, Some(&r), Some(&r2));
        assert_eq!(cont.seq(q), Some(1));
        assert!(cont.take_changed().is_empty());
        // Departure changes the interval again.
        cont.on_update(9, Some(&r2), None);
        assert_eq!(cont.seq(q), Some(2));
        assert_eq!(cont.take_changed(), vec![q]);
    }

    #[test]
    fn pdf_on_demand_matches_snapshot_query() {
        let area = rect(0.0, 0.0, 1.0, 1.0);
        let mut store = PrivateStore::new();
        let mut cont = ContinuousRangeCount::new();
        let q = cont.register(area, std::iter::empty());
        for i in 0..5u64 {
            let r = rect(0.8 + 0.04 * i as f64, 0.0, 1.2, 1.0);
            let old = store.upsert(PrivateRecord::new(i, r));
            cont.on_update(i, old.as_ref(), Some(&r));
        }
        let snapshot = PublicCountQuery::new(area).evaluate(store.iter());
        let live = cont.pdf(q).unwrap();
        for k in 0..=5 {
            assert!((snapshot.pdf.pmf(k) - live.pmf(k)).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn export_restore_roundtrip_is_exact() {
        use rand::rngs::StdRng;
        use rand::{RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut cont = ContinuousRangeCount::new();
        for a in [
            rect(0.0, 0.0, 0.4, 0.4),
            rect(0.3, 0.3, 0.9, 0.9),
            rect(0.5, 0.0, 1.0, 0.5),
        ] {
            cont.register(a, std::iter::empty());
        }
        let mut stream = Vec::new();
        for step in 0..500u64 {
            let id = step % 40;
            let x0 = rng.random_range(0.0..0.9);
            let y0 = rng.random_range(0.0..0.9);
            stream.push((id, rect(x0, y0, x0 + 0.08, y0 + 0.08)));
        }
        let mut prev: HashMap<PseudonymId, Rect> = HashMap::new();
        for &(id, r) in &stream[..300] {
            let old = prev.insert(id, r);
            cont.on_update(id, old.as_ref(), Some(&r));
        }
        // Partially drain change notifications so the restored registry
        // also has to reproduce the undelivered set.
        let _ = cont.take_changed();
        for &(id, r) in &stream[300..400] {
            let old = prev.insert(id, r);
            cont.on_update(id, old.as_ref(), Some(&r));
        }
        let state = cont.export_state();
        let mut restored = ContinuousRangeCount::restore_state(&state);
        assert_eq!(restored.export_state(), state, "roundtrip is lossless");
        // Both registries must now evolve identically, bit for bit.
        for &(id, r) in &stream[400..] {
            let old = prev.insert(id, r);
            cont.on_update(id, old.as_ref(), Some(&r));
            restored.on_update(id, old.as_ref(), Some(&r));
        }
        for q in 0..3u64 {
            assert_eq!(
                cont.expected(q).map(f64::to_bits),
                restored.expected(q).map(f64::to_bits),
                "expected count bits diverged for query {q}"
            );
            assert_eq!(cont.interval(q), restored.interval(q));
            assert_eq!(cont.seq(q), restored.seq(q));
        }
        assert_eq!(cont.take_changed(), restored.take_changed());
        assert_eq!(cont.updates_processed(), restored.updates_processed());
        assert_eq!(cont.examined_total(), restored.examined_total());
    }

    #[test]
    fn deregister_and_bookkeeping() {
        let mut cont = ContinuousRangeCount::new();
        let q = cont.register(rect(0.0, 0.0, 1.0, 1.0), std::iter::empty());
        assert_eq!(cont.len(), 1);
        assert!(!cont.is_empty());
        assert!(cont.area(q).is_some());
        assert!(cont.deregister(q));
        assert!(!cont.deregister(q));
        assert!(cont.is_empty());
        assert_eq!(cont.expected(q), None);
        assert_eq!(cont.interval(q), None);
        assert!(cont.pdf(q).is_none());
    }
}
