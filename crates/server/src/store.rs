//! Public and private data stores: a packed point grid over the slots
//! of an id-ordered array under the public objects, a size-class grid
//! under the cloaked regions.

use crate::{ObjectId, PrivateRecord, PseudonymId, PublicObject};
use lbsp_geom::{Point, Rect};
use lbsp_index::PointGrid;
use std::collections::{BTreeMap, HashMap};

/// Store of public objects: an array in ascending id order, and a
/// [`PointGrid`] over their locations whose entries carry each object's
/// slot in that array.
///
/// A query reads the objects it finds by index, and because slots
/// ascend with ids, sorted slots are the canonical id order. An id is
/// found by binary search. Moving an object touches one slot and one
/// grid entry; adding or removing one shifts the slots after it and
/// rebuilds the grid — the public set is bulk loaded and rarely edited.
///
/// Supports both stationary objects (bulk loaded) and moving public
/// objects like police cars ([`PublicStore::update_position`]).
#[derive(Debug, Default)]
pub struct PublicStore {
    grid: PointGrid,
    objects: Vec<PublicObject>,
}

impl PublicStore {
    /// Creates an empty store.
    pub fn new() -> PublicStore {
        PublicStore::default()
    }

    /// Bulk loads a store from objects (ids must be unique).
    ///
    /// # Panics
    /// Panics on duplicate ids — the caller owns id assignment and a
    /// duplicate means corrupted input.
    pub fn bulk_load(mut objects: Vec<PublicObject>) -> PublicStore {
        objects.sort_unstable_by_key(|o| o.id);
        if let Some(w) = objects.windows(2).find(|w| w[0].id == w[1].id) {
            panic!("duplicate public object id {}", w[0].id);
        }
        let mut store = PublicStore {
            grid: PointGrid::default(),
            objects,
        };
        store.rebuild_grid();
        store
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Inserts a new object (or replaces one with the same id).
    pub fn insert(&mut self, o: PublicObject) {
        match self.slot(o.id) {
            Ok(slot) => {
                self.move_entry(slot, o.pos);
                self.objects[slot] = o;
            }
            Err(slot) => {
                self.objects.insert(slot, o);
                self.rebuild_grid();
            }
        }
    }

    /// Removes an object.
    pub fn remove(&mut self, id: ObjectId) -> Option<PublicObject> {
        let o = self.objects.remove(self.slot(id).ok()?);
        self.rebuild_grid();
        Some(o)
    }

    /// Moves an object (e.g. a police car location update).
    pub fn update_position(&mut self, id: ObjectId, pos: Point) -> bool {
        let Ok(slot) = self.slot(id) else {
            return false;
        };
        self.move_entry(slot, pos);
        self.objects[slot].pos = pos;
        true
    }

    /// Looks up an object.
    pub fn get(&self, id: ObjectId) -> Option<&PublicObject> {
        self.slot(id).ok().map(|slot| &self.objects[slot])
    }

    /// All objects with locations inside `r`, in ascending id order.
    pub fn in_rect(&self, r: &Rect) -> Vec<PublicObject> {
        self.objects_in(r, |_| true)
    }

    /// The `k` objects nearest to `q`, nearest first, equal distances
    /// in ascending id order.
    pub fn k_nearest(&self, q: Point, k: usize) -> Vec<PublicObject> {
        self.grid
            .k_nearest(q, k)
            .into_iter()
            .map(|slot| self.objects[slot as usize])
            .collect()
    }

    /// Iterates over all objects in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &PublicObject> {
        self.objects.iter()
    }

    /// The objects whose location lies in `r` and passes `keep`, in
    /// ascending id order. The query processors' one index pass.
    pub(crate) fn objects_in(
        &self,
        r: &Rect,
        mut keep: impl FnMut(Point) -> bool,
    ) -> Vec<PublicObject> {
        let mut slots = Vec::new();
        self.grid.for_each_in(r, |pos, slot| {
            if keep(pos) {
                slots.push(slot);
            }
        });
        slots.sort_unstable();
        slots
            .into_iter()
            .map(|slot| self.objects[slot as usize])
            .collect()
    }

    /// `Ok(slot)` of `id`, or `Err(slot)` where it would be inserted.
    fn slot(&self, id: ObjectId) -> Result<usize, usize> {
        self.objects.binary_search_by_key(&id, |o| o.id)
    }

    /// Moves the grid entry of `slot` to `pos`.
    fn move_entry(&mut self, slot: usize, pos: Point) {
        self.grid
            .move_point(slot as u32, self.objects[slot].pos, pos);
    }

    /// Rebuilds the grid after slots shifted.
    fn rebuild_grid(&mut self) {
        let points: Vec<Point> = self.objects.iter().map(|o| o.pos).collect();
        self.grid = PointGrid::new(&points);
    }
}

/// Longer sides below `2^FLOOR_EXP` (points among them) share one level:
/// a finer level would hold a cell per record and answer nothing faster.
const FLOOR_EXP: i32 = -12;

/// Integer cell coordinates within one level.
type Cell = (i64, i64);

/// One size class of the private index: the records whose longer side
/// is in `(2^(exp-1), 2^exp]`, bucketed by the `2^exp` cell of their
/// low corner.
type Level = HashMap<Cell, Vec<PrivateRecord>>;

/// `2^-exp`; `0` once `2^exp` overflows, which keeps [`cell`] monotone.
fn inv_side(exp: i32) -> f64 {
    2f64.powi(-exp)
}

/// The cell of coordinate `v` on an axis cut every `1 / inv`. Exactness
/// is not needed anywhere: the index relies only on this being a
/// non-decreasing function of `v` (multiply, floor and the saturating
/// cast all are).
fn cell(v: f64, inv: f64) -> i64 {
    (v * inv).floor() as i64
}

/// Smallest `e` with `side <= 2^e`, read off the exponent bits.
fn size_class(side: f64) -> i32 {
    let bits = side.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if bits & ((1 << 52) - 1) == 0 {
        exp
    } else {
        exp + 1
    }
}

/// Level and cell of a region. The size class bounds the reach in exact
/// arithmetic; the loop makes the bound hold for the computed cells too
/// (a width that rounded down can hide a third cell), and it is the only
/// thing [`PrivateStore::intersecting`] relies on: at its level a
/// region's high corner is at most one cell up and right of its low one.
fn place(region: &Rect) -> (i32, Cell) {
    let mut exp = size_class(region.width().max(region.height())).max(FLOOR_EXP);
    loop {
        let inv = inv_side(exp);
        let lo = (cell(region.min_x(), inv), cell(region.min_y(), inv));
        let hi = (cell(region.max_x(), inv), cell(region.max_y(), inv));
        if hi.0.saturating_sub(lo.0) <= 1 && hi.1.saturating_sub(lo.1) <= 1 {
            return (exp, lo);
        }
        exp += 1;
    }
}

/// Store of private (cloaked) records: an id map plus a size-class grid
/// over the regions.
///
/// Each pseudonym holds exactly one current region; an update replaces
/// the previous one, which is how "the location anonymizer does not need
/// to store the exact location information" materializes server-side —
/// history is the *query's* problem, not the store's.
///
/// The paper indexes private data in a grid, and so does this store. A
/// cloak moves on every location update, and cloaks of one grid share
/// edges and whole rectangles by the thousand, which is the worst case
/// for an R-tree removal. Here a
/// region lives at the level of its size class, in the bucket of its
/// low corner's cell, and the id map remembers its slot in that bucket:
/// a move is one `swap_remove` and one `push` whatever the overlap and
/// the population. A region reaches at most one cell up and right of its
/// bucket (see [`place`]), so a query visits, per occupied level, the
/// cells from one below its low corner to its high corner and filters
/// what it finds — an exact answer for any rectangles, aligned or not.
#[derive(Debug, Default)]
pub struct PrivateStore {
    /// Region of every pseudonym and its slot in its bucket.
    records: HashMap<PseudonymId, (Rect, usize)>,
    /// Occupied levels by exponent; no empty level or bucket is kept.
    levels: BTreeMap<i32, Level>,
}

impl PrivateStore {
    /// Creates an empty store.
    pub fn new() -> PrivateStore {
        PrivateStore::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Inserts or replaces the region for a pseudonym. Returns the
    /// previous region when the record existed.
    pub fn upsert(&mut self, rec: PrivateRecord) -> Option<Rect> {
        let prev = self.records.get(&rec.pseudonym).copied();
        if let Some((old, slot)) = prev {
            if old == rec.region {
                return Some(old);
            }
            self.unlink(&old, slot);
        }
        let slot = self.link(rec);
        self.records.insert(rec.pseudonym, (rec.region, slot));
        prev.map(|(old, _)| old)
    }

    /// Removes a record.
    pub fn remove(&mut self, pseudonym: PseudonymId) -> Option<Rect> {
        let (old, slot) = self.records.remove(&pseudonym)?;
        self.unlink(&old, slot);
        Some(old)
    }

    /// Current region of a pseudonym.
    pub fn get(&self, pseudonym: PseudonymId) -> Option<Rect> {
        self.records.get(&pseudonym).map(|&(region, _)| region)
    }

    /// All records whose region intersects `r` (unspecified order).
    pub fn intersecting(&self, r: &Rect) -> Vec<PrivateRecord> {
        let mut out = Vec::new();
        let mut take = |bucket: &[PrivateRecord]| {
            out.extend(bucket.iter().filter(|rec| rec.region.intersects(r)));
        };
        for (&exp, cells) in &self.levels {
            let inv = inv_side(exp);
            let xs = cell(r.min_x(), inv).saturating_sub(1)..=cell(r.max_x(), inv);
            let ys = cell(r.min_y(), inv).saturating_sub(1)..=cell(r.max_y(), inv);
            let span = |c: &std::ops::RangeInclusive<i64>| {
                (*c.end() as i128 - *c.start() as i128 + 1) as u128
            };
            if span(&xs).saturating_mul(span(&ys)) < cells.len() as u128 {
                for cx in xs {
                    for cy in ys.clone() {
                        if let Some(bucket) = cells.get(&(cx, cy)) {
                            take(bucket);
                        }
                    }
                }
            } else {
                // A query wide for this level: its occupied cells are
                // fewer than the cells the query covers.
                for ((cx, cy), bucket) in cells {
                    if xs.contains(cx) && ys.contains(cy) {
                        take(bucket);
                    }
                }
            }
        }
        out
    }

    /// Iterates over all records (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = PrivateRecord> + '_ {
        self.records
            .iter()
            .map(|(&pseudonym, &(region, _))| PrivateRecord { pseudonym, region })
    }

    /// Appends `rec` to its bucket and returns its slot there.
    fn link(&mut self, rec: PrivateRecord) -> usize {
        let (exp, at) = place(&rec.region);
        let bucket = self.levels.entry(exp).or_default().entry(at).or_default();
        bucket.push(rec);
        bucket.len() - 1
    }

    /// Takes the record at `slot` of `region`'s bucket out of the grid.
    /// The bucket's last record moves into the hole, and the id map
    /// learns its new slot.
    fn unlink(&mut self, region: &Rect, slot: usize) {
        let (exp, at) = place(region);
        let cells = self
            .levels
            .get_mut(&exp)
            .expect("a stored record's level is occupied");
        let bucket = cells.get_mut(&at).expect("a stored record has a bucket");
        bucket.swap_remove(slot);
        if let Some(moved) = bucket.get(slot) {
            self.records
                .get_mut(&moved.pseudonym)
                .expect("a bucketed record is in the id map")
                .1 = slot;
        } else if bucket.is_empty() {
            cells.remove(&at);
            if cells.is_empty() {
                self.levels.remove(&exp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn obj(id: ObjectId, x: f64, y: f64) -> PublicObject {
        PublicObject::new(id, Point::new(x, y), 0)
    }

    #[test]
    fn public_store_crud() {
        let mut s = PublicStore::new();
        assert!(s.is_empty());
        s.insert(obj(1, 0.1, 0.1));
        s.insert(obj(2, 0.9, 0.9));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().pos, Point::new(0.1, 0.1));
        // Replace same id.
        s.insert(obj(1, 0.2, 0.2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().pos, Point::new(0.2, 0.2));
        let hits = s.in_rect(&Rect::new_unchecked(0.0, 0.0, 0.5, 0.5));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 1);
        assert!(s.remove(1).is_some());
        assert!(s.remove(1).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn public_store_bulk_and_knn() {
        let objects: Vec<_> = (0..50)
            .map(|i| obj(i, (i as f64) / 50.0, ((i * 7) % 50) as f64 / 50.0))
            .collect();
        let s = PublicStore::bulk_load(objects.clone());
        assert_eq!(s.len(), 50);
        let q = Point::new(0.5, 0.5);
        let knn = s.k_nearest(q, 3);
        assert_eq!(knn.len(), 3);
        let mut brute = objects.clone();
        brute.sort_by(|a, b| q.dist_sq(a.pos).total_cmp(&q.dist_sq(b.pos)));
        assert_eq!(knn[0].id, brute[0].id);
    }

    #[test]
    #[should_panic(expected = "duplicate public object id")]
    fn bulk_load_rejects_duplicates() {
        PublicStore::bulk_load(vec![obj(1, 0.0, 0.0), obj(1, 0.5, 0.5)]);
    }

    #[test]
    fn moving_public_object() {
        let mut s = PublicStore::new();
        s.insert(obj(7, 0.1, 0.1));
        assert!(s.update_position(7, Point::new(0.8, 0.8)));
        assert!(!s.update_position(8, Point::new(0.5, 0.5)));
        let hits = s.in_rect(&Rect::new_unchecked(0.7, 0.7, 0.9, 0.9));
        assert_eq!(hits.len(), 1);
        assert!(s
            .in_rect(&Rect::new_unchecked(0.0, 0.0, 0.2, 0.2))
            .is_empty());
    }

    /// Where a case of [`public_store_edits_match_a_brute_force_scan`]
    /// puts objects: at the bulk load, then on every insert and move.
    #[derive(Debug, Clone, Copy)]
    enum Spread {
        /// A coarse lattice over the unit square: distances tie and
        /// objects share positions.
        Lattice,
        /// Three tight clusters, most of the grid's cells empty.
        Clustered,
        /// The unit lattice at the load, then a lattice three times as
        /// wide: objects move and arrive beyond the loaded box.
        Beyond,
        /// Every object on one point.
        OnePoint,
        /// The unit lattice with one position in four given a NaN or an
        /// infinite coordinate.
        NonFinite,
    }

    impl Spread {
        fn place(self, rng: &mut StdRng, loading: bool) -> Point {
            let mut c = |lo: i32, hi: i32| f64::from(rng.random_range(lo..hi)) / 8.0;
            match self {
                Spread::Lattice => Point::new(c(0, 9), c(0, 9)),
                Spread::Beyond if loading => Point::new(c(0, 9), c(0, 9)),
                Spread::Beyond => Point::new(c(-8, 17), c(-8, 17)),
                Spread::Clustered => {
                    let at =
                        [(0.125, 0.25), (0.75, 0.5), (0.5, 0.875)][rng.random_range(0..3usize)];
                    let mut off = || f64::from(rng.random_range(-2..3i32)) / 64.0;
                    Point::new(at.0 + off(), at.1 + off())
                }
                Spread::OnePoint => Point::new(0.375, 0.625),
                Spread::NonFinite => {
                    let mut p = Point::new(c(0, 9), c(0, 9));
                    if rng.random_range(0..4u32) == 0 {
                        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                        let v = odd[rng.random_range(0..3usize)];
                        if rng.random_range(0..2u32) == 0 {
                            p.x = v;
                        } else {
                            p.y = v;
                        }
                    }
                    p
                }
            }
        }
    }

    /// Edits that shift slots (an id below the others, a removal) and
    /// edits that do not (a replace, a move), each followed by every
    /// query processor and `k_nearest` against a scan of a plain map.
    /// Each spread runs 16 seeds from a store of 20 objects, of one and
    /// of none.
    /// Objects are compared bit for bit, so a NaN position equals itself.
    #[test]
    fn public_store_edits_match_a_brute_force_scan() {
        use crate::{private_knn_candidates, private_nn_candidates, private_range_candidates};
        use lbsp_geom::{max_dist_point_rect, min_dist_point_rect};
        let key = |o: &PublicObject| (o.id, o.pos.x.to_bits(), o.pos.y.to_bits(), o.tag);
        let keys = |v: &[PublicObject]| v.iter().map(key).collect::<Vec<_>>();
        let ids = |v: &[PublicObject]| v.iter().map(|o| o.id).collect::<Vec<_>>();
        let spreads = [
            Spread::Lattice,
            Spread::Clustered,
            Spread::Beyond,
            Spread::OnePoint,
            Spread::NonFinite,
        ];
        let cases = spreads
            .into_iter()
            .flat_map(|s| [(s, 20), (s, 1), (s, 0)])
            .flat_map(|(s, n)| (0..16u64).map(move |seed| (s, n, seed)));
        for (spread, loaded, seed) in cases {
            let case = format!("{spread:?} {loaded} seed {seed}");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model: BTreeMap<ObjectId, PublicObject> = BTreeMap::new();
            for id in (60..120).step_by(3).take(loaded) {
                let o = PublicObject::new(id, spread.place(&mut rng, true), id as u32);
                model.insert(id, o);
            }
            let mut s = PublicStore::bulk_load(model.values().rev().copied().collect());
            for step in 0..60u32 {
                let id = rng.random_range(0..130u64);
                match step % 4 {
                    // Below every id at first; later anywhere, or a replace.
                    0 => {
                        let o = PublicObject::new(id / 2, spread.place(&mut rng, false), step);
                        s.insert(o);
                        model.insert(o.id, o);
                    }
                    1 => assert_eq!(
                        s.remove(id).map(|o| key(&o)),
                        model.remove(&id).map(|o| key(&o))
                    ),
                    2 => {
                        let pos = spread.place(&mut rng, false);
                        let known = model.get_mut(&id).map(|o| o.pos = pos).is_some();
                        assert_eq!(s.update_position(id, pos), known);
                    }
                    _ => {
                        // Replace an existing id with a new object.
                        if let Some(&id) = model.keys().nth(id as usize % model.len().max(1)) {
                            let o =
                                PublicObject::new(id, spread.place(&mut rng, false), step + 1000);
                            s.insert(o);
                            model.insert(id, o);
                        }
                    }
                }
                let all: Vec<PublicObject> = model.values().copied().collect();
                assert_eq!(s.len(), all.len());
                assert_eq!(keys(&s.iter().copied().collect::<Vec<_>>()), keys(&all));
                assert_eq!(s.get(id).map(key), model.get(&id).map(key));
                let q = match spread {
                    Spread::Beyond => spread.place(&mut rng, false),
                    _ => Spread::Lattice.place(&mut rng, false),
                };
                let cloak = Rect::new_unchecked(q.x, q.y, q.x + 0.125, q.y + 0.25);
                let on = |r: &Rect, o: &PublicObject| min_dist_point_rect(o.pos, r);
                // Range: the rounded rectangle, in id order. A NaN
                // coordinate is at no distance, so in no answer.
                for radius in [0.0, 0.125, 0.3] {
                    let want: Vec<_> = all
                        .iter()
                        .filter(|o| !(o.pos.x.is_nan() || o.pos.y.is_nan()))
                        .filter(|o| on(&cloak, o) <= radius)
                        .copied()
                        .collect();
                    let got = private_range_candidates(&s, &cloak, radius);
                    assert_eq!(keys(&got), keys(&want), "case {case} step {step}");
                }
                assert_eq!(
                    ids(&s.in_rect(&cloak)),
                    ids(&all
                        .iter()
                        .filter(|o| cloak.contains_point(o.pos))
                        .copied()
                        .collect::<Vec<_>>())
                );
                // k nearest: by distance, ties by id.
                let mut by_dist = all.clone();
                by_dist.sort_by(|a, b| {
                    let d = |o: &PublicObject| min_dist_point_rect(q, &Rect::from_point(o.pos));
                    d(a).total_cmp(&d(b)).then(a.id.cmp(&b.id))
                });
                for k in [1, 3, 7] {
                    let want = &by_dist[..k.min(by_dist.len())];
                    assert_eq!(
                        ids(&s.k_nearest(q, k)),
                        ids(want),
                        "case {case} step {step} k {k}"
                    );
                }
                // The NN processors build a search rectangle from the
                // distances they find, and no rectangle has a non-finite
                // bound: they take finite positions only.
                if !all
                    .iter()
                    .all(|o| o.pos.x.is_finite() && o.pos.y.is_finite())
                {
                    continue;
                }
                // kNN: every object within the k-th smallest max-dist.
                for k in [1, 4] {
                    let mut maxds: Vec<f64> = all
                        .iter()
                        .map(|o| max_dist_point_rect(o.pos, &cloak))
                        .collect();
                    maxds.sort_by(f64::total_cmp);
                    let want: Vec<_> = match maxds.get(k - 1) {
                        Some(&t) if k < all.len() => all
                            .iter()
                            .filter(|o| on(&cloak, o) <= t + 1e-12)
                            .copied()
                            .collect(),
                        _ => all.clone(),
                    };
                    assert_eq!(private_knn_candidates(&s, &cloak, k), want);
                }
                // NN: in id order, the nearest object of every sampled
                // position among them, and what a fresh store answers.
                let nn = private_nn_candidates(&s, &cloak);
                let fresh = PublicStore::bulk_load(all.clone());
                assert_eq!(nn, private_nn_candidates(&fresh, &cloak));
                assert!(ids(&nn).windows(2).all(|w| w[0] < w[1]));
                for (fx, fy) in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.25), (0.3, 1.0)] {
                    let pos = Point::new(q.x + fx * 0.125, q.y + fy * 0.25);
                    if let Some(best) = all.iter().map(|o| pos.dist(o.pos)).min_by(f64::total_cmp) {
                        assert!(nn.iter().any(|o| pos.dist(o.pos) == best));
                    }
                }
            }
        }
    }

    #[test]
    fn private_store_upsert_replaces_region() {
        let mut s = PrivateStore::new();
        let r1 = Rect::new_unchecked(0.0, 0.0, 0.2, 0.2);
        let r2 = Rect::new_unchecked(0.5, 0.5, 0.7, 0.7);
        assert_eq!(s.upsert(PrivateRecord::new(1, r1)), None);
        assert_eq!(s.upsert(PrivateRecord::new(1, r2)), Some(r1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1), Some(r2));
        // Old region no longer matches spatially.
        assert!(s.intersecting(&r1).is_empty());
        assert_eq!(s.intersecting(&r2).len(), 1);
        assert_eq!(s.remove(1), Some(r2));
        assert!(s.is_empty());
        assert_eq!(s.remove(1), None);
    }

    #[test]
    fn private_store_intersection_query() {
        let mut s = PrivateStore::new();
        for i in 0..10u64 {
            let x = i as f64 / 10.0;
            s.upsert(PrivateRecord::new(
                i,
                Rect::new_unchecked(x, 0.0, x + 0.05, 0.05),
            ));
        }
        let hits = s.intersecting(&Rect::new_unchecked(0.0, 0.0, 0.32, 1.0));
        // Regions starting at 0.0, 0.1, 0.2, 0.3 intersect.
        assert_eq!(hits.len(), 4);
        assert_eq!(s.iter().count(), 10);
    }

    /// Every rectangle family the server can be handed: points, grid
    /// cells and their quadrants, cell blocks, the world, sides at and
    /// one ulp either side of a power of two, all of them also away from
    /// the unit square (negative and large coordinates).
    fn any_region(rng: &mut StdRng) -> Rect {
        let shift = [0.0, 0.0, -3.0, 5.0, 1e6][rng.random_range(0..5usize)];
        let at = |x: f64, y: f64, w: f64, h: f64| {
            Rect::new_unchecked(x + shift, y + shift, x + shift + w, y + shift + h)
        };
        let cells = |rng: &mut StdRng, n: u32| f64::from(rng.random_range(0..n)) / f64::from(n);
        match rng.random_range(0..6u32) {
            0 => at(
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                0.0,
                0.0,
            ),
            1 => {
                // A 16x16 cell quartered 0 to 4 times.
                let n = 16 << rng.random_range(0..5u32);
                let side = 1.0 / f64::from(n);
                at(cells(rng, n), cells(rng, n), side, side)
            }
            2 => {
                let (w, h) = (rng.random_range(1..5u32), rng.random_range(1..5u32));
                at(
                    cells(rng, 12),
                    cells(rng, 12),
                    f64::from(w) / 16.0,
                    f64::from(h) / 16.0,
                )
            }
            3 => at(0.0, 0.0, 1.0, 1.0),
            4 => {
                // A side at, or one ulp either side of, a power of two,
                // from a low corner on, or one ulp below, a cell edge:
                // the width can round to the class below the reach.
                let side = 2f64.powi(rng.random_range(-14..3));
                let edge = side * f64::from(rng.random_range(0..4u32)) + shift;
                let lo = [edge.next_down(), edge, rng.random_range(0.0..1.0) + shift];
                let lo = lo[rng.random_range(0..3usize)];
                let hi = [side.next_down(), side, side.next_up()][rng.random_range(0..3usize)];
                let y = rng.random_range(0.0..1.0) + shift;
                Rect::new_unchecked(lo, y, edge.max(lo) + hi, y + side * 0.5)
            }
            _ => at(
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..0.4),
                rng.random_range(0.0..0.4),
            ),
        }
    }

    /// The grid's own bookkeeping: every record is in the bucket and
    /// slot the id map says, and nothing empty is kept.
    fn check_structure(s: &PrivateStore) {
        let mut bucketed = 0;
        for (&exp, cells) in &s.levels {
            assert!(!cells.is_empty(), "no empty level");
            for (at, bucket) in cells {
                assert!(!bucket.is_empty(), "no empty bucket");
                for (slot, rec) in bucket.iter().enumerate() {
                    assert_eq!(s.records[&rec.pseudonym], (rec.region, slot));
                    assert_eq!(place(&rec.region), (exp, *at));
                    bucketed += 1;
                }
            }
        }
        assert_eq!(bucketed, s.records.len());
    }

    fn sorted(mut v: Vec<PrivateRecord>) -> Vec<(PseudonymId, [u64; 4])> {
        v.sort_by_key(|r| r.pseudonym);
        v.iter()
            .map(|r| {
                let g = r.region;
                let bits = [g.min_x(), g.min_y(), g.max_x(), g.max_y()].map(f64::to_bits);
                (r.pseudonym, bits)
            })
            .collect()
    }

    #[test]
    fn private_store_matches_a_brute_force_scan() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = PrivateStore::new();
            let mut model: HashMap<PseudonymId, Rect> = HashMap::new();
            for step in 0..600u32 {
                let id = rng.random_range(0..80u64);
                match rng.random_range(0..10u32) {
                    0 | 1 => assert_eq!(s.remove(id), model.remove(&id)),
                    2 => {
                        // Re-upsert of the region already stored.
                        if let Some(&same) = model.get(&id) {
                            assert_eq!(s.upsert(PrivateRecord::new(id, same)), Some(same));
                        }
                    }
                    _ => {
                        let region = any_region(&mut rng);
                        let prev = s.upsert(PrivateRecord::new(id, region));
                        assert_eq!(prev, model.insert(id, region));
                    }
                }
                assert_eq!(s.len(), model.len());
                if !step.is_multiple_of(20) {
                    continue;
                }
                check_structure(&s);
                assert_eq!(s.get(id), model.get(&id).copied());
                let all: Vec<PrivateRecord> = model
                    .iter()
                    .map(|(&p, &r)| PrivateRecord::new(p, r))
                    .collect();
                assert_eq!(sorted(s.iter().collect()), sorted(all.clone()));
                // Queries: a stored region (edge- and corner-touching
                // its neighbours), a point, a sliver, the world and
                // everything.
                let stored = all
                    .first()
                    .map_or(Rect::from_point(Point::ORIGIN), |r| r.region);
                let queries = [
                    stored,
                    Rect::from_point(Point::new(stored.max_x(), stored.max_y())),
                    Rect::new_unchecked(
                        stored.max_x(),
                        stored.min_y(),
                        stored.max_x() + 1e-9,
                        stored.max_y(),
                    ),
                    any_region(&mut rng),
                    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0),
                    Rect::new_unchecked(-1e9, -1e9, 1e9, 1e9),
                ];
                for q in &queries {
                    let brute = all.iter().filter(|r| r.region.intersects(q)).copied();
                    assert_eq!(
                        sorted(s.intersecting(q)),
                        sorted(brute.collect()),
                        "seed {seed} step {step} query {q:?}"
                    );
                }
            }
            for id in 0..80 {
                assert_eq!(s.remove(id), model.remove(&id));
            }
            assert!(
                s.is_empty() && s.levels.is_empty(),
                "emptied: no level left"
            );
        }
    }

    #[test]
    fn a_side_of_exactly_a_power_of_two_stays_in_its_own_class() {
        for e in [-14, -8, -4, 0, 3] {
            let side = 2f64.powi(e);
            assert_eq!(size_class(side), e);
            assert_eq!(size_class(side.next_down()), e);
            assert_eq!(size_class(side.next_up()), e + 1);
            // Aligned, it fills one cell and touches the next.
            let aligned = Rect::new_unchecked(side, side, 2.0 * side, 2.0 * side);
            assert_eq!(
                place(&aligned),
                (
                    e.max(FLOOR_EXP),
                    if e < FLOOR_EXP { (0, 0) } else { (1, 1) }
                )
            );
        }
        assert_eq!(place(&Rect::from_point(Point::new(0.5, 0.5))).0, FLOOR_EXP);
        // Width 1 + 2^-53 rounds to 1, class 0, yet the corners sit in
        // cells 0 and 2: the region moves up a level, not out of reach.
        let straddling = Rect::new_unchecked(1f64.next_down(), 0.0, 2.0, 0.5);
        assert_eq!(size_class(straddling.width()), 0);
        let (exp, at) = place(&straddling);
        assert_eq!(exp, 1);
        let inv = inv_side(exp);
        assert!(cell(straddling.max_x(), inv) - at.0 <= 1);
    }
}
