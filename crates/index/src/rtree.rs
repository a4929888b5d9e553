//! R-tree: the data-partitioning index for the server's public data.
//!
//! Public objects (gas stations, restaurants, police cars) are stored
//! here. The tree supports STR bulk loading for static POI datasets,
//! dynamic insert/remove for moving public objects, rectangle range
//! search, and best-first (incremental) nearest-neighbor search — the
//! primitive behind both private NN queries (Fig. 5b) and classic public
//! queries over public data.

use crate::ObjectId;
use lbsp_geom::{min_dist_point_rect, Point, Rect};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum entries per node before splitting.
const MAX_ENTRIES: usize = 16;
/// Minimum entries per node (MAX/4, the classic Guttman recommendation).
const MIN_ENTRIES: usize = 4;

/// A `(distance, id, rect)` result from a nearest-neighbor search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Distance from the query point to the object's rectangle.
    pub dist: f64,
    /// The object's identifier.
    pub id: ObjectId,
    /// The object's bounding rectangle (a degenerate rect for points).
    pub rect: Rect,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<(Rect, ObjectId)>),
    Internal(Vec<(Rect, Node)>),
}

impl Node {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(e) => e.len(),
            Node::Internal(e) => e.len(),
        }
    }

    fn mbr(&self) -> Option<Rect> {
        match self {
            Node::Leaf(e) => {
                let mut it = e.iter();
                let first = it.next()?.0;
                Some(it.fold(first, |acc, (r, _)| acc.union(r)))
            }
            Node::Internal(e) => {
                let mut it = e.iter();
                let first = it.next()?.0;
                Some(it.fold(first, |acc, (r, _)| acc.union(r)))
            }
        }
    }
}

/// An R-tree over `(Rect, ObjectId)` entries.
///
/// Point objects are stored as degenerate rectangles via
/// [`RTree::insert_point`]. Duplicate ids are allowed by the structure
/// but the higher layers never insert them; removal takes the id and the
/// rectangle it was inserted with.
#[derive(Debug, Clone, Default)]
pub struct RTree {
    root: Option<Node>,
    len: usize,
}

impl RTree {
    /// Creates an empty tree.
    pub fn new() -> RTree {
        RTree::default()
    }

    /// Bulk loads a tree from entries using Sort-Tile-Recursive packing —
    /// the standard way to build a near-optimal static tree in O(n log n).
    pub fn bulk_load(mut entries: Vec<(Rect, ObjectId)>) -> RTree {
        let len = entries.len();
        if entries.is_empty() {
            return RTree::new();
        }
        let root = str_pack_leaves(&mut entries);
        RTree {
            root: Some(root),
            len,
        }
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounding rectangle of all entries (`None` when empty).
    pub fn bounds(&self) -> Option<Rect> {
        self.root.as_ref().and_then(|r| r.mbr())
    }

    /// Inserts an entry.
    pub fn insert(&mut self, rect: Rect, id: ObjectId) {
        self.len += 1;
        match self.root.take() {
            None => {
                self.root = Some(Node::Leaf(vec![(rect, id)]));
            }
            Some(mut root) => {
                if let Some((r1, n1, r2, n2)) = insert_rec(&mut root, rect, id) {
                    // Root split: grow the tree by one level.
                    self.root = Some(Node::Internal(vec![(r1, n1), (r2, n2)]));
                } else {
                    self.root = Some(root);
                }
            }
        }
    }

    /// Inserts a point object (degenerate rectangle).
    pub fn insert_point(&mut self, p: Point, id: ObjectId) {
        self.insert(Rect::from_point(p), id);
    }

    /// Removes the entry with this id whose rectangle equals `rect`
    /// (bitwise on bounds). Returns `true` when an entry was removed.
    ///
    /// Underflowing nodes are dissolved and their remaining entries
    /// reinserted (Guttman's condense-tree).
    pub fn remove(&mut self, rect: &Rect, id: ObjectId) -> bool {
        let Some(mut root) = self.root.take() else {
            return false;
        };
        let mut orphans: Vec<(Rect, ObjectId)> = Vec::new();
        let mut orphan_nodes: Vec<Node> = Vec::new();
        let removed = remove_rec(&mut root, rect, id, &mut orphans, &mut orphan_nodes);
        if !removed {
            self.root = Some(root);
            return false;
        }
        self.len -= 1;
        // Collapse a root that lost its fanout.
        loop {
            match root {
                Node::Internal(ref mut children) if children.len() == 1 => {
                    root = children.pop().expect("len checked").1;
                }
                Node::Internal(ref children) if children.is_empty() => {
                    root = Node::Leaf(Vec::new());
                    break;
                }
                _ => break,
            }
        }
        let has_entries = root.len() > 0 || !orphans.is_empty() || !orphan_nodes.is_empty();
        self.root = if has_entries { Some(root) } else { None };
        if self.root.is_none() {
            return true;
        }
        // Reinsert orphaned entries and subtrees' entries.
        for node in orphan_nodes {
            collect_entries(node, &mut orphans);
        }
        for (r, oid) in orphans {
            self.len -= 1; // insert() will re-add
            self.insert(r, oid);
        }
        // An empty leaf root after reinsertion means the tree is empty.
        if self.root.as_ref().is_some_and(|r| r.len() == 0) && self.len == 0 {
            self.root = None;
        }
        true
    }

    /// Removes a point object inserted with [`RTree::insert_point`].
    pub fn remove_point(&mut self, p: Point, id: ObjectId) -> bool {
        self.remove(&Rect::from_point(p), id)
    }

    /// Collects ids of all entries whose rectangle intersects `query`.
    pub fn search_rect(&self, query: &Rect) -> Vec<(Rect, ObjectId)> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            search_rec(root, query, &mut out);
        }
        out
    }

    /// Visits every entry intersecting `query`.
    pub fn for_each_in_rect<F: FnMut(&Rect, ObjectId)>(&self, query: &Rect, mut f: F) {
        fn rec<F: FnMut(&Rect, ObjectId)>(node: &Node, q: &Rect, f: &mut F) {
            match node {
                Node::Leaf(entries) => {
                    for (r, id) in entries {
                        if r.intersects(q) {
                            f(r, *id);
                        }
                    }
                }
                Node::Internal(children) => {
                    for (r, child) in children {
                        if r.intersects(q) {
                            rec(child, q, f);
                        }
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            rec(root, query, &mut f);
        }
    }

    /// The `k` nearest entries to point `q`, by best-first search over
    /// node MBRs. Results sorted by ascending distance, equal distances
    /// by ascending id.
    pub fn k_nearest(&self, q: Point, k: usize) -> Vec<Neighbor> {
        self.k_nearest_filtered(q, k, |_| true)
    }

    /// Like [`RTree::k_nearest`] but only counting entries accepted by
    /// `keep`.
    pub fn k_nearest_filtered<F: Fn(ObjectId) -> bool>(
        &self,
        q: Point,
        k: usize,
        keep: F,
    ) -> Vec<Neighbor> {
        let mut out = Vec::with_capacity(k);
        if k == 0 {
            return out;
        }
        let Some(root) = &self.root else {
            return out;
        };
        // Min-heap ordered by distance; entries are either nodes or leaves.
        // At equal distance a node pops before an entry (it may hold an
        // entry at that distance with a smaller id) and entries pop by
        // id, so ties leave in id order; `tie` is `(0, seq)` for a node
        // and `(1, id)` for an entry.
        struct HeapItem<'a> {
            dist: f64,
            tie: (u8, u64),
            payload: Payload<'a>,
        }
        enum Payload<'a> {
            Node(&'a Node),
            Entry(Rect, ObjectId),
        }
        impl PartialEq for HeapItem<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other).is_eq()
            }
        }
        impl Eq for HeapItem<'_> {}
        impl PartialOrd for HeapItem<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for HeapItem<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.dist
                    .total_cmp(&other.dist)
                    .then(self.tie.cmp(&other.tie))
            }
        }
        let mut seq = 0u64;
        let mut heap: BinaryHeap<Reverse<HeapItem>> = BinaryHeap::new();
        heap.push(Reverse(HeapItem {
            dist: 0.0,
            tie: (0, seq),
            payload: Payload::Node(root),
        }));
        while let Some(Reverse(item)) = heap.pop() {
            match item.payload {
                Payload::Entry(rect, id) => {
                    out.push(Neighbor {
                        dist: item.dist,
                        id,
                        rect,
                    });
                    if out.len() == k {
                        break;
                    }
                }
                Payload::Node(node) => match node {
                    Node::Leaf(entries) => {
                        for (r, id) in entries {
                            if !keep(*id) {
                                continue;
                            }
                            heap.push(Reverse(HeapItem {
                                dist: min_dist_point_rect(q, r),
                                tie: (1, *id),
                                payload: Payload::Entry(*r, *id),
                            }));
                        }
                    }
                    Node::Internal(children) => {
                        for (r, child) in children {
                            seq += 1;
                            heap.push(Reverse(HeapItem {
                                dist: min_dist_point_rect(q, r),
                                tie: (0, seq),
                                payload: Payload::Node(child),
                            }));
                        }
                    }
                },
            }
        }
        out
    }

    /// Nearest single entry to `q`.
    pub fn nearest(&self, q: Point) -> Option<Neighbor> {
        self.k_nearest(q, 1).into_iter().next()
    }

    /// Iterates over every `(rect, id)` entry (unspecified order).
    pub fn iter(&self) -> Vec<(Rect, ObjectId)> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            collect_entries_ref(root, &mut out);
        }
        out
    }

    /// Height of the tree (0 when empty, 1 for a single leaf root).
    pub fn height(&self) -> usize {
        fn rec(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Internal(children) => 1 + children.first().map_or(0, |(_, c)| rec(c)),
            }
        }
        self.root.as_ref().map_or(0, rec)
    }
}

fn collect_entries(node: Node, out: &mut Vec<(Rect, ObjectId)>) {
    match node {
        Node::Leaf(entries) => out.extend(entries),
        Node::Internal(children) => {
            for (_, c) in children {
                collect_entries(c, out);
            }
        }
    }
}

fn collect_entries_ref(node: &Node, out: &mut Vec<(Rect, ObjectId)>) {
    match node {
        Node::Leaf(entries) => out.extend_from_slice(entries),
        Node::Internal(children) => {
            for (_, c) in children {
                collect_entries_ref(c, out);
            }
        }
    }
}

fn search_rec(node: &Node, q: &Rect, out: &mut Vec<(Rect, ObjectId)>) {
    match node {
        Node::Leaf(entries) => {
            out.extend(entries.iter().filter(|(r, _)| r.intersects(q)));
        }
        Node::Internal(children) => {
            for (r, c) in children {
                if r.intersects(q) {
                    search_rec(c, q, out);
                }
            }
        }
    }
}

/// Recursive insert; returns `Some((mbr1, node1, mbr2, node2))` when the
/// child split and the caller must replace it with two nodes.
fn insert_rec(node: &mut Node, rect: Rect, id: ObjectId) -> Option<(Rect, Node, Rect, Node)> {
    match node {
        Node::Leaf(entries) => {
            entries.push((rect, id));
            if entries.len() > MAX_ENTRIES {
                let (a, b) = quadratic_split_leaf(std::mem::take(entries));
                let ra = mbr_of(&a);
                let rb = mbr_of(&b);
                return Some((ra, Node::Leaf(a), rb, Node::Leaf(b)));
            }
            None
        }
        Node::Internal(children) => {
            let idx = choose_subtree(children, &rect);
            children[idx].0 = children[idx].0.union(&rect);
            let split = insert_rec(&mut children[idx].1, rect, id);
            if let Some((r1, n1, r2, n2)) = split {
                children[idx] = (r1, n1);
                children.push((r2, n2));
                if children.len() > MAX_ENTRIES {
                    let (a, b) = quadratic_split_nodes(std::mem::take(children));
                    let ra = mbr_of_nodes(&a);
                    let rb = mbr_of_nodes(&b);
                    return Some((ra, Node::Internal(a), rb, Node::Internal(b)));
                }
            }
            None
        }
    }
}

/// Guttman's least-enlargement subtree choice with ties broken by area.
fn choose_subtree(children: &[(Rect, Node)], rect: &Rect) -> usize {
    let mut best = 0usize;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, (r, _)) in children.iter().enumerate() {
        let area = r.area();
        let enlargement = r.union(rect).area() - area;
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

fn mbr_of(entries: &[(Rect, ObjectId)]) -> Rect {
    entries
        .iter()
        .map(|(r, _)| *r)
        .reduce(|a, b| a.union(&b))
        .expect("non-empty entries")
}

fn mbr_of_nodes(entries: &[(Rect, Node)]) -> Rect {
    entries
        .iter()
        .map(|(r, _)| *r)
        .reduce(|a, b| a.union(&b))
        .expect("non-empty entries")
}

/// Guttman's quadratic split over rectangles, generic in the payload.
type SplitPair<T> = (Vec<(Rect, T)>, Vec<(Rect, T)>);

fn quadratic_split<T>(mut entries: Vec<(Rect, T)>) -> SplitPair<T> {
    debug_assert!(entries.len() >= 2);
    // Pick the pair of seeds wasting the most area if grouped together.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let waste = entries[i].0.union(&entries[j].0).area()
                - entries[i].0.area()
                - entries[j].0.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove higher index first so the lower stays valid.
    let seed2 = entries.swap_remove(s2.max(s1));
    let seed1 = entries.swap_remove(s2.min(s1));
    let mut ga = vec![seed1];
    let mut gb = vec![seed2];
    let mut ra = ga[0].0;
    let mut rb = gb[0].0;
    while let Some((rect, t)) = entries.pop() {
        let remaining = entries.len();
        // Force assignment when one group must absorb the rest to reach
        // the minimum fill.
        if ga.len() + remaining < MIN_ENTRIES {
            ra = ra.union(&rect);
            ga.push((rect, t));
            continue;
        }
        if gb.len() + remaining < MIN_ENTRIES {
            rb = rb.union(&rect);
            gb.push((rect, t));
            continue;
        }
        let da = ra.union(&rect).area() - ra.area();
        let db = rb.union(&rect).area() - rb.area();
        if da < db || (da == db && ga.len() <= gb.len()) {
            ra = ra.union(&rect);
            ga.push((rect, t));
        } else {
            rb = rb.union(&rect);
            gb.push((rect, t));
        }
    }
    (ga, gb)
}

fn quadratic_split_leaf(entries: Vec<(Rect, ObjectId)>) -> SplitPair<ObjectId> {
    quadratic_split(entries)
}

fn quadratic_split_nodes(entries: Vec<(Rect, Node)>) -> SplitPair<Node> {
    quadratic_split(entries)
}

/// Recursive removal; dissolved (underflowing) non-root nodes push their
/// content into the orphan lists for reinsertion.
fn remove_rec(
    node: &mut Node,
    rect: &Rect,
    id: ObjectId,
    orphans: &mut Vec<(Rect, ObjectId)>,
    orphan_nodes: &mut Vec<Node>,
) -> bool {
    match node {
        Node::Leaf(entries) => {
            if let Some(pos) = entries.iter().position(|(r, oid)| *oid == id && r == rect) {
                entries.swap_remove(pos);
                true
            } else {
                false
            }
        }
        Node::Internal(children) => {
            for i in 0..children.len() {
                // An entry sits only under MBRs that contain it: insert
                // unions, removal recomputes, bulk load packs exact unions.
                if !children[i].0.contains_rect(rect) {
                    continue;
                }
                if remove_rec(&mut children[i].1, rect, id, orphans, orphan_nodes) {
                    // Recompute the child's MBR; dissolve on underflow.
                    if children[i].1.len() < MIN_ENTRIES {
                        let (_, removed_child) = children.swap_remove(i);
                        match removed_child {
                            Node::Leaf(entries) => orphans.extend(entries),
                            n @ Node::Internal(_) => orphan_nodes.push(n),
                        }
                    } else if let Some(mbr) = children[i].1.mbr() {
                        children[i].0 = mbr;
                    }
                    return true;
                }
            }
            false
        }
    }
}

/// Sort-Tile-Recursive packing: sort by x, slice into vertical strips of
/// ~sqrt(n/M) tiles, sort each strip by y, emit runs of M entries as
/// leaves, then recursively pack the parent level.
fn str_pack_leaves(entries: &mut Vec<(Rect, ObjectId)>) -> Node {
    if entries.len() <= MAX_ENTRIES {
        return Node::Leaf(std::mem::take(entries));
    }
    entries.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
    let n = entries.len();
    let leaf_count = n.div_ceil(MAX_ENTRIES);
    let strips = (leaf_count as f64).sqrt().ceil() as usize;
    let per_strip = n.div_ceil(strips);
    let mut leaves: Vec<(Rect, Node)> = Vec::with_capacity(leaf_count);
    for strip in entries.chunks_mut(per_strip) {
        strip.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
        for run in strip.chunks(MAX_ENTRIES) {
            let v: Vec<(Rect, ObjectId)> = run.to_vec();
            let mbr = mbr_of(&v);
            leaves.push((mbr, Node::Leaf(v)));
        }
    }
    str_pack_internal(leaves)
}

fn str_pack_internal(mut nodes: Vec<(Rect, Node)>) -> Node {
    while nodes.len() > MAX_ENTRIES {
        nodes.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        let n = nodes.len();
        let parent_count = n.div_ceil(MAX_ENTRIES);
        let strips = (parent_count as f64).sqrt().ceil() as usize;
        let per_strip = n.div_ceil(strips);
        let mut parents: Vec<(Rect, Node)> = Vec::with_capacity(parent_count);
        let mut rest = nodes;
        let mut strip_bufs: Vec<Vec<(Rect, Node)>> = Vec::new();
        while !rest.is_empty() {
            let take = per_strip.min(rest.len());
            let tail = rest.split_off(take);
            strip_bufs.push(rest);
            rest = tail;
        }
        for mut strip in strip_bufs {
            strip.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
            let mut strip_iter = strip.into_iter().peekable();
            while strip_iter.peek().is_some() {
                let group: Vec<(Rect, Node)> = strip_iter.by_ref().take(MAX_ENTRIES).collect();
                let mbr = mbr_of_nodes(&group);
                parents.push((mbr, Node::Internal(group)));
            }
        }
        nodes = parents;
    }
    Node::Internal(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_geom::approx_eq;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<(Point, ObjectId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                    i as ObjectId,
                )
            })
            .collect()
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert!(t.bounds().is_none());
        assert!(t.nearest(Point::ORIGIN).is_none());
        assert!(t
            .search_rect(&Rect::new_unchecked(0.0, 0.0, 1.0, 1.0))
            .is_empty());
    }

    #[test]
    fn insert_and_search() {
        let mut t = RTree::new();
        for (p, id) in random_points(100, 1) {
            t.insert_point(p, id);
        }
        assert_eq!(t.len(), 100);
        assert!(t.height() >= 2);
        let q = Rect::new_unchecked(0.25, 0.25, 0.75, 0.75);
        let found = t.search_rect(&q);
        for (r, _) in &found {
            assert!(r.intersects(&q));
        }
        // Compare against brute force.
        let brute = random_points(100, 1)
            .into_iter()
            .filter(|(p, _)| q.contains_point(*p))
            .count();
        assert_eq!(found.len(), brute);
    }

    #[test]
    fn bulk_load_matches_dynamic_inserts() {
        let pts = random_points(500, 2);
        let entries: Vec<(Rect, ObjectId)> = pts
            .iter()
            .map(|(p, id)| (Rect::from_point(*p), *id))
            .collect();
        let bulk = RTree::bulk_load(entries);
        let mut dyn_tree = RTree::new();
        for (p, id) in &pts {
            dyn_tree.insert_point(*p, *id);
        }
        assert_eq!(bulk.len(), 500);
        for _ in 0..10 {
            let q = Rect::new_unchecked(0.1, 0.2, 0.4, 0.9);
            let mut a: Vec<_> = bulk.search_rect(&q).iter().map(|(_, id)| *id).collect();
            let mut b: Vec<_> = dyn_tree.search_rect(&q).iter().map(|(_, id)| *id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = random_points(300, 3);
        let entries: Vec<(Rect, ObjectId)> = pts
            .iter()
            .map(|(p, id)| (Rect::from_point(*p), *id))
            .collect();
        let t = RTree::bulk_load(entries);
        let mut rng = StdRng::seed_from_u64(4);
        for k in [1usize, 5, 20] {
            let q = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            let got = t.k_nearest(q, k);
            assert_eq!(got.len(), k);
            let mut brute = pts.clone();
            brute.sort_by(|a, b| q.dist_sq(a.0).total_cmp(&q.dist_sq(b.0)));
            for (i, nb) in got.iter().enumerate() {
                assert!(approx_eq(nb.dist, q.dist(brute[i].0)), "k={k} rank {i}");
            }
            // Distances non-decreasing.
            for w in got.windows(2) {
                assert!(w[0].dist <= w[1].dist + 1e-12);
            }
        }
    }

    #[test]
    fn knn_with_filter() {
        let mut t = RTree::new();
        t.insert_point(Point::new(0.1, 0.1), 1);
        t.insert_point(Point::new(0.2, 0.2), 2);
        t.insert_point(Point::new(0.9, 0.9), 3);
        let got = t.k_nearest_filtered(Point::new(0.0, 0.0), 2, |id| id != 1);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].id, 2);
        assert_eq!(got[1].id, 3);
    }

    #[test]
    fn knn_k_larger_than_population() {
        let mut t = RTree::new();
        t.insert_point(Point::new(0.5, 0.5), 1);
        let got = t.k_nearest(Point::ORIGIN, 10);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn remove_entries_and_keep_consistency() {
        let pts = random_points(200, 5);
        let mut t = RTree::new();
        for (p, id) in &pts {
            t.insert_point(*p, *id);
        }
        // Remove every even id.
        for (p, id) in &pts {
            if id % 2 == 0 {
                assert!(t.remove_point(*p, *id), "id {id} should be removed");
            }
        }
        assert_eq!(t.len(), 100);
        // Removed ids are gone; surviving ids are findable.
        let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
        let ids: Vec<_> = t.search_rect(&world).iter().map(|(_, id)| *id).collect();
        assert_eq!(ids.len(), 100);
        assert!(ids.iter().all(|id| id % 2 == 1));
        // Removing something absent returns false.
        assert!(!t.remove_point(pts[0].0, pts[0].1));
        // kNN still correct after heavy deletion.
        let q = Point::new(0.5, 0.5);
        let got = t.k_nearest(q, 5);
        let mut brute: Vec<_> = pts.iter().filter(|(_, id)| id % 2 == 1).collect();
        brute.sort_by(|a, b| q.dist_sq(a.0).total_cmp(&q.dist_sq(b.0)));
        for (i, nb) in got.iter().enumerate() {
            assert!(approx_eq(nb.dist, q.dist(brute[i].0)));
        }
    }

    #[test]
    fn remove_finds_entries_among_overlapping_equal_edge_rects() {
        // Grid cloaks: cells, their quadrants and cell blocks, shared by
        // many entries each, so sibling MBRs overlap and share edges.
        let mut rng = StdRng::seed_from_u64(8);
        let mut live: Vec<(Rect, ObjectId)> = (0..600u64)
            .map(|id| {
                let n = [4u32, 8, 16][rng.random_range(0..3usize)];
                let span = rng.random_range(1..3u32);
                let (ix, iy) = (rng.random_range(0..n - 1), rng.random_range(0..n - 1));
                let at = |i: u32| f64::from(i) / f64::from(n);
                (
                    Rect::new_unchecked(at(ix), at(iy), at(ix + span), at(iy + span)),
                    id,
                )
            })
            .collect();
        let mut t = RTree::new();
        for (r, id) in &live {
            t.insert(*r, *id);
        }
        let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
        let probe = Rect::new_unchecked(0.25, 0.25, 0.5, 0.5);
        let ids = |mut v: Vec<(Rect, ObjectId)>| {
            v.sort_by_key(|e| e.1);
            v
        };
        while !live.is_empty() {
            let (r, id) = live.swap_remove(rng.random_range(0..live.len()));
            assert!(t.remove(&r, id), "entry {id} is found");
            assert!(!t.remove(&r, id), "and only once");
            if live.len().is_multiple_of(50) {
                assert_eq!(ids(t.search_rect(&world)), ids(live.clone()));
                let brute = live.iter().filter(|e| e.0.intersects(&probe)).copied();
                assert_eq!(ids(t.search_rect(&probe)), ids(brute.collect()));
            }
        }
        assert!(t.is_empty());
    }

    #[test]
    fn remove_to_empty() {
        let mut t = RTree::new();
        t.insert_point(Point::new(0.5, 0.5), 7);
        assert!(t.remove_point(Point::new(0.5, 0.5), 7));
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        t.insert_point(Point::new(0.1, 0.1), 8);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rect_entries_supported() {
        let mut t = RTree::new();
        t.insert(Rect::new_unchecked(0.0, 0.0, 0.5, 0.5), 1);
        t.insert(Rect::new_unchecked(0.4, 0.4, 1.0, 1.0), 2);
        let hits = t.search_rect(&Rect::new_unchecked(0.45, 0.45, 0.46, 0.46));
        assert_eq!(hits.len(), 2);
        let nb = t.nearest(Point::new(2.0, 2.0)).unwrap();
        assert_eq!(nb.id, 2);
        assert!(approx_eq(
            nb.dist,
            Point::new(2.0, 2.0).dist(Point::new(1.0, 1.0))
        ));
    }

    #[test]
    fn bulk_load_large_has_reasonable_height() {
        let pts = random_points(10_000, 6);
        let entries: Vec<(Rect, ObjectId)> = pts
            .iter()
            .map(|(p, id)| (Rect::from_point(*p), *id))
            .collect();
        let t = RTree::bulk_load(entries);
        assert_eq!(t.len(), 10_000);
        // ceil(log_16(10000/16)) + 1 = 4-ish; quadratic growth would blow this.
        assert!(t.height() <= 5, "height {}", t.height());
        let b = t.bounds().unwrap();
        assert!(b.area() <= 1.0 + 1e-9);
    }

    #[test]
    fn iter_returns_all_entries() {
        let mut t = RTree::new();
        for (p, id) in random_points(50, 7) {
            t.insert_point(p, id);
        }
        let mut ids: Vec<_> = t.iter().into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50u64).collect::<Vec<_>>());
    }
}
