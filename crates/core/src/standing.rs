//! Standing (continuous) private queries.
//!
//! The paper's motivation leans on *continuous* location-based services
//! ("live traffic reports", "sending coupons to nearest customers"), and
//! Sec. 5.3 asks for incremental evaluation of continuous queries. The
//! server-side piece for public counts lives in
//! `lbsp_server::ContinuousRangeCount`; this module adds the
//! *user-side* standing query: a mobile user registers "keep me updated
//! on gas stations within r of me", and the system refreshes the answer
//! only when the user's cloaked region actually changes — re-using the
//! previous candidate set otherwise, since the candidate set is a
//! function of (cloak, radius) alone.
//!
//! Refresh cost is proportional to the *updating user's* queries, not
//! to every query registered: entries are indexed by [`UserId`], so a
//! cloak update for a user with no standing queries is O(1).
//! Candidate sets inherit the canonical id order of
//! [`private_range_candidates`], so the sharded engine reproduces the
//! sequential path byte-for-byte.

use crate::UserId;
use lbsp_geom::Rect;
use lbsp_server::{private_range_candidates, PublicObject, PublicStore};
use std::collections::{BTreeSet, HashMap};

/// Identifier of a standing private range query.
pub type StandingQueryId = u64;

#[derive(Debug, Clone)]
struct Entry {
    user: UserId,
    radius: f64,
    /// The cloak the cached candidates were computed for.
    cloak: Option<Rect>,
    /// Cached candidates, sorted by object id.
    candidates: Vec<PublicObject>,
    /// Bumped whenever the candidate set changes; drives
    /// standing-delta push over the wire.
    seq: u64,
}

/// Raw state of one standing private range query, as exported for
/// durability. The cached cloak/candidate set and the change sequence
/// number are restored verbatim so a recovered registry reuses and
/// signals exactly like one that never crashed.
#[derive(Debug, Clone, PartialEq)]
pub struct StandingRangeEntryState {
    /// Query id.
    pub id: StandingQueryId,
    /// Owning user.
    pub user: UserId,
    /// Query radius (already clamped non-negative).
    pub radius: f64,
    /// The cloak the cached candidates were computed for.
    pub cloak: Option<Rect>,
    /// Cached candidates, sorted by object id.
    pub candidates: Vec<PublicObject>,
    /// Change sequence number.
    pub seq: u64,
}

/// Raw state of a [`StandingPrivateRanges`] registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StandingRangesState {
    /// Entries in ascending id order.
    pub entries: Vec<StandingRangeEntryState>,
    /// Next id to assign.
    pub next_id: StandingQueryId,
    /// Ids with undelivered candidate-set changes, ascending.
    pub changed: Vec<StandingQueryId>,
    /// Refreshes that recomputed candidates.
    pub recomputes: u64,
    /// Refreshes served from the cached candidate set.
    pub reuses: u64,
}

/// Registry of standing private range queries with cloak-change-driven
/// refresh.
#[derive(Debug, Default)]
pub struct StandingPrivateRanges {
    entries: HashMap<StandingQueryId, Entry>,
    /// user -> that user's standing queries, in registration order.
    by_user: HashMap<UserId, Vec<StandingQueryId>>,
    next_id: StandingQueryId,
    /// Queries whose candidate set changed since the last
    /// [`StandingPrivateRanges::take_changed`].
    changed: BTreeSet<StandingQueryId>,
    /// Refreshes that recomputed candidates.
    pub recomputes: u64,
    /// Refreshes served from the cached candidate set.
    pub reuses: u64,
}

impl StandingPrivateRanges {
    /// Creates an empty registry.
    pub fn new() -> StandingPrivateRanges {
        StandingPrivateRanges::default()
    }

    /// Registers a standing query for `user` with the given radius.
    pub fn register(&mut self, user: UserId, radius: f64) -> StandingQueryId {
        let id = self.next_id;
        assert!(self.register_at(id, user, radius));
        id
    }

    /// Installs a standing query under a caller-chosen id (cluster
    /// mirrors install the id node 0 granted instead of allocating).
    /// Idempotent: returns `false` and leaves the registry untouched if
    /// `id` is already present. `next_id` advances past `id` so a later
    /// local allocation can never collide with an installed one.
    pub fn register_at(&mut self, id: StandingQueryId, user: UserId, radius: f64) -> bool {
        if self.entries.contains_key(&id) {
            return false;
        }
        self.next_id = self.next_id.max(id + 1);
        self.entries.insert(
            id,
            Entry {
                user,
                radius: radius.max(0.0),
                cloak: None,
                candidates: Vec::new(),
                seq: 0,
            },
        );
        // Sorted insert keeps the per-user list in ascending id order
        // even for out-of-order installs, matching how restore_state
        // re-derives the index.
        let ids = self.by_user.entry(user).or_default();
        let at = ids.partition_point(|&q| q < id);
        ids.insert(at, id);
        true
    }

    /// Deregisters a standing query.
    pub fn deregister(&mut self, id: StandingQueryId) -> bool {
        let Some(e) = self.entries.remove(&id) else {
            return false;
        };
        self.changed.remove(&id);
        if let Some(ids) = self.by_user.get_mut(&e.user) {
            ids.retain(|&q| q != id);
            if ids.is_empty() {
                self.by_user.remove(&e.user);
            }
        }
        true
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

    /// Called by the engine when `user`'s cloak changes to `new_cloak`:
    /// refreshes all of that user's standing queries (found through the
    /// per-user index — other users' queries are never visited).
    /// Queries whose cloak is unchanged keep their candidate set (the
    /// incremental win); changed cloaks trigger a recompute against
    /// `store`. Returns how many queries were refreshed (reused or
    /// recomputed).
    pub fn on_cloak_update(
        &mut self,
        user: UserId,
        new_cloak: &Rect,
        store: &PublicStore,
    ) -> usize {
        let Some(ids) = self.by_user.get(&user) else {
            return 0;
        };
        let mut refreshed = 0;
        for &id in ids {
            let Some(e) = self.entries.get_mut(&id) else {
                continue;
            };
            refreshed += 1;
            if e.cloak.as_ref() == Some(new_cloak) {
                self.reuses += 1;
                continue;
            }
            let candidates = private_range_candidates(store, new_cloak, e.radius);
            if candidates != e.candidates {
                e.seq += 1;
                self.changed.insert(id);
            }
            e.candidates = candidates;
            e.cloak = Some(*new_cloak);
            self.recomputes += 1;
        }
        refreshed
    }

    /// Current candidate set of a standing query (empty before the
    /// first cloak update for its user), sorted by object id.
    pub fn candidates(&self, id: StandingQueryId) -> Option<&[PublicObject]> {
        self.entries.get(&id).map(|e| e.candidates.as_slice())
    }

    /// The user owning a standing query.
    pub fn user_of(&self, id: StandingQueryId) -> Option<UserId> {
        self.entries.get(&id).map(|e| e.user)
    }

    /// Change sequence number of a query: bumped each time its
    /// candidate set changes.
    pub fn seq(&self, id: StandingQueryId) -> Option<u64> {
        self.entries.get(&id).map(|e| e.seq)
    }

    /// Drains the set of queries whose candidate set changed since the
    /// last call, in ascending id order.
    pub fn take_changed(&mut self) -> Vec<StandingQueryId> {
        std::mem::take(&mut self.changed).into_iter().collect()
    }

    /// Fraction of refreshes served without recomputation.
    ///
    /// Well-defined for every state: before any refresh has happened
    /// (`recomputes + reuses == 0`) there is nothing to rate, and the
    /// function returns `0.0` by convention — "no refresh has been
    /// saved yet" — rather than `NaN`.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.recomputes + self.reuses;
        if total == 0 {
            0.0
        } else {
            self.reuses as f64 / total as f64
        }
    }

    /// Exports the registry's raw state for durability, entries in
    /// ascending id order (canonical regardless of hash-map order).
    pub fn export_state(&self) -> StandingRangesState {
        let mut entries: Vec<StandingRangeEntryState> = self
            .entries
            .iter()
            .map(|(&id, e)| StandingRangeEntryState {
                id,
                user: e.user,
                radius: e.radius,
                cloak: e.cloak,
                candidates: e.candidates.clone(),
                seq: e.seq,
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.id);
        StandingRangesState {
            entries,
            next_id: self.next_id,
            changed: self.changed.iter().copied().collect(),
            recomputes: self.recomputes,
            reuses: self.reuses,
        }
    }

    /// Rebuilds a registry from exported state. The per-user index is
    /// re-derived by inserting entries in ascending id order, which
    /// matches the live index: local allocation is monotonic and
    /// [`StandingPrivateRanges::register_at`] does a sorted insert, so a
    /// user's id list is always ascending.
    pub fn restore_state(state: &StandingRangesState) -> StandingPrivateRanges {
        let mut reg = StandingPrivateRanges {
            entries: HashMap::with_capacity(state.entries.len()),
            by_user: HashMap::new(),
            next_id: state.next_id,
            changed: state.changed.iter().copied().collect(),
            recomputes: state.recomputes,
            reuses: state.reuses,
        };
        for es in &state.entries {
            reg.entries.insert(
                es.id,
                Entry {
                    user: es.user,
                    radius: es.radius,
                    cloak: es.cloak,
                    candidates: es.candidates.clone(),
                    seq: es.seq,
                },
            );
            reg.by_user.entry(es.user).or_default().push(es.id);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_geom::Point;

    fn store() -> PublicStore {
        PublicStore::bulk_load(
            (0..100)
                .map(|i| {
                    PublicObject::new(
                        i,
                        Point::new(0.05 + 0.1 * (i % 10) as f64, 0.05 + 0.1 * (i / 10) as f64),
                        0,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn register_and_refresh() {
        let store = store();
        let mut reg = StandingPrivateRanges::new();
        let q = reg.register(7, 0.15);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.user_of(q), Some(7));
        assert!(reg.candidates(q).unwrap().is_empty(), "no cloak yet");
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        reg.on_cloak_update(7, &cloak, &store);
        let n1 = reg.candidates(q).unwrap().len();
        assert!(n1 > 0);
        assert_eq!(reg.recomputes, 1);
        // Same cloak again: reuse, not recompute.
        reg.on_cloak_update(7, &cloak, &store);
        assert_eq!(reg.recomputes, 1);
        assert_eq!(reg.reuses, 1);
        assert!((reg.reuse_rate() - 0.5).abs() < 1e-12);
        // Different cloak: recompute.
        let cloak2 = Rect::new_unchecked(0.0, 0.0, 0.2, 0.2);
        reg.on_cloak_update(7, &cloak2, &store);
        assert_eq!(reg.recomputes, 2);
        let n2 = reg.candidates(q).unwrap().len();
        assert_ne!(n1, n2);
    }

    #[test]
    fn register_at_is_idempotent_and_guides_next_id() {
        let mut reg = StandingPrivateRanges::new();
        assert!(reg.register_at(5, 7, 0.1));
        // A replay of the same install is a no-op.
        assert!(!reg.register_at(5, 7, 0.1));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.user_of(5), Some(7));
        // Local allocation continues past the installed id.
        assert_eq!(reg.register(9, 0.2), 6);
        // Out-of-order installs never collide with allocation either.
        assert!(reg.register_at(3, 7, 0.1));
        assert_eq!(reg.register(9, 0.2), 7);
    }

    #[test]
    fn other_users_updates_are_ignored() {
        let store = store();
        let mut reg = StandingPrivateRanges::new();
        let q = reg.register(1, 0.1);
        let refreshed = reg.on_cloak_update(2, &Rect::new_unchecked(0.0, 0.0, 1.0, 1.0), &store);
        assert_eq!(refreshed, 0);
        assert!(reg.candidates(q).unwrap().is_empty());
        assert_eq!(reg.recomputes, 0);
    }

    #[test]
    fn many_users_few_queries_refresh_in_isolation() {
        // 1000 users churn cloaks; only user 7 holds standing queries.
        // The per-user index must keep every other user's update away
        // from the entries, and the bookkeeping must count only user
        // 7's refreshes.
        let store = store();
        let mut reg = StandingPrivateRanges::new();
        let q1 = reg.register(7, 0.05);
        let q2 = reg.register(7, 0.25);
        assert_eq!(reg.reuse_rate(), 0.0, "0-total case is 0.0, not NaN");
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        for user in 0..1000u64 {
            let refreshed = reg.on_cloak_update(user, &cloak, &store);
            assert_eq!(refreshed, if user == 7 { 2 } else { 0 });
        }
        assert_eq!(reg.recomputes, 2, "one recompute per owned query");
        assert_eq!(reg.reuses, 0);
        // The two queries saw different radii over the same cloak.
        assert!(reg.candidates(q1).unwrap().len() < reg.candidates(q2).unwrap().len());
        // A repeat from the owner reuses both.
        reg.on_cloak_update(7, &cloak, &store);
        assert_eq!(reg.reuses, 2);
        assert!((reg.reuse_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn candidates_stay_sound_for_the_cloak() {
        let store = store();
        let mut reg = StandingPrivateRanges::new();
        let q = reg.register(1, 0.1);
        let cloak = Rect::new_unchecked(0.3, 0.3, 0.5, 0.5);
        reg.on_cloak_update(1, &cloak, &store);
        let direct = private_range_candidates(&store, &cloak, 0.1);
        assert_eq!(reg.candidates(q).unwrap().len(), direct.len());
        // Cached candidates come back in canonical id order.
        let ids: Vec<u64> = reg.candidates(q).unwrap().iter().map(|o| o.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn candidate_changes_bump_seq_and_feed_take_changed() {
        let store = store();
        let mut reg = StandingPrivateRanges::new();
        let q = reg.register(3, 0.1);
        assert_eq!(reg.seq(q), Some(0));
        assert!(reg.take_changed().is_empty());
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        reg.on_cloak_update(3, &cloak, &store);
        assert_eq!(reg.seq(q), Some(1));
        assert_eq!(reg.take_changed(), vec![q]);
        assert!(reg.take_changed().is_empty(), "drained");
        // Same cloak: reuse, no change signalled.
        reg.on_cloak_update(3, &cloak, &store);
        assert_eq!(reg.seq(q), Some(1));
        assert!(reg.take_changed().is_empty());
        // A new cloak far away changes the candidate set.
        reg.on_cloak_update(3, &Rect::new_unchecked(0.0, 0.0, 0.1, 0.1), &store);
        assert_eq!(reg.seq(q), Some(2));
        assert_eq!(reg.take_changed(), vec![q]);
    }

    #[test]
    fn export_restore_roundtrip_is_exact() {
        let store = store();
        let mut reg = StandingPrivateRanges::new();
        let q1 = reg.register(7, 0.15);
        let q2 = reg.register(3, 0.25);
        let q3 = reg.register(7, 0.05);
        reg.on_cloak_update(7, &Rect::new_unchecked(0.4, 0.4, 0.6, 0.6), &store);
        reg.on_cloak_update(3, &Rect::new_unchecked(0.1, 0.1, 0.2, 0.2), &store);
        // Leave q3's change undelivered while q1/q2's were drained.
        let _ = reg.take_changed();
        reg.on_cloak_update(7, &Rect::new_unchecked(0.0, 0.5, 0.2, 0.7), &store);
        let state = reg.export_state();
        let mut restored = StandingPrivateRanges::restore_state(&state);
        assert_eq!(restored.export_state(), state, "roundtrip is lossless");
        // Identical refresh behaviour afterwards: same-cloak reuse for
        // user 7, recompute for user 3, same change signalling.
        let c7 = Rect::new_unchecked(0.0, 0.5, 0.2, 0.7);
        let c3 = Rect::new_unchecked(0.6, 0.6, 0.9, 0.9);
        for r in [&mut reg, &mut restored] {
            r.on_cloak_update(7, &c7, &store);
            r.on_cloak_update(3, &c3, &store);
        }
        for q in [q1, q2, q3] {
            assert_eq!(reg.candidates(q), restored.candidates(q));
            assert_eq!(reg.seq(q), restored.seq(q));
            assert_eq!(reg.user_of(q), restored.user_of(q));
        }
        assert_eq!(reg.recomputes, restored.recomputes);
        assert_eq!(reg.reuses, restored.reuses);
        assert_eq!(reg.take_changed(), restored.take_changed());
    }

    #[test]
    fn deregister() {
        let mut reg = StandingPrivateRanges::new();
        let q = reg.register(1, 0.1);
        assert!(reg.deregister(q));
        assert!(!reg.deregister(q));
        assert!(reg.is_empty());
        assert!(reg.candidates(q).is_none());
    }

    #[test]
    fn negative_radius_clamps() {
        let store = store();
        let mut reg = StandingPrivateRanges::new();
        let q = reg.register(1, -5.0);
        let cloak = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        reg.on_cloak_update(1, &cloak, &store);
        // radius 0: only objects inside the cloak.
        let inside = reg.candidates(q).unwrap();
        for o in inside {
            assert!(cloak.contains_point(o.pos));
        }
    }
}
