//! The lock registry and order-checked lock wrappers.
//!
//! Every lock in the workspace is declared here, in one place, with a
//! total order. The rule the
//! registry encodes is the classic deadlock-freedom discipline: a
//! thread may only acquire a lock whose rank is **greater than or equal
//! to** every rank it already holds. Equal ranks are reserved for
//! lock arrays (`ClusterNode`), whose members are always acquired in
//! ascending index order by construction — so equal-rank acquisition
//! cannot cycle either.
//!
//! [`TrackedMutex`] and [`TrackedRwLock`] wrap `std::sync` locks with
//! that discipline:
//!
//! * **Release builds** — zero bookkeeping: the wrappers compile down to
//!   the plain `std` lock plus a copy of the rank. No thread-locals, no
//!   timestamps, no atomics.
//! * **Debug builds** (`debug_assertions`) — every acquisition is
//!   checked against a per-thread stack of held ranks and panics on a
//!   lock-order inversion, and every release records the hold time into
//!   a per-rank histogram readable via [`lock_hold_stats`] (re-exported
//!   from [`crate::metrics`]). Running the concurrency and loopback
//!   test suites in debug mode therefore doubles as a deadlock-ordering
//!   detector run.
//!
//! Both wrappers *recover* from poisoning instead of panicking: the
//! hostile-input network paths must stay panic-free (`lbsp-lint`
//! enforces this statically), so one panicked holder must not turn
//! every later acquisition into a panic too.
//!
//! Crates below `lbsp-core` in the dependency graph cannot use these
//! wrappers; their raw locks carry a `// lint: lock(Rank)` annotation
//! referencing a rank declared here, which `lbsp-lint` cross-checks.

use crate::metrics::LockHoldSummary;
use std::fmt;
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Number of declared lock ranks.
pub const LOCK_RANK_COUNT: usize = 8;

/// The ordered lock registry. Declaration order *is* acquisition order:
/// a thread holding a lock of some rank may only acquire locks of equal
/// or later rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockRank {
    /// `lbsp-cluster`: the router's reader/writer gate. Outermost by
    /// construction — requests hold it shared for their whole node
    /// round-trip; standing broadcasts hold it exclusive so every node
    /// seeds the new registration from the same quiesced state.
    ClusterRouter,
    /// `lbsp-cluster`: the router's routing tables (registered users,
    /// standing-range → subject user). Held only for map
    /// lookups/updates, never across node I/O.
    ClusterCore,
    /// `lbsp-cluster`: one per node — the reconnect supervisor's
    /// catch-up buffer of frames missed while the node was away. Ranked
    /// before `ClusterNode` so buffering a frame may happen while (or
    /// before) the node's send half is held.
    ClusterRecovery,
    /// `lbsp-cluster`: one per node connection — the send half of the
    /// pipelined node channel (equal-rank array, acquired in ascending
    /// node-index order when a fan-out touches several nodes).
    ClusterNode,
    /// `lbsp-cluster`: one per node connection — the inbox of replies:
    /// the read half, the in-order ticket queue and the answers not yet
    /// taken. Ranked after `ClusterNode` so a request may queue its
    /// tickets while it holds the send half; nothing is acquired under
    /// it, and no caller blocks in a read while holding it.
    ClusterInbox,
    /// `lbsp-net`: the engine mutex serializing requests into the
    /// engine, which then runs on the thread holding it.
    Engine,
    /// `lbsp-net`: the front door's standing-query subscription map
    /// (query -> conn ids, conn id -> delta-push channel), shared by the
    /// node and router tiers. Ranked after `Engine` so delta
    /// fan-out may acquire it while the engine is held.
    NetStandingSubs,
    /// `lbsp-net`: the chaos proxy's upstream address and fault-event
    /// log. Innermost: each is held for one read or one push.
    ChaosProxy,
}

impl LockRank {
    /// Every rank, in registry (acquisition) order.
    pub const ALL: [LockRank; LOCK_RANK_COUNT] = [
        LockRank::ClusterRouter,
        LockRank::ClusterCore,
        LockRank::ClusterRecovery,
        LockRank::ClusterNode,
        LockRank::ClusterInbox,
        LockRank::Engine,
        LockRank::NetStandingSubs,
        LockRank::ChaosProxy,
    ];

    /// The rank's position in the registry order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The rank's registry name.
    pub fn name(self) -> &'static str {
        match self {
            LockRank::ClusterRouter => "ClusterRouter",
            LockRank::ClusterCore => "ClusterCore",
            LockRank::ClusterRecovery => "ClusterRecovery",
            LockRank::ClusterNode => "ClusterNode",
            LockRank::ClusterInbox => "ClusterInbox",
            LockRank::Engine => "Engine",
            LockRank::NetStandingSubs => "NetStandingSubs",
            LockRank::ChaosProxy => "ChaosProxy",
        }
    }
}

/// Debug-build per-thread acquisition stack and inversion check.
#[cfg(debug_assertions)]
mod debug_check {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Checks the registry order *before* blocking on the lock, then
    /// pushes the rank. Panics on inversion, which is the point.
    pub(super) fn enter(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&worst) = held.iter().max() {
                assert!(
                    worst <= rank,
                    "lock-order inversion: acquiring {:?} (rank {}) while holding {:?} \
                     (rank {}); the registry in lbsp_core::locks requires ranks to be \
                     acquired in non-descending order",
                    rank,
                    rank.index(),
                    worst,
                    worst.index(),
                );
            }
            held.push(rank);
        });
    }

    /// Pops the most recent occurrence of `rank` from the stack.
    pub(super) fn exit(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&r| r == rank) {
                held.remove(i);
            }
        });
    }

    /// Ranks currently held by this thread (test hook).
    #[cfg(test)]
    pub(super) fn held_now() -> Vec<LockRank> {
        HELD.with(|held| held.borrow().clone())
    }
}

/// Debug-build hold-time accounting: per-rank acquisition counts and a
/// log2-microsecond histogram, all lock-free atomics.
#[cfg(debug_assertions)]
mod hold_stats {
    use super::{LockRank, LOCK_RANK_COUNT};
    use crate::metrics::{LockHoldSummary, LOCK_HOLD_BUCKETS};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static ACQUISITIONS: [AtomicU64; LOCK_RANK_COUNT] = [ZERO; LOCK_RANK_COUNT];
    static TOTAL_MICROS: [AtomicU64; LOCK_RANK_COUNT] = [ZERO; LOCK_RANK_COUNT];
    static BUCKETS: [AtomicU64; LOCK_RANK_COUNT * LOCK_HOLD_BUCKETS] =
        [ZERO; LOCK_RANK_COUNT * LOCK_HOLD_BUCKETS];

    /// Bucket `b` counts holds of roughly `[2^(b-1), 2^b)` microseconds
    /// (bucket 0 is "under a microsecond"); the last bucket absorbs the
    /// tail.
    fn bucket_of(micros: u64) -> usize {
        if micros == 0 {
            return 0;
        }
        ((u64::BITS - micros.leading_zeros()) as usize).min(LOCK_HOLD_BUCKETS - 1)
    }

    pub(super) fn record(rank: LockRank, held: Duration) {
        let micros = u64::try_from(held.as_micros()).unwrap_or(u64::MAX);
        let i = rank.index();
        ACQUISITIONS[i].fetch_add(1, Ordering::Relaxed);
        TOTAL_MICROS[i].fetch_add(micros, Ordering::Relaxed);
        BUCKETS[i * LOCK_HOLD_BUCKETS + bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn snapshot() -> Vec<LockHoldSummary> {
        LockRank::ALL
            .iter()
            .map(|&rank| {
                let i = rank.index();
                let mut buckets = [0u64; LOCK_HOLD_BUCKETS];
                for (b, slot) in buckets.iter_mut().enumerate() {
                    *slot = BUCKETS[i * LOCK_HOLD_BUCKETS + b].load(Ordering::Relaxed);
                }
                LockHoldSummary {
                    rank: rank.name(),
                    acquisitions: ACQUISITIONS[i].load(Ordering::Relaxed),
                    total_micros: TOTAL_MICROS[i].load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect()
    }
}

/// One summary row per registry rank: acquisition counts and hold-time
/// histograms. All zeros in release builds, where the bookkeeping is
/// compiled out.
pub fn lock_hold_stats() -> Vec<LockHoldSummary> {
    #[cfg(debug_assertions)]
    {
        hold_stats::snapshot()
    }
    #[cfg(not(debug_assertions))]
    {
        LockRank::ALL
            .iter()
            .map(|&rank| LockHoldSummary::empty(rank.name()))
            .collect()
    }
}

/// RAII token pairing the order-check on acquisition with the stack pop
/// and hold-time recording on release. A zero-sized no-op in release.
#[cfg(debug_assertions)]
struct Hold {
    rank: LockRank,
    since: std::time::Instant,
}

#[cfg(not(debug_assertions))]
struct Hold;

impl Hold {
    fn enter(rank: LockRank) -> Hold {
        #[cfg(debug_assertions)]
        {
            debug_check::enter(rank);
            Hold {
                rank,
                since: std::time::Instant::now(),
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = rank;
            Hold
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for Hold {
    fn drop(&mut self) {
        hold_stats::record(self.rank, self.since.elapsed());
        debug_check::exit(self.rank);
    }
}

/// A `std::sync::Mutex` bound to a [`LockRank`] from the registry.
pub struct TrackedMutex<T> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` in a mutex ranked `rank`.
    pub fn new(rank: LockRank, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// The registry rank this lock was declared with.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires the lock, checking the registry order first (debug
    /// builds). Recovers from poisoning: the data is returned as the
    /// panicked holder left it.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let hold = Hold::enter(self.rank);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedMutexGuard { inner, _hold: hold }
    }

    /// Consumes the lock, returning the inner value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// Guard of a [`TrackedMutex`]. Declared with the inner guard first so
/// the OS lock is released before the hold token records the hold time
/// and pops the rank stack.
pub struct TrackedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    _hold: Hold,
}

impl<'a, T> TrackedMutexGuard<'a, T> {
    /// Releases the lock and blocks on `cv` until notified or until
    /// `timeout` passes, then re-acquires it (poison-recovering).
    /// `true` when the wait timed out. The rank stays on the thread's
    /// held stack throughout, so in debug builds the wait counts toward
    /// the hold time.
    pub fn wait_timeout(self, cv: &Condvar, timeout: Duration) -> (Self, bool) {
        let TrackedMutexGuard { inner, _hold } = self;
        let (inner, waited) = cv
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (TrackedMutexGuard { inner, _hold }, waited.timed_out())
    }
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A `std::sync::RwLock` bound to a [`LockRank`] from the registry.
pub struct TrackedRwLock<T> {
    rank: LockRank,
    inner: RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Wraps `value` in a reader-writer lock ranked `rank`.
    pub fn new(rank: LockRank, value: T) -> TrackedRwLock<T> {
        TrackedRwLock {
            rank,
            inner: RwLock::new(value),
        }
    }

    /// The registry rank this lock was declared with.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires shared read access (order-checked, poison-recovering).
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let hold = Hold::enter(self.rank);
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        TrackedReadGuard { inner, _hold: hold }
    }

    /// Acquires exclusive write access (order-checked,
    /// poison-recovering).
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let hold = Hold::enter(self.rank);
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        TrackedWriteGuard { inner, _hold: hold }
    }

    /// Consumes the lock, returning the inner value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// Read guard of a [`TrackedRwLock`] (inner guard drops first).
pub struct TrackedReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    _hold: Hold,
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Write guard of a [`TrackedRwLock`] (inner guard drops first).
pub struct TrackedWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    _hold: Hold,
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(debug_assertions)]
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn ranks_are_totally_ordered_in_declaration_order() {
        for pair in LockRank::ALL.windows(2) {
            assert!(pair[0] < pair[1], "{:?} < {:?}", pair[0], pair[1]);
        }
        assert_eq!(LockRank::ALL.len(), LOCK_RANK_COUNT);
        for (i, r) in LockRank::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert!(!r.name().is_empty());
        }
    }

    #[test]
    fn ascending_acquisition_is_legal() {
        let a = TrackedMutex::new(LockRank::Engine, 1u32);
        let b = TrackedRwLock::new(LockRank::NetStandingSubs, 2u32);
        let c = TrackedMutex::new(LockRank::ChaosProxy, 3u32);
        let ga = a.lock();
        let gb = b.read();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[test]
    fn equal_rank_reacquisition_is_legal() {
        // Lock arrays: every node channel shares one rank and is
        // acquired in ascending index order.
        let nodes: Vec<TrackedMutex<usize>> = (0..4)
            .map(|i| TrackedMutex::new(LockRank::ClusterNode, i))
            .collect();
        let guards: Vec<_> = nodes.iter().map(|n| n.lock()).collect();
        let total: usize = guards.iter().map(|g| **g).sum();
        assert_eq!(total, 6);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn lock_order_inversion_panics_in_debug() {
        let low = TrackedMutex::new(LockRank::Engine, ());
        let high = TrackedMutex::new(LockRank::ChaosProxy, ());
        let _held = high.lock();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = low.lock();
        }));
        let err = outcome.expect_err("descending acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("lock-order inversion"),
            "panic names the violation: {msg}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn release_restores_the_acquisition_stack() {
        {
            let a = TrackedMutex::new(LockRank::ChaosProxy, ());
            let _g = a.lock();
            assert_eq!(debug_check::held_now(), vec![LockRank::ChaosProxy]);
        }
        assert!(debug_check::held_now().is_empty(), "guard drop pops");
        // After a full acquire/release cycle, descending order on fresh
        // locks is legal again.
        let high = TrackedMutex::new(LockRank::ChaosProxy, ());
        drop(high.lock());
        let low = TrackedMutex::new(LockRank::Engine, ());
        drop(low.lock());
    }

    #[test]
    fn poisoned_locks_recover() {
        let m = std::sync::Arc::new(TrackedMutex::new(LockRank::Engine, 7u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock() recovers the value");
        let rw = TrackedRwLock::new(LockRank::ClusterRouter, 9u32);
        assert_eq!(*rw.read(), 9);
        assert_eq!(rw.into_inner(), 9);
    }

    #[test]
    fn hold_stats_accumulate_in_debug() {
        // A rank no other test in this binary takes, so no concurrent
        // test moves its counts between the two reads below.
        let m = TrackedMutex::new(LockRank::ClusterRecovery, ());
        for _ in 0..5 {
            drop(m.lock());
        }
        let stats = lock_hold_stats();
        assert_eq!(stats.len(), LOCK_RANK_COUNT);
        let row = stats
            .iter()
            .find(|s| s.rank == "ClusterRecovery")
            .expect("every rank reported");
        if cfg!(debug_assertions) {
            assert!(row.acquisitions >= 5, "acquisitions counted");
            let bucketed: u64 = row.buckets.iter().sum();
            assert_eq!(bucketed, row.acquisitions, "each hold lands in a bucket");
        } else {
            assert_eq!(row.acquisitions, 0);
        }
    }
}
