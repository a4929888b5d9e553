//! QoS and performance instrumentation.
//!
//! The paper frames the whole design as a *trade-off*: "users would have
//! the ability to tune a set of parameters to achieve a personal
//! trade-off between the amount of information they would like to reveal
//! about their locations and the quality of service". The streaming
//! histograms of [`crate::obs`] quantify both sides: privacy (cloaked
//! area, achieved k) and QoS (candidate-set sizes — which the user pays
//! for in transmission and local computation — plus processing
//! latencies). This module holds what they report through ([`Summary`])
//! and the transport and lock counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Descriptive statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a slice.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let pct = |q: f64| -> f64 {
            let idx = ((n as f64 - 1.0) * q).round() as usize;
            sorted[idx.min(n - 1)]
        };
        Summary {
            count: n,
            mean: sorted.iter().sum::<f64>() / n as f64,
            min: sorted[0],
            p50: pct(0.50),
            p95: pct(0.95),
            max: sorted[n - 1],
        }
    }
}

/// Number of buckets in a lock hold-time histogram: log2-microsecond
/// buckets, so bucket `b` counts holds of roughly `[2^(b-1), 2^b)` µs
/// and the last bucket absorbs everything from ~16 ms up.
pub const LOCK_HOLD_BUCKETS: usize = 16;

/// One registry rank's hold-time accounting, as reported by
/// [`lock_hold_stats`] (see [`crate::locks`]). Populated in debug
/// builds, where the `TrackedMutex`/`TrackedRwLock` bookkeeping is
/// active; all zeros in release builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockHoldSummary {
    /// Registry name of the rank (`LockRank::name`).
    pub rank: &'static str,
    /// Number of completed acquire/release cycles.
    pub acquisitions: u64,
    /// Total microseconds the rank was held, summed over acquisitions.
    pub total_micros: u64,
    /// Log2-microsecond hold-time histogram.
    pub buckets: [u64; LOCK_HOLD_BUCKETS],
}

impl LockHoldSummary {
    /// A zeroed summary for `rank`.
    pub fn empty(rank: &'static str) -> LockHoldSummary {
        LockHoldSummary {
            rank,
            acquisitions: 0,
            total_micros: 0,
            buckets: [0; LOCK_HOLD_BUCKETS],
        }
    }
}

pub use crate::locks::lock_hold_stats;

/// Shared-counter instrumentation for the network transport
/// (`lbsp-net`): connection lifecycle, request volume, and the
/// protective disconnect paths (oversized frames, slow consumers, idle
/// timeouts). All fields are atomics so the acceptor, every worker, and
/// every per-connection writer can bump them without locking.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Connections accepted by the listener.
    pub connections_accepted: AtomicU64,
    /// Connections refused because the accept backlog was full.
    pub connections_refused: AtomicU64,
    /// Connections closed (any reason).
    pub connections_closed: AtomicU64,
    /// Requests decoded and answered (including error answers).
    pub requests_served: AtomicU64,
    /// Error responses returned to clients.
    pub errors_returned: AtomicU64,
    /// Frames rejected at the transport layer (oversized, truncated).
    pub frames_rejected: AtomicU64,
    /// Connections dropped because the consumer was too slow (outbound
    /// queue or socket write stalled past its bound).
    pub slow_disconnects: AtomicU64,
    /// Connections dropped for exceeding the idle timeout.
    pub idle_disconnects: AtomicU64,
    /// Total payload bytes read off the wire (including frame headers).
    pub bytes_in: AtomicU64,
    /// Total payload bytes written to the wire (including headers).
    pub bytes_out: AtomicU64,
    /// Requests a cluster router could not forward because the owning
    /// node was dead or unreachable (each one becomes a `ROUTE_FAIL`
    /// reply to the client).
    pub route_failures: AtomicU64,
    /// Update batches the network layer entered into the engine (one
    /// per `process_updates` crossing; the batch-size histogram in the
    /// registry records how many frames each crossing amortized).
    pub engine_batches: AtomicU64,
    /// Requests refused with a RETRYABLE `ROUTE_FAIL` because the
    /// owning node was mid-reconnect (the client is expected to retry;
    /// these do *not* count as `route_failures`).
    pub retryable_failures: AtomicU64,
    /// Connection attempts made by the per-node reconnect supervisors
    /// (successful or not).
    pub reconnect_attempts: AtomicU64,
    /// Nodes that completed the rejoin protocol (reconnect + catch-up
    /// replay or bulk resync) and returned to service.
    pub node_rejoins: AtomicU64,
    /// Payload bytes transferred by bulk `NODE_RESYNC` plane copies.
    pub resync_bytes: AtomicU64,
    /// Doctrine-preserved mirror frames (standing installs and drops)
    /// dropped because their node went terminally Down before the frame
    /// could be delivered or buffered. Should stay 0 in a healthy
    /// cluster; any increment means replicated state diverged and is
    /// worth an operator's look.
    pub mirror_drops: AtomicU64,
}

impl NetCounters {
    /// Creates a zeroed counter set.
    pub fn new() -> NetCounters {
        NetCounters::default()
    }

    /// Adds `n` to a counter (relaxed ordering; these are statistics,
    /// not synchronization).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot of every counter.
    pub fn snapshot(&self) -> NetCountersSnapshot {
        NetCountersSnapshot {
            connections_accepted: Self::get(&self.connections_accepted),
            connections_refused: Self::get(&self.connections_refused),
            connections_closed: Self::get(&self.connections_closed),
            requests_served: Self::get(&self.requests_served),
            errors_returned: Self::get(&self.errors_returned),
            frames_rejected: Self::get(&self.frames_rejected),
            slow_disconnects: Self::get(&self.slow_disconnects),
            idle_disconnects: Self::get(&self.idle_disconnects),
            bytes_in: Self::get(&self.bytes_in),
            bytes_out: Self::get(&self.bytes_out),
            route_failures: Self::get(&self.route_failures),
            engine_batches: Self::get(&self.engine_batches),
            retryable_failures: Self::get(&self.retryable_failures),
            reconnect_attempts: Self::get(&self.reconnect_attempts),
            node_rejoins: Self::get(&self.node_rejoins),
            resync_bytes: Self::get(&self.resync_bytes),
            mirror_drops: Self::get(&self.mirror_drops),
        }
    }
}

/// Plain-value snapshot of [`NetCounters`], cheap to copy and compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct NetCountersSnapshot {
    pub connections_accepted: u64,
    pub connections_refused: u64,
    pub connections_closed: u64,
    pub requests_served: u64,
    pub errors_returned: u64,
    pub frames_rejected: u64,
    pub slow_disconnects: u64,
    pub idle_disconnects: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub route_failures: u64,
    pub engine_batches: u64,
    pub retryable_failures: u64,
    pub reconnect_attempts: u64,
    pub node_rejoins: u64,
    pub resync_bytes: u64,
    pub mirror_drops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_collapses_all_statistics() {
        let s = Summary::of(&[7.25]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.25);
        assert_eq!(s.min, 7.25);
        assert_eq!(s.p50, 7.25);
        assert_eq!(s.p95, 7.25);
        assert_eq!(s.max, 7.25);
    }

    #[test]
    fn summary_is_order_invariant() {
        let a = Summary::of(&[3.0, -1.0, 10.0, 2.5]);
        let b = Summary::of(&[10.0, 2.5, 3.0, -1.0]);
        assert_eq!(a, b);
        assert_eq!(a.min, -1.0, "negative samples are legal");
        assert_eq!(a.max, 10.0);
    }

    #[test]
    fn duplicate_samples_keep_count_and_percentiles() {
        let s = Summary::of(&[4.0; 10]);
        assert_eq!(s.count, 10);
        assert_eq!(s.p50, 4.0);
        assert_eq!(s.p95, 4.0);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn empty_slice_equals_default_summary() {
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn net_counters_accumulate_and_snapshot() {
        let c = NetCounters::new();
        NetCounters::add(&c.connections_accepted, 3);
        NetCounters::add(&c.requests_served, 10);
        NetCounters::add(&c.bytes_in, 1024);
        NetCounters::add(&c.slow_disconnects, 1);
        let s = c.snapshot();
        assert_eq!(s.connections_accepted, 3);
        assert_eq!(s.requests_served, 10);
        assert_eq!(s.bytes_in, 1024);
        assert_eq!(s.slow_disconnects, 1);
        assert_eq!(s.connections_refused, 0);
        assert_eq!(s.frames_rejected, 0);
    }

    #[test]
    fn net_counters_shared_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(NetCounters::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        NetCounters::add(&c.requests_served, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().requests_served, 4000);
    }
}
