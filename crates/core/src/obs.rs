//! Streaming observability: fixed-footprint histograms and the unified
//! metrics registry.
//!
//! The paper sells the whole architecture as a *tunable* trade-off
//! between privacy and quality of service — which makes the system only
//! as good as its ability to measure cloak areas, achieved `k`,
//! candidate-set sizes, and latencies *continuously*. Hoarding every
//! sample in a `Vec<f64>` (unbounded memory) and clone+sorting it on
//! every read (O(n log n)) is fine for a bench run, fatal for a server
//! meant to stay up. This module provides instead:
//!
//! * [`Histogram`] — a fixed-footprint streaming histogram: 64 log2
//!   buckets (the same power-of-two scheme as the lock hold-time
//!   histograms, see [`crate::metrics::LOCK_HOLD_BUCKETS`]) plus exact
//!   count / sum / min / max. Every field is an atomic, so shards record
//!   through `&self` without locking and histograms merge by bucket-wise
//!   addition.
//! * [`MetricsRegistry`] — one place that unifies the per-stage timing
//!   histograms (cloak, private/public query, frame decode,
//!   outbound-queue wait), the privacy/QoS value histograms
//!   (cloak area, achieved k, candidate-set size), cloak-failure
//!   counters, the transport [`NetCounters`], and the lock hold-time
//!   stats from [`crate::locks`].
//! * [`RegistrySnapshot`] — a plain-value snapshot of the registry that
//!   crosses the wire (see `wire::encode_stats_snapshot`) and renders to
//!   a text exposition format for scraping.
//!
//! # Percentile error bound
//!
//! `mean`, `min`, `max`, and `count` are exact. `p50`/`p95` are
//! reconstructed from the log2 buckets by linear interpolation between
//! the bucket edges (clamped to the observed `[min, max]`), using the
//! same nearest-rank definition as the exact
//! [`Summary::of`](crate::metrics::Summary::of). Because the buckets
//! partition the positive axis monotonically, the estimate lands in the
//! *same* bucket as the exact nearest-rank sample, so for sample sets
//! whose values all lie in `[2^-31, 2^31)` the reported percentile is
//! within a **factor of 2** of the exact one (`0.5·exact ≤ reported ≤
//! 2·exact`). Values outside that range are absorbed by the end buckets
//! (still counted exactly; percentiles clamp to `[min, max]`), and
//! non-positive samples all land in bucket 0.

use crate::metrics::{NetCounters, NetCountersSnapshot, Summary, LOCK_HOLD_BUCKETS};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets in a [`Histogram`]. Bucket `i` counts samples
/// whose magnitude has binary exponent `i - 32`, i.e. values in
/// `[2^(i-32), 2^(i-31))`; bucket 0 also absorbs everything at or below
/// `2^-32` (including zero and negatives) and bucket 63 everything from
/// `2^31` up.
pub const HIST_BUCKETS: usize = 64;

/// Smallest binary exponent with its own bucket (`2^HIST_MIN_EXP` is the
/// lower edge of bucket 0).
pub const HIST_MIN_EXP: i32 = -32;

/// Maps a finite positive sample to its bucket index.
fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    // IEEE-754 biased exponent, extracted exactly from the bits (no
    // log() rounding). Subnormals report -1023 and clamp into bucket 0.
    let biased = (v.to_bits() >> 52) & 0x7ff;
    let e = biased as i64 - 1023;
    let idx = e - i64::from(HIST_MIN_EXP);
    usize::try_from(idx.clamp(0, (HIST_BUCKETS as i64) - 1)).unwrap_or(0)
}

/// Lower edge of bucket `i` (`2^(i - 32)`).
fn bucket_lo(i: usize) -> f64 {
    let exp = i32::try_from(i).unwrap_or(0) + HIST_MIN_EXP;
    2.0f64.powi(exp)
}

/// Adds `v` into an atomic cell holding f64 bits.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Folds `v` into an atomic f64 cell with `pick` (min or max).
fn atomic_f64_fold(cell: &AtomicU64, v: f64, pick: fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let folded = pick(f64::from_bits(cur), v);
        if folded.to_bits() == cur {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            folded.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A fixed-footprint streaming histogram: 64 log2 buckets plus exact
/// count / sum / min / max, all atomics. Memory use is a compile-time
/// constant — recording ten million samples allocates nothing.
pub struct Histogram {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Histogram {
        let h = Histogram::new();
        h.absorb(&self.snapshot());
        h
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("mean", &s.mean)
            .field("min", &s.min)
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample. Non-finite samples are dropped. Takes
    /// `&self`: shards record into a shared histogram without locking.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_fold(&self.min_bits, v, f64::min);
        atomic_f64_fold(&self.max_bits, v, f64::max);
        if let Some(b) = self.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_secs_f64() * 1e6);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-value snapshot (consistent enough for statistics: fields
    /// are read individually, not under a lock).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min,
            max,
            buckets,
        }
    }

    /// Merges another histogram's snapshot into this one (bucket-wise
    /// addition; min/max fold). This is how per-shard histograms roll up
    /// into one registry without locks.
    pub fn absorb(&self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, other.sum);
        atomic_f64_fold(&self.min_bits, other.min, f64::min);
        atomic_f64_fold(&self.max_bits, other.max, f64::max);
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            dst.fetch_add(*src, Ordering::Relaxed);
        }
    }

    /// Summary statistics (mean exact; p50/p95 within the documented
    /// factor-2 bound).
    pub fn summary(&self) -> Summary {
        self.snapshot().summary()
    }

    /// Resets every cell to empty.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Plain-value snapshot of a [`Histogram`]: cheap to copy, compare,
/// merge, and put on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded (exact).
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: f64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
    /// Log2 bucket counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Merges `other` into `self` (bucket-wise addition; min/max fold).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
    }

    /// The nearest-rank percentile estimate for quantile `q` in `[0,1]`,
    /// interpolated inside the owning log2 bucket and clamped to the
    /// exact `[min, max]`. See the module docs for the error bound.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Same nearest-rank definition as the exact `Summary::of`.
        let rank = (((self.count - 1) as f64) * q.clamp(0.0, 1.0)).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < cum + c {
                let lo = bucket_lo(i).max(self.min);
                let hi = (bucket_lo(i) * 2.0).min(self.max);
                if lo > hi {
                    // Degenerate bucket (e.g. all samples <= 0 landed in
                    // bucket 0): fall back to the exact envelope's
                    // midpoint — still within [min, max].
                    return (self.min + self.max) / 2.0;
                }
                let within = ((rank - cum) as f64 + 0.5) / c as f64;
                return (lo + (hi - lo) * within).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Summary statistics: count/mean/min/max exact, p50/p95 within the
    /// documented factor-2 bound.
    pub fn summary(&self) -> Summary {
        if self.count == 0 {
            return Summary::default();
        }
        Summary {
            count: usize::try_from(self.count).unwrap_or(usize::MAX),
            mean: self.sum / self.count as f64,
            min: self.min,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            max: self.max,
        }
    }
}

/// A pipeline stage with its own timing histogram in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Anonymizer-side cloaking (spatial generalization of an update).
    Cloak,
    /// Private query evaluation over a cloaked region.
    PrivateQuery,
    /// Public query evaluation (no anonymizer involved).
    PublicQuery,
    /// Transport frame decode (first byte of a frame to completion,
    /// idle poll time excluded).
    FrameDecode,
    /// Wait for space in a connection's bounded outbound queue.
    OutboundWait,
    /// Standing-query maintenance: applying one batch of cloak deltas
    /// to the standing counts and ranges.
    StandingUpdate,
    /// Encoding + appending one record to the write-ahead log.
    WalAppend,
    /// Forcing appended WAL records to stable storage.
    WalFsync,
    /// Exporting + installing one durability snapshot.
    Snapshot,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 9;

impl Stage {
    /// Every stage, in wire/exposition order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Cloak,
        Stage::PrivateQuery,
        Stage::PublicQuery,
        Stage::FrameDecode,
        Stage::OutboundWait,
        Stage::StandingUpdate,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::Snapshot,
    ];

    /// Stable snake_case label (used in the text exposition).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Cloak => "cloak",
            Stage::PrivateQuery => "private_query",
            Stage::PublicQuery => "public_query",
            Stage::FrameDecode => "frame_decode",
            Stage::OutboundWait => "outbound_wait",
            Stage::StandingUpdate => "standing_update",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::Snapshot => "snapshot",
        }
    }
}

/// Labels for the cloak-failure counters, indexed by
/// `CloakError::kind_index()` in `lbsp-anonymizer`.
pub const CLOAK_FAILURE_KINDS: [&str; 3] =
    ["unknown_user", "invalid_requirement", "invalid_profile"];

/// The unified metrics registry: per-stage timing histograms, privacy /
/// QoS value histograms, cloak-failure counters, and the transport
/// [`NetCounters`]. One registry serves a whole engine (and the network
/// front-end wrapped around it); every recording path is `&self` and
/// lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stage_cloak: Histogram,
    stage_private_query: Histogram,
    stage_public_query: Histogram,
    stage_frame_decode: Histogram,
    stage_outbound_wait: Histogram,
    stage_standing_update: Histogram,
    stage_wal_append: Histogram,
    stage_wal_fsync: Histogram,
    stage_snapshot: Histogram,
    /// Cloaked-region areas (square world units).
    cloak_area: Histogram,
    /// Achieved anonymity levels.
    achieved_k: Histogram,
    /// Candidate-set sizes returned by private queries.
    candidate_set_size: Histogram,
    /// Standing queries touched per cloak update (count + range).
    standing_fanout: Histogram,
    /// Update frames amortized per engine crossing by the network
    /// layer's per-shard request batching.
    net_batch_size: Histogram,
    /// Milliseconds a cluster node spent out of service per outage
    /// (connection lost to rejoin complete or declared down).
    node_downtime: Histogram,
    cloak_failures: [AtomicU64; CLOAK_FAILURE_KINDS.len()],
    net: NetCounters,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The timing histogram of one stage (microseconds).
    pub fn stage(&self, s: Stage) -> &Histogram {
        match s {
            Stage::Cloak => &self.stage_cloak,
            Stage::PrivateQuery => &self.stage_private_query,
            Stage::PublicQuery => &self.stage_public_query,
            Stage::FrameDecode => &self.stage_frame_decode,
            Stage::OutboundWait => &self.stage_outbound_wait,
            Stage::StandingUpdate => &self.stage_standing_update,
            Stage::WalAppend => &self.stage_wal_append,
            Stage::WalFsync => &self.stage_wal_fsync,
            Stage::Snapshot => &self.stage_snapshot,
        }
    }

    /// Cloaked-region area histogram.
    pub fn cloak_area(&self) -> &Histogram {
        &self.cloak_area
    }

    /// Achieved-k histogram.
    pub fn achieved_k(&self) -> &Histogram {
        &self.achieved_k
    }

    /// Candidate-set-size histogram.
    pub fn candidate_set_size(&self) -> &Histogram {
        &self.candidate_set_size
    }

    /// Standing-query fan-out histogram: queries touched per cloak
    /// update, counts and ranges together.
    pub fn standing_fanout(&self) -> &Histogram {
        &self.standing_fanout
    }

    /// Batch-size histogram: update frames amortized per engine
    /// crossing by the network layer (pairs with the `engine_batches`
    /// transport counter).
    pub fn net_batch_size(&self) -> &Histogram {
        &self.net_batch_size
    }

    /// Node-downtime histogram: milliseconds a cluster node spent out
    /// of service per outage (pairs with the `reconnect_attempts` and
    /// `node_rejoins` transport counters).
    pub fn node_downtime(&self) -> &Histogram {
        &self.node_downtime
    }

    /// The shared transport counters.
    pub fn net(&self) -> &NetCounters {
        &self.net
    }

    /// Counts one cloak failure of the given kind (see
    /// [`CLOAK_FAILURE_KINDS`]); out-of-range kinds are ignored.
    pub fn record_cloak_failure(&self, kind: usize) {
        if let Some(c) = self.cloak_failures.get(kind) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A plain-value snapshot of everything the registry unifies,
    /// including the global lock hold-time stats.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut failures = [0u64; CLOAK_FAILURE_KINDS.len()];
        for (dst, src) in failures.iter_mut().zip(self.cloak_failures.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        RegistrySnapshot {
            stages: [
                self.stage_cloak.snapshot(),
                self.stage_private_query.snapshot(),
                self.stage_public_query.snapshot(),
                self.stage_frame_decode.snapshot(),
                self.stage_outbound_wait.snapshot(),
                self.stage_standing_update.snapshot(),
                self.stage_wal_append.snapshot(),
                self.stage_wal_fsync.snapshot(),
                self.stage_snapshot.snapshot(),
            ],
            cloak_area: self.cloak_area.snapshot(),
            achieved_k: self.achieved_k.snapshot(),
            candidate_set_size: self.candidate_set_size.snapshot(),
            standing_fanout: self.standing_fanout.snapshot(),
            net_batch_size: self.net_batch_size.snapshot(),
            node_downtime: self.node_downtime.snapshot(),
            cloak_failures: failures,
            net: self.net.snapshot(),
            locks: crate::locks::lock_hold_stats()
                .into_iter()
                .map(|s| LockHoldRow {
                    rank_label: s.rank.to_string(),
                    acquisitions: s.acquisitions,
                    total_micros: s.total_micros,
                    buckets: s.buckets,
                })
                .collect(),
        }
    }
}

/// One lock rank's hold-time row in a [`RegistrySnapshot`] — the owned
/// twin of [`crate::metrics::LockHoldSummary`] (rank name as a `String`
/// so scraped snapshots can be decoded off-process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockHoldRow {
    /// Registry name of the rank.
    pub rank_label: String,
    /// Completed acquire/release cycles.
    pub acquisitions: u64,
    /// Total microseconds held.
    pub total_micros: u64,
    /// Log2-microsecond hold-time histogram.
    pub buckets: [u64; LOCK_HOLD_BUCKETS],
}

/// Everything a `STATS` scrape reports: aggregate statistics only. No
/// positions, identities, or per-user state cross this boundary — the
/// lint taint rule enforces that structurally.
// lint: server-bound
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// Per-stage timing histograms, in [`Stage::ALL`] order (µs).
    pub stages: [HistogramSnapshot; STAGE_COUNT],
    /// Cloaked-region areas (square world units).
    pub cloak_area: HistogramSnapshot,
    /// Achieved anonymity levels.
    pub achieved_k: HistogramSnapshot,
    /// Candidate-set sizes returned by private queries.
    pub candidate_set_size: HistogramSnapshot,
    /// Standing queries touched per cloak update.
    pub standing_fanout: HistogramSnapshot,
    /// Update frames amortized per engine crossing by the network
    /// layer's request batching.
    pub net_batch_size: HistogramSnapshot,
    /// Milliseconds a cluster node spent out of service per outage.
    pub node_downtime: HistogramSnapshot,
    /// Cloak failures by kind, in [`CLOAK_FAILURE_KINDS`] order.
    pub cloak_failures: [u64; CLOAK_FAILURE_KINDS.len()],
    /// Transport counters.
    pub net: NetCountersSnapshot,
    /// Lock hold-time stats (all zeros in release builds).
    pub locks: Vec<LockHoldRow>,
}

impl Default for RegistrySnapshot {
    fn default() -> RegistrySnapshot {
        RegistrySnapshot {
            stages: std::array::from_fn(|_| HistogramSnapshot::default()),
            cloak_area: HistogramSnapshot::default(),
            achieved_k: HistogramSnapshot::default(),
            candidate_set_size: HistogramSnapshot::default(),
            standing_fanout: HistogramSnapshot::default(),
            net_batch_size: HistogramSnapshot::default(),
            node_downtime: HistogramSnapshot::default(),
            cloak_failures: [0; CLOAK_FAILURE_KINDS.len()],
            net: NetCountersSnapshot::default(),
            locks: Vec::new(),
        }
    }
}

impl RegistrySnapshot {
    /// Renders the snapshot in a line-oriented text exposition format
    /// (`name{label="value"} number`, one sample per line), suitable for
    /// terminals and scrape pipelines alike.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let hist = |out: &mut String, name: &str, label: &str, h: &HistogramSnapshot| {
            let s = h.summary();
            let tag = if label.is_empty() {
                String::new()
            } else {
                format!("{{{label}}}")
            };
            let _ = writeln!(out, "{name}_count{tag} {}", s.count);
            let _ = writeln!(out, "{name}_mean{tag} {:.6}", s.mean);
            let _ = writeln!(out, "{name}_min{tag} {:.6}", s.min);
            let _ = writeln!(out, "{name}_p50{tag} {:.6}", s.p50);
            let _ = writeln!(out, "{name}_p95{tag} {:.6}", s.p95);
            let _ = writeln!(out, "{name}_max{tag} {:.6}", s.max);
        };
        for (stage, h) in Stage::ALL.iter().zip(self.stages.iter()) {
            hist(
                &mut out,
                "lbsp_stage_micros",
                &format!("stage=\"{}\"", stage.name()),
                h,
            );
        }
        hist(&mut out, "lbsp_cloak_area", "", &self.cloak_area);
        hist(&mut out, "lbsp_achieved_k", "", &self.achieved_k);
        hist(
            &mut out,
            "lbsp_candidate_set_size",
            "",
            &self.candidate_set_size,
        );
        hist(&mut out, "lbsp_standing_fanout", "", &self.standing_fanout);
        hist(&mut out, "lbsp_net_batch_size", "", &self.net_batch_size);
        hist(&mut out, "lbsp_node_downtime_ms", "", &self.node_downtime);
        for (kind, n) in CLOAK_FAILURE_KINDS.iter().zip(self.cloak_failures.iter()) {
            let _ = writeln!(out, "lbsp_cloak_failures{{kind=\"{kind}\"}} {n}");
        }
        let n = &self.net;
        for (name, v) in [
            ("connections_accepted", n.connections_accepted),
            ("connections_refused", n.connections_refused),
            ("connections_closed", n.connections_closed),
            ("requests_served", n.requests_served),
            ("errors_returned", n.errors_returned),
            ("frames_rejected", n.frames_rejected),
            ("slow_disconnects", n.slow_disconnects),
            ("idle_disconnects", n.idle_disconnects),
            ("bytes_in", n.bytes_in),
            ("bytes_out", n.bytes_out),
            ("route_failures", n.route_failures),
            ("engine_batches", n.engine_batches),
            ("retryable_failures", n.retryable_failures),
            ("reconnect_attempts", n.reconnect_attempts),
            ("node_rejoins", n.node_rejoins),
            ("resync_bytes", n.resync_bytes),
            ("mirror_drops", n.mirror_drops),
        ] {
            let _ = writeln!(out, "lbsp_net_{name} {v}");
        }
        for row in &self.locks {
            let _ = writeln!(
                out,
                "lbsp_lock_hold_acquisitions{{rank=\"{}\"}} {}",
                row.rank_label, row.acquisitions
            );
            let _ = writeln!(
                out,
                "lbsp_lock_hold_total_micros{{rank=\"{}\"}} {}",
                row.rank_label, row.total_micros
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn exact_fields_are_exact() {
        let h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn percentiles_within_factor_two_of_exact() {
        let h = Histogram::new();
        let mut exact = Vec::new();
        for i in 1..=1000 {
            let v = (i as f64) * 0.37 + 0.01;
            h.record(v);
            exact.push(v);
        }
        let s = h.summary();
        let e = crate::metrics::Summary::of(&exact);
        for (got, want) in [(s.p50, e.p50), (s.p95, e.p95)] {
            assert!(
                got >= want * 0.5 - 1e-9 && got <= want * 2.0 + 1e-9,
                "estimate {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn single_sample_collapses_all_statistics() {
        let h = Histogram::new();
        h.record(7.25);
        let s = h.summary();
        assert_eq!(s.min, 7.25);
        assert_eq!(s.p50, 7.25, "clamped to [min, max]");
        assert_eq!(s.p95, 7.25);
        assert_eq!(s.max, 7.25);
    }

    #[test]
    fn zero_and_negative_samples_survive() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 0.0);
        assert!(s.p50 >= s.min && s.p50 <= s.max);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn fixed_footprint_under_ten_million_samples() {
        // The acceptance criterion for the memory bug: the histogram is
        // a compile-time-sized structure with no heap growth path —
        // recording 10M samples cannot allocate per sample.
        let h = Histogram::new();
        let size_before = std::mem::size_of_val(&h);
        for i in 0..10_000_000u64 {
            h.record((i % 4096) as f64 + 0.5);
        }
        assert_eq!(h.count(), 10_000_000);
        assert_eq!(std::mem::size_of_val(&h), size_before);
        // No Vec / Box anywhere in the layout: the whole structure fits
        // in the inline atomics (4 scalars + 64 buckets).
        assert_eq!(
            std::mem::size_of::<Histogram>(),
            std::mem::size_of::<u64>() * (4 + HIST_BUCKETS)
        );
        let s = h.summary();
        assert_eq!(s.count, 10_000_000);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 4095.5);
    }

    #[test]
    fn concurrent_recording_and_merge() {
        let h = Arc::new(Histogram::new());
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        let shards = Arc::new(shards);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                let shards = Arc::clone(&shards);
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        h.record((i + t * 10_000) as f64 + 1.0);
                        shards[t].record((i + t * 10_000) as f64 + 1.0);
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        // Rolling the per-shard histograms up reproduces the shared one.
        let merged = Histogram::new();
        for s in shards.iter() {
            merged.absorb(&s.snapshot());
        }
        assert_eq!(merged.snapshot(), h.snapshot());
        let s = h.summary();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 40_000.0);
        assert!((s.mean - 20_000.5).abs() < 1e-6);
    }

    #[test]
    fn snapshot_merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let c = Histogram::new();
        for i in 0..100 {
            let v = (i as f64).exp2().min(1e9);
            a.record(v);
            c.record(v);
        }
        for i in 0..50 {
            let v = i as f64 * 3.0 + 0.125;
            b.record(v);
            c.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, c.snapshot().count);
        assert_eq!(m.buckets, c.snapshot().buckets);
        assert_eq!(m.min, c.snapshot().min);
        assert_eq!(m.max, c.snapshot().max);
    }

    #[test]
    fn registry_snapshot_and_text_exposition() {
        let r = MetricsRegistry::new();
        r.stage(Stage::Cloak)
            .record_duration(Duration::from_micros(120));
        r.stage(Stage::PrivateQuery)
            .record_duration(Duration::from_micros(340));
        r.cloak_area().record(0.25);
        r.achieved_k().record(5.0);
        r.candidate_set_size().record(12.0);
        r.record_cloak_failure(0);
        r.record_cloak_failure(usize::MAX); // out of range: ignored
        NetCounters::add(&r.net().requests_served, 7);
        let snap = r.snapshot();
        assert_eq!(snap.stages[0].count, 1);
        assert_eq!(snap.cloak_failures, [1, 0, 0]);
        assert_eq!(snap.net.requests_served, 7);
        let text = snap.to_text();
        assert!(text.contains("lbsp_stage_micros_count{stage=\"cloak\"} 1"));
        assert!(text.contains("lbsp_cloak_failures{kind=\"unknown_user\"} 1"));
        assert!(text.contains("lbsp_net_requests_served 7"));
        assert!(text.contains("lbsp_cloak_area_count 1"));
    }

    #[test]
    fn durations_record_as_microseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::ZERO);
        assert_eq!(h.count(), 1, "a zero duration is still a sample");
        assert_eq!(h.summary().max, 0.0);
        h.record_duration(Duration::from_micros(500));
        assert!((h.summary().mean - 250.0).abs() < 1.0);
    }

    #[test]
    fn reset_empties_every_cell() {
        let h = Histogram::new();
        h.record(3.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn bucket_index_covers_the_axis() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), 0, "subnormal");
        assert_eq!(bucket_index(1.0), 32);
        assert_eq!(bucket_index(1.5), 32);
        assert_eq!(bucket_index(2.0), 33);
        assert_eq!(bucket_index(0.5), 31);
        assert_eq!(bucket_index(1e300), HIST_BUCKETS - 1);
        // Adjacent buckets never overlap: lo(i+1) == 2 * lo(i).
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_lo(i + 1), bucket_lo(i) * 2.0);
        }
    }
}
