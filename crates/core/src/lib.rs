//! The full privacy-aware LBS architecture (Fig. 1 of the paper).
//!
//! Three entities, wired together exactly as the paper draws them:
//!
//! ```text
//!  mobile users ──(exact locations, privacy profiles)──▶ Location Anonymizer
//!                                                            │
//!                                             (cloaked regions, pseudonyms)
//!                                                            ▼
//!  untrusted third parties ──(public queries)──▶ privacy-aware DB server
//!  mobile users ◀──(candidate answers)────────────────────────┘
//! ```
//!
//! * [`ShardedEngine`] — the whole pipeline: anonymizer grid (Fig. 4b),
//!   private map of cloaked records, public store, and every query of
//!   Figs. 5 and 6 plus standing queries. It answers private queries
//!   with a candidate superset; the device refines it at its true
//!   position (`lbsp_server::refine_*`). A passive user simply sends
//!   nothing.
//! * [`wire`] — the compact binary encoding used on the two hops
//!   (user → anonymizer and anonymizer → server), which doubles as an
//!   executable proof of what information crosses each trust boundary.
//! * [`metrics`] — QoS/performance instrumentation used by every
//!   experiment (cloak areas, candidate-set sizes, latencies).
//! * [`locks`] — the ordered lock registry plus order-checked
//!   `TrackedMutex`/`TrackedRwLock` wrappers (debug builds panic on
//!   lock-order inversions and record hold-time histograms).
//! * [`SimulationEngine`] — drives a synthetic population through the
//!   engine over simulated time, applying temporal profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The one codec under `wire` and `journal`: it decodes network and WAL
// bytes alike, so the wire rules apply.
#[deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]
mod codec;
pub mod engine;
// Journal payloads are re-read from disk during recovery — exactly as
// untrusted as network bytes, so the wire rules apply.
#[deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]
pub mod journal;
pub mod locks;
pub mod metrics;
// Observability snapshots cross the trust boundary to remote scrapers,
// and the registry records on hot paths: keep it panic-free.
pub mod obs;
mod sim;
mod standing;
// Hostile-input surface (decoders run on network bytes): truncating
// casts and panicking indexing are hard errors here.
#[deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]
pub mod wire;

pub use engine::{CandidateAnswer, EngineConfig, RangeQueryAnswer, ShardedEngine};
pub use journal::{Durability, DurabilitySink, EngineOp, EngineState, JournalRecord};
pub use locks::{LockRank, TrackedMutex, TrackedRwLock};
pub use obs::{Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot, Stage};
pub use sim::{SimulationConfig, SimulationEngine, TickReport};
pub use standing::{
    StandingPrivateRanges, StandingQueryId, StandingRangeEntryState, StandingRangesState,
};

/// Identifier for a mobile user (mirrors `lbsp_mobility::UserId`).
pub type UserId = u64;
