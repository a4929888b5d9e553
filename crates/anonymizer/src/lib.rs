//! The Location Anonymizer — the trusted third party of the paper.
//!
//! This crate implements Sections 4 and 5 of *"Towards Privacy-Aware
//! Location-Based Database Servers"*:
//!
//! * **Privacy profiles** ([`profile`]): per-user `(k, A_min, A_max)`
//!   requirements with temporal constraints (Fig. 2), including the
//!   paper's exact example profile.
//! * **Cloaking algorithms** ([`CloakingAlgorithm`] implementations):
//!   - [`NaiveCloak`] — data-dependent center expansion (Fig. 3a);
//!   - [`MbrCloak`] — data-dependent k-NN minimum bounding rectangle
//!     (Fig. 3b);
//!   - [`QuadCloak`] — space-dependent bottom-up quadtree search
//!     (Fig. 4a);
//!   - [`GridCloak`] — space-dependent fixed grid with neighbor merging
//!     and the multi-level refinement optimization (Fig. 4b).
//! * **Efficiency machinery** (Sec. 5.3): [`IncrementalCloaker`] caches
//!   and revalidates cloaks across location updates; [`SharedExecutor`]
//!   batches users that can share one cloak computation, optionally in
//!   parallel.
//! * **Attack models** ([`attack`]): concrete reverse-engineering
//!   adversaries (center-of-region, boundary, occupancy, multi-snapshot
//!   intersection) that quantify the information-leakage claims of
//!   Sec. 5.1–5.2 and beyond.
//! * **Baselines from the paper's related work**: [`HilbertCloak`]
//!   (HilbASR-style reciprocal bucketing) and [`TemporalCloak`]
//!   (Gruteser–Grunwald delay-for-area trading).
//! * **The anonymizer service** ([`LocationAnonymizer`]): registration,
//!   pseudonymization, batched shared execution, and the update/query
//!   cloaking entry points that sit between mobile users and the
//!   database server (Fig. 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anonymizer;
pub mod attack;
mod cloak;
mod error;
mod grid_cloak;
mod hilbert_cloak;
mod incremental;
mod mbr;
mod naive;
pub mod profile;
mod quad;
mod shared;
mod temporal;

pub use anonymizer::{CloakedQuery, CloakedUpdate, LocationAnonymizer, Pseudonym};
pub use cloak::{CloakRequirement, CloakedRegion, CloakingAlgorithm};
pub use error::CloakError;
pub use grid_cloak::{cloak_with_counts, GridCloak};
pub use hilbert_cloak::HilbertCloak;
pub use incremental::{CacheStats, IncrementalCloaker};
pub use mbr::MbrCloak;
pub use naive::NaiveCloak;
pub use profile::{PrivacyProfile, ProfileEntry};
pub use quad::QuadCloak;
pub use shared::{CloakRequest, SharedExecutor};
pub use temporal::{DelayedRelease, TemporalCloak};

/// Identifier for a mobile user (mirrors `lbsp_mobility::UserId`).
pub type UserId = u64;
