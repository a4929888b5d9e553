//! The privacy-aware location-based database server (Sec. 6).
//!
//! The server stores two kinds of data:
//!
//! * **Public data** ([`PublicStore`]) — gas stations, restaurants,
//!   police cars; exact locations, indexed in a packed point grid.
//! * **Private data** ([`PrivateStore`]) — mobile users represented
//!   *only* by the cloaked rectangles received from the location
//!   anonymizer, keyed by pseudonym and indexed in a size-class grid
//!   where moving a cloak is O(1). The server never sees an exact
//!   private location; this module enforces that by construction (there
//!   is no API to store one).
//!
//! On top of the stores sit the two novel query classes of Sec. 6.2:
//!
//! * **Private queries over public data** — the querying user is cloaked:
//!   - [`private_range_candidates`] (Fig. 5a): all public objects that
//!     can be within distance `r` of *any* point of the cloaked region;
//!   - [`private_nn_candidates`] (Fig. 5b): the exact minimal candidate
//!     set containing the nearest neighbor of every possible user
//!     position (min/max-dist pruning + per-edge lower-envelope
//!     refinement).
//!     Both come with the client-side refinement step
//!     ([`refine_range`] / [`refine_nn`]) the mobile user runs locally on
//!     the candidate list.
//! * **Public queries over private data** — the data are cloaked:
//!   - [`PublicCountQuery`] (Fig. 6a): probabilistic range counting with
//!     the paper's three answer formats (expected value, interval,
//!     probability density function via an exact Poisson–binomial DP);
//!   - [`PublicNnQuery`] (Fig. 6b): probabilistic nearest neighbor over
//!     cloaked rectangles (min/max-dist pruning + Monte-Carlo win
//!     probabilities under the paper's uniform-position assumption).
//!
//! [`ContinuousRangeCount`] adds the incremental continuous-query
//! machinery (Sec. 5.3) for standing public count queries over the
//! moving private population.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod continuous;
mod object;
mod pdf;
mod private_nn;
mod private_private;
mod private_range;
mod public_count;
mod public_nn;
mod server;
mod store;

pub use continuous::{ContinuousCountState, ContinuousRangeCount, StandingCountQueryState};
pub use object::{PrivateRecord, PublicObject};
pub use pdf::PoissonBinomial;
pub use private_nn::{private_knn_candidates, private_nn_candidates, refine_knn, refine_nn};
pub use private_private::{
    private_private_range_count, PrivateNnProbability, PrivatePrivateCountAnswer,
    PrivatePrivateNnAnswer, PrivatePrivateNnQuery,
};
pub use private_range::{private_range_candidates, refine_range};
pub use public_count::{CountAnswer, PublicCountQuery};
pub use public_nn::{NnProbability, PublicNnAnswer, PublicNnQuery};
pub use server::Server;
pub use store::{PrivateStore, PublicStore};

/// Identifier for a public object.
pub type ObjectId = u64;
/// Pseudonymized identifier for a private (cloaked) record.
pub type PseudonymId = u64;
