//! From-scratch spatial indexes for the privacy-aware LBS reproduction.
//!
//! The paper classifies cloaking algorithms the same way multidimensional
//! indexes are classified (Sec. 5): *data-partitioning* (R-tree-like) vs
//! *space-partitioning* (grid/quadtree-like). Every index here is of the
//! second family, and each serves one role:
//!
//! * [`SubCellCounts`] — counts: per-sub-cell user counts over a grid's
//!   [`Lattice`] (16 × 16 sub-cells a cell), counts only: its caller
//!   keeps the positions. The only view the space-dependent cloaks read,
//!   through the [`CellCounts`] trait: the fixed grid of Fig. 4b merges
//!   and refines its blocks, and the quadtree of Fig. 4a climbs its
//!   aligned blocks.
//! * [`UniformGrid`] — points that move: a fixed uniform grid over the
//!   world rectangle, bucketing exact points per cell, so an insert or a
//!   move costs O(1); the substrate of the data-dependent baseline cloaks
//!   (rectangle counts and k-NN search over users).
//! * [`PointGrid`] — points that rarely move: a static uniform grid over
//!   points, packed row-major into one array (a run of entries per cell),
//!   with rectangle search, ring-search k-nearest neighbours and in-place
//!   moves; the index under the database server's public data (gas
//!   stations, restaurants, police cars).
//!
//! All indexes are deterministic and single-threaded; concurrency is
//! layered above them (see `lbsp-anonymizer::shared`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counts;
mod grid;
mod point_grid;

pub use counts::{CellCoord, CellCounts, Lattice, SubCellCounts, SubSpan, SUB_SIDE};
pub use grid::UniformGrid;
pub use point_grid::PointGrid;

/// Identifier for an indexed object (user id or object id).
pub type ObjectId = u64;
