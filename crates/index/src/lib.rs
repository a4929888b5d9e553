//! From-scratch spatial indexes for the privacy-aware LBS reproduction.
//!
//! The paper classifies cloaking algorithms the same way multidimensional
//! indexes are classified (Sec. 5): *data-partitioning* (R-tree-like) vs
//! *space-partitioning* (grid/quadtree-like). Every index here is of the
//! second family; the data-dependent cloaks partition users themselves
//! (nearest neighbours, Hilbert order) on top of a grid:
//!
//! * [`UniformGrid`] — fixed uniform grid over the world rectangle,
//!   bucketing exact points per cell; the substrate of the data-dependent
//!   baseline cloaks and of k-NN search over users.
//! * [`SubCellCounts`] — per-sub-cell user counts over a grid's
//!   [`Lattice`] (16 × 16 sub-cells a cell), counts only: its caller
//!   keeps the positions. The only view the fixed-grid cloak (Fig. 4b)
//!   reads, through the [`CellCounts`] trait.
//! * [`PyramidGrid`] — a multi-level grid (complete pyramid) maintaining
//!   per-cell occupancy counts at every level; the substrate of the
//!   quadtree cloak (Fig. 4a) and of the "fixed multi-level grids"
//!   optimization the paper suggests for Fig. 4b.
//! * [`PointQuadTree`] — an adaptive PR quadtree over exact points, used
//!   where data-adaptive space partitioning is wanted.
//! * [`PointGrid`] — a static uniform grid over points, packed row-major
//!   into one array (a run of entries per cell), with rectangle search,
//!   ring-search k-nearest neighbours and in-place moves; the index
//!   under the database server's public data (gas stations,
//!   restaurants, police cars).
//!
//! All indexes are deterministic and single-threaded; concurrency is
//! layered above them (see `lbsp-anonymizer::shared`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counts;
mod grid;
mod point_grid;
mod pyramid;
mod quadtree;

pub use counts::{CellCounts, Lattice, SubCellCounts, SubSpan, SUB_SIDE};
pub use grid::{CellCoord, UniformGrid};
pub use point_grid::PointGrid;
pub use pyramid::{PyramidCell, PyramidGrid};
pub use quadtree::PointQuadTree;

/// Identifier for an indexed object (user id or object id).
pub type ObjectId = u64;
