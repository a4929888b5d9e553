//! # lbsp-cluster — a multi-node anonymizer cluster
//!
//! One anonymizer node bounds the system's throughput; the paper's
//! architecture invites horizontal scale-out at the trusted tier. This
//! crate provides it: `K` independent [`lbsp_net::NetServer`] nodes
//! each own a fixed share of the users — every user has one owner for
//! life, [`owner_of`] its id — and a thin [`Router`] front door speaks
//! the ordinary client wire protocol, forwarding each request to the
//! owning node over framed TCP.
//!
//! The headline guarantee is **byte-identity**: a K-node cluster
//! answers every request — cloaked updates, query candidates, standing
//! deltas, error texts — with exactly the bytes one sequential engine
//! would produce, wherever its users move and for standing queries
//! whose subscribers and subjects sit on different nodes. A user's owner
//! never changes, so no user's state ever moves between nodes; every
//! node holds the full position and cloak planes, so every cloak still
//! counts the whole population. See the [`router`] module docs for the
//! replication scheme and the failure doctrine for dead nodes.
//!
//! Std-only like the rest of the workspace; no async runtime, no new
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The router terminates client connections — a hostile-input surface —
// so the same pedantic lints as lbsp-net are promoted to hard errors.
#![deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]
#![cfg_attr(
    test,
    allow(clippy::cast_possible_truncation, clippy::indexing_slicing)
)]

mod outbox;
pub mod router;

pub use router::{owner_of, Router, RouterConfig, RouterReport};
