//! # lbsp-net — the networked deployment of the privacy-aware LBS
//!
//! The paper's architecture has three physical tiers: mobile users, the
//! trusted *location anonymizer*, and the untrusted *privacy-aware
//! query processor*. The rest of this workspace exercises those tiers
//! in-process; this crate puts a real network between them so the
//! system can be deployed (and measured) as a service.
//!
//! Std-only by design — the build is offline, so the transport is
//! `std::net` + OS threads: a length-prefixed frame layer over the
//! `lbsp-core::wire` codecs, one [`FrontDoor`] that serves connections
//! for whatever [`Service`] a tier plugs in, the [`NetServer`] tier
//! bridging frames into the deterministic `ShardedEngine`, and a
//! blocking [`NetClient`] for closed-loop load generation.
//!
//! Determinism is preserved across the wire: a closed-loop client
//! driving the server produces byte-identical responses to the
//! in-process engine, at any poller shard count (the loopback integration
//! test in the workspace root asserts exactly this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hostile-input surface: promote the truncation/indexing pedantic lints
// to hard errors so a panic-by-index can't slip back in. Tests may slice
// freely — they construct their own inputs.
#![deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]
#![cfg_attr(
    test,
    allow(clippy::cast_possible_truncation, clippy::indexing_slicing)
)]

pub mod chaos;
pub mod client;
pub mod frame;
mod poller;
pub mod server;

pub use chaos::ChaosProxy;
pub use client::{classify_reply, is_retryable_route_failure, is_route_failure, NetClient, Reply};
pub use frame::{Frame, FrameReader, Poll, FRAME_OVERHEAD, MAX_FRAME_LEN};
pub use server::{
    drop_query, route_deltas, subscribe, FrontDoor, NetConfig, NetServer, Outbound, Service,
    SharedSubs,
};
