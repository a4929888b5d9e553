//! # privacy-lbs
//!
//! Umbrella crate for the reproduction of *"Towards Privacy-Aware
//! Location-Based Database Servers"* (Mokbel, ICDE 2006).
//!
//! Re-exports the workspace crates under stable module names so examples,
//! integration tests, and downstream users need a single dependency:
//!
//! * [`geom`] — points, rectangles, distances, simulation time.
//! * [`index`] — sub-cell counts, uniform grid and packed point-grid spatial indexes.
//! * [`mobility`] — synthetic user populations and movement models.
//! * [`anonymizer`] — privacy profiles, cloaking algorithms, attacks.
//! * [`server`] — the privacy-aware query processor.
//! * [`system`] — the end-to-end architecture of the paper's Fig. 1.
//! * [`net`] — the framed TCP transport deploying the system as a
//!   real network service (`repro --serve` / `--connect`).
//! * [`store`] — the durable write-ahead log and crash recovery
//!   (`repro --serve ... --wal-dir DIR`).
//!
//! # Example: the whole pipeline
//!
//! ```
//! use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile, QuadCloak};
//! use privacy_lbs::geom::{Point, Rect, SimTime};
//! use privacy_lbs::server::PublicObject;
//! use privacy_lbs::system::{MobileUser, PrivacyAwareSystem};
//!
//! // A unit-square world with three gas stations.
//! let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
//! let stations = vec![
//!     PublicObject::new(0, Point::new(0.2, 0.2), 0),
//!     PublicObject::new(1, Point::new(0.5, 0.6), 0),
//!     PublicObject::new(2, Point::new(0.9, 0.1), 0),
//! ];
//! let mut system = PrivacyAwareSystem::new(QuadCloak::new(world, 5), 42, stations);
//!
//! // A small crowd makes k-anonymity possible.
//! let profile = PrivacyProfile::uniform(CloakRequirement::k_only(4)).unwrap();
//! for id in 0..10u64 {
//!     system.register_user(MobileUser::active(id, profile.clone()));
//!     let pos = Point::new(0.4 + 0.01 * id as f64, 0.5);
//!     system.process_update(id, pos, SimTime::ZERO).unwrap();
//! }
//!
//! // "Find my nearest gas station" — the server sees only a rectangle.
//! let outcome = system.private_nn_query(3, SimTime::ZERO).unwrap();
//! assert!(outcome.cloak.area() > 0.0, "k=4 means a real region, not a point");
//! assert_eq!(outcome.exact.unwrap().id, 1, "nearest station after local refinement");
//! ```

#![forbid(unsafe_code)]

pub use lbsp_anonymizer as anonymizer;
pub use lbsp_cluster as cluster;
pub use lbsp_core as system;
pub use lbsp_geom as geom;
pub use lbsp_index as index;
pub use lbsp_mobility as mobility;
pub use lbsp_net as net;
pub use lbsp_server as server;
pub use lbsp_store as store;

/// Crate version, for examples that print provenance.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
