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
//! * [`system`] — the end-to-end architecture of the paper's Fig. 1: the
//!   engine, its wire codecs, journal and simulation driver.
//! * [`net`] — the framed TCP transport deploying the system as a
//!   real network service (`repro --serve` / `--connect`).
//! * [`store`] — the durable write-ahead log and crash recovery
//!   (`repro --serve ... --wal-dir DIR`).
//!
//! # Example: the whole pipeline
//!
//! ```
//! use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile};
//! use privacy_lbs::geom::{Point, Rect, SimTime};
//! use privacy_lbs::server::{refine_nn, PublicObject};
//! use privacy_lbs::system::{EngineConfig, ShardedEngine};
//!
//! // A unit-square world with three gas stations.
//! let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
//! let mut engine = ShardedEngine::new(EngineConfig::new(world), 1);
//! engine.load_public(vec![
//!     PublicObject::new(0, Point::new(0.2, 0.2), 0),
//!     PublicObject::new(1, Point::new(0.5, 0.6), 0),
//!     PublicObject::new(2, Point::new(0.9, 0.1), 0),
//! ]);
//!
//! // A small crowd makes k-anonymity possible.
//! let profile = PrivacyProfile::uniform(CloakRequirement::k_only(4)).unwrap();
//! let crowd: Vec<_> = (0..10u64)
//!     .map(|id| (id, Point::new(0.4 + 0.01 * id as f64, 0.5), SimTime::ZERO))
//!     .collect();
//! for &(id, _, _) in &crowd {
//!     engine.register(id, profile.clone());
//! }
//! engine.process_updates(&crowd);
//!
//! // "Find my nearest gas station" — the server sees only a rectangle,
//! // and the device refines the candidates at its true position.
//! let answer = engine.nn_query(3, SimTime::ZERO).unwrap();
//! assert!(answer.region.area() > 0.0, "k=4 means a real region, not a point");
//! let nearest = refine_nn(&answer.candidates, crowd[3].1).unwrap();
//! assert_eq!(nearest.id, 1, "nearest station after local refinement");
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
