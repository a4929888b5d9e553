//! Laptop-scale stress test, ignored by default.
//!
//! Run with: `cargo test --release --test scale -- --ignored`

use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile};
use privacy_lbs::geom::{Rect, SimTime};
use privacy_lbs::mobility::SpatialDistribution;
use privacy_lbs::system::{EngineConfig, SimulationConfig, SimulationEngine};

/// 100,000 users through three full ticks of the pipeline: every update
/// cloaks, every cloak is k-anonymous, every sampled NN query has a
/// candidate for the device to refine. This is the headline scalability claim exercised
/// end to end rather than per-kernel.
#[test]
#[ignore = "takes ~a minute; run explicitly with --ignored"]
fn hundred_thousand_users_end_to_end() {
    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
    let cfg = SimulationConfig {
        users: 100_000,
        pois: 5_000,
        distribution: SpatialDistribution::three_cities(&world),
        speed: (0.001, 0.005),
        tick_seconds: 60.0,
        query_fraction: 0.01,
        query_radius: 0.03,
        seed: 1234,
    };
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(50)).unwrap();
    let grid = EngineConfig {
        grid_side: 64,
        refine: true,
        ..EngineConfig::new(world)
    };
    let mut engine = SimulationEngine::new(grid, cfg, profile);
    let reports = engine.run(3);
    let updates: usize = reports.iter().map(|r| r.updates).sum();
    let unsat: usize = reports.iter().map(|r| r.unsatisfied).sum();
    assert_eq!(updates, 300_000);
    assert_eq!(unsat, 0, "k=50 over 100k users always satisfiable");
    let e = engine.engine();
    assert!(e.metrics_registry().achieved_k().summary().min >= 50.0);
    assert_eq!(e.private_len(), 100_000);
    // Sampled end-to-end correctness after the run.
    for id in (0..100_000u64).step_by(9973) {
        let out = e.nn_query(id, SimTime::from_secs(180.0)).unwrap();
        assert!(!out.candidates.is_empty());
    }
}
