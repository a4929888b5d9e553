//! Quickstart: the paper's pipeline in ~60 lines.
//!
//! A user with a k-anonymity profile sends her exact location to the
//! location anonymizer, asks for the nearest gas station, and gets an
//! exact answer — while the database server only ever saw a rectangle.
//!
//! Run with: `cargo run --example quickstart`

use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::mobility::{PoiCategory, PoiSet, SpatialDistribution};
use privacy_lbs::server::{refine_nn, PublicObject};
use privacy_lbs::system::{EngineConfig, ShardedEngine};

fn main() {
    // A 10 x 10 mile city.
    let world = Rect::new_unchecked(0.0, 0.0, 10.0, 10.0);

    // Public data: 40 gas stations.
    let stations = PoiSet::generate_category(
        world,
        40,
        PoiCategory::GasStation,
        &SpatialDistribution::Uniform,
        7,
    );
    let public: Vec<PublicObject> = stations
        .pois()
        .iter()
        .map(|p| PublicObject::new(p.id, p.pos, p.category as u32))
        .collect();

    // The engine: a grid (space-dependent) location anonymizer in front
    // of the privacy-aware database server.
    let mut engine = ShardedEngine::new(EngineConfig::new(world), 1);
    engine.load_public(public);

    // 500 other mobile users populate the city (they make k-anonymity
    // possible).
    let crowd = SpatialDistribution::three_cities(&world);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let background_profile = PrivacyProfile::uniform(CloakRequirement::k_only(10)).unwrap();
    let mut rows = Vec::new();
    for id in 1..=500u64 {
        engine.register(id, background_profile.clone());
        rows.push((id, crowd.sample(&mut rng, &world), SimTime::ZERO));
    }
    engine.process_updates(&rows);

    // Alice (id 0) wants to be indistinguishable among 20 users.
    let alice_profile = PrivacyProfile::uniform(CloakRequirement::k_only(20)).unwrap();
    engine.register(0, alice_profile);
    let alice_pos = Point::new(2.5, 2.6);
    let update = engine
        .process_updates(&[(0, alice_pos, SimTime::ZERO)])
        .remove(0)
        .expect("registered user");

    println!("Alice's exact location      : {alice_pos}");
    println!("What the server saw         : {}", update.region.region);
    println!(
        "  area {:.3} sq miles, {} users inside (k >= 20: {})",
        update.region.area(),
        update.region.achieved_k,
        update.region.k_satisfied
    );

    // "Find my nearest gas station" — a private query over public data.
    let answer = engine.nn_query(0, SimTime::ZERO).unwrap();
    println!(
        "Server returned {} candidate stations (instead of 1 exact or all 40)",
        answer.candidates.len()
    );
    // Her device, which knows where she is, picks the nearest candidate.
    let nearest = refine_nn(&answer.candidates, alice_pos).expect("stations exist");
    println!(
        "Alice refines locally       : station #{} at {} ({:.3} miles away)",
        nearest.id,
        nearest.pos,
        nearest.pos.dist(alice_pos)
    );
}
