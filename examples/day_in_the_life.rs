//! A day in the life of a privacy profile (Fig. 2 of the paper).
//!
//! Simulates 24 hours with the paper's exact example profile:
//!
//! | Time              | k    | Min. Area | Max. Area |
//! |-------------------|------|-----------|-----------|
//! | 8:00 AM – 5:00 PM | 1    | —         | —         |
//! | 5:00 PM – 10:00 PM| 100  | 1 mile    | 3 miles   |
//! | 10:00 PM – 8:00 AM| 1000 | 5 miles   | —         |
//!
//! and prints how the cloaked area and the quality of service (candidate
//! set size for a "nearest restaurant" query) change over the day —
//! the privacy/QoS trade-off that motivates the whole design.
//!
//! Run with: `cargo run --release --example day_in_the_life`

use privacy_lbs::anonymizer::PrivacyProfile;
use privacy_lbs::geom::Rect;
use privacy_lbs::mobility::SpatialDistribution;
use privacy_lbs::system::{EngineConfig, SimulationConfig, SimulationEngine};

fn main() {
    // A 36-square-mile city (6 x 6), so the profile's area bounds in
    // square miles are meaningful.
    let world = Rect::new_unchecked(0.0, 0.0, 6.0, 6.0);
    let config = SimulationConfig {
        users: 2000,
        pois: 200,
        distribution: SpatialDistribution::three_cities(&world),
        speed: (0.002, 0.01),
        tick_seconds: 3600.0, // one-hour ticks
        query_fraction: 0.05,
        query_radius: 0.5,
        seed: 2026,
    };
    // The engine's cloaking grid: 64 x 64 cells, refined within a cell.
    let grid = EngineConfig {
        grid_side: 64,
        refine: true,
        ..EngineConfig::new(world)
    };
    let mut engine = SimulationEngine::new(grid, config, PrivacyProfile::paper_example());

    println!("hour | entry            | mean cloak area | mean candidates | QoS");
    println!("-----+------------------+-----------------+-----------------+--------");
    let m = std::sync::Arc::clone(engine.engine().metrics_registry());
    for _hour in 1..=24u32 {
        m.cloak_area().reset();
        m.candidate_set_size().reset();
        engine.tick();
        let area = m.cloak_area().summary().mean;
        let cands = m.candidate_set_size().summary().mean;
        let tod = engine.now().time_of_day();
        let entry = match tod.hour() {
            8..=16 => "k=1 (exact)",
            17..=21 => "k=100, 1-3 mi^2",
            _ => "k=1000, >=5 mi^2",
        };
        let qos = if cands <= 1.5 {
            "exact"
        } else if cands <= 20.0 {
            "good"
        } else {
            "coarse"
        };
        println!(
            "{:>4} | {:<16} | {:>12.4} mi2 | {:>15.1} | {}",
            tod.hour(),
            entry,
            area,
            cands,
            qos
        );
    }

    println!();
    println!(
        "The trade-off in action: exact service by day, k=100 cloaks in the \
         evening, and near-unusable (but near-untrackable) k=1000 cloaks at night."
    );
}
