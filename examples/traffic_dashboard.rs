//! A city traffic dashboard over private data (Fig. 6 of the paper).
//!
//! An untrusted administrator — who never talks to the anonymizer —
//! watches the number of mobile users in each downtown district via
//! public count queries over the cloaked population, and a gas station
//! sends an e-coupon to its probable nearest user (the paper's Fig. 6b
//! scenario). Demonstrates the three probabilistic answer formats.
//!
//! Run with: `cargo run --release --example traffic_dashboard`

use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::mobility::SpatialDistribution;
use privacy_lbs::system::{EngineConfig, ShardedEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
    let mut engine = ShardedEngine::new(
        EngineConfig {
            grid_side: 32,
            refine: true,
            secret: 0xC0FFEE,
            ..EngineConfig::new(world)
        },
        1,
    );

    // 5,000 users clustered around three districts, all demanding
    // k = 25 anonymity.
    let dist = SpatialDistribution::three_cities(&world);
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(25)).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let mut rows = Vec::new();
    for id in 0..5000u64 {
        engine.register(id, profile.clone());
        rows.push((id, dist.sample(&mut rng, &world), SimTime::ZERO));
    }
    engine.process_updates(&rows);

    // District monitors: public count queries (Fig. 6a).
    let districts = [
        ("Downtown A", Rect::new_unchecked(0.15, 0.15, 0.35, 0.35)),
        ("Downtown B", Rect::new_unchecked(0.60, 0.50, 0.80, 0.70)),
        ("Riverside", Rect::new_unchecked(0.30, 0.75, 0.50, 0.95)),
        ("Outskirts", Rect::new_unchecked(0.85, 0.05, 0.99, 0.19)),
    ];
    println!("district    | expected | interval     | P(count in 95% band)");
    println!("------------+----------+--------------+---------------------");
    for (name, area) in districts {
        let ans = engine.public_count(area);
        let (lo, hi) = ans.pdf.credible_interval(0.95);
        let band: f64 = (lo..=hi).map(|kk| ans.pdf.pmf(kk)).sum();
        println!(
            "{:<11} | {:>8.1} | [{:>4}, {:>4}] | count in [{lo}, {hi}] w.p. {:.2}",
            name, ans.expected, ans.certain, ans.possible, band
        );
    }

    // The admin cannot do better than these intervals: the server holds
    // no exact locations. Show the naive answer the paper criticizes.
    let a = engine.public_count(districts[0].1);
    println!(
        "\nNaive 'non-zero-size object' answer for {}: {} (expected answer: {:.1})",
        districts[0].0,
        a.naive_count(),
        a.expected
    );

    // Fig. 6b: the gas station's e-coupon.
    let station = Point::new(0.25, 0.25);
    let nn = engine.public_nn(station);
    println!("\nGas station at {station} wants its nearest user:");
    for c in nn.candidates.iter().take(5) {
        println!(
            "  pseudonym {:>20} : P(nearest) = {:.3}  (dist in [{:.3}, {:.3}])",
            c.pseudonym, c.probability, c.min_dist, c.max_dist
        );
    }
    match nn.most_probable() {
        Some(p) => {
            println!("  -> e-coupon goes to pseudonym {p} (identity unknown to the station)")
        }
        None => println!("  -> nobody around"),
    }
}
