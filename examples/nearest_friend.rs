//! Private queries over private data — the fourth cell of the paper's
//! query matrix (Sec. 6.1): "find my nearest fellow user", where BOTH
//! the querier and every candidate are cloaked.
//!
//! Walks through a friend-finder scenario: Alice asks who is nearest and
//! how many users are within walking distance; the server computes
//! probabilistic answers over rectangles only, and nobody — including
//! Alice — learns anyone's exact location or identity.
//!
//! The engine answers the other three cells; this one runs on the
//! sequential parts it is held equal to: a `LocationAnonymizer` over the
//! grid cloak in front of a `Server`.
//!
//! Run with: `cargo run --release --example nearest_friend`

use privacy_lbs::anonymizer::{CloakRequirement, GridCloak, LocationAnonymizer, PrivacyProfile};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::mobility::SpatialDistribution;
use privacy_lbs::server::Server;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
    let grid = GridCloak::new(world, 32).with_refinement(true);
    let mut anonymizer = LocationAnonymizer::new(grid, 0xF12E);
    let mut server = Server::new(Vec::new());

    // 2,000 users, everyone demanding k = 15. Each update reaches the
    // server as a pseudonym and a rectangle.
    let dist = SpatialDistribution::three_cities(&world);
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(15)).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let mut positions = Vec::new();
    let alice = Point::new(0.27, 0.24); // downtown A
    for id in 0..=2000u64 {
        anonymizer.register(id, profile.clone());
        let pos = if id == 0 {
            alice
        } else {
            dist.sample(&mut rng, &world)
        };
        positions.push(pos);
        let update = anonymizer.handle_update(id, pos, SimTime::ZERO).unwrap();
        server.ingest(update.pseudonym.0, update.region.region);
    }

    println!("Alice (cloaked among >= 15 users) asks: who is nearest to me?\n");
    let query = anonymizer.cloak_query(0, SimTime::ZERO).unwrap();
    let (cloak, me) = (query.region.region, query.pseudonym.0);
    let nn = server.private_friend_nn(&cloak, me);
    println!(
        "{} candidate users could be her nearest (out of 2,000):",
        nn.candidates.len()
    );
    for c in nn.candidates.iter().take(5) {
        println!(
            "  pseudonym {:>20} : P = {:.3}, dist in [{:.3}, {:.3}]",
            c.pseudonym, c.probability, c.min_dist, c.max_dist
        );
    }
    if nn.candidates.len() > 5 {
        println!(
            "  ... and {} more with smaller probabilities",
            nn.candidates.len() - 5
        );
    }

    println!("\nAlice asks: how many users are within 0.1 of me?\n");
    let cnt = server.private_friend_count(&cloak, me, 0.1);
    println!(
        "expected {:.1}, certainly {}, possibly up to {}",
        cnt.expected, cnt.certain, cnt.possible
    );

    // Ground truth for the reader (never visible to the server).
    let truth = positions[1..]
        .iter()
        .filter(|p| p.dist(alice) <= 0.1)
        .count();
    println!(
        "(ground truth, known only to this simulation: {truth} users — inside \
         [{}, {}]: {})",
        cnt.certain,
        cnt.possible,
        cnt.certain <= truth && truth <= cnt.possible
    );
}
