//! Moving public objects: the paper's "police cars and on-site workers"
//! (Sec. 6.1) are public data that *move*. A dispatcher tracks patrol
//! cars with exact positions (they don't want privacy), citizens remain
//! cloaked, and both query classes run against the same server:
//!
//! * a cloaked citizen asks for her nearest patrol car (private query
//!   over moving public data),
//! * dispatch asks how many citizens are near an incident (public query
//!   over private data) to size the response.
//!
//! Run with: `cargo run --release --example police_dispatch`

use privacy_lbs::anonymizer::{CloakRequirement, LocationAnonymizer, PrivacyProfile, QuadCloak};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::mobility::{Population, SpatialDistribution};
use privacy_lbs::server::{PublicObject, Server};

fn main() {
    let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);

    // The server starts with 8 patrol cars on a grid.
    let cars: Vec<PublicObject> = (0..8)
        .map(|i| {
            PublicObject::new(
                i,
                Point::new(0.125 + 0.25 * (i % 4) as f64, 0.25 + 0.5 * (i / 4) as f64),
                0,
            )
        })
        .collect();
    let mut server = Server::new(cars);

    // The anonymizer fronts 3,000 citizens at k = 20.
    let mut anonymizer = LocationAnonymizer::new(QuadCloak::new(world, 7), 0xD15);
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(20)).unwrap();
    let mut population = Population::generate(
        world,
        3_000,
        &SpatialDistribution::three_cities(&world),
        0.005,
        0.02,
        77,
    );
    for u in population.users() {
        anonymizer.register(u.id, profile.clone());
    }
    for u in population.users() {
        let update = anonymizer
            .handle_update(u.id, u.position(), SimTime::ZERO)
            .unwrap();
        server.ingest(update.pseudonym.0, update.region.region);
    }

    // Three patrol shifts: cars move, citizens move, queries run.
    for shift in 1..=3u64 {
        let now = SimTime::from_secs(shift as f64 * 600.0);
        // Patrol cars circle their sectors (exact positions, no privacy).
        for i in 0..8u64 {
            let angle = shift as f64 * 0.9 + i as f64;
            let base = Point::new(0.125 + 0.25 * (i % 4) as f64, 0.25 + 0.5 * (i / 4) as f64);
            let pos = world.clamp_point(Point::new(
                base.x + 0.05 * angle.cos(),
                base.y + 0.05 * angle.sin(),
            ));
            server.public_mut().update_position(i, pos);
        }
        // Citizens move and re-cloak (batched shared execution).
        let moves: Vec<(u64, Point, SimTime)> = population
            .step_all(600.0)
            .into_iter()
            .map(|(id, p)| (id, p, now))
            .collect();
        for result in anonymizer.handle_updates_batch(&moves) {
            let update = result.expect("registered users");
            server.ingest(update.pseudonym.0, update.region.region);
        }

        println!("--- shift {shift} ---");
        // A citizen's private query: nearest patrol car, cloaked.
        let citizen = 42u64;
        let q = anonymizer.cloak_query(citizen, now).unwrap();
        let candidates = server.private_nn(&q.region.region);
        let true_pos = population.position_of(citizen).unwrap();
        let nearest = candidates
            .iter()
            .min_by(|a, b| true_pos.dist(a.pos).total_cmp(&true_pos.dist(b.pos)))
            .unwrap();
        println!(
            "citizen 42 (cloak area {:.4}): {} candidate car(s), refined to car #{} \
             at {:.3} away",
            q.region.area(),
            candidates.len(),
            nearest.id,
            nearest.pos.dist(true_pos)
        );

        // Dispatch sizes the crowd near an incident downtown.
        let incident = Rect::new_unchecked(0.2, 0.2, 0.3, 0.3);
        let crowd = server.public_count(incident);
        println!(
            "incident zone: expected {:.0} citizens (interval [{}, {}])",
            crowd.expected, crowd.certain, crowd.possible
        );
    }

    println!(
        "\nserver holds {} cloaked citizens and {} patrol cars",
        server.private().len(),
        server.public().len()
    );
}
