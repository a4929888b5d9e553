//! End-to-end privacy verification: run the anonymizer over a moving
//! population, then attack the cloaks it sent the server, using every
//! adversary in the toolbox. The tests are generic over the cloaking
//! algorithm, so they drive `LocationAnonymizer<A>` directly.

use privacy_lbs::anonymizer::attack::{
    BoundaryAttack, CenterAttack, IntersectionAttack, OccupancyAttack,
};
use privacy_lbs::anonymizer::{
    CloakRequirement, CloakedRegion, GridCloak, LocationAnonymizer, PrivacyProfile, QuadCloak,
};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::mobility::{Population, SpatialDistribution};

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

/// Runs an anonymizer over a moving population, returning the cloaks
/// the server received plus the ground-truth positions.
fn run_system<A: privacy_lbs::anonymizer::CloakingAlgorithm>(
    algo: A,
    k: u32,
) -> (Vec<CloakedRegion>, Vec<Point>) {
    let mut sys = LocationAnonymizer::new(algo, 0xBEEF);
    let mut pop = Population::generate(
        world(),
        1_000,
        &SpatialDistribution::three_cities(&world()),
        0.005,
        0.02,
        3,
    );
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(k)).unwrap();
    for u in pop.users() {
        sys.register(u.id, profile.clone());
        sys.handle_update(u.id, u.position(), SimTime::ZERO)
            .unwrap();
    }
    // One movement tick so the measured cloaks come from a warm index.
    let mut cloaks = Vec::new();
    let mut truths = Vec::new();
    for (id, pos) in pop.step_all(10.0) {
        let u = sys
            .handle_update(id, pos, SimTime::from_secs(10.0))
            .unwrap();
        cloaks.push(u.region);
        truths.push(pos);
    }
    (cloaks, truths)
}

/// The server-side view is not reverse-engineerable for space-dependent
/// cloaks, under all three single-snapshot adversaries.
#[test]
fn system_resists_single_snapshot_attacks() {
    let (cloaks, truths) = run_system(QuadCloak::new(world(), 7), 15);
    let center = CenterAttack::default().attack_all(cloaks.iter().zip(truths.iter().copied()));
    assert_eq!(center.successes, 0, "no center pinpoints");
    let boundary = BoundaryAttack::default().attack_all(cloaks.iter().zip(truths.iter().copied()));
    assert!(
        boundary.success_rate() < 0.01,
        "boundary rate {}",
        boundary.success_rate()
    );
    // Even the background-knowledge adversary is bounded by 1/k.
    let occupancy = OccupancyAttack.attack_all(&cloaks, &truths);
    assert!(
        occupancy <= 1.0 / 15.0 + 1e-9,
        "occupancy attack {} exceeds 1/k",
        occupancy
    );
}

/// Grid cloaks give the same guarantees.
#[test]
fn grid_system_resists_attacks_too() {
    let (cloaks, truths) = run_system(GridCloak::new(world(), 32).with_refinement(true), 15);
    let center = CenterAttack::default().attack_all(cloaks.iter().zip(truths.iter().copied()));
    assert_eq!(center.successes, 0);
    let occupancy = OccupancyAttack.attack_all(&cloaks, &truths);
    assert!(occupancy <= 1.0 / 15.0 + 1e-9);
}

/// Across snapshots: a user's cloak trace through the anonymizer never
/// lets the intersection adversary isolate them below k users.
#[test]
fn trace_intersection_keeps_k_anonymity_for_slow_users() {
    let mut sys = LocationAnonymizer::new(QuadCloak::new(world(), 6), 5);
    let profile = PrivacyProfile::uniform(CloakRequirement::k_only(10)).unwrap();
    // A dense static crowd plus one slowly-drifting subject.
    for i in 1..300u64 {
        sys.register(i, profile.clone());
        let x = 0.3 + 0.001 * (i % 100) as f64;
        let y = 0.3 + 0.001 * (i / 100) as f64;
        sys.handle_update(i, Point::new(x, y), SimTime::ZERO)
            .unwrap();
    }
    sys.register(0, profile);
    let mut trace = Vec::new();
    let mut pos = Point::new(0.33, 0.33);
    for step in 0..20 {
        pos = Point::new(pos.x + 0.0005, pos.y);
        let u = sys
            .handle_update(0, pos, SimTime::from_secs(step as f64))
            .unwrap();
        trace.push(u.region);
    }
    let report = IntersectionAttack.attack_trace(&trace, pos).unwrap();
    assert!(report.contains_truth);
    // The intersection still contains at least k users of the crowd —
    // the slow mover never left its cell, so all regions coincide.
    assert_eq!(report.area_ratio(), 1.0);
}

/// The pseudonym mapping is consistent (one pseudonym per user across
/// updates) yet uninvertible without the secret: two anonymizers with
/// different secrets assign unrelated pseudonyms.
#[test]
fn pseudonyms_are_stable_per_user_and_secret_dependent() {
    let mk = |secret: u64| {
        let mut sys = LocationAnonymizer::new(QuadCloak::new(world(), 5), secret);
        sys.register(1, PrivacyProfile::default());
        let a = sys
            .handle_update(1, Point::new(0.5, 0.5), SimTime::ZERO)
            .unwrap()
            .pseudonym;
        let b = sys
            .handle_update(1, Point::new(0.6, 0.6), SimTime::from_secs(1.0))
            .unwrap()
            .pseudonym;
        (a, b)
    };
    let (a1, a2) = mk(111);
    assert_eq!(a1, a2, "stable across updates");
    let (b1, _) = mk(222);
    assert_ne!(a1, b1, "secret-dependent");
}

/// k = 1 users opt out of privacy: the server legitimately sees their
/// point — the paper's "willing to share" case — and attacks trivially
/// succeed, which is correct behavior, not a leak.
#[test]
fn k1_users_are_knowingly_exact() {
    let (cloaks, truths) = run_system(QuadCloak::new(world(), 6), 1);
    let center = CenterAttack::default().attack_all(cloaks.iter().zip(truths.iter().copied()));
    assert_eq!(center.successes, center.trials);
    assert!(cloaks.iter().all(|c| c.area() == 0.0));
}
