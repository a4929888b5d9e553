//! End-to-end simulation engine.
//!
//! Drives a synthetic population ([`lbsp_mobility`]) through the full
//! pipeline over simulated time: each tick moves every active user,
//! streams the updates through a [`ShardedEngine`] as one batch, and
//! issues a configurable mix of private queries, whose candidates each
//! device refines at its true position. This is the workhorse behind
//! experiments E1 (pipeline), E2 (temporal profiles), and E10
//! (scalability).

use crate::{EngineConfig, ShardedEngine, UserId};
use lbsp_anonymizer::PrivacyProfile;
use lbsp_geom::{Rect, SimTime};
use lbsp_mobility::{Population, SpatialDistribution};
use lbsp_server::{refine_nn, refine_range, PublicObject};
use rand::rngs::SmallRng;
use rand::{RngExt as _, SeedableRng};

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of mobile users.
    pub users: usize,
    /// Number of public objects (POIs).
    pub pois: usize,
    /// Placement of users and POIs.
    pub distribution: SpatialDistribution,
    /// Speed range in world units per second.
    pub speed: (f64, f64),
    /// Seconds of simulated time per tick.
    pub tick_seconds: f64,
    /// Fraction of users issuing a private query each tick.
    pub query_fraction: f64,
    /// Radius for private range queries.
    pub query_radius: f64,
    /// Master seed.
    pub seed: u64,
}

impl SimulationConfig {
    /// A small default configuration for tests and examples.
    pub fn small() -> SimulationConfig {
        SimulationConfig {
            users: 200,
            pois: 50,
            distribution: SpatialDistribution::Uniform,
            speed: (0.005, 0.02),
            tick_seconds: 60.0,
            query_fraction: 0.1,
            query_radius: 0.1,
            seed: 42,
        }
    }
}

/// What happened during one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickReport {
    /// Location updates processed.
    pub updates: usize,
    /// Private range queries issued.
    pub range_queries: usize,
    /// Private NN queries issued.
    pub nn_queries: usize,
    /// Objects in the exact answers the devices refined from the
    /// candidates: every range hit plus one per answered NN query.
    pub exact_answers: usize,
    /// Updates whose cloak failed a requirement (contradictory profile
    /// or insufficient population).
    pub unsatisfied: usize,
    /// Simulation time at the end of the tick.
    pub now: SimTime,
}

/// The simulation engine: population + engine + clock.
pub struct SimulationEngine {
    population: Population,
    engine: ShardedEngine,
    clock: SimTime,
    config: SimulationConfig,
    rng: SmallRng,
}

impl SimulationEngine {
    /// Builds the simulation over an engine built from `engine`: generates
    /// the population and POIs in its world, registers every user with
    /// `profile`, and sends an initial update for each.
    pub fn new(
        engine: EngineConfig,
        config: SimulationConfig,
        profile: PrivacyProfile,
    ) -> SimulationEngine {
        let world = engine.world;
        let population = Population::generate(
            world,
            config.users,
            &config.distribution,
            config.speed.0,
            config.speed.1,
            config.seed,
        );
        let set = lbsp_mobility::PoiSet::generate(
            world,
            config.pois,
            &config.distribution,
            config.seed ^ 0x9015,
        );
        let pois = set
            .pois()
            .iter()
            .map(|p| PublicObject::new(p.id, p.pos, p.category as u32))
            .collect();
        let mut engine = ShardedEngine::new(engine, 1);
        engine.load_public(pois);
        let placement: Vec<_> = population
            .users()
            .iter()
            .map(|u| {
                engine.register(u.id, profile.clone());
                (u.id, u.position(), SimTime::ZERO)
            })
            .collect();
        engine.process_updates(&placement);
        // Measurements start at the first tick.
        let obs = engine.metrics_registry();
        obs.cloak_area().reset();
        obs.achieved_k().reset();
        obs.candidate_set_size().reset();
        let rng = SmallRng::seed_from_u64(config.seed ^ 0x51A1);
        SimulationEngine {
            population,
            engine,
            clock: SimTime::ZERO,
            config,
            rng,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The engine under simulation.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Advances the simulation by one tick: moves users, streams their
    /// updates through the engine, and issues the configured query mix
    /// (alternating range / NN queries), each refined on the device.
    pub fn tick(&mut self) -> TickReport {
        self.clock = self.clock + self.config.tick_seconds;
        let mut report = TickReport {
            now: self.clock,
            ..TickReport::default()
        };
        let rows: Vec<_> = self
            .population
            .step_all(self.config.tick_seconds)
            .into_iter()
            .map(|(id, pos)| (id, pos, self.clock))
            .collect();
        for out in self.engine.process_updates(&rows) {
            let u = out.expect("every simulated user is registered");
            report.updates += 1;
            report.unsatisfied += usize::from(!u.region.fully_satisfied());
        }
        // Query phase.
        let n_queries = (self.config.users as f64 * self.config.query_fraction) as usize;
        for q in 0..n_queries {
            let id = self.rng.random_range(0..self.config.users as UserId);
            let pos = self.population.position_of(id).expect("simulated user");
            let radius = self.config.query_radius;
            let exact = if q % 2 == 0 {
                report.range_queries += 1;
                let ans = self.engine.range_query(id, self.clock, radius);
                refine_range(&ans.expect("registered user").candidates, pos, radius).len()
            } else {
                report.nn_queries += 1;
                let ans = self.engine.nn_query(id, self.clock);
                usize::from(refine_nn(&ans.expect("registered user").candidates, pos).is_some())
            };
            report.exact_answers += exact;
        }
        report
    }

    /// Runs `n` ticks, returning the per-tick reports.
    pub fn run(&mut self, n: usize) -> Vec<TickReport> {
        (0..n).map(|_| self.tick()).collect()
    }

    /// The world rectangle.
    pub fn world(&self) -> Rect {
        self.population.world()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_anonymizer::CloakRequirement;

    fn grid() -> EngineConfig {
        EngineConfig::new(Rect::new_unchecked(0.0, 0.0, 1.0, 1.0))
    }

    #[test]
    fn engine_runs_and_reports() {
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(10)).unwrap();
        let mut engine = SimulationEngine::new(grid(), SimulationConfig::small(), profile);
        let reports = engine.run(3);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.updates, 200);
            assert_eq!(r.range_queries + r.nn_queries, 20);
            assert!((r.now.as_secs() - 60.0 * (i + 1) as f64).abs() < 1e-9);
        }
        // Metrics accumulated across ticks.
        let m = engine.engine().metrics_registry();
        assert!(m.cloak_area().count() >= 600);
        assert!(m.candidate_set_size().count() >= 60);
    }

    #[test]
    fn k_is_satisfied_throughout_motion() {
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(20)).unwrap();
        let mut engine = SimulationEngine::new(grid(), SimulationConfig::small(), profile);
        let reports = engine.run(5);
        let total_unsat: usize = reports.iter().map(|r| r.unsatisfied).sum();
        // 200 users, k=20: the population always suffices.
        assert_eq!(total_unsat, 0, "k=20 over 200 users is always satisfiable");
        // Every cloak was k-anonymous at the moment it was produced.
        // (Later movement can erode a stored region's occupancy — the
        // snapshot-staleness problem the paper raises in Sec. 2.2 — which
        // is why each new update re-cloaks.)
        assert!(
            engine
                .engine()
                .metrics_registry()
                .achieved_k()
                .summary()
                .min
                >= 20.0
        );
    }

    #[test]
    fn paper_profile_drives_area_over_the_day() {
        // With the Fig. 2 profile, cloaks at noon are points while cloaks
        // at midnight are giant (k=1000 > population => whole world).
        let mut cfg = SimulationConfig::small();
        cfg.tick_seconds = 6.0 * 3600.0; // 6-hour ticks
        let engine_profile = PrivacyProfile::paper_example();
        let mut engine = SimulationEngine::new(grid(), cfg, engine_profile);
        // Tick 1 ends at 06:00 (night entry), tick 2 at 12:00 (day).
        engine.tick();
        let night_area = engine
            .engine()
            .metrics_registry()
            .cloak_area()
            .summary()
            .max;
        engine.engine().metrics_registry().cloak_area().reset();
        engine.tick();
        let noon_area = engine
            .engine()
            .metrics_registry()
            .cloak_area()
            .summary()
            .max;
        assert!(night_area >= 1.0 - 1e-9, "night cloaks are world-sized");
        assert_eq!(noon_area, 0.0, "noon cloaks are exact points");
    }

    #[test]
    fn determinism_given_seed() {
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(5)).unwrap();
        let mut a = SimulationEngine::new(grid(), SimulationConfig::small(), profile.clone());
        let mut b = SimulationEngine::new(grid(), SimulationConfig::small(), profile);
        assert_eq!(a.run(2), b.run(2));
    }
}
