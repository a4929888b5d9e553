//! End-to-end simulation engine.
//!
//! Drives a synthetic population ([`lbsp_mobility`]) through the full
//! pipeline over simulated time: each tick moves every active user,
//! streams the updates through the anonymizer to the server, and issues
//! a configurable mix of private and public queries. This is the
//! workhorse behind experiments E1 (pipeline), E2 (temporal profiles),
//! and E10 (scalability).

use crate::{MobileUser, PrivacyAwareSystem, UserId};
use lbsp_anonymizer::{CloakingAlgorithm, PrivacyProfile};
use lbsp_geom::{Rect, SimTime};
use lbsp_mobility::{Population, SpatialDistribution};
use lbsp_server::PublicObject;
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
    /// Updates whose cloak failed a requirement (contradictory profile
    /// or insufficient population).
    pub unsatisfied: usize,
    /// Simulation time at the end of the tick.
    pub now: SimTime,
}

/// The simulation engine: population + system + clock.
pub struct SimulationEngine<A> {
    population: Population,
    system: PrivacyAwareSystem<A>,
    clock: SimTime,
    config: SimulationConfig,
    rng: SmallRng,
}

impl<A: CloakingAlgorithm> SimulationEngine<A> {
    /// Builds the engine: generates the population and POIs, registers
    /// every user with `profile`, and pushes an initial update for each.
    pub fn new(algo: A, config: SimulationConfig, profile: PrivacyProfile) -> SimulationEngine<A> {
        let world = algo.world();
        let population = Population::generate(
            world,
            config.users,
            &config.distribution,
            config.speed.0,
            config.speed.1,
            config.seed,
        );
        let pois: Vec<PublicObject> = {
            let set = lbsp_mobility::PoiSet::generate(
                world,
                config.pois,
                &config.distribution,
                config.seed ^ 0x9015,
            );
            set.pois()
                .iter()
                .map(|p| PublicObject::new(p.id, p.pos, p.category as u32))
                .collect()
        };
        let mut system = PrivacyAwareSystem::new(algo, config.seed, pois);
        for u in population.users() {
            system.register_user(MobileUser::active(u.id, profile.clone()));
            system
                .process_update(u.id, u.position(), SimTime::ZERO)
                .expect("registered user");
        }
        // Cold-start cloaks (computed while the index was still filling)
        // are not representative; measurements start at the first tick.
        let obs = system.metrics_registry();
        obs.cloak_area().reset();
        obs.achieved_k().reset();
        obs.candidate_set_size().reset();
        let rng = SmallRng::seed_from_u64(config.seed ^ 0x51A1);
        SimulationEngine {
            population,
            system,
            clock: SimTime::ZERO,
            config,
            rng,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The system under simulation.
    pub fn system(&self) -> &PrivacyAwareSystem<A> {
        &self.system
    }

    /// Mutable access to the system (for registering standing queries).
    pub fn system_mut(&mut self) -> &mut PrivacyAwareSystem<A> {
        &mut self.system
    }

    /// Advances the simulation by one tick: moves users, streams their
    /// updates through the pipeline, and issues the configured query
    /// mix (alternating range / NN queries).
    pub fn tick(&mut self) -> TickReport {
        self.clock = self.clock + self.config.tick_seconds;
        let mut report = TickReport {
            now: self.clock,
            ..TickReport::default()
        };
        for (id, pos) in self.population.step_all(self.config.tick_seconds) {
            let out = self
                .system
                .process_update(id, pos, self.clock)
                .expect("every simulated user is registered");
            report.updates += 1;
            if let Some(u) = out {
                if !u.region.fully_satisfied() {
                    report.unsatisfied += 1;
                }
            }
        }
        // Query phase.
        let n_queries = (self.config.users as f64 * self.config.query_fraction) as usize;
        for q in 0..n_queries {
            let id = self.rng.random_range(0..self.config.users as UserId);
            if q % 2 == 0 {
                self.system
                    .private_range_query(id, self.config.query_radius, self.clock)
                    .expect("registered user");
                report.range_queries += 1;
            } else {
                self.system
                    .private_nn_query(id, self.clock)
                    .expect("registered user");
                report.nn_queries += 1;
            }
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
    use lbsp_anonymizer::{CloakRequirement, GridCloak, QuadCloak};

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn engine_runs_and_reports() {
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(10)).unwrap();
        let mut engine = SimulationEngine::new(
            QuadCloak::new(world(), 5),
            SimulationConfig::small(),
            profile,
        );
        let reports = engine.run(3);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.updates, 200);
            assert_eq!(r.range_queries + r.nn_queries, 20);
            assert!((r.now.as_secs() - 60.0 * (i + 1) as f64).abs() < 1e-9);
        }
        // Metrics accumulated across ticks.
        let m = engine.system().metrics_registry();
        assert!(m.cloak_area().count() >= 600);
        assert!(m.candidate_set_size().count() >= 60);
    }

    #[test]
    fn k_is_satisfied_throughout_motion() {
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(20)).unwrap();
        let mut engine = SimulationEngine::new(
            GridCloak::new(world(), 16),
            SimulationConfig::small(),
            profile,
        );
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
                .system()
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
        let mut engine = SimulationEngine::new(QuadCloak::new(world(), 5), cfg, engine_profile);
        // Tick 1 ends at 06:00 (night entry), tick 2 at 12:00 (day).
        engine.tick();
        let night_area = engine
            .system()
            .metrics_registry()
            .cloak_area()
            .summary()
            .max;
        engine.system().metrics_registry().cloak_area().reset();
        engine.tick();
        let noon_area = engine
            .system()
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
        let mut a = SimulationEngine::new(
            QuadCloak::new(world(), 4),
            SimulationConfig::small(),
            profile.clone(),
        );
        let mut b = SimulationEngine::new(
            QuadCloak::new(world(), 4),
            SimulationConfig::small(),
            profile,
        );
        assert_eq!(a.run(2), b.run(2));
    }
}
