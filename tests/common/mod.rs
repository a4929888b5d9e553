//! The sequential reference the network and cluster suites hold their
//! replies to: the parts a single-node pipeline is built from (the
//! grid anonymizer, the database server and the standing registry),
//! fed one row at a time. `tests/concurrency.rs` holds the in-process
//! engine equal to the same parts.

use lbsp_anonymizer::{CloakedUpdate, GridCloak, LocationAnonymizer, PrivacyProfile};
use lbsp_core::wire::StandingState;
use lbsp_core::{StandingQuery, StandingRegistry};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_server::{PublicObject, Server};

/// Anonymizer → server → standing queries, in the order a row visits
/// them.
pub struct Sequential {
    anonymizer: LocationAnonymizer<GridCloak>,
    server: Server,
    standing: StandingRegistry,
}

impl Sequential {
    /// A pipeline cloaking with `grid` under `secret`, over `public`.
    pub fn new(grid: GridCloak, secret: u64, public: Vec<PublicObject>) -> Sequential {
        Sequential {
            anonymizer: LocationAnonymizer::new(grid, secret),
            server: Server::new(public),
            standing: StandingRegistry::new(),
        }
    }

    /// Registers user `id`.
    pub fn register(&mut self, id: u64, profile: PrivacyProfile) {
        self.anonymizer.register(id, profile);
    }

    /// One row: cloak it, store the cloak, refresh the standing queries.
    pub fn update(&mut self, id: u64, pos: Point, time: SimTime) -> CloakedUpdate {
        let u = self.anonymizer.handle_update(id, pos, time).unwrap();
        let region = &u.region.region;
        let old = self.server.ingest(u.pseudonym.0, *region);
        self.standing
            .on_record(u.pseudonym.0, old.as_ref(), Some(region), true);
        self.standing.on_cloak(id, region, self.server.public());
        u
    }

    /// Registers a standing count query over `area`.
    pub fn add_standing_count(&mut self, area: Rect) -> u64 {
        let records = self
            .server
            .private()
            .iter()
            .map(|r| (r.pseudonym, r.region));
        self.standing
            .register(StandingQuery::Count { area }, records)
    }

    /// Registers a standing private range query for `user`.
    pub fn add_standing_range(&mut self, user: u64, radius: f64) -> u64 {
        let query = StandingQuery::Range {
            subject: user,
            radius,
        };
        self.standing.register(query, [])
    }

    /// A standing query's state, in the shape the engine reports.
    pub fn standing_state(&self, id: u64) -> Option<StandingState> {
        self.standing.state(id)
    }
}
