//! The sequential reference the network and cluster suites hold their
//! replies to: the parts a single-node pipeline is built from (the
//! grid anonymizer, the database server and the standing private
//! ranges), fed one row at a time. `tests/concurrency.rs` holds the
//! in-process engine equal to the same parts.

use lbsp_anonymizer::{CloakedUpdate, GridCloak, LocationAnonymizer, PrivacyProfile};
use lbsp_core::wire::{StandingCountState, StandingKind, StandingRangeState, StandingState};
use lbsp_core::StandingPrivateRanges;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_server::{PublicObject, Server};

/// Anonymizer → server → standing queries, in the order a row visits
/// them.
pub struct Sequential {
    anonymizer: LocationAnonymizer<GridCloak>,
    server: Server,
    ranges: StandingPrivateRanges,
}

impl Sequential {
    /// A pipeline cloaking with `grid` under `secret`, over `public`.
    pub fn new(grid: GridCloak, secret: u64, public: Vec<PublicObject>) -> Sequential {
        Sequential {
            anonymizer: LocationAnonymizer::new(grid, secret),
            server: Server::new(public),
            ranges: StandingPrivateRanges::new(),
        }
    }

    /// Registers user `id`.
    pub fn register(&mut self, id: u64, profile: PrivacyProfile) {
        self.anonymizer.register(id, profile);
    }

    /// One row: cloak it, store the cloak, refresh the standing queries.
    pub fn update(&mut self, id: u64, pos: Point, time: SimTime) -> CloakedUpdate {
        let u = self.anonymizer.handle_update(id, pos, time).unwrap();
        self.server.ingest(u.pseudonym.0, u.region.region);
        let region = &u.region.region;
        self.ranges
            .on_cloak_update(id, region, self.server.public());
        u
    }

    /// Registers a standing count query over `area`.
    pub fn add_standing_count(&mut self, area: Rect) -> u64 {
        self.server.add_standing_count(area)
    }

    /// Registers a standing private range query for `user`.
    pub fn add_standing_range(&mut self, user: u64, radius: f64) -> u64 {
        self.ranges.register(user, radius)
    }

    /// A standing query's state, in the shape the engine reports.
    pub fn standing_state(&self, kind: StandingKind, id: u64) -> Option<StandingState> {
        match kind {
            StandingKind::Count => {
                let counts = self.server.continuous();
                let (certain, possible) = counts.interval(id)?;
                Some(StandingState::Count(StandingCountState {
                    id,
                    seq: counts.seq(id)?,
                    expected: counts.expected(id)?,
                    certain: certain as u64,
                    possible: possible as u64,
                }))
            }
            StandingKind::Range => Some(StandingState::Range(StandingRangeState {
                id,
                seq: self.ranges.seq(id)?,
                candidates: (self.ranges.candidates(id)?.iter())
                    .map(|o| (o.id, o.pos))
                    .collect(),
            })),
        }
    }
}
