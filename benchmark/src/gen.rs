//! Seeded inputs: populations, request streams and arrival schedules.
//!
//! Everything here is a pure function of `--seed`. The system under
//! test receives only the generated requests; the generator also keeps
//! each user's true position, which never crosses a socket and is what
//! the inclusiveness check compares candidate lists against.

use crate::rng::Rng;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_mobility::{Population, SpatialDistribution};
use lbsp_server::PublicObject;

/// Anonymity levels, assigned round-robin by user id (A_min is 0).
pub const K_LEVELS: [u32; 4] = [2, 5, 10, 25];
/// Radius of every private range query.
pub const RADIUS: f64 = 0.05;
/// Local movement: an update lands within this of the user's home.
pub const JITTER: f64 = 0.02;
/// Rows per `process_updates` call and queries after it (`engine_batch`).
pub const BATCH_ROWS: usize = 256;
pub const QUERIES_PER_BATCH: usize = 32;

pub fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

pub fn k_of(user: u64) -> u32 {
    K_LEVELS[(user % 4) as usize]
}

/// One exact-location row as the engine takes it.
pub type Row = (u64, Point, SimTime);

/// One operation of a request stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The user moves to `pos`.
    Update { user: u64, pos: Point, t: SimTime },
    /// The user asks for POIs within `radius`; `at` is where the user
    /// truly is — generator-side knowledge, never sent.
    Query {
        user: u64,
        at: Point,
        radius: f64,
        t: SimTime,
    },
    /// One in-process `process_updates` call (`engine_batch` only).
    Batch(Vec<Row>),
}

impl Op {
    /// Operations this call counts for: one per update row or query.
    pub fn ops(&self) -> u64 {
        match self {
            Op::Batch(rows) => rows.len() as u64,
            _ => 1,
        }
    }

    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. })
    }
}

/// `n` uniformly placed POIs with ids `0..n`.
pub fn pois(seed: u64, n: usize) -> Vec<PublicObject> {
    let mut rng = Rng::new(seed, 0x901);
    (0..n as u64)
        .map(|id| PublicObject::new(id, Point::new(rng.unit(), rng.unit()), 0))
        .collect()
}

/// Home points of the socket workloads' users. Every tenth user is a
/// commuter homed within [`JITTER`] of the `x = 0.5` stripe boundary when
/// `commuters` is set, so a two-node cluster keeps handing users off.
pub fn homes(seed: u64, users: usize, commuters: bool) -> Vec<Point> {
    let mut rng = Rng::new(seed, 0x40e);
    (0..users)
        .map(|u| {
            let (x, y) = (rng.unit(), rng.unit());
            if commuters && u % 10 == 0 {
                Point::new(0.5 - JITTER + 2.0 * JITTER * x, y)
            } else {
                Point::new(x, y)
            }
        })
        .collect()
}

/// The request stream of one connection: it owns the users whose id is
/// `conn` modulo `conns`, moves them around their homes and lets them
/// query, in the shares the workload fixes.
pub struct UserStream {
    rng: Rng,
    users: Vec<u64>,
    homes: Vec<Point>,
    pos: Vec<Point>,
    update_share: f64,
    seq: u64,
}

impl UserStream {
    /// `all_pos` is where every user is now (their homes, right after
    /// set-up). `salt` separates streams that must differ on one
    /// connection: the scripted prefix and the timed run.
    pub fn new(
        all_homes: &[Point],
        all_pos: &[Point],
        seed: u64,
        salt: u64,
        conn: usize,
        conns: usize,
        update_share: f64,
    ) -> UserStream {
        let users: Vec<u64> = (0..all_homes.len() as u64)
            .filter(|u| *u as usize % conns == conn)
            .collect();
        let pick = |all: &[Point]| users.iter().map(|u| all[*u as usize]).collect();
        UserStream {
            rng: Rng::new(seed, 0x57_0000 + salt * 64 + conn as u64),
            homes: pick(all_homes),
            pos: pick(all_pos),
            users,
            update_share,
            seq: 0,
        }
    }

    /// Where this stream's users are now, by position in its user list
    /// (for a one-connection stream: by user id).
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.rng.below(self.users.len() as u64) as usize;
        let user = self.users[i];
        self.seq += 1;
        let t = SimTime::from_secs(self.seq as f64 * 1e-3);
        if self.rng.unit() < self.update_share {
            let h = self.homes[i];
            let pos = Point::new(
                (h.x + self.rng.range(-JITTER, JITTER)).clamp(0.0, 1.0),
                (h.y + self.rng.range(-JITTER, JITTER)).clamp(0.0, 1.0),
            );
            self.pos[i] = pos;
            Op::Update { user, pos, t }
        } else {
            Op::Query {
                user,
                at: self.pos[i],
                radius: RADIUS,
                t,
            }
        }
    }
}

/// `engine_batch`'s stream: random-waypoint movement of a three-cities
/// population, [`BATCH_ROWS`] users per call in id order, then
/// [`QUERIES_PER_BATCH`] queries by random users.
pub struct BatchStream {
    rng: Rng,
    population: Population,
    pos: Vec<Point>,
    tick: Vec<(u64, Point)>,
    cursor: usize,
    queries_left: usize,
    seq: u64,
}

impl BatchStream {
    pub fn new(seed: u64, users: usize) -> BatchStream {
        let w = world();
        let population = Population::generate(
            w,
            users,
            &SpatialDistribution::three_cities(&w),
            0.0,
            0.01,
            seed,
        );
        BatchStream {
            rng: Rng::new(seed, 0xba7c),
            pos: population.positions(),
            population,
            tick: Vec::new(),
            cursor: 0,
            queries_left: 0,
            seq: 0,
        }
    }

    /// Where every user starts (what set-up places).
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    pub fn next_op(&mut self) -> Op {
        self.seq += 1;
        let t = SimTime::from_secs(self.seq as f64 * 1e-3);
        if self.queries_left > 0 {
            self.queries_left -= 1;
            let user = self.rng.below(self.pos.len() as u64);
            return Op::Query {
                user,
                at: self.pos[user as usize],
                radius: RADIUS,
                t,
            };
        }
        self.queries_left = QUERIES_PER_BATCH;
        let mut rows = Vec::with_capacity(BATCH_ROWS);
        while rows.len() < BATCH_ROWS {
            if self.cursor == self.tick.len() {
                self.tick = self.population.step_all(1.0);
                self.cursor = 0;
            }
            let (user, p) = self.tick[self.cursor];
            self.cursor += 1;
            self.pos[user as usize] = p;
            rows.push((user, p, t));
        }
        Op::Batch(rows)
    }
}

/// Poisson arrivals: due times in nanoseconds from the phase start.
pub struct Schedule {
    rng: Rng,
    mean_gap_ns: f64,
    due_ns: f64,
}

impl Schedule {
    pub fn new(seed: u64, salt: u64, rate_per_s: f64) -> Schedule {
        Schedule {
            rng: Rng::new(seed, 0x5c_0000 + salt),
            mean_gap_ns: 1e9 / rate_per_s,
            due_ns: 0.0,
        }
    }

    pub fn next_due_ns(&mut self) -> u64 {
        self.due_ns += self.rng.exp(self.mean_gap_ns);
        self.due_ns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(seed: u64, n: usize) -> Vec<Op> {
        let h = homes(seed, 100, true);
        let mut s = UserStream::new(&h, &h, seed, 0, 1, 2, 0.9);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        assert_eq!(first_ops(7, 500), first_ops(7, 500));
        assert_ne!(first_ops(7, 500), first_ops(8, 500));
        assert_eq!(pois(3, 50), pois(3, 50));
        let due = |seed| {
            let mut s = Schedule::new(seed, 1, 5_000.0);
            (0..500).map(|_| s.next_due_ns()).collect::<Vec<_>>()
        };
        assert_eq!(due(7), due(7));
        assert_ne!(due(7), due(8));
        let batch = |seed| {
            let mut s = BatchStream::new(seed, 1_000);
            (0..70).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(batch(7), batch(7));
    }

    #[test]
    fn schedule_has_the_rate_asked_for() {
        let mut s = Schedule::new(1, 0, 10_000.0);
        let n = 200_000;
        let last = (0..n).map(|_| s.next_due_ns()).last().unwrap();
        let rate = n as f64 / (last as f64 / 1e9);
        assert!((rate - 10_000.0).abs() < 150.0, "rate {rate}");
    }

    #[test]
    fn stream_owns_its_users_and_keeps_the_mix() {
        let ops = first_ops(5, 4_000);
        let updates = ops.iter().filter(|o| !o.is_query()).count();
        assert!((3_450..3_750).contains(&updates), "{updates} updates");
        for op in &ops {
            let (Op::Update { user, .. } | Op::Query { user, .. }) = op else {
                panic!("socket streams never batch");
            };
            assert_eq!(user % 2, 1);
        }
    }

    #[test]
    fn commuters_sit_on_the_boundary() {
        let h = homes(9, 1_000, true);
        assert!(h.iter().step_by(10).all(|p| (p.x - 0.5).abs() <= JITTER));
        let far = homes(9, 1_000, false);
        assert!(far.iter().step_by(10).any(|p| (p.x - 0.5).abs() > JITTER));
    }

    #[test]
    fn batch_stream_alternates_batches_and_queries() {
        let mut s = BatchStream::new(2, 1_000);
        let first = s.next_op();
        assert_eq!(first.ops(), BATCH_ROWS as u64);
        for _ in 0..QUERIES_PER_BATCH {
            assert!(s.next_op().is_query());
        }
        assert!(matches!(s.next_op(), Op::Batch(_)));
    }
}
