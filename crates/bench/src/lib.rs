//! Shared harness for the experiment suite.
//!
//! Every experiment of the `repro` binary (E1–E15, one per figure or
//! section of the paper — see DESIGN.md) and its `index-micro` timings
//! build their workloads through these helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lbsp_anonymizer::{
    CloakingAlgorithm, GridCloak, HilbertCloak, MbrCloak, NaiveCloak, QuadCloak,
};
use lbsp_geom::{Point, Rect};
use lbsp_mobility::{PoiCategory, PoiSet, Population, SpatialDistribution};
use lbsp_server::{PublicObject, PublicStore};

/// The standard unit world.
pub fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

/// The standard clustered population used across experiments.
pub fn standard_positions(n: usize, seed: u64) -> Vec<Point> {
    let w = world();
    let dist = SpatialDistribution::three_cities(&w);
    Population::generate(w, n, &dist, 0.0, 0.01, seed).positions()
}

/// A uniform population (the paper's sparse/"rural" case).
pub fn uniform_positions(n: usize, seed: u64) -> Vec<Point> {
    let w = world();
    Population::generate(w, n, &SpatialDistribution::Uniform, 0.0, 0.01, seed).positions()
}

/// Builds all four cloaking algorithms (plus the two optimized
/// variants), each loaded with `positions`.
pub fn all_cloaks(positions: &[Point]) -> Vec<Box<dyn CloakingAlgorithm>> {
    let w = world();
    let mut algos: Vec<Box<dyn CloakingAlgorithm>> = vec![
        Box::new(NaiveCloak::new(w, 64)),
        Box::new(MbrCloak::new(w, 64)),
        Box::new(QuadCloak::new(w, 8)),
        Box::new(QuadCloak::new(w, 8).with_neighbor_merge(true)),
        Box::new(GridCloak::new(w, 64)),
        Box::new(GridCloak::new(w, 64).with_refinement(true)),
        Box::new(HilbertCloak::new(w, 64)),
    ];
    for a in &mut algos {
        load(a.as_mut(), positions);
    }
    algos
}

/// Loads positions into one algorithm (ids are dense `0..n`).
pub fn load(algo: &mut dyn CloakingAlgorithm, positions: &[Point]) {
    for (i, p) in positions.iter().enumerate() {
        algo.upsert(i as u64, *p);
    }
}

/// A standard POI store of `n` gas stations.
pub fn poi_store(n: usize, seed: u64) -> PublicStore {
    let set = PoiSet::generate_category(
        world(),
        n,
        PoiCategory::GasStation,
        &SpatialDistribution::Uniform,
        seed,
    );
    PublicStore::bulk_load(
        set.pois()
            .iter()
            .map(|p| PublicObject::new(p.id, p.pos, 0))
            .collect(),
    )
}

/// Shared workload for the network experiments (E13, `repro
/// --net-sweep`, `repro --serve/--connect`): one seeded closed-loop
/// client driving registrations, exact-location updates, and private
/// range queries through the framed TCP transport.
pub mod netload {
    use super::{poi_store, world};
    use lbsp_core::engine::{EngineConfig, ShardedEngine};
    use lbsp_geom::{Point, SimTime};
    use lbsp_net::{is_retryable_route_failure, NetClient, Reply};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};
    use std::io;
    use std::net::ToSocketAddrs;
    use std::time::{Duration, Instant};

    /// How many times [`retry_route`] re-issues a request that came back
    /// RETRYABLE before giving up, and how long it pauses between tries.
    /// 200 × 25 ms bounds the client's patience at five seconds — enough
    /// to ride out a node restart (WAL replay included) under the
    /// router's default reconnect schedule, and comfortably inside the
    /// ten-second socket timeouts, so a genuinely dead node still
    /// fails the run loudly instead of hanging it.
    pub const RETRY_BUDGET: u32 = 200;
    /// Pause between RETRYABLE retries (see [`RETRY_BUDGET`]).
    pub const RETRY_PAUSE: Duration = Duration::from_millis(25);

    /// Re-issues `op` while it fails with a RETRYABLE route failure —
    /// the router's "owning node is mid-reconnect, nothing was applied"
    /// answer — up to [`RETRY_BUDGET`] times. Every other outcome
    /// (success, application error, DOWN route failure, transport fault)
    /// passes through untouched: only the one error kind that
    /// *guarantees* the request was not applied is safe to replay.
    pub fn retry_route(mut op: impl FnMut() -> io::Result<Reply>) -> io::Result<Reply> {
        let mut attempts = 0u32;
        loop {
            match op() {
                Err(e) if is_retryable_route_failure(&e) && attempts < RETRY_BUDGET => {
                    attempts += 1;
                    std::thread::sleep(RETRY_PAUSE);
                }
                other => return other,
            }
        }
    }

    /// The engine every network experiment serves: flagship
    /// grid+multilevel configuration with 1,000 public POIs loaded.
    pub fn serve_engine() -> ShardedEngine {
        let mut cfg = EngineConfig::new(world());
        cfg.refine = true;
        let mut engine = ShardedEngine::new(cfg, 1);
        let pois = poi_store(1_000, 17);
        engine.load_public(pois.iter().copied().collect());
        engine
    }

    /// Outcome of one closed-loop run.
    #[derive(Debug, Clone, Copy)]
    pub struct LoadReport {
        /// Requests completed (each waited for its reply).
        pub requests: u64,
        /// Wall-clock seconds for the whole run.
        pub secs: f64,
        /// Error replies received (should be 0 on a healthy run).
        pub errors: u64,
    }

    impl LoadReport {
        /// Requests per second.
        pub fn rate(&self) -> f64 {
            self.requests as f64 / self.secs
        }
    }

    /// Drives the standard closed-loop workload against a server:
    /// registers `users` users (mixed k levels), then `rounds` full
    /// passes of location updates with a range query every 10th user.
    pub fn closed_loop<A: ToSocketAddrs>(
        addr: A,
        users: u64,
        rounds: u32,
        seed: u64,
    ) -> io::Result<LoadReport> {
        let mut client = NetClient::connect(addr)?;
        // Bound both socket halves so a wedged server fails the run
        // with a clear error instead of hanging the load generator.
        client.set_read_timeout(Some(Duration::from_secs(10)))?;
        client.set_write_timeout(Some(Duration::from_secs(10)))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut requests = 0u64;
        let mut errors = 0u64;
        let mut tally = |reply: &Reply| {
            requests += 1;
            if matches!(reply, Reply::Error(_)) {
                errors += 1;
            }
        };
        let start = Instant::now();
        for i in 0..users {
            let k = [2u32, 5, 10, 25][(i % 4) as usize];
            tally(&retry_route(|| client.register(i, k, 0.0, f64::INFINITY))?);
        }
        for round in 0..rounds {
            for i in 0..users {
                let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                let t = SimTime::from_secs(f64::from(round) * 60.0 + i as f64 * 1e-3);
                tally(&retry_route(|| client.update(i, p, t))?);
                if i % 10 == 0 {
                    tally(&retry_route(|| client.range_query(i, 0.05, t))?);
                }
            }
        }
        Ok(LoadReport {
            requests,
            secs: start.elapsed().as_secs_f64(),
            errors,
        })
    }

    /// Concurrent closed-loop load: `conns` connections driven from
    /// `conns` threads, each owning a strided slice of the `users` id
    /// space. Each connection registers its users, then drives `rounds`
    /// passes of *local-movement* updates (small jitter around a fixed
    /// home point — the paper's mobility shape, and the case partitioned
    /// deployments care about) with a range query every 4th user.
    ///
    /// This is the connection-count axis of the network benchmark: the
    /// sharded poller serves all `conns` sockets from a fixed shard
    /// count, so the measured rate exposes per-connection overhead
    /// directly. Against a cluster router it is also what makes K > 1
    /// pay: requests owned by distinct nodes proceed concurrently.
    pub fn concurrent_load(
        addr: std::net::SocketAddr,
        conns: usize,
        users: u64,
        rounds: u32,
        seed: u64,
    ) -> io::Result<LoadReport> {
        let conns = conns.max(1);
        let start = Instant::now();
        let handles: Vec<std::thread::JoinHandle<io::Result<(u64, u64)>>> = (0..conns)
            .map(|c| {
                std::thread::spawn(move || -> io::Result<(u64, u64)> {
                    let mut client = NetClient::connect(addr)?;
                    client.set_read_timeout(Some(Duration::from_secs(30)))?;
                    client.set_write_timeout(Some(Duration::from_secs(30)))?;
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mine: Vec<u64> = (0..users).filter(|u| *u as usize % conns == c).collect();
                    let homes: Vec<Point> = mine
                        .iter()
                        .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                        .collect();
                    let mut requests = 0u64;
                    let mut errors = 0u64;
                    let mut tally = |reply: &Reply| {
                        requests += 1;
                        if matches!(reply, Reply::Error(_)) {
                            errors += 1;
                        }
                    };
                    for (j, &u) in mine.iter().enumerate() {
                        let k = [2u32, 5, 10, 25][j % 4];
                        tally(&client.register(u, k, 0.0, f64::INFINITY)?);
                    }
                    for round in 0..rounds {
                        for (j, &u) in mine.iter().enumerate() {
                            let home = homes[j];
                            let p = Point::new(
                                (home.x + rng.random_range(-0.02f64..0.02)).clamp(0.0, 1.0),
                                (home.y + rng.random_range(-0.02f64..0.02)).clamp(0.0, 1.0),
                            );
                            let t = SimTime::from_secs(f64::from(round) * 60.0 + j as f64 * 1e-3);
                            tally(&client.update(u, p, t)?);
                            if j % 4 == 0 {
                                tally(&client.range_query(u, 0.05, t)?);
                            }
                        }
                    }
                    Ok((requests, errors))
                })
            })
            .collect();
        let mut requests = 0u64;
        let mut errors = 0u64;
        for h in handles {
            let (r, e) = h
                .join()
                .map_err(|_| io::Error::other("load thread panicked"))??;
            requests += r;
            errors += e;
        }
        Ok(LoadReport {
            requests,
            secs: start.elapsed().as_secs_f64(),
            errors,
        })
    }
}

/// Cluster workloads: K `NetServer` nodes plus a routing front door on
/// loopback, driven by the same closed-loop client as the single-node
/// experiments (E15, `repro --cluster`).
pub mod clusterload {
    use super::netload::{closed_loop, serve_engine, LoadReport};
    use super::world;
    use lbsp_cluster::{Router, RouterConfig};
    use lbsp_net::{NetConfig, NetServer};
    use std::io;

    /// Outcome of one closed-loop run through a K-node cluster.
    #[derive(Debug, Clone, Copy)]
    pub struct ClusterReport {
        /// The client-side closed-loop measurements.
        pub load: LoadReport,
        /// Requests answered with `ROUTE_FAIL` (0 on a healthy run).
        pub route_failures: u64,
    }

    /// Spawns `k` nodes and a router on loopback, drives the standard
    /// closed-loop workload through the router, and tears everything
    /// down. One node is the K=1 degenerate case (router as plain
    /// proxy), making the router's own overhead directly measurable.
    pub fn cluster_run(k: usize, users: u64, rounds: u32, seed: u64) -> io::Result<ClusterReport> {
        let servers: Vec<NetServer> = (0..k.max(1))
            .map(|_| NetServer::bind("127.0.0.1:0", serve_engine(), NetConfig::default()))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let addr_refs: Vec<&str> = addrs.iter().map(|s| s.as_str()).collect();
        let router = Router::bind("127.0.0.1:0", &addr_refs, world(), RouterConfig::default())?;
        let load = closed_loop(router.local_addr(), users, rounds, seed)?;
        let report = router.shutdown();
        for s in servers {
            s.shutdown();
        }
        Ok(ClusterReport {
            load,
            route_failures: report.route_failures,
        })
    }

    /// Like [`cluster_run`] but measures the *steady-state serving
    /// rate* over `conns` concurrent connections, the workload where
    /// concurrent forwarding shows: with one closed-loop client the
    /// router can never overlap two requests no matter how it forwards.
    ///
    /// The run has two phases. An untimed warm-up registers every user
    /// and places it at its home point. The timed phase then measures
    /// query serving: `rounds` passes issuing one private range query
    /// per user. Queries are the operation the paper's server exists to
    /// answer, and the one whose cost the cluster holds flat as K grows
    /// — each routes to the single owning node, because updates mirror
    /// to every node (an O(K) fan-out priced into the update path, and
    /// measured by E15's update-heavy closed loop).
    pub fn cluster_run_concurrent(
        k: usize,
        conns: usize,
        users: u64,
        rounds: u32,
        seed: u64,
    ) -> io::Result<ClusterReport> {
        let servers: Vec<NetServer> = (0..k.max(1))
            .map(|_| NetServer::bind("127.0.0.1:0", serve_engine(), NetConfig::default()))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let addr_refs: Vec<&str> = addrs.iter().map(|s| s.as_str()).collect();
        // A front-door shard routes one request at a time; give the
        // router one shard per driven connection so the client side is
        // never queued behind itself.
        let mut net = NetConfig::default();
        net.workers = conns.max(net.workers);
        net.accept_backlog = conns.max(net.accept_backlog);
        let cfg = RouterConfig {
            net,
            ..RouterConfig::default()
        };
        let router = Router::bind("127.0.0.1:0", &addr_refs, world(), cfg)?;
        let load = steady_load(router.local_addr(), conns, users, rounds, seed)?;
        let report = router.shutdown();
        for s in servers {
            s.shutdown();
        }
        Ok(ClusterReport {
            load,
            route_failures: report.route_failures,
        })
    }

    /// The two-phase concurrent driver behind [`cluster_run_concurrent`]:
    /// untimed register-and-place warm-up, then a barrier-synchronized
    /// timed phase of query serving. Only timed-phase requests count
    /// toward the reported rate; error replies from either phase count
    /// as errors.
    fn steady_load(
        addr: std::net::SocketAddr,
        conns: usize,
        users: u64,
        rounds: u32,
        seed: u64,
    ) -> io::Result<LoadReport> {
        use lbsp_geom::{Point, SimTime};
        use lbsp_net::{NetClient, Reply};
        use rand::rngs::StdRng;
        use rand::{RngExt as _, SeedableRng};
        use std::sync::{Arc, Barrier};
        use std::time::{Duration, Instant};

        let conns = conns.max(1);
        let barrier = Arc::new(Barrier::new(conns + 1));
        let handles: Vec<std::thread::JoinHandle<io::Result<(u64, u64)>>> = (0..conns)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || -> io::Result<(u64, u64)> {
                    let mut client = NetClient::connect(addr)?;
                    client.set_read_timeout(Some(Duration::from_secs(30)))?;
                    client.set_write_timeout(Some(Duration::from_secs(30)))?;
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mine: Vec<u64> = (0..users).filter(|u| *u as usize % conns == c).collect();
                    let homes: Vec<Point> = mine
                        .iter()
                        .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                        .collect();
                    let mut errors = 0u64;
                    for (j, &u) in mine.iter().enumerate() {
                        let k = [2u32, 5, 10, 25][j % 4];
                        if matches!(client.register(u, k, 0.0, f64::INFINITY)?, Reply::Error(_)) {
                            errors += 1;
                        }
                        let t = SimTime::from_secs(j as f64 * 1e-3);
                        if matches!(client.update(u, homes[j], t)?, Reply::Error(_)) {
                            errors += 1;
                        }
                    }
                    barrier.wait();
                    let mut requests = 0u64;
                    let mut tally = |reply: &Reply| {
                        requests += 1;
                        if matches!(reply, Reply::Error(_)) {
                            errors += 1;
                        }
                    };
                    for round in 0..rounds {
                        for (j, &u) in mine.iter().enumerate() {
                            let t = SimTime::from_secs(
                                60.0 + f64::from(round) * 60.0 + j as f64 * 1e-3,
                            );
                            tally(&client.range_query(u, 0.05, t)?);
                        }
                    }
                    Ok((requests, errors))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut requests = 0u64;
        let mut errors = 0u64;
        for h in handles {
            let (r, e) = h
                .join()
                .map_err(|_| io::Error::other("load thread panicked"))??;
            requests += r;
            errors += e;
        }
        Ok(LoadReport {
            requests,
            secs: start.elapsed().as_secs_f64(),
            errors,
        })
    }
}

/// Machine-readable sweep output: the flat JSON objects that
/// `repro --net-sweep` and `repro --cluster` print into `BENCH_*.json`.
/// Hand-rolled — the workspace builds offline with no serializer
/// dependency.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON number.
    #[derive(Debug, Clone)]
    pub enum Val {
        /// An unsigned integer.
        U(u64),
        /// A float (non-finite values serialize as `null`).
        F(f64),
    }

    /// Serializes `fields` as one flat JSON object, in order. Keys are
    /// written as given: plain identifiers that need no escaping.
    pub fn object(fields: &[(&str, Val)]) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":");
            match v {
                Val::U(n) => {
                    let _ = write!(out, "{n}");
                }
                Val::F(x) if x.is_finite() => {
                    let _ = write!(out, "{x}");
                }
                Val::F(_) => out.push_str("null"),
            }
        }
        out.push('}');
        out
    }
}

/// Evenly spaced sample of user ids for measurement loops.
pub fn sample_ids(n_users: usize, n_samples: usize) -> Vec<u64> {
    let step = (n_users / n_samples.max(1)).max(1);
    (0..n_users as u64).step_by(step).take(n_samples).collect()
}

/// Prints a table row with `|`-separated cells (repro binary output).
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a table header and its separator line.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells
            .iter()
            .map(|c| "-".repeat(c.len() + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_anonymizer::CloakRequirement;

    #[test]
    fn harness_builders_work() {
        let pos = standard_positions(500, 1);
        assert_eq!(pos.len(), 500);
        let algos = all_cloaks(&pos);
        assert_eq!(algos.len(), 7);
        for a in &algos {
            assert_eq!(a.population(), 500);
            let c = a.cloak(0, &CloakRequirement::k_only(5)).unwrap();
            assert!(c.k_satisfied, "{}", a.name());
        }
        let store = poi_store(100, 2);
        assert_eq!(store.len(), 100);
        assert_eq!(sample_ids(1000, 10).len(), 10);
    }
}
