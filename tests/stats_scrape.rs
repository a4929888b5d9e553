//! End-to-end check of the observability pipeline: a known workload is
//! driven over loopback, then the registry is scraped with a `STATS`
//! frame, and the scraped snapshot must agree with the in-process
//! registry — exactly for counters, and within the documented factor-2
//! bucket bound for percentiles.
//!
//! Accounting detail the assertions rely on: the server bumps
//! `requests_served` *after* a request is handled, so a scrape's own
//! snapshot never counts the scrape itself — the first scrape reports
//! exactly the prior workload, and a second scrape reports one more.

use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::metrics::Summary;
use lbsp_core::wire;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_net::{NetClient, NetConfig, NetServer, Reply};
use lbsp_server::PublicObject;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::time::Duration;

const USERS: u64 = 40;
const SEED: u64 = 4242;

/// Stage indices into `RegistrySnapshot::stages` ([`Stage::ALL`] order).
const CLOAK: usize = 0;
const PRIVATE_QUERY: usize = 1;
const PUBLIC_QUERY: usize = 2;
const FRAME_DECODE: usize = 3;
const OUTBOUND_WAIT: usize = 4;

fn engine() -> ShardedEngine {
    let mut cfg = EngineConfig::new(Rect::new_unchecked(0.0, 0.0, 1.0, 1.0));
    cfg.refine = true;
    let mut engine = ShardedEngine::new(cfg, 1);
    let mut rng = StdRng::seed_from_u64(SEED);
    engine.load_public(
        (0..200)
            .map(|id| {
                PublicObject::new(
                    id,
                    Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                    0,
                )
            })
            .collect(),
    );
    engine
}

/// The histogram percentile is bucket-interpolated: for positive
/// samples it lands within the sample's power-of-two bucket, so it is
/// within a factor of 2 of the exact value (see DESIGN.md).
fn assert_within_factor2(approx: f64, exact: f64, what: &str) {
    if exact == 0.0 {
        assert_eq!(approx, 0.0, "{what}: exact 0 must stay 0");
        return;
    }
    let ratio = approx / exact;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "{what}: approx {approx} vs exact {exact} (ratio {ratio})"
    );
}

#[test]
fn stats_scrape_matches_in_process_registry() {
    // One worker so request accounting is strictly sequential.
    let server = NetServer::bind("127.0.0.1:0", engine(), NetConfig::with_workers(1)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // --- Known workload ------------------------------------------------
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xBEEF);
    let mut areas = Vec::new();
    let mut ks = Vec::new();
    let mut requests = 0u64;
    for i in 0..USERS {
        let k = [2u32, 5, 10, 25][(i % 4) as usize];
        assert_eq!(
            client.register(i, k, 0.0, f64::INFINITY).unwrap(),
            Reply::Ok
        );
        requests += 1;
    }
    for i in 0..USERS {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let reply = client.update(i, p, SimTime::from_secs(i as f64)).unwrap();
        requests += 1;
        let Reply::Cloaked(bytes) = reply else {
            panic!("update {i} not cloaked: {reply:?}");
        };
        let cu = wire::decode_cloaked_update(&bytes).expect("well-formed cloaked update");
        areas.push(cu.region.area());
        ks.push(f64::from(cu.region.achieved_k));
    }
    let mut queries = 0u64;
    for i in (0..USERS).step_by(4) {
        let reply = client
            .range_query(i, 0.05, SimTime::from_secs(100.0 + i as f64))
            .unwrap();
        requests += 1;
        queries += 1;
        assert!(
            matches!(reply, Reply::Candidates(_)),
            "query {i}: {reply:?}"
        );
    }
    // One failing query: user 9999 was never registered.
    let reply = client
        .range_query(9999, 0.05, SimTime::from_secs(500.0))
        .unwrap();
    requests += 1;
    assert!(
        matches!(reply, Reply::Error(_)),
        "expected rejection: {reply:?}"
    );

    // --- Scrape #1 ------------------------------------------------------
    let Reply::Stats(bytes) = client.stats().unwrap() else {
        panic!("scrape did not return a stats snapshot");
    };
    let scraped = wire::decode_stats_snapshot(&bytes).expect("decodable snapshot");

    // Counters match the workload exactly. The scrape itself is not in
    // requests_served (incremented after handling), but its frame *is*
    // already decoded and counted in bytes_in / frame-decode.
    assert_eq!(scraped.net.requests_served, requests);
    assert_eq!(scraped.net.errors_returned, 1);
    assert_eq!(scraped.net.connections_accepted, 1);
    assert_eq!(
        scraped.cloak_failures,
        [1, 0, 0],
        "one unknown-user failure"
    );
    assert_eq!(scraped.stages[CLOAK].count, USERS);
    assert_eq!(scraped.stages[PRIVATE_QUERY].count, queries + 1);
    assert_eq!(scraped.stages[PUBLIC_QUERY].count, 0);
    assert_eq!(scraped.stages[FRAME_DECODE].count, requests + 1);
    assert_eq!(scraped.stages[OUTBOUND_WAIT].count, requests);
    assert_eq!(scraped.cloak_area.count, USERS);
    assert_eq!(scraped.achieved_k.count, USERS);
    assert_eq!(scraped.candidate_set_size.count, queries);

    // Value histograms agree with the exact samples the replies carried:
    // mean/min/max exactly, percentiles within the factor-2 bound.
    for (hist, samples, what) in [
        (&scraped.cloak_area, &areas, "cloak_area"),
        (&scraped.achieved_k, &ks, "achieved_k"),
    ] {
        let exact = Summary::of(samples);
        let approx = hist.summary();
        assert_eq!(approx.min, exact.min, "{what} min is exact");
        assert_eq!(approx.max, exact.max, "{what} max is exact");
        assert!(
            (approx.mean - exact.mean).abs() <= exact.mean.abs() * 1e-9,
            "{what} mean is exact: {} vs {}",
            approx.mean,
            exact.mean
        );
        assert_within_factor2(approx.p50, exact.p50, what);
        assert_within_factor2(approx.p95, exact.p95, what);
    }

    // --- Scrape #2 sees exactly one more served request -----------------
    let Reply::Stats(bytes2) = client.stats().unwrap() else {
        panic!("second scrape failed");
    };
    let scraped2 = wire::decode_stats_snapshot(&bytes2).expect("decodable snapshot");
    assert_eq!(scraped2.net.requests_served, requests + 1);

    // --- In-process registry agrees with the scrape ---------------------
    // The scrape travels through the same live registry the engine
    // records into; everything the scrapes themselves don't touch must
    // be bit-identical between the wire snapshot and a local one.
    let local = server.metrics_registry().snapshot();
    assert_eq!(local.stages[CLOAK], scraped.stages[CLOAK]);
    assert_eq!(local.stages[PRIVATE_QUERY], scraped.stages[PRIVATE_QUERY]);
    assert_eq!(local.stages[PUBLIC_QUERY], scraped.stages[PUBLIC_QUERY]);
    assert_eq!(local.cloak_area, scraped.cloak_area);
    assert_eq!(local.achieved_k, scraped.achieved_k);
    assert_eq!(local.candidate_set_size, scraped.candidate_set_size);
    assert_eq!(local.cloak_failures, scraped.cloak_failures);

    // The text exposition renders every counter we just verified.
    let text = scraped.to_text();
    assert!(text.contains("lbsp_net_requests_served"));
    assert!(text.contains("stage=\"cloak\""));
    assert!(text.contains("kind=\"unknown_user\""));

    drop(client);
    let engine = server.shutdown();
    // The registry rode along with the engine: still one failure there.
    assert_eq!(
        engine.metrics_registry().snapshot().cloak_failures,
        [1, 0, 0]
    );
    assert_eq!(engine.population(), USERS as usize);
}
