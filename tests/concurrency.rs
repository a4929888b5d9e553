//! Equivalence tests for the engine.
//!
//! The contract under test: the engine's batching, count view and
//! stores are an *implementation detail* — every byte that crosses the
//! anonymizer → server trust boundary is identical to what the
//! sequential pipeline (`LocationAnonymizer<GridCloak>` + `Server`)
//! emits, at every batch size. Cloaking consumes only integer cell
//! counts and query candidates come back in canonical id order, so
//! equivalence is exact, not approximate.

use lbsp_anonymizer::{
    CloakError, CloakRequirement, CloakedRegion, CloakedUpdate, GridCloak, LocationAnonymizer,
    PrivacyProfile,
};
use lbsp_core::engine::{EngineConfig, ShardedEngine};
use lbsp_core::wire;
use lbsp_core::Stage;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_server::{
    private_range_candidates, CountAnswer, PublicCountQuery, PublicNnAnswer, PublicObject,
    PublicStore, Server,
};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

/// A seeded random population with mixed privacy requirements.
fn random_updates(seed: u64, n: u64) -> Vec<(u64, Point, SimTime)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            (i, p, SimTime::from_secs(rng.random_range(0.0..3600.0)))
        })
        .collect()
}

fn profile_for(i: u64) -> PrivacyProfile {
    // Cycle through k levels and an occasional area floor.
    let k = [2u32, 5, 10, 25][(i % 4) as usize];
    let a_min = if i.is_multiple_of(5) { 0.01 } else { 0.0 };
    PrivacyProfile::uniform(CloakRequirement {
        k,
        a_min,
        a_max: f64::INFINITY,
    })
    .unwrap()
}

fn sequential(refine: bool, n: u64) -> LocationAnonymizer<GridCloak> {
    let cfg = EngineConfig::new(world());
    let mut a = LocationAnonymizer::new(
        GridCloak::new(world(), cfg.grid_side).with_refinement(refine),
        cfg.secret,
    );
    for i in 0..n {
        a.register(i, profile_for(i));
    }
    a
}

fn engine(refine: bool, n: u64) -> ShardedEngine {
    let mut cfg = EngineConfig::new(world());
    cfg.refine = refine;
    let mut e = ShardedEngine::new(cfg, 1);
    for i in 0..n {
        e.register(i, profile_for(i));
    }
    e
}

/// Sequential anonymizer and engine agree on every cloak — region,
/// achieved k, flags, pseudonym — across seeds, with and without
/// multi-level refinement.
#[test]
fn sharded_equals_sequential_across_seeds() {
    for refine in [false, true] {
        for seed in [1u64, 7, 42] {
            let updates = random_updates(seed, 200);
            let mut seq = sequential(refine, 200);
            let mut eng = engine(refine, 200);
            let a = seq.handle_updates_batch(&updates);
            let b = eng.process_updates(&updates);
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                let x = x.as_ref().unwrap();
                let y = y.as_ref().unwrap();
                assert_eq!(x.pseudonym, y.pseudonym, "row {i} seed {seed}");
                assert_eq!(x.region, y.region, "row {i} seed {seed} refine {refine}");
            }
        }
    }
}

/// Users parked exactly on the quarter lines a four-node cluster splits
/// the world at — and cloaks that straddle them — behave identically to
/// the sequential path.
#[test]
fn shard_boundary_users_are_equivalent() {
    let n = 64u64;
    let mut seq = sequential(false, n);
    let mut eng = engine(false, n);
    // The quarter lines x = 0.25, 0.5, 0.75, and the world edges where
    // clamping applies.
    let xs = [0.0, 0.25, 0.5, 0.75, 1.0];
    let updates: Vec<(u64, Point, SimTime)> = (0..n)
        .map(|i| {
            let x = xs[(i % 5) as usize];
            let y = (i as f64 / n as f64).min(0.999);
            (i, Point::new(x, y), SimTime::ZERO)
        })
        .collect();
    let a = seq.handle_updates_batch(&updates);
    let b = eng.process_updates(&updates);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
        assert_eq!(x.region, y.region, "boundary row {i}");
        // Sparse columns force merges across those lines; the regions
        // must still contain the subject.
        assert!(y.region.region.contains_point(updates[i].1));
    }
    // A boundary user moving along the boundary line stays single-copy.
    eng.process_updates(&[(0, Point::new(0.5, 0.9), SimTime::from_secs(1.0))]);
    assert_eq!(eng.population(), n as usize);
}

/// Private range queries: the engine's candidates, in id order, equal
/// the sequential server's candidate set, and the wire request carries
/// the same cloak the sequential anonymizer would produce.
#[test]
fn range_queries_match_unsharded_server() {
    let mut rng = StdRng::seed_from_u64(5);
    let objects: Vec<PublicObject> = (0..150u64)
        .map(|id| {
            PublicObject::new(
                id,
                Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                0,
            )
        })
        .collect();
    let updates = random_updates(11, 120);
    let mut seq = sequential(false, 120);
    let server = Server::new(objects.clone());
    let mut eng = engine(false, 120);
    eng.load_public(objects);
    seq.handle_updates_batch(&updates);
    eng.process_updates(&updates);
    for user in [0u64, 3, 57, 119] {
        for radius in [0.05, 0.2] {
            let ans = eng.range_query(user, SimTime::ZERO, radius).unwrap();
            let q = seq.cloak_query(user, SimTime::ZERO).unwrap();
            assert_eq!(q.region, ans.region, "user {user}");
            let mut expect = server.private_range(&q.region.region, radius);
            expect.sort_unstable_by_key(|o| o.id);
            assert_eq!(ans.candidates, expect, "user {user} radius {radius}");
            // Round-trip the response hop.
            let decoded = wire::decode_candidates(&ans.response).unwrap();
            let expect_pairs: Vec<(u64, Point)> = expect.iter().map(|o| (o.id, o.pos)).collect();
            assert_eq!(decoded, expect_pairs);
        }
    }
}

/// 10k users through the engine: every cloak satisfies its
/// requirement, the private store tracks one record per user, and a
/// second full-population batch (all users moving) stays consistent.
#[test]
fn ten_thousand_user_smoke() {
    let n = 10_000u64;
    let mut eng = engine(false, n);
    let updates = random_updates(1234, n);
    let out = eng.process_updates(&updates);
    assert_eq!(out.len(), n as usize);
    for (i, res) in out.iter().enumerate() {
        let u = res.as_ref().unwrap();
        assert!(u.region.k_satisfied, "row {i}");
        assert!(u.region.region.contains_point(updates[i].1));
    }
    assert_eq!(eng.population(), n as usize);
    assert_eq!(eng.private_len(), n as usize);
    // Everybody moves: population and record counts must not drift.
    let mut moved = random_updates(5678, n);
    for (i, u) in moved.iter_mut().enumerate() {
        u.2 = SimTime::from_secs(60.0 + i as f64);
    }
    let out = eng.process_updates(&moved);
    assert!(out.iter().all(|r| r.is_ok()));
    assert_eq!(eng.population(), n as usize);
    assert_eq!(eng.private_len(), n as usize);
    // Every record is its user's latest cloak, which covers where it went.
    let mut want: Vec<(u64, Rect)> = out
        .iter()
        .flatten()
        .map(|u| (u.pseudonym.0, u.region.region))
        .collect();
    want.sort_unstable_by_key(|&(p, _)| p);
    assert_eq!(eng.export_state().records, want);
    for (m, u) in moved.iter().zip(out.iter().flatten()) {
        assert!(u.region.region.contains_point(m.1));
    }
}

/// The per-object range predicate is shard-decomposable: the union of
/// per-shard candidate lists over a partition of the objects equals the
/// candidates over the whole set — checked directly on the primitive.
#[test]
fn candidate_predicate_is_partition_invariant() {
    let mut rng = StdRng::seed_from_u64(77);
    let objects: Vec<PublicObject> = (0..80u64)
        .map(|id| {
            PublicObject::new(
                id,
                Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                0,
            )
        })
        .collect();
    let whole = PublicStore::bulk_load(objects.clone());
    // Partition into 3 arbitrary stores.
    let mut parts = vec![Vec::new(), Vec::new(), Vec::new()];
    for o in &objects {
        parts[(o.id % 3) as usize].push(*o);
    }
    let stores: Vec<PublicStore> = parts.into_iter().map(PublicStore::bulk_load).collect();
    let cloak = Rect::new_unchecked(0.3, 0.3, 0.6, 0.6);
    for radius in [0.0, 0.1, 0.4] {
        let mut merged: Vec<PublicObject> = stores
            .iter()
            .flat_map(|s| private_range_candidates(s, &cloak, radius))
            .collect();
        merged.sort_unstable_by_key(|o| o.id);
        let mut expect = private_range_candidates(&whole, &cloak, radius);
        expect.sort_unstable_by_key(|o| o.id);
        assert_eq!(merged, expect, "radius {radius}");
    }
}

/// What the engine and the sequential anonymizer made of the
/// batch-size script.
struct Transcript {
    /// The engine's replies: cloaked-update bytes or the error text.
    replies: Vec<Result<Vec<u8>, String>>,
    /// The sequential anonymizer's replies to the same batches.
    sequential: Vec<Result<Vec<u8>, String>>,
    /// Every drained standing change, one list per batch.
    changes: Vec<Vec<u64>>,
    /// `cloak` and `standing_update` stage counts, `cloak_area` and
    /// `achieved_k` sample counts.
    samples: [u64; 4],
}

/// Coordinates on the lines a cloak or a cluster could split at — the
/// quarter lines 1/4, 1/2 and 3/4 (a four-node cluster's stripe
/// boundaries), the cell edges 3/16 and 13/16, the sub-cell edge
/// 67/256 — and on and just past the world's edges: a user past one
/// counts in no cell, and its own cloak starts from the border cell.
const EDGES: [f64; 10] = [
    -1.0 / 1024.0,
    0.0,
    3.0 / 16.0,
    0.25,
    67.0 / 256.0,
    0.5,
    0.75,
    13.0 / 16.0,
    1.0,
    1.0 + 1.0 / 1024.0,
];

/// Requires the engine's private records to be the reference server's —
/// the sequential anonymizer's replies ingested one by one — and its
/// standing count to be a full recompute over that server's store.
fn assert_private_plane_matches(e: &ShardedEngine, server: &Server, count: u64, rows: usize) {
    let mut want: Vec<(u64, Rect)> = server
        .private()
        .iter()
        .map(|r| (r.pseudonym, r.region))
        .collect();
    want.sort_unstable_by_key(|&(p, _)| p);
    assert_eq!(e.export_state().records, want, "{rows}-row batches");
    let counts = e.standing_counts();
    let full = PublicCountQuery::new(counts.area(count).unwrap()).evaluate(server.private().iter());
    assert_eq!(
        counts.interval(count),
        Some((full.certain, full.possible)),
        "{rows}-row batches"
    );
    // The registry sums incrementally, the recompute in one pass: the two
    // may round apart in the last bits, never further.
    assert!((counts.expected(count).unwrap() - full.expected).abs() < 1e-9);
}

/// One script — duplicate users inside a batch, moves across the world,
/// users on quarter, cell and world edges, unknown users, a `k = 1` point
/// cloak, a standing count and a standing range registered — cut into
/// batches of `rows`, and fed to the engine and to the sequential
/// anonymizer alike. After every batch the engine's private plane must
/// be the reference server's.
fn run_batch_size_script(rows: usize) -> Transcript {
    const USERS: u64 = 120;
    const POINT_USER: u64 = 7;
    let mut e = engine(true, USERS);
    let mut seq = sequential(true, USERS);
    let k1 = PrivacyProfile::uniform(CloakRequirement::k_only(1)).unwrap();
    e.register(POINT_USER, k1.clone());
    seq.register(POINT_USER, k1);
    let mut rng = StdRng::seed_from_u64(2024);
    let point =
        |rng: &mut StdRng| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
    e.load_public(
        (0..60u64)
            .map(|id| PublicObject::new(id, point(&mut rng), 0))
            .collect(),
    );
    let mut server = Server::new(Vec::new());
    let ingest = |server: &mut Server, replies: &[Result<CloakedUpdate, CloakError>]| {
        for u in replies.iter().flatten() {
            server.ingest(u.pseudonym.0, u.region.region);
        }
    };
    let placement = random_updates(3, USERS);
    e.process_updates(&placement);
    ingest(&mut server, &seq.handle_updates_batch(&placement));
    let count = e.add_standing_count(Rect::new_unchecked(0.2, 0.2, 0.8, 0.8));
    e.add_standing_range(11, 0.15);

    let mut script: Vec<(u64, Point, SimTime)> = Vec::new();
    for row in 0..700u64 {
        let user = match row {
            // The same user twice running, at two positions: both rows
            // must cloak where the second one lands.
            _ if row % 7 == 6 => script[row as usize - 1].0,
            _ if row.is_multiple_of(53) => 9_000 + row,
            _ if row.is_multiple_of(29) => POINT_USER,
            _ if row.is_multiple_of(13) => 11,
            _ => rng.random_range(0..USERS),
        };
        // Uniform positions: three moves in four change quarter. Every
        // third row lands on `EDGES` lines instead, so users move onto,
        // off and across them within a batch and between batches.
        let pos = if row % 3 == 1 {
            let mut edge = || EDGES[rng.random_range(0..EDGES.len())];
            Point::new(edge(), edge())
        } else {
            point(&mut rng)
        };
        script.push((user, pos, SimTime::from_secs(row as f64)));
    }

    let as_bytes = |r: Result<CloakedUpdate, CloakError>| {
        r.map(|u| wire::encode_cloaked_update(&u).to_vec())
            .map_err(|e| e.to_string())
    };
    let mut t = Transcript {
        replies: Vec::new(),
        sequential: Vec::new(),
        changes: Vec::new(),
        samples: [0; 4],
    };
    for batch in script.chunks(rows) {
        t.replies
            .extend(e.process_updates(batch).into_iter().map(as_bytes));
        let replies = seq.handle_updates_batch(batch);
        ingest(&mut server, &replies);
        t.sequential.extend(replies.into_iter().map(as_bytes));
        t.changes.push(e.take_standing_changes());
        assert_private_plane_matches(&e, &server, count, rows);
    }
    let obs = e.metrics_registry();
    t.samples = [
        obs.stage(Stage::Cloak).count(),
        obs.stage(Stage::StandingUpdate).count(),
        obs.cloak_area().count(),
        obs.achieved_k().count(),
    ];
    t
}

/// At every batch size, from one row at a time to 256, the engine's
/// replies equal the sequential anonymizer's byte for byte, and the
/// engine samples once per call and once per cloaked row.
#[test]
fn batch_sizes_agree_bytewise_with_the_sequential_anonymizer() {
    for rows in [1usize, 2, 31, 32, 33, 256] {
        let t = run_batch_size_script(rows);
        let batches = 700usize.div_ceil(rows) as u64;
        assert_eq!(t.replies.len(), 700);
        assert!(t.replies.iter().any(Result::is_err), "unknown users fail");
        assert!(t.changes.iter().any(|c| !c.is_empty()));
        assert_eq!(t.replies, t.sequential, "{rows}-row batches");
        // One cloak-stage sample per call (plus the placement batch),
        // one area and one k sample per cloaked row.
        let ok = t.replies.iter().filter(|r| r.is_ok()).count() as u64;
        assert_eq!(t.samples, [batches + 1, batches, ok + 120, ok + 120]);
    }
}

/// Users that ask for no privacy: their cloaks are their points, with
/// zero area, on the engine and the sequential reference alike.
const POINT_USERS: std::ops::Range<u64> = 200..206;

/// Bit patterns of a candidate list: id and both coordinates.
fn object_bits(objects: &[PublicObject]) -> Vec<(u64, u64, u64)> {
    objects
        .iter()
        .map(|o| (o.id, o.pos.x.to_bits(), o.pos.y.to_bits()))
        .collect()
}

/// Bit patterns of a Fig. 6a answer: the expected count, the interval
/// and every contribution.
fn count_bits(a: &CountAnswer) -> (u64, usize, usize, Vec<(u64, u64)>) {
    let contributions = a.contributions.iter().map(|&(p, q)| (p, q.to_bits()));
    (
        a.expected.to_bits(),
        a.certain,
        a.possible,
        contributions.collect(),
    )
}

/// Bit patterns of a Fig. 6b answer: every candidate's probability and
/// distance band.
fn nn_bits(a: &PublicNnAnswer) -> Vec<(u64, u64, u64, u64)> {
    a.candidates
        .iter()
        .map(|c| {
            let bits = |x: f64| x.to_bits();
            (
                c.pseudonym,
                bits(c.probability),
                bits(c.min_dist),
                bits(c.max_dist),
            )
        })
        .collect()
}

/// Public objects of the query-equivalence cases.
fn query_objects() -> Vec<PublicObject> {
    let mut rng = StdRng::seed_from_u64(35);
    (0..120u64)
        .map(|id| {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            PublicObject::new(id, p, 0)
        })
        .collect()
}

/// Fig. 6 probes: count areas (one the whole world, one a sliver) and
/// NN query points (one on a corner, one outside the world).
const COUNT_AREAS: [(f64, f64, f64, f64); 4] = [
    (0.0, 0.0, 1.0, 1.0),
    (0.2, 0.1, 0.55, 0.7),
    (0.5, 0.5, 0.5625, 0.53),
    (0.9, 0.0, 1.3, 0.2),
];
const NN_POINTS: [(f64, f64); 4] = [(0.5, 0.5), (0.0, 0.0), (0.13, 0.87), (1.2, -0.1)];

/// The four queries of one engine, at every probe, as bit patterns.
type QueryBits = (
    Vec<Result<(CloakedRegion, Vec<(u64, u64, u64)>), CloakError>>,
    Vec<(u64, usize, usize, Vec<(u64, u64)>)>,
    Vec<Vec<(u64, u64, u64, u64)>>,
);

/// Asks the engine every query of the equivalence cases: NN and kNN
/// (k = 1, 3, 8) for `users`, then the Fig. 6 probes.
fn engine_query_bits(e: &ShardedEngine, users: &[u64], time: SimTime) -> QueryBits {
    let mut private = Vec::new();
    for &user in users {
        let bits = |a: lbsp_core::CandidateAnswer| (a.region, object_bits(&a.candidates));
        private.push(e.nn_query(user, time).map(bits));
        for k in [1usize, 3, 8] {
            private.push(e.knn_query(user, time, k).map(bits));
        }
    }
    let counts = COUNT_AREAS
        .iter()
        .map(|&(x0, y0, x1, y1)| count_bits(&e.public_count(Rect::new_unchecked(x0, y0, x1, y1))));
    let nns = NN_POINTS
        .iter()
        .map(|&(x, y)| nn_bits(&e.public_nn(Point::new(x, y))));
    (private, counts.collect(), nns.collect())
}

/// The same queries of the sequential parts: the anonymizer cloaks, the
/// server answers over the cloak.
fn sequential_query_bits(
    seq: &LocationAnonymizer<GridCloak>,
    server: &mut Server,
    users: &[u64],
    time: SimTime,
) -> QueryBits {
    let mut private = Vec::new();
    for &user in users {
        let cloak = seq.cloak_query(user, time).map(|q| q.region);
        private.push(cloak.clone().map(|c| {
            let cands = server.private_nn(&c.region);
            (c, object_bits(&cands))
        }));
        for k in [1usize, 3, 8] {
            private.push(cloak.clone().map(|c| {
                let cands = server.private_knn(&c.region, k);
                (c, object_bits(&cands))
            }));
        }
    }
    let counts = COUNT_AREAS.iter().map(|&(x0, y0, x1, y1)| {
        count_bits(&server.public_count(Rect::new_unchecked(x0, y0, x1, y1)))
    });
    let counts: Vec<_> = counts.collect();
    let nns = NN_POINTS
        .iter()
        .map(|&(x, y)| nn_bits(&server.public_nn(Point::new(x, y))));
    (private, counts, nns.collect())
}

/// Fig. 5b's NN and kNN and Fig. 6's public count and public NN on the
/// engine equal the sequential anonymizer plus `Server`, bit for bit:
/// every cloak, every candidate, every expected count and every NN
/// probability. Refinement off and on; first with no records (every
/// user registered, none placed), then with 200 users placed, six of
/// them with k = 1, whose cloaks have zero area.
#[test]
fn nn_and_public_queries_match_the_sequential_server() {
    let users: Vec<u64> = [0u64, 3, 57, 119, 199, 9_999]
        .into_iter()
        .chain(POINT_USERS)
        .collect();
    let k1 = PrivacyProfile::uniform(CloakRequirement::k_only(1)).unwrap();
    for refine in [false, true] {
        let mut seq = sequential(refine, 200);
        let mut eng = engine(refine, 200);
        for id in POINT_USERS {
            seq.register(id, k1.clone());
            eng.register(id, k1.clone());
        }
        let mut server = Server::new(query_objects());
        eng.load_public(query_objects());

        let empty = engine_query_bits(&eng, &users, SimTime::ZERO);
        assert_eq!(eng.private_len(), 0);
        assert!(empty.0.iter().all(Result::is_err), "no user is placed");
        let (expected, certain, possible, contributions) = &empty.1[0];
        assert_eq!(f64::from_bits(*expected), 0.0);
        assert_eq!((*certain, *possible, contributions.len()), (0, 0, 0));
        assert!(empty.2.iter().all(Vec::is_empty));
        let want = sequential_query_bits(&seq, &mut server, &users, SimTime::ZERO);
        assert_eq!(empty, want, "no records, refine {refine}");

        let mut updates = random_updates(35, 206);
        for (i, row) in updates.iter_mut().enumerate().skip(200) {
            // Point users on a cell edge, a world corner and in a crowd.
            row.1 = [Point::new(0.5, 0.5), Point::new(0.0, 0.0)][i % 2];
        }
        for u in seq.handle_updates_batch(&updates).iter().flatten() {
            server.ingest(u.pseudonym.0, u.region.region);
        }
        eng.process_updates(&updates);
        let time = SimTime::from_secs(60.0);
        let got = engine_query_bits(&eng, &users, time);
        let zero_area = |r: &Result<(CloakedRegion, _), _>| {
            r.as_ref().is_ok_and(|(c, _)| c.region.area() == 0.0)
        };
        assert_eq!(got.0.iter().filter(|r| zero_area(r)).count(), 6 * 4);
        assert!(got.1.iter().all(|c| c.2 > 0), "every area holds a cloak");
        assert!(got.2.iter().all(|c| !c.is_empty()));
        let want = sequential_query_bits(&seq, &mut server, &users, time);
        assert_eq!(got, want, "refine {refine}");
    }
}
