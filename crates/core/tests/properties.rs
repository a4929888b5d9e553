//! Property-based tests for the system layer: wire-format round trips
//! and end-to-end pipeline invariants under arbitrary inputs.

use lbsp_anonymizer::{
    CloakError, CloakRequirement, CloakedRegion, CloakedUpdate, CloakingAlgorithm, GridCloak,
    LocationAnonymizer, PrivacyProfile, Pseudonym, QuadCloak,
};
use lbsp_core::wire::{
    self, decode_candidates, decode_cloaked_update, decode_exact_update, decode_range_query,
    decode_register, decode_user_query, encode_candidates, encode_cloaked_update,
    encode_exact_update, encode_range_query, encode_register, encode_user_query, ExactUpdateMsg,
    RangeQueryMsg, RegisterMsg, UserQueryMsg,
};
use lbsp_core::{EngineConfig, ShardedEngine};
use lbsp_geom::{Point, Rect, SimTime};
use proptest::prelude::*;

prop_compose! {
    fn upoint()(x in 0.0f64..1.0, y in 0.0f64..1.0) -> Point {
        Point::new(x, y)
    }
}

prop_compose! {
    fn urect()(x0 in -10.0f64..10.0, y0 in -10.0f64..10.0, w in 0.0f64..5.0, h in 0.0f64..5.0) -> Rect {
        Rect::new_unchecked(x0, y0, x0 + w, y0 + h)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_update_wire_roundtrip(
        user in any::<u64>(),
        p in upoint(),
        secs in 0.0f64..1e9,
    ) {
        let msg = ExactUpdateMsg { user, position: p, time: SimTime::from_secs(secs) };
        prop_assert_eq!(decode_exact_update(&encode_exact_update(&msg)), Some(msg));
    }

    #[test]
    fn cloaked_update_wire_roundtrip(
        pseudo in any::<u64>(),
        region in urect(),
        secs in 0.0f64..1e9,
        achieved in any::<u32>(),
        ks in any::<bool>(),
        asat in any::<bool>(),
    ) {
        let msg = CloakedUpdate {
            pseudonym: Pseudonym(pseudo),
            region: CloakedRegion {
                region,
                achieved_k: achieved,
                k_satisfied: ks,
                area_satisfied: asat,
            },
            time: SimTime::from_secs(secs),
        };
        prop_assert_eq!(decode_cloaked_update(&encode_cloaked_update(&msg)), Some(msg));
    }

    #[test]
    fn range_query_wire_roundtrip(
        pseudo in any::<u64>(),
        region in urect(),
        radius in 0.0f64..100.0,
        secs in 0.0f64..1e9,
    ) {
        let msg = RangeQueryMsg {
            pseudonym: Pseudonym(pseudo),
            region,
            radius,
            time: SimTime::from_secs(secs),
        };
        prop_assert_eq!(decode_range_query(&encode_range_query(&msg)), Some(msg));
    }

    #[test]
    fn candidates_wire_roundtrip(
        entries in prop::collection::vec((any::<u64>(), upoint()), 0..40),
    ) {
        let bytes = encode_candidates(&entries);
        prop_assert_eq!(bytes.len(), 4 + entries.len() * 24);
        prop_assert_eq!(decode_candidates(&bytes), Some(entries));
    }

    #[test]
    fn negative_or_nonfinite_radius_is_rejected(
        pseudo in any::<u64>(),
        region in urect(),
        radius in -100.0f64..-1e-12,
    ) {
        let msg = RangeQueryMsg {
            pseudonym: Pseudonym(pseudo),
            region,
            radius,
            time: SimTime::ZERO,
        };
        prop_assert_eq!(decode_range_query(&encode_range_query(&msg)), None);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let msg = RangeQueryMsg { radius: bad, ..msg };
            prop_assert_eq!(decode_range_query(&encode_range_query(&msg)), None);
        }
    }

    #[test]
    fn truncated_wire_messages_never_decode(
        pseudo in any::<u64>(),
        user in any::<u64>(),
        region in urect(),
        p in upoint(),
        entries in prop::collection::vec((any::<u64>(), upoint()), 1..8),
    ) {
        // Every proper prefix of every message type must be rejected.
        let cloaked = CloakedUpdate {
            pseudonym: Pseudonym(pseudo),
            region: CloakedRegion {
                region,
                achieved_k: 1,
                k_satisfied: true,
                area_satisfied: true,
            },
            time: SimTime::ZERO,
        };
        let bytes = encode_cloaked_update(&cloaked);
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_cloaked_update(&bytes[..cut]), None, "cloaked cut {}", cut);
        }
        let exact = ExactUpdateMsg { user, position: p, time: SimTime::ZERO };
        let bytes = encode_exact_update(&exact);
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_exact_update(&bytes[..cut]), None, "exact cut {}", cut);
        }
        let query = RangeQueryMsg {
            pseudonym: Pseudonym(pseudo),
            region,
            radius: 0.5,
            time: SimTime::ZERO,
        };
        let bytes = encode_range_query(&query);
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_range_query(&bytes[..cut]), None, "query cut {}", cut);
        }
        // Candidate lists: any cut must fail — even a cut right after
        // the length prefix, since the prefix then promises n >= 1
        // entries that are not present.
        let bytes = encode_candidates(&entries);
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_candidates(&bytes[..cut]), None, "candidates cut {}", cut);
        }
    }

    #[test]
    fn register_and_user_query_wire_roundtrip(
        user in any::<u64>(),
        k in any::<u32>(),
        a_min in 0.0f64..10.0,
        extra in 0.0f64..10.0,
        radius in 0.0f64..100.0,
        secs in 0.0f64..1e9,
    ) {
        let msg = RegisterMsg { user, k, a_min, a_max: a_min + extra };
        prop_assert_eq!(decode_register(&encode_register(&msg)), Some(msg));
        // An unbounded area ceiling is legal and survives the trip.
        let unbounded = RegisterMsg { a_max: f64::INFINITY, ..msg };
        prop_assert_eq!(decode_register(&encode_register(&unbounded)), Some(unbounded));
        // An inverted interval is rejected whenever it is truly inverted.
        if extra > 0.0 {
            let inverted = RegisterMsg { a_min: a_min + extra, a_max: a_min, ..msg };
            prop_assert_eq!(decode_register(&encode_register(&inverted)), None);
        }
        let q = UserQueryMsg { user, radius, time: SimTime::from_secs(secs) };
        prop_assert_eq!(decode_user_query(&encode_user_query(&q)), Some(q));
        let bad = UserQueryMsg { radius: -radius - 1e-9, ..q };
        prop_assert_eq!(decode_user_query(&encode_user_query(&bad)), None);
    }

    #[test]
    fn trailing_bytes_never_decode(
        pseudo in any::<u64>(),
        user in any::<u64>(),
        region in urect(),
        p in upoint(),
        entries in prop::collection::vec((any::<u64>(), upoint()), 0..8),
        junk in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        // Strictness property: a valid message followed by ANY extra
        // bytes must be rejected by every decoder. A framed transport
        // hands the codec exactly one payload; accepting trailing data
        // would let peers smuggle bytes past validation.
        let with_junk = |bytes: &[u8]| -> Vec<u8> {
            let mut v = bytes.to_vec();
            v.extend_from_slice(&junk);
            v
        };
        let exact = ExactUpdateMsg { user, position: p, time: SimTime::ZERO };
        prop_assert_eq!(decode_exact_update(&with_junk(&encode_exact_update(&exact))), None);
        let cloaked = CloakedUpdate {
            pseudonym: Pseudonym(pseudo),
            region: CloakedRegion {
                region,
                achieved_k: 3,
                k_satisfied: true,
                area_satisfied: false,
            },
            time: SimTime::ZERO,
        };
        prop_assert_eq!(decode_cloaked_update(&with_junk(&encode_cloaked_update(&cloaked))), None);
        let query = RangeQueryMsg {
            pseudonym: Pseudonym(pseudo),
            region,
            radius: 0.25,
            time: SimTime::ZERO,
        };
        prop_assert_eq!(decode_range_query(&with_junk(&encode_range_query(&query))), None);
        prop_assert_eq!(decode_candidates(&with_junk(&encode_candidates(&entries))), None);
        let reg = RegisterMsg { user, k: 4, a_min: 0.0, a_max: 1.0 };
        prop_assert_eq!(decode_register(&with_junk(&encode_register(&reg))), None);
        let uq = UserQueryMsg { user, radius: 0.25, time: SimTime::ZERO };
        prop_assert_eq!(decode_user_query(&with_junk(&encode_user_query(&uq))), None);
    }

    #[test]
    fn mirror_update_wire_roundtrip_and_strictness(
        user in any::<u64>(),
        p in upoint(),
        secs in 0.0f64..1e9,
        pseudo in any::<u64>(),
        region in urect(),
        cloaked in any::<bool>(),
        junk in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let msg = wire::MirrorUpdateMsg {
            row: ExactUpdateMsg { user, position: p, time: SimTime::from_secs(secs) },
            cloak: cloaked.then_some(CloakedUpdate {
                pseudonym: Pseudonym(pseudo),
                region: CloakedRegion {
                    region,
                    achieved_k: 4,
                    k_satisfied: true,
                    area_satisfied: false,
                },
                time: SimTime::from_secs(secs),
            }),
        };
        let bytes = wire::encode_mirror_update(&msg);
        prop_assert_eq!(wire::decode_mirror_update(&bytes), Some(msg));
        // Two legal lengths, nothing else: every proper prefix but the
        // bare row fails, and so does anything appended.
        for cut in (0..bytes.len()).filter(|&c| c != wire::MIRROR_UPDATE_ROW_LEN) {
            prop_assert_eq!(wire::decode_mirror_update(&bytes[..cut]), None, "cut {}", cut);
        }
        let mut long = bytes.to_vec();
        long.extend_from_slice(&junk);
        if long.len() != wire::MIRROR_UPDATE_CLOAKED_LEN {
            prop_assert_eq!(wire::decode_mirror_update(&long), None);
        }
    }

    #[test]
    fn carry_wire_roundtrip_and_strictness(
        frames in prop::collection::vec(
            (0usize..2, prop::collection::vec(any::<u8>(), 0..100)),
            0..12,
        ),
        request in prop::collection::vec(any::<u8>(), 0..40),
        smuggled in 0u8..0x26,
        at in any::<usize>(),
    ) {
        const MIRRORED: [u8; 2] = [wire::tag::MIRROR_UPDATE, wire::tag::STANDING_INSTALL];
        let frames: Vec<(u8, Vec<u8>)> = frames
            .into_iter()
            .map(|(t, p)| (MIRRORED[t], p))
            .collect();
        // The request is whatever follows the carried frames: a tag and
        // a payload, or nothing at all.
        let request = request
            .split_first()
            .filter(|(t, _)| **t != wire::tag::CARRY)
            .map(|(t, p)| (*t, p.to_vec()));
        let encode = |frames: &[(u8, Vec<u8>)]| {
            wire::encode_carry(
                frames.iter().map(|(t, p)| (*t, p.as_slice())),
                request.as_ref().map(|(t, p)| (*t, p.as_slice())),
            )
        };
        let bytes = encode(&frames).expect("a legal envelope encodes");
        let want = wire::CarryMsg { carried: frames.clone(), request: request.clone() };
        prop_assert_eq!(wire::decode_carry(&bytes), Some(want));

        // Cut anywhere before the last carried frame ends: refused.
        let carried_end = 2 + frames.iter().map(|(_, p)| 3 + p.len()).sum::<usize>();
        for cut in 0..carried_end {
            prop_assert_eq!(wire::decode_carry(&bytes[..cut]), None, "cut {}", cut);
        }
        // A client-facing tag, a frame that wants an answer, or an
        // envelope among the carried frames: refused by both ends,
        // wherever it sits.
        if !frames.is_empty() {
            for bad in [smuggled, wire::tag::CARRY] {
                let mut tampered = frames.clone();
                tampered[at % frames.len()].0 = bad;
                prop_assert!(encode(&tampered).is_none());
                let mut raw = bytes.to_vec();
                let off = 2 + frames[..at % frames.len()]
                    .iter()
                    .map(|(_, p)| 3 + p.len())
                    .sum::<usize>();
                raw[off] = bad;
                prop_assert_eq!(wire::decode_carry(&raw), None);
            }
        }
        // An envelope as the request: refused.
        let mut nested = bytes[..carried_end].to_vec();
        nested.push(wire::tag::CARRY);
        prop_assert_eq!(wire::decode_carry(&nested), None);
        // A count over the cap: refused before anything is read.
        let mut over = bytes.to_vec();
        over[..2].copy_from_slice(&(wire::CARRY_MAX_FRAMES as u16 + 1).to_le_bytes());
        prop_assert_eq!(wire::decode_carry(&over), None);
    }

    #[test]
    fn hostile_candidate_length_prefixes_never_decode(
        n_claimed in 1u32..=u32::MAX,
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A length prefix promising more entries than the buffer holds
        // (including prefixes whose n*24 would overflow usize math)
        // must be rejected, never trusted for allocation.
        prop_assume!(body.len() as u64 != u64::from(n_claimed) * 24);
        let mut bytes = n_claimed.to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        prop_assert_eq!(decode_candidates(&bytes), None);
    }

    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        // Fuzz-style: decoders must return None or a valid message, and
        // never panic, for arbitrary input.
        let _ = decode_exact_update(&bytes);
        if let Some(msg) = decode_cloaked_update(&bytes) {
            // Anything accepted satisfies the Rect invariant.
            prop_assert!(msg.region.region.min_x() <= msg.region.region.max_x());
            prop_assert!(msg.region.region.min_y() <= msg.region.region.max_y());
        }
        let _ = lbsp_core::wire::decode_range_query(&bytes);
        let _ = lbsp_core::wire::decode_candidates(&bytes);
        let _ = wire::decode_mirror_update(&bytes);
        let _ = wire::decode_carry_rejected(&bytes);
        if let Some(msg) = wire::decode_carry(&bytes) {
            prop_assert!(msg.carried.len() <= wire::CARRY_MAX_FRAMES);
            prop_assert!(msg.carried.iter().all(|(t, _)| (0x23..0x28).contains(t)));
        }
        if let Some(msg) = decode_register(&bytes) {
            prop_assert!(msg.a_min >= 0.0 && msg.a_max >= msg.a_min);
        }
        if let Some(msg) = decode_user_query(&bytes) {
            prop_assert!(msg.radius >= 0.0 && msg.radius.is_finite());
        }
    }

    #[test]
    fn histogram_summary_tracks_exact_summary(
        samples in prop::collection::vec(1e-6f64..1e6, 1..500),
    ) {
        // The streaming histogram keeps count/sum/min/max exactly and
        // buckets samples by power of two, so against the exact
        // sorted-vector summary: count/min/max identical, mean within
        // float-accumulation noise, p50/p95 within the documented
        // factor-2 bucket bound (all samples are in [2^-32, 2^32)).
        let hist = lbsp_core::Histogram::new();
        for s in &samples {
            hist.record(*s);
        }
        let approx = hist.summary();
        let exact = lbsp_core::metrics::Summary::of(&samples);
        prop_assert_eq!(approx.count, exact.count);
        prop_assert_eq!(approx.min, exact.min);
        prop_assert_eq!(approx.max, exact.max);
        prop_assert!(
            (approx.mean - exact.mean).abs() <= exact.mean.abs() * 1e-9,
            "mean {} vs exact {}", approx.mean, exact.mean,
        );
        for (a, e, which) in [(approx.p50, exact.p50, "p50"), (approx.p95, exact.p95, "p95")] {
            let ratio = a / e;
            prop_assert!(
                (0.5..=2.0).contains(&ratio),
                "{} {} vs exact {} (ratio {})", which, a, e, ratio,
            );
            // Interpolated percentiles also never escape the observed
            // value range.
            prop_assert!(a >= approx.min && a <= approx.max, "{} out of range", which);
        }
    }

    #[test]
    fn pipeline_pseudonymity_and_containment(
        pts in prop::collection::vec(upoint(), 5..60),
        k in 1u32..10,
    ) {
        let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
        let cfg = EngineConfig { secret: 0xFEED, ..EngineConfig::new(world) };
        let mut engine = ShardedEngine::new(cfg, 1);
        let profile = PrivacyProfile::uniform(CloakRequirement::k_only(k)).unwrap();
        let mut pseudonyms = std::collections::HashSet::new();
        for (i, p) in pts.iter().enumerate() {
            engine.register(i as u64, profile.clone());
            let row = (i as u64, *p, SimTime::ZERO);
            let u = engine.process_updates(&[row]).pop().unwrap().unwrap();
            // Region contains the true position; pseudonym is unique and
            // differs from the true id.
            prop_assert!(u.region.region.contains_point(*p));
            prop_assert!(pseudonyms.insert(u.pseudonym));
            prop_assert_ne!(u.pseudonym.0, i as u64);
        }
        prop_assert_eq!(engine.private_len(), pts.len());
    }

    #[test]
    fn batched_regions_contain_their_subjects(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..24, -0.1f64..1.1, -0.1f64..1.1, any::<bool>()), 1..40),
            1..5,
        ),
        ks in prop::collection::vec((1u32..6, any::<bool>()), 24..25),
    ) {
        // Mixed requirements (a third ask for no privacy), some rows
        // snapped onto cell lines, some out of the world, users moving
        // twice in one batch. A row's region must contain its subject's
        // final position whenever that lies in the world, on the engine
        // and on the sequential grid and quad cloaks, each refined and not.
        let world = Rect::new_unchecked(0.0, 0.0, 1.0, 1.0);
        let req = |u: u64| {
            let (k, none) = ks[u as usize];
            let k = if none || k == 5 { 1 } else { k };
            PrivacyProfile::uniform(CloakRequirement::k_only(k)).unwrap()
        };
        let rows: Vec<Vec<(u64, Point, SimTime)>> = batches
            .iter()
            .map(|b| {
                b.iter()
                    .map(|&(u, x, y, snap)| {
                        let at = |v: f64| if snap { (v * 4.0).round() / 4.0 } else { v };
                        (u, Point::new(at(x), at(y)), SimTime::ZERO)
                    })
                    .collect()
            })
            .collect();
        let check = |batch: &[(u64, Point, SimTime)],
                     out: &[Result<CloakedUpdate, CloakError>]|
         -> Result<(), TestCaseError> {
            for (&(u, _, _), got) in batch.iter().zip(out) {
                let last = batch.iter().rev().find(|r| r.0 == u).unwrap().1;
                let got = got.as_ref().unwrap().region.region;
                if world.contains_point(last) {
                    prop_assert!(got.contains_point(last), "user {} at {:?}: {:?}", u, last, got);
                }
            }
            Ok(())
        };
        // The engine's pseudonym secret, so the grid's bytes compare too.
        let secret = EngineConfig::new(world).secret;
        let sequential = |algo: Box<dyn CloakingAlgorithm>| {
            let mut a = LocationAnonymizer::new(algo, secret);
            for u in 0..24 {
                a.register(u, req(u));
            }
            rows.iter().map(|b| a.handle_updates_batch(b)).collect::<Vec<_>>()
        };
        for refine in [false, true] {
            let cfg = EngineConfig { grid_side: 4, refine, ..EngineConfig::new(world) };
            let mut engine = ShardedEngine::new(cfg, 1);
            for u in 0..24 {
                engine.register(u, req(u));
            }
            let grid = sequential(Box::new(GridCloak::new(world, 4).with_refinement(refine)));
            for (batch, want) in rows.iter().zip(&grid) {
                let got = engine.process_updates(batch);
                check(batch, &got)?;
                check(batch, want)?;
                prop_assert_eq!(&got, want, "engine and sequential grid, refine {}", refine);
            }
        }
        for (batch, out) in rows.iter().zip(sequential(Box::new(QuadCloak::new(world, 3)))) {
            check(batch, &out)?;
        }
    }
}
