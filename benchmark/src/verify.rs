//! Output checks: the paper's contract, applied to replies.
//!
//! Set-up compares a scripted prefix byte for byte against an
//! in-process reference engine; timed phases keep one reply in
//! [`KEEP_ONE_IN`] and check the invariants afterwards, off the clock.

use crate::gen::{k_of, Op};
use lbsp_core::wire;
use lbsp_server::PublicObject;

/// Timed phases keep every n-th reply for checking.
pub const KEEP_ONE_IN: u64 = 64;
/// Minimum cloak area of every profile the benchmark registers.
pub const A_MIN: f64 = 0.0;

/// What the system answered, as wire bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `CLOAKED_UPDATE` payload.
    Cloaked(Vec<u8>),
    /// `CANDIDATES` payload.
    Candidates(Vec<u8>),
}

/// A cloaked update must decode, contain the point that was sent, honour
/// A_min and reach the user's k.
fn check_cloak(bytes: &[u8], user: u64, pos: lbsp_geom::Point) -> Result<(), String> {
    let u = wire::decode_cloaked_update(bytes)
        .ok_or_else(|| format!("user {user}: CLOAKED_UPDATE does not decode"))?;
    let r = u.region;
    if !r.region.contains_point(pos) {
        return Err(format!("user {user}: cloak {:?} misses {pos:?}", r.region));
    }
    if r.region.area() < A_MIN {
        return Err(format!("user {user}: cloak area below A_min"));
    }
    if !r.k_satisfied || r.achieved_k < k_of(user) {
        return Err(format!(
            "user {user}: k {} not reached (achieved {})",
            k_of(user),
            r.achieved_k
        ));
    }
    Ok(())
}

/// A candidate list must decode, come in ascending id order, and hold
/// every POI within `radius` of where the user truly is — the paper's
/// inclusiveness contract, by brute force over the seeded POI set.
fn check_candidates(
    bytes: &[u8],
    user: u64,
    at: lbsp_geom::Point,
    radius: f64,
    pois: &[PublicObject],
) -> Result<(), String> {
    let cands = wire::decode_candidates(bytes)
        .ok_or_else(|| format!("user {user}: CANDIDATES does not decode"))?;
    if !cands.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(format!("user {user}: candidate ids not ascending"));
    }
    for o in pois.iter().filter(|o| o.pos.dist(at) <= radius) {
        if cands.binary_search_by_key(&o.id, |c| c.0).is_err() {
            return Err(format!(
                "user {user}: POI {} within radius is missing",
                o.id
            ));
        }
    }
    Ok(())
}

/// Checks one kept `(request, reply)` pair.
pub fn check(op: &Op, answer: &Answer, pois: &[PublicObject]) -> Result<(), String> {
    match (op, answer) {
        (Op::Update { user, pos, .. }, Answer::Cloaked(b)) => check_cloak(b, *user, *pos),
        (
            Op::Query {
                user, at, radius, ..
            },
            Answer::Candidates(b),
        ) => check_candidates(b, *user, *at, *radius, pois),
        _ => Err("reply kind does not match the request".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_anonymizer::{CloakedRegion, CloakedUpdate, Pseudonym};
    use lbsp_geom::{Point, Rect, SimTime};

    fn cloak(region: Rect, achieved_k: u32) -> Answer {
        Answer::Cloaked(
            wire::encode_cloaked_update(&CloakedUpdate {
                pseudonym: Pseudonym(1),
                region: CloakedRegion {
                    region,
                    achieved_k,
                    k_satisfied: achieved_k >= 2,
                    area_satisfied: true,
                },
                time: SimTime::from_secs(0.0),
            })
            .to_vec(),
        )
    }

    #[test]
    fn cloak_violations_are_caught() {
        let t = SimTime::from_secs(0.0);
        let op = Op::Update {
            user: 0,
            pos: Point::new(0.5, 0.5),
            t,
        };
        let good = Rect::new_unchecked(0.4, 0.4, 0.6, 0.6);
        assert!(check(&op, &cloak(good, 3), &[]).is_ok());
        assert!(check(&op, &cloak(good, 1), &[]).is_err());
        let off = Rect::new_unchecked(0.0, 0.0, 0.1, 0.1);
        assert!(check(&op, &cloak(off, 3), &[]).is_err());
        assert!(check(&op, &Answer::Cloaked(vec![1, 2, 3]), &[]).is_err());
        assert!(check(&op, &Answer::Candidates(vec![0; 4]), &[]).is_err());
    }

    #[test]
    fn missing_or_unordered_candidates_are_caught() {
        let pois = [
            PublicObject::new(1, Point::new(0.50, 0.51), 0),
            PublicObject::new(2, Point::new(0.52, 0.50), 0),
            PublicObject::new(3, Point::new(0.90, 0.90), 0),
        ];
        let op = Op::Query {
            user: 0,
            at: Point::new(0.5, 0.5),
            radius: 0.05,
            t: SimTime::from_secs(0.0),
        };
        let list = |ids: &[u64]| {
            let v: Vec<(u64, Point)> = ids
                .iter()
                .map(|id| (*id, pois[(*id - 1) as usize].pos))
                .collect();
            Answer::Candidates(wire::encode_candidates(&v).to_vec())
        };
        assert!(check(&op, &list(&[1, 2]), &pois).is_ok());
        assert!(check(&op, &list(&[1, 2, 3]), &pois).is_ok());
        assert!(check(&op, &list(&[1]), &pois).is_err());
        assert!(check(&op, &list(&[2, 1]), &pois).is_err());
    }
}
