//! Shared execution of cloaking work (Sec. 5.3, approach 2).
//!
//! "Since both the server and the anonymizer do similar functionalities
//! for different users, many of the required procedures can be shared
//! among different users. Our plan is to identify such shared procedures
//! and execute them only once for all users."
//!
//! For space-dependent cloaks the shareable procedure is obvious: two
//! users in the same grid/quadtree cell with the same requirement receive
//! the *same* cloaked region, so one computation serves the whole group.
//! [`SharedExecutor`] groups a batch of cloak requests by a
//! caller-provided sharing key (typically the user's cell), computes one
//! representative cloak per group, and fans the result out. A parallel
//! variant shards groups across threads with `std::thread::scope`.
//!
//! Sharing is only *sound* for algorithms whose output is position-
//! independent within the sharing key — exactly the space-dependent
//! family. Data-dependent cloaks (naive/MBR) must not be batched this
//! way; the executor is generic but the system layer only applies it to
//! grid and quadtree cloaks.

use crate::cloak::{CloakRequirement, CloakedRegion, CloakingAlgorithm};
use crate::{CloakError, UserId};
use std::collections::HashMap;

/// A batch request: one user, one requirement.
#[derive(Debug, Clone, Copy)]
pub struct CloakRequest {
    /// The user to cloak.
    pub user: UserId,
    /// The requirement in force.
    pub requirement: CloakRequirement,
}

/// Groups requests that provably share one cloak computation.
pub struct SharedExecutor;

/// A requirement key with total equality (bit patterns), so requirements
/// can participate in hash-map grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ReqKey {
    k: u32,
    a_min_bits: u64,
    a_max_bits: u64,
}

impl From<&CloakRequirement> for ReqKey {
    fn from(r: &CloakRequirement) -> Self {
        ReqKey {
            k: r.k,
            a_min_bits: r.a_min.to_bits(),
            a_max_bits: r.a_max.to_bits(),
        }
    }
}

impl SharedExecutor {
    /// Cloaks a batch sequentially, computing one cloak per
    /// `(share_key(user), requirement)` group.
    ///
    /// `share_key` must return equal keys only for users whose cloak is
    /// guaranteed identical (same cell for space-dependent algorithms).
    /// Returns results in request order. Per-request errors (unknown
    /// users) are returned in-place.
    pub fn cloak_batch<A, K, F>(
        algo: &A,
        requests: &[CloakRequest],
        share_key: F,
    ) -> Vec<Result<CloakedRegion, CloakError>>
    where
        A: CloakingAlgorithm,
        K: std::hash::Hash + Eq + Copy,
        F: Fn(UserId) -> Option<K>,
    {
        let mut cache: HashMap<(K, ReqKey), Result<CloakedRegion, CloakError>> = HashMap::new();
        requests
            .iter()
            .map(|req| {
                let Some(key) = share_key(req.user) else {
                    return Err(CloakError::UnknownUser(req.user));
                };
                cache
                    .entry((key, ReqKey::from(&req.requirement)))
                    .or_insert_with(|| algo.cloak(req.user, &req.requirement))
                    .clone()
            })
            .collect()
    }

    /// Parallel variant: groups first, then shards group computations
    /// across `threads` OS threads. Worth it for large batches with many
    /// distinct groups; the sequential variant wins on small batches.
    pub fn cloak_batch_parallel<A, K, F>(
        algo: &A,
        requests: &[CloakRequest],
        share_key: F,
        threads: usize,
    ) -> Vec<Result<CloakedRegion, CloakError>>
    where
        A: CloakingAlgorithm,
        K: std::hash::Hash + Eq + Copy + Send + Sync,
        F: Fn(UserId) -> Option<K> + Sync,
    {
        let threads = threads.max(1);
        // Pass 1: assign each request to a group; remember one
        // representative user per group.
        let mut group_of: Vec<Option<usize>> = Vec::with_capacity(requests.len());
        let mut groups: Vec<(UserId, CloakRequirement)> = Vec::new();
        let mut index: HashMap<(K, ReqKey), usize> = HashMap::new();
        for req in requests {
            match share_key(req.user) {
                None => group_of.push(None),
                Some(key) => {
                    let gid = *index
                        .entry((key, ReqKey::from(&req.requirement)))
                        .or_insert_with(|| {
                            groups.push((req.user, req.requirement));
                            groups.len() - 1
                        });
                    group_of.push(Some(gid));
                }
            }
        }
        // Pass 2: compute one cloak per group, in parallel shards.
        let mut results: Vec<Option<Result<CloakedRegion, CloakError>>> = vec![None; groups.len()];
        let chunk = groups.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for (group_chunk, result_chunk) in groups.chunks(chunk).zip(results.chunks_mut(chunk)) {
                s.spawn(move || {
                    for ((user, req), slot) in group_chunk.iter().zip(result_chunk) {
                        *slot = Some(algo.cloak(*user, req));
                    }
                });
            }
        });
        // Pass 3: fan out.
        requests
            .iter()
            .zip(group_of)
            .map(|(req, gid)| match gid {
                None => Err(CloakError::UnknownUser(req.user)),
                Some(g) => results[g].clone().expect("every group computed"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridCloak, QuadCloak};
    use lbsp_geom::{Point, Rect};

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn seeded_grid() -> GridCloak {
        let mut g = GridCloak::new(world(), 8);
        for i in 0..100u64 {
            let x = 0.05 + 0.1 * (i % 10) as f64;
            let y = 0.05 + 0.1 * (i / 10) as f64;
            g.upsert(i, Point::new(x, y));
        }
        g
    }

    fn requests(k: u32) -> Vec<CloakRequest> {
        (0..100u64)
            .map(|user| CloakRequest {
                user,
                requirement: CloakRequirement::k_only(k),
            })
            .collect()
    }

    /// Sharing by quadtree/grid cell: same-cell users share a cloak.
    fn cell_key(algo: &GridCloak) -> impl Fn(UserId) -> Option<(u32, u32)> + Sync + '_ {
        move |id| {
            let p = algo.location(id)?;
            // 8x8 grid cells.
            let ix = (p.x * 8.0).floor().min(7.0) as u32;
            let iy = (p.y * 8.0).floor().min(7.0) as u32;
            Some((ix, iy))
        }
    }

    #[test]
    fn batch_matches_individual_cloaks() {
        let algo = seeded_grid();
        let reqs = requests(10);
        let batch = SharedExecutor::cloak_batch(&algo, &reqs, cell_key(&algo));
        for (req, got) in reqs.iter().zip(&batch) {
            let individual = algo.cloak(req.user, &req.requirement).unwrap();
            assert_eq!(
                got.as_ref().unwrap().region,
                individual.region,
                "user {}",
                req.user
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let algo = seeded_grid();
        let reqs = requests(10);
        let seq = SharedExecutor::cloak_batch(&algo, &reqs, cell_key(&algo));
        for threads in [1usize, 2, 4] {
            let par = SharedExecutor::cloak_batch_parallel(&algo, &reqs, cell_key(&algo), threads);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.as_ref().unwrap().region, b.as_ref().unwrap().region);
            }
        }
    }

    #[test]
    fn unknown_users_error_in_place() {
        let algo = seeded_grid();
        let reqs = vec![
            CloakRequest {
                user: 5,
                requirement: CloakRequirement::k_only(5),
            },
            CloakRequest {
                user: 999,
                requirement: CloakRequirement::k_only(5),
            },
        ];
        let out = SharedExecutor::cloak_batch(&algo, &reqs, cell_key(&algo));
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(CloakError::UnknownUser(999)));
        let out = SharedExecutor::cloak_batch_parallel(&algo, &reqs, cell_key(&algo), 2);
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(CloakError::UnknownUser(999)));
    }

    #[test]
    fn sharing_reduces_cloak_computations() {
        // Count actual cloak() calls via a spy wrapper.
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Spy<'a> {
            inner: &'a QuadCloak,
            calls: AtomicUsize,
        }
        impl CloakingAlgorithm for Spy<'_> {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn world(&self) -> Rect {
                self.inner.world()
            }
            fn upsert(&mut self, _: UserId, _: Point) {
                unreachable!()
            }
            fn remove(&mut self, _: UserId) -> bool {
                unreachable!()
            }
            fn location(&self, id: UserId) -> Option<Point> {
                self.inner.location(id)
            }
            fn population(&self) -> usize {
                self.inner.population()
            }
            fn count_in_region(&self, r: &Rect) -> usize {
                self.inner.count_in_region(r)
            }
            fn cloak(
                &self,
                id: UserId,
                req: &CloakRequirement,
            ) -> Result<CloakedRegion, CloakError> {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.cloak(id, req)
            }
        }
        let mut quad = QuadCloak::new(world(), 3);
        // 50 users all in one leaf cell.
        for i in 0..50u64 {
            quad.upsert(i, Point::new(0.51 + 0.001 * (i % 10) as f64, 0.51));
        }
        let spy = Spy {
            inner: &quad,
            calls: AtomicUsize::new(0),
        };
        let reqs: Vec<_> = (0..50u64)
            .map(|user| CloakRequest {
                user,
                requirement: CloakRequirement::k_only(10),
            })
            .collect();
        let leaf_key = |id: UserId| {
            quad.location(id)
                .map(|p| ((p.x * 8.0).floor() as u32, (p.y * 8.0).floor() as u32))
        };
        let out = SharedExecutor::cloak_batch(&spy, &reqs, leaf_key);
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(
            spy.calls.load(Ordering::Relaxed),
            1,
            "one computation for 50 users"
        );
    }
}
