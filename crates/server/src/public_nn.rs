//! Public nearest-neighbor queries over private data (Fig. 6b).
//!
//! "A public object (e.g., a gas station) asks about its nearest mobile
//! user to send her a personalized e-coupon." The mobile users are only
//! known as cloaked rectangles, so the answer is probabilistic. The
//! paper's pruning rule: eliminate user `A` when some user `D` satisfies
//! "any location of object D within its cloaked region would be more
//! near to the gas station than any location of [A]" — i.e.
//! `max_dist(q, D) < min_dist(q, A)`.
//!
//! The three answer formats of the paper are all provided:
//! 1. the set of potential nearest users;
//! 2. the single user with the highest probability of being nearest;
//! 3. a probability density function `{(user, p_user)}`.
//!
//! Win probabilities are estimated by seeded Monte-Carlo integration
//! under the paper's stated uniform-position assumption; each candidate's
//! position is sampled independently inside its cloak and the nearest
//! one wins the round.

use crate::{PrivateRecord, PseudonymId};
use lbsp_geom::{max_dist_point_rect, min_dist_point_rect, uniform_point_in_rect, Point, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One candidate's estimated probability of being the nearest user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnProbability {
    /// The candidate's pseudonym.
    pub pseudonym: PseudonymId,
    /// Estimated `P(this user is the nearest)`.
    pub probability: f64,
    /// Closest possible distance to the query point.
    pub min_dist: f64,
    /// Farthest possible distance to the query point.
    pub max_dist: f64,
}

/// The full answer to a public NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicNnAnswer {
    /// Candidates with probabilities, sorted by descending probability
    /// (format 3; its keys are format 1; its head is format 2).
    pub candidates: Vec<NnProbability>,
}

impl PublicNnAnswer {
    /// Format 1: the set of potential nearest users.
    pub fn candidate_set(&self) -> Vec<PseudonymId> {
        self.candidates.iter().map(|c| c.pseudonym).collect()
    }

    /// Format 2: the most probable nearest user.
    pub fn most_probable(&self) -> Option<PseudonymId> {
        self.candidates.first().map(|c| c.pseudonym)
    }

    /// Total probability mass (≈ 1 when any candidate exists).
    pub fn total_probability(&self) -> f64 {
        self.candidates.iter().map(|c| c.probability).sum()
    }
}

/// A public NN query issued from an exact location (e.g. a gas station).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublicNnQuery {
    /// The querying object's exact location.
    pub from: Point,
    /// Monte-Carlo rounds for probability estimation.
    pub samples: u32,
    /// RNG seed so answers are reproducible.
    pub seed: u64,
}

impl PublicNnQuery {
    /// Creates a query with default estimation parameters.
    pub fn new(from: Point) -> PublicNnQuery {
        PublicNnQuery {
            from,
            samples: 4096,
            seed: 0x5EED,
        }
    }

    /// Overrides the Monte-Carlo sample count.
    pub fn with_samples(mut self, samples: u32) -> PublicNnQuery {
        self.samples = samples.max(1);
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> PublicNnQuery {
        self.seed = seed;
        self
    }

    /// The paper's pruning rule: keep a record iff no other record's
    /// max-distance beats its min-distance. Survivors come in ascending
    /// pseudonym order: a store iterates a randomly keyed hash map, and
    /// [`Self::evaluate`] draws one sample per candidate in turn, so any
    /// other order would tie the estimates to the process.
    pub fn candidate_records(
        &self,
        records: impl IntoIterator<Item = PrivateRecord>,
    ) -> Vec<(PseudonymId, Rect)> {
        let mut records: Vec<(PseudonymId, Rect)> = records
            .into_iter()
            .map(|r| (r.pseudonym, r.region))
            .collect();
        if records.is_empty() {
            return Vec::new();
        }
        records.sort_unstable_by_key(|&(pseudonym, _)| pseudonym);
        let best_max = records
            .iter()
            .map(|(_, r)| max_dist_point_rect(self.from, r))
            .fold(f64::INFINITY, f64::min);
        records
            .into_iter()
            .filter(|(_, r)| min_dist_point_rect(self.from, r) <= best_max)
            .collect()
    }

    /// Evaluates the query over cloaked records (a
    /// [`crate::PrivateStore`]'s or any other `(pseudonym, rectangle)`
    /// table): prune, then estimate win probabilities.
    pub fn evaluate(&self, records: impl IntoIterator<Item = PrivateRecord>) -> PublicNnAnswer {
        let candidates = self.candidate_records(records);
        if candidates.is_empty() {
            return PublicNnAnswer {
                candidates: Vec::new(),
            };
        }
        if candidates.len() == 1 {
            let (pseudonym, region) = candidates[0];
            return PublicNnAnswer {
                candidates: vec![NnProbability {
                    pseudonym,
                    probability: 1.0,
                    min_dist: min_dist_point_rect(self.from, &region),
                    max_dist: max_dist_point_rect(self.from, &region),
                }],
            };
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut wins = vec![0u32; candidates.len()];
        for _ in 0..self.samples {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (i, (_, region)) in candidates.iter().enumerate() {
                let p = uniform_point_in_rect(&mut rng, region);
                let d = self.from.dist_sq(p);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            wins[best] += 1;
        }
        let mut out: Vec<NnProbability> = candidates
            .iter()
            .zip(&wins)
            .map(|(&(pseudonym, region), &w)| NnProbability {
                pseudonym,
                probability: w as f64 / self.samples as f64,
                min_dist: min_dist_point_rect(self.from, &region),
                max_dist: max_dist_point_rect(self.from, &region),
            })
            .collect();
        out.sort_by(|a, b| {
            b.probability
                .total_cmp(&a.probability)
                .then(a.pseudonym.cmp(&b.pseudonym))
        });
        PublicNnAnswer { candidates: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrivateStore;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new_unchecked(x0, y0, x1, y1)
    }

    /// Geometry mirroring Fig. 6b: gas station `q`, with D close, E and
    /// F overlapping D's distance band, and A, B, C strictly dominated
    /// by D.
    fn paper_store() -> (Point, PrivateStore) {
        let q = Point::new(0.5, 0.5);
        let mut store = PrivateStore::new();
        // D: tight cloak near the query. Distances in [0.04, ~0.061].
        store.upsert(PrivateRecord::new(3, rect(0.54, 0.49, 0.56, 0.51)));
        // E: cloak whose min distance (0.04) beats D's max somewhere.
        store.upsert(PrivateRecord::new(4, rect(0.42, 0.46, 0.46, 0.54)));
        // F: another overlapping band, min 0.055, max ~0.13.
        store.upsert(PrivateRecord::new(5, rect(0.5, 0.555, 0.56, 0.615)));
        // A, B, C: min distances all beyond D's max (~0.061).
        store.upsert(PrivateRecord::new(0, rect(0.1, 0.1, 0.2, 0.2)));
        store.upsert(PrivateRecord::new(1, rect(0.8, 0.8, 0.9, 0.9)));
        store.upsert(PrivateRecord::new(2, rect(0.1, 0.8, 0.2, 0.9)));
        (q, store)
    }

    #[test]
    fn paper_worked_example_candidate_set() {
        let (q, store) = paper_store();
        let ans = PublicNnQuery::new(q).evaluate(store.iter());
        let mut set = ans.candidate_set();
        set.sort_unstable();
        assert_eq!(set, vec![3, 4, 5], "the paper's {{E, D, F}}");
    }

    #[test]
    fn paper_worked_example_most_probable_is_d() {
        let (q, store) = paper_store();
        let ans = PublicNnQuery::new(q)
            .with_samples(20_000)
            .evaluate(store.iter());
        // D's whole cloak sits at distance <= 0.078 while E and F are
        // mostly farther: D should win the probability race.
        assert_eq!(ans.most_probable(), Some(3));
        assert!((ans.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pruning_rule_matches_paper_quote() {
        let (q, store) = paper_store();
        let query = PublicNnQuery::new(q);
        let cands = query.candidate_records(store.iter());
        let ids: Vec<_> = cands.iter().map(|&(id, _)| id).collect();
        for dominated in [0u64, 1, 2] {
            assert!(
                !ids.contains(&dominated),
                "any location of D is nearer than any location of {dominated}"
            );
        }
    }

    #[test]
    fn empty_store() {
        let store = PrivateStore::new();
        let ans = PublicNnQuery::new(Point::ORIGIN).evaluate(store.iter());
        assert!(ans.candidates.is_empty());
        assert_eq!(ans.most_probable(), None);
        assert_eq!(ans.total_probability(), 0.0);
    }

    #[test]
    fn single_candidate_gets_probability_one() {
        let mut store = PrivateStore::new();
        store.upsert(PrivateRecord::new(9, rect(0.4, 0.4, 0.6, 0.6)));
        let ans = PublicNnQuery::new(Point::ORIGIN).evaluate(store.iter());
        assert_eq!(ans.candidates.len(), 1);
        assert_eq!(ans.candidates[0].probability, 1.0);
        assert!(ans.candidates[0].min_dist > 0.0);
        assert!(ans.candidates[0].max_dist >= ans.candidates[0].min_dist);
    }

    #[test]
    fn symmetric_cloaks_split_probability_evenly() {
        // Two congruent cloaks mirrored across the query point must get
        // ~equal win probability — an analytic anchor for the
        // Monte-Carlo estimator.
        let q = Point::new(0.5, 0.5);
        let mut store = PrivateStore::new();
        store.upsert(PrivateRecord::new(1, rect(0.2, 0.4, 0.4, 0.6)));
        store.upsert(PrivateRecord::new(2, rect(0.6, 0.4, 0.8, 0.6)));
        let ans = PublicNnQuery::new(q)
            .with_samples(40_000)
            .evaluate(store.iter());
        for c in &ans.candidates {
            assert!(
                (c.probability - 0.5).abs() < 0.02,
                "pseudonym {} got {}",
                c.pseudonym,
                c.probability
            );
        }
    }

    #[test]
    fn disjoint_distance_bands_are_deterministic() {
        // When one cloak's max distance is below the other's min, the
        // near one wins with probability 1 (and the far one is pruned).
        let q = Point::new(0.0, 0.0);
        let mut store = PrivateStore::new();
        store.upsert(PrivateRecord::new(1, rect(0.1, 0.1, 0.2, 0.2)));
        store.upsert(PrivateRecord::new(2, rect(0.7, 0.7, 0.8, 0.8)));
        let ans = PublicNnQuery::new(q).evaluate(store.iter());
        assert_eq!(ans.candidate_set(), vec![1]);
        assert_eq!(ans.candidates[0].probability, 1.0);
    }

    #[test]
    fn answers_are_reproducible_across_runs() {
        let (q, store) = paper_store();
        let a = PublicNnQuery::new(q).with_seed(7).evaluate(store.iter());
        let b = PublicNnQuery::new(q).with_seed(7).evaluate(store.iter());
        assert_eq!(a, b);
        let c = PublicNnQuery::new(q).with_seed(8).evaluate(store.iter());
        // Same candidates, slightly different estimates.
        assert_eq!(a.candidate_set().len(), c.candidate_set().len());
    }

    #[test]
    fn answers_do_not_depend_on_store_iteration_order() {
        // Eight overlapping candidates in two stores filled in opposite
        // orders: each store's hash map iterates in its own order, and
        // the estimates must not notice.
        let q = Point::new(0.5, 0.5);
        let records: Vec<PrivateRecord> = (0..8u64)
            .map(|i| {
                let x = 0.52 + 0.01 * i as f64;
                PrivateRecord::new(i, rect(x, 0.45, x + 0.1, 0.55))
            })
            .collect();
        let mut forward = PrivateStore::new();
        let mut backward = PrivateStore::new();
        for (a, b) in records.iter().zip(records.iter().rev()) {
            forward.upsert(*a);
            backward.upsert(*b);
        }
        let query = PublicNnQuery::new(q).with_samples(2_000);
        let a = query.evaluate(forward.iter());
        assert_eq!(a.candidates.len(), 8);
        assert_eq!(a, query.evaluate(backward.iter()));
    }

    #[test]
    fn analytic_1d_check() {
        // Query at origin; two unit-height cloaks on the x-axis:
        // X1 ~ U[1, 2] (degenerate in y), X2 ~ U[1, 2]. By symmetry each
        // wins 1/2. Then shift cloak 2 to U[1.5, 2.5]:
        // P(X2 < X1) = P(U2 < U1) where U1~U[1,2], U2~U[1.5,2.5]:
        // = ∫ P(U2 < u) f1(u) du = ∫_{1.5}^{2} (u-1.5) du = 0.125.
        let q = Point::new(0.0, 0.0);
        let mut store = PrivateStore::new();
        store.upsert(PrivateRecord::new(1, rect(1.0, 0.0, 2.0, 0.0)));
        store.upsert(PrivateRecord::new(2, rect(1.5, 0.0, 2.5, 0.0)));
        let ans = PublicNnQuery::new(q)
            .with_samples(60_000)
            .evaluate(store.iter());
        let p2 = ans
            .candidates
            .iter()
            .find(|c| c.pseudonym == 2)
            .unwrap()
            .probability;
        assert!((p2 - 0.125).abs() < 0.01, "analytic 0.125 vs {p2}");
    }
}
