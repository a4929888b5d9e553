//! Public range counting over private data (Fig. 6a).
//!
//! "Figure 6a seeks the count of mobile users inside a certain
//! rectangular area. Dealing with each object as a non-zero size object
//! would return five as the query answer, which is [a] totally
//! inaccurate answer. Thus, it is better to deal with each object
//! individually."
//!
//! Each intersecting cloak contributes with probability equal to its
//! overlap ratio (the paper's uniform-position assumption), and the
//! answer is offered in the paper's three formats:
//!
//! 1. **absolute value** — the expected count (the paper's
//!    `1 + 0.75 + 0.5 + 0.2 + 0.25 = 2.7`);
//! 2. **interval** — `[certain, possible]` (the paper's `[1, 5]`);
//! 3. **probability density function** — `(i, p_i)` pairs over the
//!    interval, computed exactly via [`PoissonBinomial`].

use crate::{PoissonBinomial, PrivateRecord, PseudonymId};
use lbsp_geom::Rect;

/// A public count query: how many mobile users are inside `area`?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublicCountQuery {
    /// The query rectangle.
    pub area: Rect,
}

/// The probabilistic answer, in all three of the paper's formats.
#[derive(Debug, Clone, PartialEq)]
pub struct CountAnswer {
    /// Format 1: the expected count (sum of inclusion probabilities).
    pub expected: f64,
    /// Format 2, lower end: users certainly inside (overlap ratio 1).
    pub certain: usize,
    /// Format 2, upper end: users possibly inside (overlap ratio > 0).
    pub possible: usize,
    /// Format 3: `P(count = k)` for `k` in `0..=possible`.
    pub pdf: PoissonBinomial,
    /// The per-user evidence: `(pseudonym, inclusion probability)` for
    /// every cloak with non-zero overlap, in descending probability.
    pub contributions: Vec<(PseudonymId, f64)>,
}

impl PublicCountQuery {
    /// Creates the query.
    pub fn new(area: Rect) -> PublicCountQuery {
        PublicCountQuery { area }
    }

    /// Evaluates against cloaked records: a [`crate::PrivateStore`]'s,
    /// those of its records that intersect the area, or any other
    /// `(pseudonym, rectangle)` table. Records that miss the area
    /// contribute nothing, and the answer does not depend on the order
    /// they come in.
    pub fn evaluate(&self, records: impl IntoIterator<Item = PrivateRecord>) -> CountAnswer {
        let mut contributions: Vec<(PseudonymId, f64)> = records
            .into_iter()
            .filter_map(|rec| {
                let p = rec.region.overlap_fraction(&self.area);
                (p > 0.0).then_some((rec.pseudonym, p))
            })
            .collect();
        contributions.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let probs: Vec<f64> = contributions.iter().map(|&(_, p)| p).collect();
        let certain = probs.iter().filter(|&&p| p >= 1.0).count();
        CountAnswer {
            expected: probs.iter().sum(),
            certain,
            possible: probs.len(),
            pdf: PoissonBinomial::new(&probs),
            contributions,
        }
    }
}

impl CountAnswer {
    /// The naive non-zero-size-object answer the paper criticizes: count
    /// every intersecting cloak as 1.
    pub fn naive_count(&self) -> usize {
        self.possible
    }

    /// Probability that the true count equals `k`.
    pub fn probability_of(&self, k: usize) -> f64 {
        self.pdf.pmf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrivateStore;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new_unchecked(x0, y0, x1, y1)
    }

    /// The exact worked example of Fig. 6a: six cloaked objects with
    /// overlap ratios 1.0 (D), 0.75 (A), 0.5 (B), 0.2 (E), 0.25 (F) and
    /// 0.0 (C).
    fn paper_store_and_query() -> (PrivateStore, PublicCountQuery) {
        let query = PublicCountQuery::new(rect(0.0, 0.0, 1.0, 1.0));
        let mut store = PrivateStore::new();
        // D: fully inside -> ratio 1.
        store.upsert(PrivateRecord::new(3, rect(0.4, 0.4, 0.6, 0.6)));
        // A: 75% inside (one quarter sticks out left).
        store.upsert(PrivateRecord::new(0, rect(-0.1, 0.0, 0.3, 0.2)));
        // B: 50% inside.
        store.upsert(PrivateRecord::new(1, rect(0.8, 0.2, 1.2, 0.4)));
        // E: 20% inside.
        store.upsert(PrivateRecord::new(4, rect(0.9, 0.6, 1.4, 0.8)));
        // F: 25% inside.
        store.upsert(PrivateRecord::new(5, rect(0.9, 0.9, 1.1, 1.1)));
        // C: completely outside -> ratio 0.
        store.upsert(PrivateRecord::new(2, rect(1.5, 1.5, 1.7, 1.7)));
        (store, query)
    }

    #[test]
    fn paper_worked_example_absolute_value() {
        let (store, query) = paper_store_and_query();
        let ans = query.evaluate(store.iter());
        assert!(
            (ans.expected - 2.7).abs() < 1e-9,
            "paper's 1 + 0.75 + 0.5 + 0.2 + 0.25 = 2.7, got {}",
            ans.expected
        );
    }

    #[test]
    fn paper_worked_example_interval() {
        let (store, query) = paper_store_and_query();
        let ans = query.evaluate(store.iter());
        assert_eq!((ans.certain, ans.possible), (1, 5), "paper's [1, 5]");
        assert_eq!(ans.naive_count(), 5, "the inaccurate non-zero-size answer");
    }

    #[test]
    fn paper_worked_example_pdf() {
        let (store, query) = paper_store_and_query();
        let ans = query.evaluate(store.iter());
        // P(0) = 0 because D is certain; mass concentrates on [1, 5].
        assert!(ans.probability_of(0) < 1e-12);
        let total: f64 = (1..=5).map(|k| ans.probability_of(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // PDF mean agrees with the absolute-value format.
        assert!((ans.pdf.mean() - ans.expected).abs() < 1e-9);
        // Exact spot check: P(count = 5) = 0.75 * 0.5 * 0.2 * 0.25.
        assert!((ans.probability_of(5) - 0.01875).abs() < 1e-12);
    }

    #[test]
    fn contributions_are_sorted_and_labeled() {
        let (store, query) = paper_store_and_query();
        let ans = query.evaluate(store.iter());
        assert_eq!(ans.contributions.len(), 5, "C (zero overlap) excluded");
        let probs: Vec<f64> = ans.contributions.iter().map(|&(_, p)| p).collect();
        let expect = [1.0, 0.75, 0.5, 0.25, 0.2];
        for (got, want) in probs.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert_eq!(ans.contributions[0].0, 3, "D is the certain one");
    }

    #[test]
    fn empty_store_answers_zero() {
        let store = PrivateStore::new();
        let ans = PublicCountQuery::new(rect(0.0, 0.0, 1.0, 1.0)).evaluate(store.iter());
        assert_eq!(ans.expected, 0.0);
        assert_eq!((ans.certain, ans.possible), (0, 0));
        assert!((ans.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cloak_counts_as_point() {
        // A k=1 user (exact location) contributes 0 or 1, never a
        // fraction.
        let mut store = PrivateStore::new();
        store.upsert(PrivateRecord::new(
            1,
            Rect::from_point(lbsp_geom::Point::new(0.5, 0.5)),
        ));
        store.upsert(PrivateRecord::new(
            2,
            Rect::from_point(lbsp_geom::Point::new(2.0, 2.0)),
        ));
        let ans = PublicCountQuery::new(rect(0.0, 0.0, 1.0, 1.0)).evaluate(store.iter());
        assert_eq!(ans.expected, 1.0);
        assert_eq!((ans.certain, ans.possible), (1, 1));
    }

    #[test]
    fn touching_cloak_contributes_zero() {
        // A cloak sharing only an edge has zero overlap area.
        let mut store = PrivateStore::new();
        store.upsert(PrivateRecord::new(1, rect(1.0, 0.0, 1.5, 1.0)));
        let ans = PublicCountQuery::new(rect(0.0, 0.0, 1.0, 1.0)).evaluate(store.iter());
        assert_eq!(ans.possible, 0);
        assert_eq!(ans.expected, 0.0);
    }

    #[test]
    fn accuracy_degrades_with_larger_cloaks() {
        // The same 4 users with exact positions inside the query would
        // count 4; huge cloaks dilute the expected count — the
        // privacy/accuracy trade-off the experiments measure.
        let query = PublicCountQuery::new(rect(0.0, 0.0, 0.5, 0.5));
        let mut tight = PrivateStore::new();
        let mut loose = PrivateStore::new();
        for i in 0..4u64 {
            let c = lbsp_geom::Point::new(0.1 + 0.1 * i as f64, 0.25);
            tight.upsert(PrivateRecord::new(
                i,
                Rect::centered_square(c, 0.01).unwrap(),
            ));
            loose.upsert(PrivateRecord::new(
                i,
                Rect::centered_square(c, 0.4).unwrap(),
            ));
        }
        let t = query.evaluate(tight.iter());
        let l = query.evaluate(loose.iter());
        assert!((t.expected - 4.0).abs() < 1e-9);
        assert!(
            l.expected < 3.0,
            "loose cloaks leak mass out: {}",
            l.expected
        );
        assert_eq!(t.certain, 4);
        assert_eq!(l.certain, 0);
    }
}
