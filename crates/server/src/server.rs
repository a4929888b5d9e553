//! The privacy-aware location-based database server, assembled.
//!
//! Fig. 1 draws the server as one box with two inputs — cloaked updates
//! from the location anonymizer and public queries from untrusted
//! parties — and this type is that box: it owns the public and private
//! stores and the standing-query registry, and exposes one typed method
//! per supported operation. It is driven
//! directly (see the crate tests), which is exactly what an untrusted
//! third party does. The `lbsp-core` engine answers the same queries
//! with the same processors over stores of its own, and the equivalence
//! tests hold it to this type bit for bit.

use crate::{
    private_knn_candidates, private_nn_candidates, private_private_range_count,
    private_range_candidates, ContinuousRangeCount, CountAnswer, PrivatePrivateCountAnswer,
    PrivatePrivateNnAnswer, PrivatePrivateNnQuery, PrivateRecord, PrivateStore, PseudonymId,
    PublicCountQuery, PublicNnAnswer, PublicNnQuery, PublicObject, PublicStore,
};
use lbsp_geom::{Point, Rect};

/// The assembled privacy-aware database server.
#[derive(Debug, Default)]
pub struct Server {
    public: PublicStore,
    private: PrivateStore,
    continuous: ContinuousRangeCount,
}

impl Server {
    /// Creates a server with the given public dataset.
    pub fn new(public_objects: Vec<PublicObject>) -> Server {
        Server {
            public: PublicStore::bulk_load(public_objects),
            private: PrivateStore::new(),
            continuous: ContinuousRangeCount::new(),
        }
    }

    /// Read access to the public store.
    pub fn public(&self) -> &PublicStore {
        &self.public
    }

    /// Mutable access to the public store (moving public objects —
    /// police cars — update through here).
    pub fn public_mut(&mut self) -> &mut PublicStore {
        &mut self.public
    }

    /// Read access to the private store (everything the server knows
    /// about mobile users).
    pub fn private(&self) -> &PrivateStore {
        &self.private
    }

    /// Ingests a cloaked update from the anonymizer: replaces the
    /// pseudonym's stored region and feeds the standing queries.
    pub fn ingest(&mut self, pseudonym: PseudonymId, region: Rect) {
        let old = self.private.upsert(PrivateRecord::new(pseudonym, region));
        self.continuous
            .on_update(pseudonym, old.as_ref(), Some(&region));
    }

    /// Private range query over public data (Fig. 5a).
    pub fn private_range(&self, cloak: &Rect, radius: f64) -> Vec<PublicObject> {
        private_range_candidates(&self.public, cloak, radius)
    }

    /// Private NN query over public data (Fig. 5b).
    pub fn private_nn(&self, cloak: &Rect) -> Vec<PublicObject> {
        private_nn_candidates(&self.public, cloak)
    }

    /// Private k-NN query over public data (extension).
    pub fn private_knn(&self, cloak: &Rect, k: usize) -> Vec<PublicObject> {
        private_knn_candidates(&self.public, cloak, k)
    }

    /// Public count query over private data (Fig. 6a).
    pub fn public_count(&self, area: Rect) -> CountAnswer {
        PublicCountQuery::new(area).evaluate(self.private.intersecting(&area))
    }

    /// Public NN query over private data (Fig. 6b).
    pub fn public_nn(&self, from: Point) -> PublicNnAnswer {
        PublicNnQuery::new(from).evaluate(self.private.iter())
    }

    /// Private NN over private data (Sec. 6.1's fourth cell).
    pub fn private_friend_nn(&self, cloak: &Rect, querier: PseudonymId) -> PrivatePrivateNnAnswer {
        PrivatePrivateNnQuery::new(*cloak, querier).evaluate(&self.private)
    }

    /// Private range count over private data.
    pub fn private_friend_count(
        &self,
        cloak: &Rect,
        querier: PseudonymId,
        radius: f64,
    ) -> PrivatePrivateCountAnswer {
        private_private_range_count(
            &self.private,
            cloak,
            querier,
            radius,
            2048,
            querier ^ 0xC0DE,
        )
    }

    /// Registers a standing count query seeded from the current records.
    pub fn add_standing_count(&mut self, area: Rect) -> u64 {
        self.continuous
            .register(area, self.private.iter().map(|r| (r.pseudonym, r.region)))
    }

    /// The standing-query registry.
    pub fn continuous(&self) -> &ContinuousRangeCount {
        &self.continuous
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pois() -> Vec<PublicObject> {
        (0..50)
            .map(|i| PublicObject::new(i, Point::new(0.1 + 0.016 * i as f64, 0.5), (i % 3) as u32))
            .collect()
    }

    #[test]
    fn ingest_and_query_lifecycle() {
        let mut s = Server::new(pois());
        assert_eq!(s.public().len(), 50);
        let qid = s.add_standing_count(Rect::new_unchecked(0.0, 0.0, 1.0, 1.0));
        // Ingest three cloaked users.
        for i in 0..3u64 {
            s.ingest(100 + i, Rect::new_unchecked(0.2, 0.2, 0.4, 0.4));
        }
        assert_eq!(s.private().len(), 3);
        assert_eq!(s.continuous().expected(qid), Some(3.0));
        // Every query class answers.
        let cloak = Rect::new_unchecked(0.3, 0.45, 0.5, 0.55);
        assert!(!s.private_range(&cloak, 0.1).is_empty());
        assert!(!s.private_nn(&cloak).is_empty());
        assert!(s.private_knn(&cloak, 5).len() >= 5);
        let count = s.public_count(Rect::new_unchecked(0.0, 0.0, 0.5, 0.5));
        assert!(count.expected > 0.0);
        let nn = s.public_nn(Point::new(0.3, 0.3));
        assert!(!nn.candidates.is_empty());
        let friends = s.private_friend_nn(&cloak, 100);
        assert!(!friends.candidates.is_empty());
        let fc = s.private_friend_count(&cloak, 100, 0.5);
        assert!(fc.possible >= 1);
    }

    #[test]
    fn moving_public_objects_through_the_facade() {
        let mut s = Server::new(pois());
        // Police car 0 relocates; private NN must see the new position.
        assert!(s.public_mut().update_position(0, Point::new(0.9, 0.9)));
        let cloak = Rect::new_unchecked(0.88, 0.88, 0.92, 0.92);
        let nn = s.private_nn(&cloak);
        assert!(nn.iter().any(|o| o.id == 0));
    }
}
