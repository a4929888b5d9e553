//! The cluster's region → node map.
//!
//! The world is cut into `n` equal-width vertical stripes and a position
//! belongs to the stripe containing its `x` coordinate, clamped at the
//! edges, so every point has exactly one owner.

use lbsp_geom::{Point, Rect};

/// Maps positions to the cluster node owning them.
#[derive(Debug, Clone, Copy)]
pub struct PartitionMap {
    world: Rect,
    nodes: usize,
}

impl PartitionMap {
    /// A map cutting `world` into `nodes` equal-width vertical stripes
    /// (`nodes` is clamped to at least 1).
    pub fn new(world: Rect, nodes: usize) -> PartitionMap {
        PartitionMap {
            world,
            nodes: nodes.max(1),
        }
    }

    /// Number of nodes in the map.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The world rectangle the map partitions.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// The node owning position `p`: a clamped floor over equal
    /// vertical stripes, so out-of-world positions land on the nearest
    /// edge node rather than erroring.
    // The cast is a clamped floor: NaN and negatives collapse to 0 via
    // `max`, and the `min` below bounds the top end.
    #[allow(clippy::cast_possible_truncation)]
    pub fn node_of(&self, p: Point) -> usize {
        let f = (p.x - self.world.min_x()) / self.world.width();
        let s = (f * self.nodes as f64).floor();
        (s.max(0.0) as usize).min(self.nodes - 1)
    }

    /// The stripe of world owned by `node` (for diagnostics and docs;
    /// routing uses [`PartitionMap::node_of`]). Out-of-range nodes get
    /// the whole world.
    pub fn region_of(&self, node: usize) -> Rect {
        let w = self.world.width() / self.nodes as f64;
        let lo = self.world.min_x() + w * node as f64;
        Rect::new(lo, self.world.min_y(), lo + w, self.world.max_y()).unwrap_or(self.world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0).unwrap()
    }

    #[test]
    fn stripes_cover_and_clamp() {
        let m = PartitionMap::new(unit(), 4);
        assert_eq!(m.node_of(Point::new(0.1, 0.5)), 0);
        assert_eq!(m.node_of(Point::new(0.26, 0.5)), 1);
        assert_eq!(m.node_of(Point::new(0.99, 0.5)), 3);
        // Edge clamping: out-of-world positions map to edge nodes.
        assert_eq!(m.node_of(Point::new(-5.0, 0.5)), 0);
        assert_eq!(m.node_of(Point::new(5.0, 0.5)), 3);
        // Exactly 1.0 is clamped into the last stripe.
        assert_eq!(m.node_of(Point::new(1.0, 0.5)), 3);
    }

    #[test]
    fn single_node_owns_everything() {
        let m = PartitionMap::new(unit(), 1);
        for x in [0.0, 0.3, 0.999, 12.0] {
            assert_eq!(m.node_of(Point::new(x, 0.0)), 0);
        }
        assert_eq!(m.region_of(0), unit());
    }

    #[test]
    fn regions_match_node_of() {
        let m = PartitionMap::new(unit(), 3);
        for node in 0..3 {
            let r = m.region_of(node);
            let c = r.center();
            assert_eq!(m.node_of(c), node);
        }
    }
}
