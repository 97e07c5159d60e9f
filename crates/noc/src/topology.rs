//! 2-D mesh topology with XY routing.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A node (chiplet slot) in the mesh, identified by its dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Mesh coordinates: `x` is the column (0 = west edge), `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A `width × height` 2-D mesh (the paper's Simba package is 6×6; the
/// dual-NPU study uses 12×6).
///
/// # Examples
///
/// ```
/// use npu_noc::Mesh2d;
/// let m = Mesh2d::new(6, 6);
/// assert_eq!(m.len(), 36);
/// let n = m.node(5, 5);
/// assert_eq!(m.coord(n).x, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh2d {
    width: u32,
    height: u32,
}

impl Mesh2d {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh extents must be positive");
        Mesh2d { width, height }
    }

    /// Mesh width (columns).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// True for a degenerate 1×1 mesh only; kept for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn node(&self, x: u32, y: u32) -> NodeId {
        assert!(x < self.width && y < self.height, "coords out of range");
        NodeId(y * self.width + x)
    }

    /// Coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this mesh.
    pub fn coord(&self, n: NodeId) -> Coord {
        assert!((n.0 as usize) < self.len(), "node out of range");
        Coord {
            x: n.0 % self.width,
            y: n.0 / self.width,
        }
    }

    /// Iterates all nodes in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.width * self.height).map(NodeId)
    }

    /// Manhattan (XY-routed) hop count between two nodes.
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> u64 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        (ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn node_coord_roundtrip() {
        let m = Mesh2d::new(6, 6);
        for n in m.nodes() {
            let c = m.coord(n);
            assert_eq!(m.node(c.x, c.y), n);
        }
    }

    #[test]
    fn manhattan_examples() {
        let m = Mesh2d::new(6, 6);
        assert_eq!(m.manhattan(m.node(0, 0), m.node(0, 0)), 0);
        assert_eq!(m.manhattan(m.node(0, 0), m.node(5, 5)), 10);
        assert_eq!(m.manhattan(m.node(2, 1), m.node(4, 4)), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_coords_panic() {
        let _ = Mesh2d::new(6, 6).node(6, 0);
    }

    proptest! {
        /// Manhattan distance is symmetric and satisfies the triangle
        /// inequality.
        #[test]
        fn manhattan_metric(
            ax in 0u32..12, ay in 0u32..6, bx in 0u32..12, by in 0u32..6,
            cx in 0u32..12, cy in 0u32..6
        ) {
            let m = Mesh2d::new(12, 6);
            let (a, b, c) = (m.node(ax, ay), m.node(bx, by), m.node(cx, cy));
            prop_assert_eq!(m.manhattan(a, b), m.manhattan(b, a));
            prop_assert!(m.manhattan(a, c) <= m.manhattan(a, b) + m.manhattan(b, c));
        }
    }
}
