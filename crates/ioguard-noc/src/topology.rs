//! 2-D mesh coordinates, router ports and XY routing.
//!
//! XY (dimension-ordered) routing is the deterministic, deadlock-free
//! discipline used by predictability-focused meshes such as the paper's
//! BlueShell platform: a packet first travels along X to the destination
//! column, then along Y to the destination row.

use std::fmt;

/// Coordinates of a mesh node (column `x`, row `y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId {
    /// Column (0-based, grows eastward).
    pub x: u16,
    /// Row (0-based, grows southward).
    pub y: u16,
}

impl NodeId {
    /// Creates a node id from mesh coordinates.
    pub const fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan (hop) distance to another node.
    pub fn hops_to(self, other: NodeId) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Router port direction. `Local` is the network-interface port of the
/// attached core/peripheral.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward decreasing `y`.
    North,
    /// Toward increasing `y`.
    South,
    /// Toward increasing `x`.
    East,
    /// Toward decreasing `x`.
    West,
    /// The locally attached endpoint.
    Local,
}

impl Direction {
    /// All five ports in a fixed order (used to index per-port state).
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
        Direction::Local,
    ];

    /// Dense index of this port in [`Direction::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// The port on the neighbouring router that faces back at this one.
    ///
    /// # Panics
    ///
    /// Panics on [`Direction::Local`], which has no opposite.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            // lint: allow(panic-site) — documented API contract (# Panics): Local has no opposite
            Direction::Local => panic!("local port has no opposite"),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// A rectangular mesh: dimensions plus coordinate helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero (validated constructors live in
    /// [`crate::network::NetworkConfig`]).
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Self { width, height }
    }

    /// Mesh width (columns).
    pub const fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub const fn height(self) -> u16 {
        self.height
    }

    /// Total node count.
    pub const fn nodes(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// True when `node` lies inside the mesh.
    pub fn contains(self, node: NodeId) -> bool {
        node.x < self.width && node.y < self.height
    }

    /// Dense index of `node` (row-major).
    pub fn index_of(self, node: NodeId) -> usize {
        node.y as usize * self.width as usize + node.x as usize
    }

    /// Node at dense index `idx`.
    pub fn node_at(self, idx: usize) -> NodeId {
        NodeId::new(
            (idx % self.width as usize) as u16,
            (idx / self.width as usize) as u16,
        )
    }

    /// The neighbour of `node` in direction `dir`, if inside the mesh.
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (x, y) = (node.x, node.y);
        let next = match dir {
            Direction::North => (x, y.checked_sub(1)?),
            Direction::South => (x, y + 1),
            Direction::East => (x + 1, y),
            Direction::West => (x.checked_sub(1)?, y),
            Direction::Local => return None,
        };
        let next = NodeId::new(next.0, next.1);
        self.contains(next).then_some(next)
    }

    /// XY routing decision at `here` for a packet headed to `dst`:
    /// the output port to take (Local when `here == dst`).
    pub fn xy_route(self, here: NodeId, dst: NodeId) -> Direction {
        if here.x < dst.x {
            Direction::East
        } else if here.x > dst.x {
            Direction::West
        } else if here.y < dst.y {
            Direction::South
        } else if here.y > dst.y {
            Direction::North
        } else {
            Direction::Local
        }
    }

    /// The full XY path from `src` to `dst`, inclusive of both endpoints.
    pub fn xy_path(self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = vec![src];
        let mut here = src;
        while here != dst {
            let dir = self.xy_route(here, dst);
            // lint: allow(panic-site) — xy_route only steps toward dst, so the neighbor exists while here != dst
            here = self.neighbor(here, dir).expect("xy route stays in mesh");
            path.push(here);
        }
        path
    }

    /// Iterates over all node ids in row-major order.
    pub fn iter_nodes(self) -> impl Iterator<Item = NodeId> {
        let width = self.width;
        (0..self.nodes())
            .map(move |i| NodeId::new((i % width as usize) as u16, (i / width as usize) as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_display_and_distance() {
        let a = NodeId::new(0, 0);
        let b = NodeId::new(3, 4);
        assert_eq!(a.to_string(), "(0,0)");
        assert_eq!(a.hops_to(b), 7);
        assert_eq!(b.hops_to(a), 7);
        assert_eq!(a.hops_to(a), 0);
    }

    #[test]
    fn direction_index_is_dense_and_stable() {
        for (i, d) in Direction::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn direction_opposites() {
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::East.opposite(), Direction::West);
        assert_eq!(Direction::West.opposite(), Direction::East);
        assert_eq!(Direction::South.opposite(), Direction::North);
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_has_no_opposite() {
        let _ = Direction::Local.opposite();
    }

    #[test]
    fn mesh_contains_and_indexing_roundtrip() {
        let m = Mesh::new(5, 5);
        assert_eq!(m.nodes(), 25);
        assert!(m.contains(NodeId::new(4, 4)));
        assert!(!m.contains(NodeId::new(5, 0)));
        for idx in 0..m.nodes() {
            assert_eq!(m.index_of(m.node_at(idx)), idx);
        }
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh::new(3, 3);
        let corner = NodeId::new(0, 0);
        assert_eq!(m.neighbor(corner, Direction::North), None);
        assert_eq!(m.neighbor(corner, Direction::West), None);
        assert_eq!(m.neighbor(corner, Direction::East), Some(NodeId::new(1, 0)));
        assert_eq!(
            m.neighbor(corner, Direction::South),
            Some(NodeId::new(0, 1))
        );
        assert_eq!(m.neighbor(corner, Direction::Local), None);
        let far = NodeId::new(2, 2);
        assert_eq!(m.neighbor(far, Direction::East), None);
        assert_eq!(m.neighbor(far, Direction::South), None);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let m = Mesh::new(5, 5);
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(2, 3);
        assert_eq!(m.xy_route(src, dst), Direction::East);
        assert_eq!(m.xy_route(NodeId::new(2, 0), dst), Direction::South);
        assert_eq!(m.xy_route(dst, dst), Direction::Local);
        assert_eq!(m.xy_route(NodeId::new(4, 3), dst), Direction::West);
        assert_eq!(m.xy_route(NodeId::new(2, 4), dst), Direction::North);
    }

    #[test]
    fn xy_path_has_hop_count_length() {
        let m = Mesh::new(5, 5);
        let src = NodeId::new(1, 4);
        let dst = NodeId::new(4, 0);
        let path = m.xy_path(src, dst);
        assert_eq!(path.len() as u32, src.hops_to(dst) + 1);
        assert_eq!(*path.first().unwrap(), src);
        assert_eq!(*path.last().unwrap(), dst);
        // Every step is a unit move.
        for w in path.windows(2) {
            assert_eq!(w[0].hops_to(w[1]), 1);
        }
        // X-first: the prefix fixes x, then y.
        let turn = path.iter().position(|n| n.x == dst.x).unwrap();
        for n in &path[turn..] {
            assert_eq!(n.x, dst.x);
        }
    }

    #[test]
    fn iter_nodes_covers_all() {
        let m = Mesh::new(3, 2);
        let all: Vec<NodeId> = m.iter_nodes().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], NodeId::new(0, 0));
        assert_eq!(all[5], NodeId::new(2, 1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = Mesh::new(0, 4);
    }
}
