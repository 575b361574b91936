//! 2-D mesh topology and deterministic XY routing.
//!
//! "Due to the regularity of typical NOCs (e.g. as a 2D mesh network),
//! the routing of wires is not an issue any more" (§3.2). The mesh is
//! the canonical regular tile architecture; XY (dimension-ordered)
//! routing is deadlock-free on it.

use crate::error::NocError;

/// Identifier of a tile in a [`Mesh2d`] (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub usize);

impl TileId {
    /// The tile's row-major index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A router port direction. `Local` is the tile's own injection/ejection
/// port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards decreasing y.
    North,
    /// Towards increasing x.
    East,
    /// Towards increasing y.
    South,
    /// Towards decreasing x.
    West,
    /// The tile's local port.
    Local,
}

impl Direction {
    /// All five port directions, `Local` last.
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::Local,
    ];

    /// Port index in `0..5` (used to address router port arrays).
    #[must_use]
    pub fn port_index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// The direction a neighbouring router sees this link from.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::Local => Direction::Local,
        }
    }
}

/// A rectangular 2-D mesh of tiles, row-major indexed.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), dms_noc::NocError> {
/// use dms_noc::topology::{Mesh2d, TileId};
///
/// let mesh = Mesh2d::new(4, 4)?;
/// assert_eq!(mesh.tile_count(), 16);
/// assert_eq!(mesh.hop_distance(TileId(0), TileId(15)), 6); // 3 + 3
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2d {
    width: usize,
    height: usize,
}

impl Mesh2d {
    /// Creates a `width × height` mesh.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::EmptyMesh`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self, NocError> {
        if width == 0 || height == 0 {
            return Err(NocError::EmptyMesh);
        }
        Ok(Mesh2d { width, height })
    }

    /// Mesh width (tiles per row).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (rows).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of tiles.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.width * self.height
    }

    /// `(x, y)` coordinates of a tile.
    ///
    /// # Panics
    ///
    /// Panics if the tile is outside the mesh; use [`Mesh2d::contains`]
    /// to check first.
    #[must_use]
    pub fn coords(&self, t: TileId) -> (usize, usize) {
        assert!(
            self.contains(t),
            "tile {t:?} outside {}x{} mesh",
            self.width,
            self.height
        );
        (t.0 % self.width, t.0 / self.width)
    }

    /// The tile at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::UnknownTile`] if the coordinates fall outside
    /// the mesh.
    pub fn tile_at(&self, x: usize, y: usize) -> Result<TileId, NocError> {
        if x >= self.width || y >= self.height {
            return Err(NocError::UnknownTile(y * self.width + x));
        }
        Ok(TileId(y * self.width + x))
    }

    /// Whether `t` is a valid tile of this mesh.
    #[must_use]
    pub fn contains(&self, t: TileId) -> bool {
        t.0 < self.tile_count()
    }

    /// Iterates over all tiles in row-major order.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> {
        (0..self.tile_count()).map(TileId)
    }

    /// The neighbour of `t` in `dir`, if any ( `Local` has none).
    #[must_use]
    pub fn neighbor(&self, t: TileId, dir: Direction) -> Option<TileId> {
        if !self.contains(t) {
            return None;
        }
        let (x, y) = self.coords(t);
        let (nx, ny) = match dir {
            Direction::North => (x, y.checked_sub(1)?),
            Direction::East => (x + 1, y),
            Direction::South => (x, y + 1),
            Direction::West => (x.checked_sub(1)?, y),
            Direction::Local => return None,
        };
        self.tile_at(nx, ny).ok()
    }

    /// Manhattan (hop) distance between two tiles.
    ///
    /// # Panics
    ///
    /// Panics if either tile is outside the mesh.
    #[must_use]
    pub fn hop_distance(&self, a: TileId, b: TileId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// The first hop of the deterministic XY route from `from` towards
    /// `to`: X is corrected first, then Y; `Local` when already there.
    ///
    /// # Panics
    ///
    /// Panics if either tile is outside the mesh.
    #[must_use]
    pub fn xy_next_direction(&self, from: TileId, to: TileId) -> Direction {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        if fx < tx {
            Direction::East
        } else if fx > tx {
            Direction::West
        } else if fy < ty {
            Direction::South
        } else if fy > ty {
            Direction::North
        } else {
            Direction::Local
        }
    }

    /// Productive directions towards `to` under the **west-first** turn
    /// model: all west hops are taken first (deterministically), after
    /// which the router may choose adaptively among the remaining
    /// productive directions. Turn-model routing is deadlock-free on a
    /// mesh (§3.3's "what routing algorithm is suitable" knob).
    ///
    /// Returns `[Local]` when already at the destination.
    ///
    /// # Panics
    ///
    /// Panics if either tile is outside the mesh.
    #[must_use]
    pub fn west_first_directions(&self, from: TileId, to: TileId) -> Vec<Direction> {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        if (fx, fy) == (tx, ty) {
            return vec![Direction::Local];
        }
        if tx < fx {
            return vec![Direction::West];
        }
        let mut dirs = Vec::with_capacity(2);
        if tx > fx {
            dirs.push(Direction::East);
        }
        if ty > fy {
            dirs.push(Direction::South);
        } else if ty < fy {
            dirs.push(Direction::North);
        }
        dirs
    }

    /// The full XY route as the list of tiles visited, endpoints included.
    ///
    /// # Panics
    ///
    /// Panics if either tile is outside the mesh.
    #[must_use]
    pub fn xy_route(&self, from: TileId, to: TileId) -> Vec<TileId> {
        let mut route = vec![from];
        let mut cur = from;
        while cur != to {
            let dir = self.xy_next_direction(cur, to);
            cur = self
                .neighbor(cur, dir)
                .expect("XY routing stays inside the mesh");
            route.push(cur);
        }
        route
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(Mesh2d::new(0, 4), Err(NocError::EmptyMesh));
        assert_eq!(Mesh2d::new(4, 0), Err(NocError::EmptyMesh));
        assert!(Mesh2d::new(1, 1).is_ok());
    }

    #[test]
    fn coords_round_trip() {
        let m = Mesh2d::new(4, 3).expect("valid");
        for t in m.tiles() {
            let (x, y) = m.coords(t);
            assert_eq!(m.tile_at(x, y).expect("inside"), t);
        }
        assert!(m.tile_at(4, 0).is_err());
        assert!(m.tile_at(0, 3).is_err());
    }

    #[test]
    fn neighbors_at_edges() {
        let m = Mesh2d::new(3, 3).expect("valid");
        let corner = TileId(0);
        assert_eq!(m.neighbor(corner, Direction::North), None);
        assert_eq!(m.neighbor(corner, Direction::West), None);
        assert_eq!(m.neighbor(corner, Direction::East), Some(TileId(1)));
        assert_eq!(m.neighbor(corner, Direction::South), Some(TileId(3)));
        assert_eq!(m.neighbor(corner, Direction::Local), None);
        let center = TileId(4);
        for dir in [
            Direction::North,
            Direction::East,
            Direction::South,
            Direction::West,
        ] {
            assert!(m.neighbor(center, dir).is_some());
        }
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let m = Mesh2d::new(4, 4).expect("valid");
        assert_eq!(m.hop_distance(TileId(0), TileId(0)), 0);
        assert_eq!(m.hop_distance(TileId(0), TileId(3)), 3);
        assert_eq!(m.hop_distance(TileId(0), TileId(12)), 3);
        assert_eq!(m.hop_distance(TileId(5), TileId(10)), 2);
        // Symmetry.
        assert_eq!(
            m.hop_distance(TileId(2), TileId(13)),
            m.hop_distance(TileId(13), TileId(2))
        );
    }

    #[test]
    fn xy_route_corrects_x_first() {
        let m = Mesh2d::new(4, 4).expect("valid");
        let route = m.xy_route(TileId(0), TileId(10)); // (0,0) -> (2,2)
        assert_eq!(
            route,
            vec![TileId(0), TileId(1), TileId(2), TileId(6), TileId(10)]
        );
        assert_eq!(route.len() - 1, m.hop_distance(TileId(0), TileId(10)));
    }

    #[test]
    fn xy_route_to_self_is_trivial() {
        let m = Mesh2d::new(2, 2).expect("valid");
        assert_eq!(m.xy_route(TileId(3), TileId(3)), vec![TileId(3)]);
        assert_eq!(m.xy_next_direction(TileId(3), TileId(3)), Direction::Local);
    }

    #[test]
    fn directions_are_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
        // Port indices are a permutation of 0..5.
        let mut idx: Vec<usize> = Direction::ALL.iter().map(|d| d.port_index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn west_first_directions_are_productive() {
        let m = Mesh2d::new(4, 4).expect("valid");
        for a in m.tiles() {
            for b in m.tiles() {
                let dirs = m.west_first_directions(a, b);
                assert!(!dirs.is_empty());
                if a == b {
                    assert_eq!(dirs, vec![Direction::Local]);
                    continue;
                }
                for &d in &dirs {
                    let next = m.neighbor(a, d).expect("productive hop stays inside");
                    assert_eq!(
                        m.hop_distance(next, b),
                        m.hop_distance(a, b) - 1,
                        "{a:?}->{b:?} via {d:?} must be minimal"
                    );
                }
            }
        }
    }

    #[test]
    fn west_first_takes_west_hops_first() {
        let m = Mesh2d::new(4, 4).expect("valid");
        // (3,1)=7 to (0,0)=0: west needed, so only West is offered.
        assert_eq!(
            m.west_first_directions(TileId(7), TileId(0)),
            vec![Direction::West]
        );
        // (0,0) to (2,2)=10: adaptive between East and South.
        let dirs = m.west_first_directions(TileId(0), TileId(10));
        assert_eq!(dirs, vec![Direction::East, Direction::South]);
    }

    #[test]
    fn route_length_always_matches_distance() {
        let m = Mesh2d::new(5, 3).expect("valid");
        for a in m.tiles() {
            for b in m.tiles() {
                assert_eq!(m.xy_route(a, b).len() - 1, m.hop_distance(a, b));
            }
        }
    }
}
