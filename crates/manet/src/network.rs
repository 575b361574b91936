//! The network: deployment, connectivity and fragmentation.

use dms_sim::SimRng;

use crate::error::ManetError;
use crate::node::{Node, RadioParams};

/// A mobile-ad-hoc network of multimedia hosts with unit-disk links.
#[derive(Debug, Clone, PartialEq)]
pub struct Manet {
    nodes: Vec<Node>,
    radio: RadioParams,
}

impl Manet {
    /// Creates a network from explicit nodes.
    ///
    /// # Errors
    ///
    /// Propagates radio-parameter validation failures.
    pub fn new(nodes: Vec<Node>, radio: RadioParams) -> Result<Self, ManetError> {
        radio.validate()?;
        Ok(Manet { nodes, radio })
    }

    /// Deploys `count` nodes uniformly at random in a
    /// `side_m × side_m` area, each with `battery_j` joules.
    ///
    /// # Errors
    ///
    /// Returns [`ManetError::InvalidParameter`] for a zero count or
    /// non-positive side/battery, and propagates radio validation.
    pub fn random_deployment(
        count: usize,
        side_m: f64,
        battery_j: f64,
        radio: RadioParams,
        rng: &mut SimRng,
    ) -> Result<Self, ManetError> {
        if count == 0 {
            return Err(ManetError::InvalidParameter("count"));
        }
        if !(side_m.is_finite() && side_m > 0.0) {
            return Err(ManetError::InvalidParameter("side_m"));
        }
        if !(battery_j.is_finite() && battery_j > 0.0) {
            return Err(ManetError::InvalidParameter("battery_j"));
        }
        let nodes = (0..count)
            .map(|_| Node::new(rng.uniform() * side_m, rng.uniform() * side_m, battery_j))
            .collect();
        Manet::new(nodes, radio)
    }

    /// Number of nodes (alive or dead).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The radio model.
    #[must_use]
    pub fn radio(&self) -> &RadioParams {
        &self.radio
    }

    /// Immutable node access.
    ///
    /// # Errors
    ///
    /// Returns [`ManetError::UnknownNode`] for an out-of-range index.
    pub fn node(&self, id: usize) -> Result<&Node, ManetError> {
        self.nodes.get(id).ok_or(ManetError::UnknownNode(id))
    }

    /// Mutable node access.
    ///
    /// # Errors
    ///
    /// Returns [`ManetError::UnknownNode`] for an out-of-range index.
    pub fn node_mut(&mut self, id: usize) -> Result<&mut Node, ManetError> {
        self.nodes.get_mut(id).ok_or(ManetError::UnknownNode(id))
    }

    /// Fraction of nodes that have exhausted their battery.
    #[must_use]
    pub fn dead_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().filter(|n| !n.is_alive()).count() as f64 / self.nodes.len() as f64
    }

    /// Whether two *alive* nodes are within radio range of each other.
    #[must_use]
    pub fn linked(&self, a: usize, b: usize) -> bool {
        match (self.nodes.get(a), self.nodes.get(b)) {
            (Some(na), Some(nb)) if a != b && na.is_alive() && nb.is_alive() => {
                na.distance_to(nb) <= self.radio.range_m
            }
            _ => false,
        }
    }

    /// Alive neighbours of `id`.
    #[must_use]
    pub fn neighbors(&self, id: usize) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&j| self.linked(id, j))
            .collect()
    }

    /// Whether the set of alive nodes forms one connected component.
    ///
    /// A fragmented network is the §4.2 failure mode: "it may not be
    /// possible for other hosts in the network to communicate".
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let alive: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_alive())
            .collect();
        let Some(&start) = alive.first() else {
            return true;
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            for j in self.neighbors(i) {
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == alive.len()
    }

    /// Moves node `id` by `(dx, dy)` metres, clamping to the
    /// `[0, side] × [0, side]` deployment area — one step of the
    /// Brownian mobility model used by the lifetime experiments (the
    /// "mobile" in MANET).
    ///
    /// # Errors
    ///
    /// Returns [`ManetError::UnknownNode`] for an out-of-range index.
    pub fn move_node(
        &mut self,
        id: usize,
        dx: f64,
        dy: f64,
        side_m: f64,
    ) -> Result<(), ManetError> {
        let node = self.nodes.get_mut(id).ok_or(ManetError::UnknownNode(id))?;
        node.x = (node.x + dx).clamp(0.0, side_m);
        node.y = (node.y + dy).clamp(0.0, side_m);
        Ok(())
    }
}

#[cfg(test)]
impl Manet {
    /// Total residual energy across the network, joules: a unit-test
    /// fixture.
    #[must_use]
    pub fn total_residual_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.battery_j).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_network() -> Manet {
        // Four nodes in a line, 200 m apart (range 250 m: only adjacent
        // nodes are linked).
        let nodes = (0..4)
            .map(|i| Node::new(200.0 * i as f64, 0.0, 10.0))
            .collect();
        Manet::new(nodes, RadioParams::default()).expect("valid radio")
    }

    #[test]
    fn deployment_validation() {
        let mut rng = SimRng::new(1);
        assert!(Manet::random_deployment(0, 100.0, 1.0, RadioParams::default(), &mut rng).is_err());
        assert!(Manet::random_deployment(5, 0.0, 1.0, RadioParams::default(), &mut rng).is_err());
        assert!(Manet::random_deployment(5, 100.0, 0.0, RadioParams::default(), &mut rng).is_err());
        let net = Manet::random_deployment(50, 1000.0, 5.0, RadioParams::default(), &mut rng)
            .expect("valid");
        assert_eq!(net.node_count(), 50);
        assert!((0..50).all(|i| {
            let x = net.node(i).expect("in range").x;
            (0.0..=1000.0).contains(&x)
        }));
    }

    #[test]
    fn unit_disk_links() {
        let net = line_network();
        assert!(net.linked(0, 1));
        assert!(!net.linked(0, 2)); // 400 m > 250 m
        assert!(!net.linked(1, 1)); // no self link
        assert!(!net.linked(0, 99));
        assert_eq!(net.neighbors(1), vec![0, 2]);
    }

    #[test]
    fn dead_nodes_break_links() {
        let mut net = line_network();
        assert!(net.is_connected());
        net.node_mut(1).expect("exists").consume(100.0);
        assert!(!net.linked(0, 1));
        assert!(
            !net.is_connected(),
            "killing a line's interior node fragments it"
        );
        assert!((net.dead_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn connectivity_edge_cases() {
        let net = Manet::new(vec![], RadioParams::default()).expect("valid radio");
        assert!(net.is_connected());
        let one = Manet::new(vec![Node::new(0.0, 0.0, 1.0)], RadioParams::default())
            .expect("valid radio");
        assert!(one.is_connected());
    }

    #[test]
    fn mobility_stays_in_bounds() {
        let mut net = line_network();
        net.move_node(0, -500.0, 1e6, 600.0).expect("node exists");
        let n = net.node(0).expect("exists");
        assert_eq!(n.x, 0.0);
        assert_eq!(n.y, 600.0);
        assert!(net.move_node(99, 1.0, 1.0, 600.0).is_err());
    }

    #[test]
    fn mobility_changes_connectivity() {
        let mut net = line_network();
        assert!(net.linked(0, 1));
        // Walk node 1 far away: the link breaks.
        net.move_node(1, 0.0, 500.0, 1000.0).expect("node exists");
        assert!(!net.linked(0, 1));
    }

    #[test]
    fn residual_energy_accounting() {
        let mut net = line_network();
        let before = net.total_residual_j();
        net.node_mut(0).expect("exists").consume(3.0);
        assert!((before - net.total_residual_j() - 3.0).abs() < 1e-12);
    }
}
