//! Energy-aware routing protocols.
//!
//! §4.2 classifies the field into two families:
//!
//! * **Minimum-power routing** \[30\]: "selects a routing path ... so as
//!   to minimize the total energy consumption ... Dijkstra's shortest
//!   path algorithm is used". Its "key disadvantage is that they
//!   repeatedly select the least-power cost routes ... nodes along these
//!   least-power cost routes tend to die soon."
//! * **Lifetime-aware routing** \[31\]\[32\]: "heuristics that consider the
//!   residual battery power at different nodes and route around nodes
//!   that have a low level of remaining battery energy".
//!
//! [`Protocol::BatteryCost`] scales each relay's cost by the inverse of
//! its remaining capacity (Toh's battery-cost routing \[31\]);
//! [`Protocol::LifetimePrediction`] additionally folds in each node's
//! *predicted* lifetime from its recent drain rate (LPR \[32\]);
//! [`Protocol::MaxMinResidual`] is the classic bottleneck baseline.

use crate::network::Manet;

/// The routing protocol under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Protocol {
    /// Minimum total transmission+reception energy (Dijkstra) \[30\].
    MinimumPower,
    /// Battery-cost-aware: energy cost weighted by `1/residual` \[31\].
    BatteryCost,
    /// Lifetime-prediction routing: avoid nodes predicted to die soon \[32\].
    LifetimePrediction,
    /// Maximise the minimum residual battery along the route.
    MaxMinResidual,
}

impl Protocol {
    /// All protocols, the §4.2 baseline first.
    pub const ALL: [Protocol; 4] = [
        Protocol::MinimumPower,
        Protocol::BatteryCost,
        Protocol::LifetimePrediction,
        Protocol::MaxMinResidual,
    ];

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protocol::MinimumPower => "minimum-power",
            Protocol::BatteryCost => "battery-cost",
            Protocol::LifetimePrediction => "lifetime-prediction",
            Protocol::MaxMinResidual => "max-min-residual",
        }
    }
}

/// Edge cost of relaying `bits` from `from` over link `(from, to)`
/// under `protocol`.
///
/// The cost always contains the physical energy; the lifetime-aware
/// protocols inflate it for weak relays.
fn edge_cost(net: &Manet, protocol: Protocol, from: usize, to: usize, bits: u64) -> f64 {
    let a = net.node(from).expect("caller verified");
    let b = net.node(to).expect("caller verified");
    let energy = net.radio().tx_energy_j(bits, a.distance_to(b)) + net.radio().rx_energy_j(bits);
    match protocol {
        Protocol::MinimumPower => energy,
        Protocol::BatteryCost => {
            // Toh's battery-cost function: cost inflates as the *sender's*
            // remaining capacity depletes (it is the sender that spends PA
            // energy). Absolute remaining joules, not a fraction — a
            // nearly-empty small battery must repel routes just like a
            // drained big one.
            energy / a.battery_j.max(1e-9)
        }
        Protocol::LifetimePrediction => {
            // Route around nodes predicted to die soon: weight by the
            // inverse predicted lifetime, floored to keep routes finite.
            let predicted = a.predicted_lifetime_rounds().min(1e6);
            energy * (1.0 + 100.0 / predicted.max(1.0)) / a.battery_j.max(1e-9)
        }
        Protocol::MaxMinResidual => {
            // Handled by the bottleneck search in `route`; the additive
            // cost only breaks ties by energy.
            energy
        }
    }
}

/// Computes a route from `src` to `dst` for `bits` under `protocol`.
///
/// Returns the node sequence `src..=dst`, or `None` when no path over
/// alive nodes exists (dead relays fragment the network, §4.2).
#[must_use]
pub fn route(
    net: &Manet,
    protocol: Protocol,
    src: usize,
    dst: usize,
    bits: u64,
) -> Option<Vec<usize>> {
    let n = net.node_count();
    if src >= n || dst >= n {
        return None;
    }
    if !net.node(src).ok()?.is_alive() || !net.node(dst).ok()?.is_alive() {
        return None;
    }
    if src == dst {
        return Some(vec![src]);
    }
    match protocol {
        Protocol::MaxMinResidual => bottleneck_route(net, src, dst, bits),
        _ => dijkstra(net, protocol, src, dst, bits),
    }
}

/// Dijkstra over alive-node links with protocol-specific edge costs.
fn dijkstra(
    net: &Manet,
    protocol: Protocol,
    src: usize,
    dst: usize,
    bits: u64,
) -> Option<Vec<usize>> {
    let n = net.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut done = vec![false; n];
    dist[src] = 0.0;
    loop {
        // Linear-scan extract-min: fine for the ≤ a-few-hundred-node
        // networks of E9.
        let u = (0..n)
            .filter(|&i| !done[i] && dist[i].is_finite())
            .min_by(|&a, &b| {
                dist[a]
                    .partial_cmp(&dist[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })?;
        if u == dst {
            break;
        }
        done[u] = true;
        for v in net.neighbors(u) {
            if done[v] {
                continue;
            }
            let alt = dist[u] + edge_cost(net, protocol, u, v, bits);
            if alt < dist[v] {
                dist[v] = alt;
                prev[v] = u;
            }
        }
    }
    reconstruct(&prev, src, dst)
}

/// Widest-path (maximise the minimum residual battery along the route),
/// with energy as tie-break via a tiny additive term.
fn bottleneck_route(net: &Manet, src: usize, dst: usize, bits: u64) -> Option<Vec<usize>> {
    let n = net.node_count();
    // width[i] = best achievable bottleneck residual on a path src→i.
    let mut width = vec![f64::NEG_INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut done = vec![false; n];
    width[src] = net.node(src).ok()?.battery_j;
    loop {
        let u = (0..n)
            .filter(|&i| !done[i] && width[i] > f64::NEG_INFINITY)
            .max_by(|&a, &b| {
                width[a]
                    .partial_cmp(&width[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })?;
        if u == dst {
            break;
        }
        done[u] = true;
        for v in net.neighbors(u) {
            if done[v] {
                continue;
            }
            let relay_residual = net.node(v).expect("neighbor exists").battery_j;
            // Tiny energy penalty keeps routes short among equals.
            let cost_bias = edge_cost(net, Protocol::MinimumPower, u, v, bits) * 1e-6;
            let alt = width[u].min(relay_residual) - cost_bias;
            if alt > width[v] {
                width[v] = alt;
                prev[v] = u;
            }
        }
    }
    reconstruct(&prev, src, dst)
}

fn reconstruct(prev: &[usize], src: usize, dst: usize) -> Option<Vec<usize>> {
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = prev[cur];
        if cur == usize::MAX {
            return None;
        }
        path.push(cur);
        if path.len() > prev.len() {
            return None; // defensive: malformed predecessor chain
        }
    }
    path.reverse();
    Some(path)
}

/// Charges the physical energy of moving `bits` along `path` to the
/// batteries of its nodes and returns the total energy spent.
///
/// Every non-terminal node pays reception *and* retransmission; the
/// source only transmits, the destination only receives.
pub fn charge_route(net: &mut Manet, path: &[usize], bits: u64) -> f64 {
    let mut total = 0.0;
    for w in path.windows(2) {
        let (from, to) = (w[0], w[1]);
        let d = {
            let a = net.node(from).expect("path nodes exist");
            let b = net.node(to).expect("path nodes exist");
            a.distance_to(b)
        };
        let tx = net.radio().tx_energy_j(bits, d);
        let rx = net.radio().rx_energy_j(bits);
        net.node_mut(from).expect("path nodes exist").consume(tx);
        net.node_mut(to).expect("path nodes exist").consume(rx);
        total += tx + rx;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, RadioParams};

    /// Two parallel two-hop corridors between src (0) and dst (1):
    /// relays 2 (upper) and 3 (lower).
    fn twin_corridor(upper_battery: f64, lower_battery: f64) -> Manet {
        let nodes = vec![
            Node::new(0.0, 0.0, 10.0),              // 0 src
            Node::new(400.0, 0.0, 10.0),            // 1 dst (two hops away)
            Node::new(200.0, 60.0, upper_battery),  // 2 upper relay
            Node::new(200.0, -60.0, lower_battery), // 3 lower relay
        ];
        Manet::new(nodes, RadioParams::default()).expect("valid radio")
    }

    #[test]
    fn min_power_prefers_short_relays() {
        // Direct 0→1 is 400 m (out of range); both relays give two-hop
        // paths; the cheaper one is the closer (smaller detour) relay.
        let net = twin_corridor(10.0, 10.0);
        let path = route(&net, Protocol::MinimumPower, 0, 1, 1000).expect("reachable");
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], 0);
        assert_eq!(path[2], 1);
    }

    #[test]
    fn battery_cost_routes_around_weak_relays() {
        // Upper relay nearly drained: lifetime-aware protocols must take
        // the lower corridor even though geometry is symmetric.
        let mut net = twin_corridor(10.0, 10.0);
        net.node_mut(2).expect("exists").consume(9.9); // 1% residual
        for protocol in [
            Protocol::BatteryCost,
            Protocol::LifetimePrediction,
            Protocol::MaxMinResidual,
        ] {
            let path = route(&net, protocol, 0, 1, 1000).expect("reachable");
            assert_eq!(
                path,
                vec![0, 3, 1],
                "{protocol:?} should avoid the weak relay"
            );
        }
    }

    #[test]
    fn min_power_ignores_batteries() {
        // Make the upper corridor geometrically cheaper but nearly dead:
        // minimum-power takes it anyway (its documented flaw).
        let nodes = vec![
            Node::new(0.0, 0.0, 10.0),
            Node::new(400.0, 0.0, 10.0),
            Node::new(200.0, 10.0, 0.1),    // cheap but weak
            Node::new(200.0, -120.0, 10.0), // detour but strong
        ];
        let net = Manet::new(nodes, RadioParams::default()).expect("valid radio");
        let path = route(&net, Protocol::MinimumPower, 0, 1, 1000).expect("reachable");
        assert_eq!(path, vec![0, 2, 1]);
        let path = route(&net, Protocol::BatteryCost, 0, 1, 1000).expect("reachable");
        assert_eq!(path, vec![0, 3, 1]);
    }

    #[test]
    fn unreachable_and_trivial_cases() {
        let net = twin_corridor(10.0, 10.0);
        assert_eq!(
            route(&net, Protocol::MinimumPower, 0, 0, 100),
            Some(vec![0])
        );
        assert_eq!(route(&net, Protocol::MinimumPower, 0, 99, 100), None);
        // Kill both relays: dst unreachable.
        let mut net = twin_corridor(10.0, 10.0);
        net.node_mut(2).expect("exists").consume(100.0);
        net.node_mut(3).expect("exists").consume(100.0);
        assert_eq!(route(&net, Protocol::MinimumPower, 0, 1, 100), None);
    }

    #[test]
    fn dead_endpoint_has_no_route() {
        let mut net = twin_corridor(10.0, 10.0);
        net.node_mut(1).expect("exists").consume(100.0);
        assert_eq!(route(&net, Protocol::BatteryCost, 0, 1, 100), None);
    }

    #[test]
    fn charge_route_conserves_energy() {
        let mut net = twin_corridor(10.0, 10.0);
        let path = route(&net, Protocol::MinimumPower, 0, 1, 1000).expect("reachable");
        let before = net.total_residual_j();
        let spent = charge_route(&mut net, &path, 1000);
        assert!(spent > 0.0);
        assert!((before - net.total_residual_j() - spent).abs() < 1e-12);
    }

    #[test]
    fn all_protocols_find_some_route_in_healthy_network() {
        let net = twin_corridor(10.0, 10.0);
        for p in Protocol::ALL {
            assert!(route(&net, p, 0, 1, 500).is_some(), "{p:?}");
        }
    }
}
