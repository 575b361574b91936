//! Property-based tests for the MANET substrate.

use dms_manet::network::Manet;
use dms_manet::node::RadioParams;
use dms_manet::routing::{charge_route, route, Protocol};
use dms_sim::SimRng;
use proptest::prelude::*;

fn random_network(nodes: usize, side: f64, seed: u64) -> Manet {
    let mut rng = SimRng::new(seed);
    Manet::random_deployment(nodes, side, 5.0, RadioParams::default(), &mut rng)
        .expect("valid deployment")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any returned route is a real path: starts at src, ends at dst,
    /// every hop within radio range, no dead relays, no repeated nodes.
    #[test]
    fn routes_are_well_formed(nodes in 5usize..40, seed in 0u64..200, pair in 0u64..1000) {
        let net = random_network(nodes, 800.0, seed);
        let src = (pair as usize) % nodes;
        let dst = (pair as usize / nodes) % nodes;
        for protocol in Protocol::ALL {
            if let Some(path) = route(&net, protocol, src, dst, 1_000) {
                prop_assert_eq!(path[0], src);
                prop_assert_eq!(*path.last().expect("non-empty"), dst);
                for w in path.windows(2) {
                    prop_assert!(net.linked(w[0], w[1]), "{:?}: hop out of range", protocol);
                }
                let mut sorted = path.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), path.len(), "{:?}: route revisits a node", protocol);
            }
        }
    }

    /// If minimum-power finds a route, its physical energy is minimal
    /// among all protocols' routes (it is the energy-optimal baseline).
    #[test]
    fn min_power_route_is_cheapest(nodes in 5usize..30, seed in 0u64..100) {
        let net = random_network(nodes, 700.0, seed);
        let bits = 1_000;
        let physical = |path: &[usize]| -> f64 {
            path.windows(2)
                .map(|w| {
                    let a = net.node(w[0]).expect("exists");
                    let b = net.node(w[1]).expect("exists");
                    net.radio().tx_energy_j(bits, a.distance_to(b))
                        + net.radio().rx_energy_j(bits)
                })
                .sum()
        };
        if let Some(mp) = route(&net, Protocol::MinimumPower, 0, nodes - 1, bits) {
            let e_mp = physical(&mp);
            for protocol in [Protocol::BatteryCost, Protocol::LifetimePrediction, Protocol::MaxMinResidual] {
                if let Some(other) = route(&net, protocol, 0, nodes - 1, bits) {
                    prop_assert!(
                        e_mp <= physical(&other) + 1e-12,
                        "{:?} found a cheaper route than minimum-power",
                        protocol
                    );
                }
            }
        }
    }

    /// Charging a route never makes a battery negative and conserves
    /// total energy exactly.
    #[test]
    fn charging_conserves_energy(nodes in 5usize..30, seed in 0u64..100, bits in 100u64..100_000) {
        let mut net = random_network(nodes, 700.0, seed);
        if let Some(path) = route(&net, Protocol::MinimumPower, 0, nodes - 1, bits) {
            let residual = |net: &Manet| -> f64 {
                (0..net.node_count()).map(|i| net.node(i).expect("in range").battery_j).sum()
            };
            let before = residual(&net);
            let spent = charge_route(&mut net, &path, bits);
            prop_assert!(spent >= 0.0);
            prop_assert!((before - residual(&net) - spent).abs() < 1e-9);
            for i in 0..net.node_count() {
                prop_assert!(net.node(i).expect("in range").battery_j >= 0.0);
            }
        }
    }

    /// Max-min-residual routes never traverse a relay weaker than the
    /// best achievable bottleneck (verified against brute force on tiny
    /// networks).
    #[test]
    fn max_min_bottleneck_optimal_on_small_nets(seed in 0u64..60) {
        let mut rng = SimRng::new(seed);
        let n = 6;
        let mut net = Manet::random_deployment(n, 450.0, 5.0, RadioParams::default(), &mut rng)
            .expect("valid");
        // Randomly drain some batteries to create contrast.
        for i in 0..n {
            let drain = 4.9 * rng.uniform();
            net.node_mut(i).expect("exists").consume(drain);
        }
        let src = 0;
        let dst = n - 1;
        if !net.node(src).expect("exists").is_alive() || !net.node(dst).expect("exists").is_alive() {
            return Ok(());
        }
        let bottleneck = |path: &[usize]| {
            path.iter()
                .map(|&i| net.node(i).expect("exists").battery_j)
                .fold(f64::INFINITY, f64::min)
        };
        // Brute force: enumerate all simple paths with DFS.
        fn dfs(
            net: &Manet,
            cur: usize,
            dst: usize,
            visited: &mut Vec<usize>,
            best: &mut f64,
        ) {
            if cur == dst {
                let b = visited
                    .iter()
                    .map(|&i| net.node(i).expect("exists").battery_j)
                    .fold(f64::INFINITY, f64::min);
                *best = best.max(b);
                return;
            }
            for next in net.neighbors(cur) {
                if !visited.contains(&next) {
                    visited.push(next);
                    dfs(net, next, dst, visited, best);
                    visited.pop();
                }
            }
        }
        let mut best = f64::NEG_INFINITY;
        let mut visited = vec![src];
        dfs(&net, src, dst, &mut visited, &mut best);
        match route(&net, Protocol::MaxMinResidual, src, dst, 1_000) {
            Some(path) => {
                prop_assert!(
                    bottleneck(&path) >= best - 1e-6,
                    "widest-path bottleneck {} below optimum {best}",
                    bottleneck(&path)
                );
            }
            None => prop_assert!(best == f64::NEG_INFINITY, "router missed an existing path"),
        }
    }
}
