//! Property-based tests for the NoC substrate.

use dms_noc::energy::BitEnergyModel;
use dms_noc::mapping::{CoreGraph, Mapper};
use dms_noc::packet::Packet;
use dms_noc::queueing::SlottedQueueSim;
use dms_noc::sim::{NocConfig, NocSim};
use dms_noc::topology::{Mesh2d, TileId};
use dms_noc::traffic::{InjectionProcess, TrafficPattern};
use dms_sim::SimRng;
use proptest::prelude::*;

proptest! {
    /// XY routing always terminates with exactly hop-distance steps and
    /// every intermediate hop is a mesh neighbour of its predecessor.
    #[test]
    fn xy_routes_are_minimal_neighbor_walks(
        w in 1usize..7,
        h in 1usize..7,
        a in 0usize..49,
        b in 0usize..49,
    ) {
        let mesh = Mesh2d::new(w, h).expect("non-empty");
        let a = TileId(a % mesh.tile_count());
        let b = TileId(b % mesh.tile_count());
        let route = mesh.xy_route(a, b);
        prop_assert_eq!(route.len() - 1, mesh.hop_distance(a, b));
        prop_assert_eq!(route[0], a);
        prop_assert_eq!(*route.last().expect("non-empty"), b);
        for win in route.windows(2) {
            prop_assert_eq!(mesh.hop_distance(win[0], win[1]), 1);
        }
    }

    /// Bit energy is strictly increasing in hop count (for positive
    /// constants) and linear.
    #[test]
    fn bit_energy_monotone_linear(router in 0.01f64..5.0, link in 0.01f64..5.0, hops in 0usize..20) {
        let m = BitEnergyModel {
            router_pj: router,
            link_pj: link,
        };
        let e0 = m.bit_energy_pj(hops);
        let e1 = m.bit_energy_pj(hops + 1);
        prop_assert!(e1 > e0);
        prop_assert!((e1 - e0 - (router + link)).abs() < 1e-12);
    }

    /// Packet segmentation conserves structure: exactly one head and one
    /// tail role, flit count covers payload + header.
    #[test]
    fn flit_segmentation_is_well_formed(
        payload in 0u64..4096,
        flit in 1u64..128,
        header in 0u64..16,
    ) {
        let p = Packet {
            id: 9,
            src: TileId(0),
            dst: TileId(1),
            payload_bytes: payload,
            created_cycle: 0,
        };
        let flits = p.into_flits(flit, header).expect("valid width");
        prop_assert!(!flits.is_empty());
        prop_assert!(flits[0].is_head());
        prop_assert!(flits.last().expect("non-empty").is_tail());
        let heads = flits.iter().filter(|f| f.is_head()).count();
        let tails = flits.iter().filter(|f| f.is_tail()).count();
        prop_assert_eq!(heads, 1);
        prop_assert_eq!(tails, 1);
        prop_assert!(flits.len() as u64 * flit >= payload + header);
        prop_assert!((flits.len() as u64 - 1) * flit < (payload + header).max(1));
    }

    /// Random mapper outputs are always valid injective placements, and
    /// every optimiser's output costs no more than the worst baseline.
    #[test]
    fn mapping_outputs_are_valid(cores in 2usize..10, density in 0.1f64..0.9, seed in 0u64..100) {
        let mut rng = SimRng::new(seed);
        let mut graph = CoreGraph::new("random", cores);
        for i in 0..cores {
            for j in 0..cores {
                if i != j && rng.chance(density) {
                    let mb = 1.0 + 99.0 * rng.uniform();
                    graph.set_volume(i, j, mb * 1e6).expect("indices in range");
                }
            }
        }
        let mesh = Mesh2d::new(4, 4).expect("valid");
        let mapper = Mapper::new(&graph, &mesh).expect("fits");
        for candidate in [mapper.ad_hoc(), mapper.random(seed), mapper.greedy()] {
            candidate.validate(cores, &mesh).expect("optimiser output must be valid");
            let e = mapper.energy(&candidate).expect("valid");
            prop_assert!(e >= 0.0);
        }
        let greedy = mapper.energy(&mapper.greedy()).expect("valid");
        let worst = (0..5)
            .map(|s| mapper.energy(&mapper.random(s)).expect("valid"))
            .fold(0.0f64, f64::max);
        // Greedy may tie a lucky random draw but must not lose to the
        // worst of five random placements (unless the graph has no
        // traffic at all, where everything ties at the router floor).
        prop_assert!(greedy <= worst + 1e-9);
    }

    /// The slotted queue never exceeds capacity, never invents units.
    #[test]
    fn slotted_queue_conserves(
        capacity in 1usize..32,
        service in 0.1f64..8.0,
        arrivals in proptest::collection::vec(0.0f64..10.0, 1..300),
    ) {
        let q = SlottedQueueSim::new(capacity, service).expect("valid");
        let r = q.run(&arrivals);
        let offered: f64 = arrivals.iter().sum();
        prop_assert!((r.offered - offered).abs() < 1e-9);
        prop_assert!(r.dropped >= 0.0 && r.dropped <= r.offered + 1e-9);
        prop_assert!(r.peak_occupancy <= capacity as f64 + 1e-9);
        prop_assert!((0.0..=1.0).contains(&r.loss_rate()));
        prop_assert!((0.0..=1.0).contains(&r.high_watermark_fraction));
    }
}

/// Flit conservation at the full-simulator level: every injected packet
/// is eventually delivered with all of its flits, for random light-load
/// configurations. (Kept outside `proptest!` with a small case count —
/// each case runs a full simulation.)
#[test]
fn noc_sim_conserves_packets_across_random_configs() {
    let cases = [
        (2usize, 3usize, 4usize, 8u64, 0.01f64),
        (3, 3, 2, 32, 0.02),
        (4, 2, 6, 64, 0.015),
        (5, 5, 8, 16, 0.01),
    ];
    for (i, &(w, h, buf, payload, p)) in cases.iter().enumerate() {
        let cfg = NocConfig {
            width: w,
            height: h,
            buffer_flits: buf,
            flit_bytes: 4,
            header_bytes: 4,
            payload_bytes: payload,
            injection: InjectionProcess::Bernoulli { p },
            pattern: TrafficPattern::Uniform,
            inject_cycles: 3_000,
            drain_cycles: 30_000,
            energy: Default::default(),
            routing: Default::default(),
        };
        let r = NocSim::run(cfg, 1000 + i as u64).expect("valid config");
        assert_eq!(
            r.packets_received, r.packets_injected,
            "case {i}: drained network must deliver everything"
        );
        let flits_per_packet = ((payload + 4).div_ceil(4)).max(1);
        assert_eq!(
            r.flits_delivered,
            r.packets_received * flits_per_packet,
            "case {i}"
        );
    }
}
