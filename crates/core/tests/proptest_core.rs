//! Property-based tests for the modelling front-end.

use dms_core::graph::ProcessGraph;
use dms_core::task::TaskGraph;
use dms_core::FiniteQueue;
use dms_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// Queue conservation: accepted = popped + still queued, and the
    /// queue never holds more than its capacity.
    #[test]
    fn finite_queue_conserves_items(
        capacity in 1usize..16,
        ops in proptest::collection::vec(proptest::bool::ANY, 0..300),
    ) {
        let mut q: FiniteQueue<u32> = FiniteQueue::new(capacity);
        let mut offered = 0u64;
        let mut accepted = 0u64;
        let mut popped = 0u64;
        let mut t = 0u64;
        for (i, &push) in ops.iter().enumerate() {
            t += 1;
            if push {
                offered += 1;
                if q.push(SimTime::from_ticks(t), i as u32).is_ok() {
                    accepted += 1;
                }
            } else if q.pop(SimTime::from_ticks(t)).is_some() {
                popped += 1;
            }
        }
        prop_assert!(accepted <= offered);
        prop_assert_eq!(accepted, popped + q.len() as u64);
        prop_assert!(q.len() <= capacity);
        prop_assert!(q.peak_occupancy() <= capacity as f64);
    }

    /// FIFO: items come out in the order they went in.
    #[test]
    fn finite_queue_is_fifo(values in proptest::collection::vec(0u32..1000, 1..50)) {
        let mut q: FiniteQueue<u32> = FiniteQueue::new(values.len());
        for &v in &values {
            q.push(SimTime::ZERO, v).expect("capacity == len(values)");
        }
        let drained: Vec<u32> =
            std::iter::from_fn(|| q.pop(SimTime::ZERO)).collect();
        prop_assert_eq!(drained, values);
    }

    /// Topological order of a randomly generated layered DAG respects
    /// every dependency, covers every task exactly once.
    #[test]
    fn topo_order_respects_dependencies(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 1u64..1000), 0..120),
    ) {
        let mut g = TaskGraph::new("random");
        let ids: Vec<_> = (0..n).map(|i| g.add_task(format!("t{i}"), 10, 1.0)).collect();
        for &(a, b, bytes) in &edges {
            // Force edges forward (a < b) to keep the graph acyclic.
            let (a, b) = (a % n, b % n);
            if a < b {
                g.add_dependency(ids[a], ids[b], bytes).expect("valid endpoints");
            }
        }
        let order = g.topological_order().expect("forward edges are acyclic");
        prop_assert_eq!(order.len(), n);
        let position: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(pos, &t)| (t, pos)).collect();
        for dep in g.dependencies() {
            prop_assert!(position[&dep.from] < position[&dep.to]);
        }
    }

    /// Sources and sinks of a random process graph are consistent with
    /// the edge set.
    #[test]
    fn graph_sources_and_sinks_consistent(
        n in 1usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
    ) {
        let mut g = ProcessGraph::new("random");
        let ids: Vec<_> = (0..n).map(|i| g.add_process(format!("p{i}"), 1)).collect();
        for &(a, b) in &edges {
            let (a, b) = (a % n, b % n);
            g.connect(ids[a], ids[b], 1, 1).expect("valid endpoints");
        }
        for src in g.sources() {
            prop_assert_eq!(g.predecessors(src).count(), 0);
        }
        for sink in g.sinks() {
            prop_assert_eq!(g.successors(sink).count(), 0);
        }
    }
}
