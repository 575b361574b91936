//! Differential and property tests anchoring the adaptive fleet to
//! the static cluster it wraps.
//!
//! Three obligations:
//!
//! 1. **Pinned equivalence** — with the autoscaler pinned
//!    (`min_shards == max_shards`), no PI block and a fixed arm, the
//!    adaptive fleet must reproduce the static [`ClusterSim`] *bit
//!    for bit* under every balancer: identical cluster report (every
//!    `f64` compared exactly) and identical exported metrics text.
//! 2. **Conservation over scale events** — for arbitrary loads,
//!    thresholds and warm-up costs, the fleet ledger still balances:
//!    `dispatched + balancer_rejected + drained == offered + rerouted`,
//!    and every drained shard's in-flight victims re-offer exactly once
//!    with their remaining duration.
//! 3. **Warm-up and drain live in the balancer alone** — over every
//!    autoscale setting, no session is dispatched to a shard before it
//!    is warm or from its drain slot on, so the shards need no gate of
//!    their own.
//! 4. **Bandit determinism** — the same seed and trace yield the same
//!    arm sequence and the same report, run after run.

use dms_cluster::{
    AdaptiveConfig, AdaptiveSim, ArmSelection, AutoscaleConfig, BalancerPolicy, ClusterConfig,
    ClusterSim,
};
use dms_serve::{
    rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, PiConfig,
    RecoveryConfig, ServerConfig, SessionTemplate, Workload,
};
use dms_sim::MetricsRegistry;
use proptest::prelude::*;

fn shard_config(sessions: u64, template: &SessionTemplate) -> ServerConfig {
    ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: sessions * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::AdmitAll,
        degrade: Some(DegradeConfig::default()),
        buffer_slots: 4,
        miss_slots: 2,
    }
}

fn workload(load: f64, capacity_sessions: u64, slots: u64, seed: u64) -> Workload {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = 40.0;
    let rate = rate_for_load(load, &template, capacity_sessions * template.full_bits());
    Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed)
        .expect("valid workload")
}

/// An adaptive config whose every control loop is disabled: the
/// differential-test configuration.
fn pinned(shard: ServerConfig, shards: usize, policy: BalancerPolicy, seed: u64) -> AdaptiveConfig {
    AdaptiveConfig {
        shard,
        autoscale: AutoscaleConfig {
            min_shards: shards,
            max_shards: shards,
            control_period_slots: 20,
            warmup_slots: 0,
            ..AutoscaleConfig::default()
        },
        arms: ArmSelection::Fixed(policy),
        recovery: RecoveryConfig::default(),
        seed,
    }
}

/// Pinned adaptive ≡ static cluster, bit for bit, under all three
/// balancers: the control loop still samples occupancy every period,
/// but sampling is pure, so report *and* exported metrics text match
/// exactly.
#[test]
fn pinned_adaptive_matches_static_cluster_bit_for_bit() {
    for &policy in &[
        BalancerPolicy::RoundRobin,
        BalancerPolicy::JoinShortestQueue,
        BalancerPolicy::PowerOfTwoChoices,
    ] {
        for &(shards, load, seed) in &[(1usize, 0.8, 81u64), (3, 1.2, 82), (4, 1.5, 83)] {
            let wl = workload(load, 60 * shards as u64, 160, seed);
            let config = shard_config(60, &wl.template);

            let static_sim = ClusterSim::new(ClusterConfig {
                shards: vec![config; shards],
                balancer: policy,
                recovery: RecoveryConfig::default(),
                seed: 99,
            })
            .expect("valid static config");
            let static_report = static_sim.run(&wl).expect("static run");

            let adaptive = AdaptiveSim::new(pinned(config, shards, policy, 99))
                .expect("valid adaptive config");
            let report = adaptive.run(&wl).expect("adaptive run");

            assert_eq!(
                report.cluster, static_report,
                "{policy:?} x{shards} load {load}"
            );
            assert!(
                report.control.scale_events.is_empty(),
                "pinned never scales"
            );
            assert_eq!(report.control.shard_slots, shards as u64 * wl.slots);

            // The static-shaped half of the export is also identical.
            let mut reg_static = MetricsRegistry::new();
            static_report.export(&mut reg_static, "fleet");
            let mut reg_adaptive = MetricsRegistry::new();
            report.cluster.export(&mut reg_adaptive, "fleet");
            assert_eq!(
                reg_static.to_json().render(),
                reg_adaptive.to_json().render(),
                "{policy:?}"
            );
        }
    }
}

/// A load burst against a small floor actually provisions spares, the
/// balancer keeps traffic off them until `provisioned + warmup`, and
/// the bill counts the warming interval.
#[test]
fn burst_provisions_spares_and_warmup_gates_routing() {
    let wl = workload(3.0, 30, 200, 84);
    let config = shard_config(30, &wl.template);
    let sim = AdaptiveSim::new(AdaptiveConfig {
        shard: config,
        autoscale: AutoscaleConfig {
            min_shards: 1,
            max_shards: 4,
            control_period_slots: 10,
            scale_up_above: 1.0,
            scale_in_below: 0.05,
            warmup_slots: 6,
        },
        arms: ArmSelection::Fixed(BalancerPolicy::JoinShortestQueue),
        recovery: RecoveryConfig::default(),
        seed: 7,
    })
    .expect("valid config");
    let (workloads, report, control) = sim.dispatch(&wl).expect("dispatch");
    assert!(
        control.scale_events.iter().any(|e| e.up),
        "sustained 3x overload must scale up: {:?}",
        control.scale_events
    );
    for (i, shard_wl) in workloads.iter().enumerate() {
        let Some(at) = control.provisioned_at[i] else {
            assert!(shard_wl.sessions.is_empty(), "parked shard {i} got traffic");
            continue;
        };
        if at > 0 {
            let gate = at + 6;
            assert!(
                shard_wl.sessions.iter().all(|s| s.arrival_slot >= gate),
                "shard {i} (provisioned {at}) routed before warm-up ended"
            );
        }
    }
    // The bill covers each provisioned interval, warm-up included.
    let billed: u64 = control
        .provisioned_at
        .iter()
        .zip(&control.drained_at)
        .filter_map(|(p, d)| p.map(|a| d.unwrap_or(wl.slots) - a))
        .sum();
    assert_eq!(control.shard_slots, billed);
    assert_eq!(control.shard_count.len(), wl.slots as usize);
    assert_eq!(
        report.dispatched + report.balancer_rejected + report.drained,
        report.offered + report.rerouted
    );
}

/// Scale-in drains exactly once: each drained shard's in-flight
/// victims re-offer with their remaining duration, `rerouted` counts
/// them all, and a re-dispatched victim's new duration equals its
/// original departure minus the drain slot.
#[test]
fn drain_reoffers_each_victim_exactly_once_with_remaining_duration() {
    // Front-loaded burst then silence: the fleet scales up, then the
    // occupancy collapse forces a drain while sessions are in flight.
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = 60.0;
    let rate = rate_for_load(2.5, &template, 30 * template.full_bits());
    let mut wl = Workload::generate(ArrivalProcess::Poisson { rate }, template, 300, 85)
        .expect("valid workload");
    wl.sessions.retain(|s| s.arrival_slot < 80);

    let config = shard_config(30, &template);
    let sim = AdaptiveSim::new(AdaptiveConfig {
        shard: config,
        // Two shards at most: a single drain is possible, so "exactly
        // once" is exact (a 3-shard fleet could drain twice and
        // legitimately re-offer a victim from each drain).
        autoscale: AutoscaleConfig {
            min_shards: 1,
            max_shards: 2,
            control_period_slots: 10,
            scale_up_above: 1.0,
            scale_in_below: 0.4,
            warmup_slots: 2,
        },
        arms: ArmSelection::Fixed(BalancerPolicy::JoinShortestQueue),
        recovery: RecoveryConfig::default(),
        seed: 7,
    })
    .expect("valid config");
    let (workloads, report, control) = sim.dispatch(&wl).expect("dispatch");
    let drains: Vec<(usize, u64)> = control
        .drained_at
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|at| (i, at)))
        .collect();
    assert!(!drains.is_empty(), "burst-then-silence must scale in");

    // Victims: sessions dispatched to a shard that straddle its drain
    // slot. Each re-offers exactly once, so `rerouted` is their count.
    let mut victims = 0u64;
    let full = sim.run(&wl).expect("run");
    for &(i, at) in &drains {
        // The shard's run dies at the drain slot: it crashes every
        // session it still holds there, those ending at that slot
        // included.
        let held = workloads[i]
            .sessions
            .iter()
            .filter(|s| s.arrival_slot < at && s.arrival_slot + s.duration_slots >= at)
            .count() as u64;
        assert!(held > 0, "shard {i} holds sessions at its drain");
        assert_eq!(full.cluster.shards[i].crashed, held, "shard {i}");
        for s in &workloads[i].sessions {
            if s.arrival_slot < at && s.arrival_slot + s.duration_slots > at {
                victims += 1;
                // If the survivor accepted it, the re-dispatch keeps
                // the remaining duration (ids are unique per origin).
                let redispatched = workloads
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .flat_map(|(_, w)| &w.sessions)
                    .filter(|r| r.id == s.id)
                    .collect::<Vec<_>>();
                assert!(redispatched.len() <= 1, "victim {} re-offered once", s.id);
                for r in redispatched {
                    assert_eq!(
                        r.duration_slots,
                        s.arrival_slot + s.duration_slots - at,
                        "victim {} keeps its remaining duration",
                        s.id
                    );
                    assert!(r.arrival_slot > at, "re-dispatch is after the drain");
                }
            }
        }
    }
    assert_eq!(
        report.rerouted, victims,
        "rerouted counts every victim once"
    );
    assert_eq!(
        report.dispatched + report.balancer_rejected + report.drained,
        report.offered + report.rerouted
    );
}

/// The UCB bandit is a deterministic function of (seed, trace): two
/// runs yield the same arm sequence, the same pulls and the same
/// full report.
#[test]
fn bandit_arm_sequence_is_deterministic() {
    let wl = workload(1.3, 60, 240, 86);
    let config = shard_config(30, &wl.template);
    let make = || {
        AdaptiveSim::new(AdaptiveConfig {
            shard: config,
            autoscale: AutoscaleConfig {
                min_shards: 2,
                max_shards: 2,
                control_period_slots: 12,
                ..AutoscaleConfig::default()
            },
            arms: ArmSelection::ucb(),
            recovery: RecoveryConfig::default(),
            seed: 11,
        })
        .expect("valid config")
    };
    let a = make().run(&wl).expect("run a");
    let b = make().run(&wl).expect("run b");
    let arms_a: Vec<BalancerPolicy> = a.control.windows.iter().map(|w| w.arm).collect();
    let arms_b: Vec<BalancerPolicy> = b.control.windows.iter().map(|w| w.arm).collect();
    assert_eq!(arms_a, arms_b, "same seed + trace, same arm sequence");
    assert_eq!(a.cluster, b.cluster);
    assert_eq!(a.control, b.control);
    // The bandit has actually tried more than one arm on a 240-slot
    // run with 20 windows (UCB plays each arm once before exploiting).
    let distinct: std::collections::BTreeSet<&str> = arms_a.iter().map(|p| p.label()).collect();
    assert!(distinct.len() > 1, "bandit explored: {arms_a:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fleet ledger balances for arbitrary loads, thresholds,
    /// warm-up costs and arm selections, however many scale events
    /// fire: `dispatched + balancer_rejected + drained ==
    /// offered + rerouted`, and shard workloads sum to the dispatch
    /// count.
    #[test]
    fn adaptive_ledger_balances_over_arbitrary_scale_events(
        load in 0.3f64..2.5,
        seed in 0u64..1_000,
        period in 5u64..40,
        warmup in 0u64..12,
        up_above in 0.8f64..3.0,
        ucb in proptest::bool::ANY,
    ) {
        let wl = workload(load, 40, 150, 3_000 + seed);
        let config = shard_config(40, &wl.template);
        let sim = AdaptiveSim::new(AdaptiveConfig {
            shard: config,
            autoscale: AutoscaleConfig {
                min_shards: 1,
                max_shards: 4,
                control_period_slots: period,
                scale_up_above: up_above,
                scale_in_below: up_above / 4.0,
                warmup_slots: warmup,
            },
            arms: if ucb {
                ArmSelection::ucb()
            } else {
                ArmSelection::Fixed(BalancerPolicy::PowerOfTwoChoices)
            },
            recovery: RecoveryConfig::default(),
            seed,
        })
        .expect("valid config");
        let (workloads, report, control) = sim.dispatch(&wl).expect("dispatch");
        prop_assert_eq!(report.offered, wl.sessions.len() as u64);
        prop_assert_eq!(
            report.dispatched + report.balancer_rejected + report.drained,
            report.offered + report.rerouted
        );
        prop_assert_eq!(report.drained, 0, "batch dispatch never leaves offers pending");
        prop_assert_eq!(
            workloads.iter().map(|w| w.sessions.len() as u64).sum::<u64>(),
            report.dispatched
        );
        prop_assert_eq!(
            report.shard_sessions.iter().sum::<u64>(),
            report.dispatched
        );
        // Windows cover every routed offer (expired re-offers are
        // rejected before the window counter sees them).
        let windowed: u64 = control.windows.iter().map(|w| w.offered).sum();
        prop_assert!(windowed >= report.dispatched);
        prop_assert!(
            windowed <= report.dispatched + report.balancer_rejected + report.retries
        );
        // The full pipeline stays conserved after execution too.
        let full = sim.run(&wl).expect("run");
        prop_assert_eq!(&full.cluster.dispatch, &report);
        // `rejected()` folds balancer refusals in with the in-shard
        // rejections, so the closed ledger is against offered+rerouted.
        prop_assert_eq!(
            full.cluster.admitted() + full.cluster.rejected(),
            report.offered + report.rerouted
        );
    }

    /// The balancer is the only warm-up gate and the only drain: over
    /// shard bounds, control periods, thresholds, warm-up costs of 0–16
    /// slots, every arm, the PI law on and off, loads and seeds, no
    /// session dispatched to a shard provisioned at `a > 0` arrives
    /// before `a + warmup_slots`, none dispatched to a drained shard
    /// arrives at or after its drain slot, and a parked shard gets
    /// none. Each admit-all shard then admits every session it is
    /// offered: nothing reaches a shard that is not ready for it.
    #[test]
    fn shards_see_offers_only_between_warm_up_and_drain(
        min_shards in 1usize..=3,
        spares in 0usize..=3,
        period in 1u64..40,
        up_above in 0.5f64..4.0,
        in_fraction in 0.0f64..1.0,
        warmup in 0u64..=16,
        arm in 0usize..4,
        pi in proptest::bool::ANY,
        load in 0.2f64..3.0,
        seed in 0u64..1_000,
    ) {
        let wl = workload(load, 40 * min_shards as u64, 150, 5_000 + seed);
        let mut shard = shard_config(40, &wl.template);
        shard.degrade = Some(DegradeConfig {
            pi: pi.then(PiConfig::default),
            ..DegradeConfig::default()
        });
        let policies = [
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
            BalancerPolicy::PowerOfTwoChoices,
        ];
        let sim = AdaptiveSim::new(AdaptiveConfig {
            shard,
            autoscale: AutoscaleConfig {
                min_shards,
                max_shards: min_shards + spares,
                control_period_slots: period,
                scale_up_above: up_above,
                scale_in_below: up_above * in_fraction,
                warmup_slots: warmup,
            },
            arms: policies.get(arm).map_or_else(ArmSelection::ucb, |&p| ArmSelection::Fixed(p)),
            recovery: RecoveryConfig::default(),
            seed,
        })
        .expect("valid config");
        let (workloads, _, control) = sim.dispatch(&wl).expect("dispatch");
        for (i, shard_wl) in workloads.iter().enumerate() {
            let Some(at) = control.provisioned_at[i] else {
                prop_assert!(shard_wl.sessions.is_empty(), "parked shard {} got traffic", i);
                continue;
            };
            let warm = if at > 0 { at + warmup } else { 0 };
            let end = control.drained_at[i].unwrap_or(wl.slots);
            for s in &shard_wl.sessions {
                prop_assert!(
                    s.arrival_slot >= warm && s.arrival_slot < end,
                    "shard {} session at {} outside [{}, {})",
                    i, s.arrival_slot, warm, end
                );
            }
        }
        let full = sim.run(&wl).expect("run");
        for (i, report) in full.cluster.shards.iter().enumerate() {
            prop_assert_eq!(report.base.offered, workloads[i].sessions.len() as u64);
            prop_assert_eq!(report.base.admitted, report.base.offered, "shard {}", i);
        }
    }
}
