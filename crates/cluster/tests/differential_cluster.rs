//! Differential and conservation tests for the cluster layer.
//!
//! Two obligations anchor `dms-cluster` to the single-server model it
//! shards:
//!
//! 1. **Degenerate equivalence** — with one shard and the oblivious
//!    round-robin balancer, the dispatch pass is the identity and the
//!    cluster must reproduce a bare [`ServerSim::run`] *bit for bit*:
//!    identical report (every `f64` compared exactly) and identical
//!    per-slot metric series.
//! 2. **Offer conservation** — the PR 3 bit-conservation invariant
//!    (`admitted + rejected == offered`) lifted to the fleet: every
//!    offered session is either routed to exactly one shard or
//!    rejected by the balancer, and crash re-offers are accounted
//!    explicitly, so
//!    `dispatched + balancer_rejected == offered + rerouted` and the
//!    shard ledgers sum back to the dispatch ledger.

use dms_cluster::{aggregate_utility, BalancerPolicy, ClusterConfig, ClusterSim, ShardFault};
use dms_serve::{
    rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, RecoveryConfig,
    ServeMetricsSink, ServerConfig, ServerSim, SessionTemplate, Workload,
};
use dms_sim::{FaultPlan, FaultSpec};
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

fn cluster(shards: Vec<ServerConfig>, balancer: BalancerPolicy, seed: u64) -> ClusterSim {
    ClusterSim::new(ClusterConfig {
        shards,
        balancer,
        recovery: RecoveryConfig::default(),
        seed,
    })
    .expect("valid config")
}

/// A single-shard round-robin cluster is the identity wrapper: same
/// report (bitwise, `PartialEq` over every `f64` field) and same
/// per-slot series as the bare server on the same workload.
#[test]
fn single_shard_cluster_matches_bare_server_bit_for_bit() {
    for &(load, seed) in &[(0.6, 71u64), (1.0, 72), (1.4, 73)] {
        let wl = workload(load, 200, 160, seed);
        let config = shard_config(200, &wl.template);

        let server = ServerSim::new(config).expect("valid config");
        let mut bare_sink = ServeMetricsSink::with_capacity(wl.slots as usize);
        let bare = server
            .run_instrumented(&wl, Some(&mut bare_sink))
            .expect("bare run");

        let sim = cluster(vec![config], BalancerPolicy::RoundRobin, 99);
        let mut sinks = Vec::new();
        let report = sim
            .run_faulted(&wl, &[], Some(&mut sinks))
            .expect("cluster run");

        assert_eq!(report.shards.len(), 1);
        // FaultReport's base is the full ServerReport; exact equality
        // covers every counter and every f64 bit pattern.
        assert_eq!(report.shards[0].base, bare, "load {load}");
        assert_eq!(report.shards[0].crashed, 0);
        assert_eq!(sinks.len(), 1);
        assert_eq!(sinks[0], bare_sink, "load {load}");
        // Aggregates collapse to the single shard's numbers.
        assert_eq!(report.offered(), bare.offered);
        assert_eq!(report.admitted(), bare.admitted);
        assert_eq!(report.rejected(), bare.rejected);
        assert_eq!(aggregate_utility(&sinks), bare_sink.utility());
    }
}

/// The smart balancers are also transparent at a single shard while
/// their mirror admits — at low load the gate never fires, so the run
/// still matches the bare server exactly.
#[test]
fn single_shard_smart_balancers_match_at_low_load() {
    let wl = workload(0.5, 200, 160, 74);
    let config = shard_config(200, &wl.template);
    let bare = ServerSim::new(config)
        .expect("valid config")
        .run(&wl)
        .expect("bare run");
    for balancer in [
        BalancerPolicy::JoinShortestQueue,
        BalancerPolicy::PowerOfTwoChoices,
    ] {
        let report = cluster(vec![config], balancer, 99)
            .run(&wl)
            .expect("cluster run");
        assert_eq!(report.dispatch.balancer_rejected, 0, "{balancer:?}");
        assert_eq!(report.shards[0].base, bare, "{balancer:?}");
    }
}

/// Killing one of two shards re-offers its in-flight sessions to the
/// survivor and keeps the ledgers conserved.
#[test]
fn crash_rerouting_conserves_and_reaches_the_survivor() {
    let wl = workload(0.7, 200, 160, 75);
    let template = wl.template;
    let death = 80u64;
    let sim = cluster(
        vec![shard_config(100, &template), shard_config(100, &template)],
        BalancerPolicy::JoinShortestQueue,
        99,
    );
    let faults = vec![
        ShardFault::default(),
        ShardFault {
            plan: FaultPlan::compile(
                &[FaultSpec::CrashBurst {
                    slot: death,
                    fraction: 1.0,
                }],
                wl.slots,
                7,
            )
            .expect("valid spec"),
            down_from: Some(death),
        },
    ];
    let report = sim.run_faulted(&wl, &faults, None).expect("cluster run");
    assert!(report.dispatch.rerouted > 0, "in-flight sessions re-offer");
    assert!(report.shards[1].crashed > 0, "the dead shard crashed them");
    let d = &report.dispatch;
    assert_eq!(d.dispatched + d.balancer_rejected, d.offered + d.rerouted);
    let shard_offered: u64 = report.shards.iter().map(|s| s.base.offered).sum();
    assert_eq!(shard_offered, d.dispatched);
    assert_eq!(
        report.admitted() + report.rejected(),
        d.offered + d.rerouted
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fleet-level offer conservation for arbitrary shard counts,
    /// balancers, loads and crash schedules: every offer is routed
    /// exactly once or rejected, shard ledgers sum to the dispatch
    /// ledger, and the in-shard `admitted + rejected == offered`
    /// invariant survives the sharding.
    #[test]
    fn cluster_offers_are_conserved(
        shard_count in 1usize..=4,
        balancer_pick in 0u8..3,
        load in 0.3f64..1.6,
        seed in 0u64..1_000,
        crash in proptest::bool::ANY,
    ) {
        let balancer = match balancer_pick {
            0 => BalancerPolicy::RoundRobin,
            1 => BalancerPolicy::JoinShortestQueue,
            _ => BalancerPolicy::PowerOfTwoChoices,
        };
        let wl = workload(load, 40 * shard_count as u64, 100, 1_000 + seed);
        let template = wl.template;
        // Heterogeneous fleet: odd shards get a third of the capacity.
        let shards: Vec<ServerConfig> = (0..shard_count)
            .map(|i| shard_config(if i % 2 == 0 { 60 } else { 20 }, &template))
            .collect();
        let sim = cluster(shards, balancer, seed);
        let faults: Vec<ShardFault> = if crash {
            (0..shard_count)
                .map(|i| {
                    if i == shard_count - 1 {
                        ShardFault {
                            plan: FaultPlan::compile(
                                &[FaultSpec::CrashBurst { slot: 50, fraction: 1.0 }],
                                wl.slots,
                                7,
                            )
                            .expect("valid spec"),
                            down_from: Some(50),
                        }
                    } else {
                        ShardFault::default()
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let report = sim.run_faulted(&wl, &faults, None).expect("cluster run");
        let d = &report.dispatch;
        prop_assert_eq!(d.offered, wl.sessions.len() as u64);
        prop_assert_eq!(d.dispatched + d.balancer_rejected, d.offered + d.rerouted);
        prop_assert_eq!(d.shard_sessions.iter().sum::<u64>(), d.dispatched);
        let shard_offered: u64 = report.shards.iter().map(|s| s.base.offered).sum();
        prop_assert_eq!(shard_offered, d.dispatched);
        for (i, shard) in report.shards.iter().enumerate() {
            prop_assert_eq!(
                shard.base.admitted + shard.base.rejected,
                shard.base.offered,
                "shard {} of {} ({:?})", i, shard_count, balancer
            );
        }
        prop_assert_eq!(
            report.admitted() + report.rejected(),
            d.offered + d.rerouted
        );
        // No crash schedule, no re-offers; with one the dead shard
        // stops taking traffic at the death slot.
        if !crash {
            prop_assert_eq!(d.rerouted, 0);
        }
    }

    /// Determinism: the same cluster run twice yields identical
    /// reports and identical per-slot series, whatever the thread
    /// count of the inner `ParRunner` happens to be.
    #[test]
    fn cluster_runs_are_reproducible(
        shard_count in 1usize..=3,
        balancer_pick in 0u8..3,
        seed in 0u64..500,
    ) {
        let balancer = match balancer_pick {
            0 => BalancerPolicy::RoundRobin,
            1 => BalancerPolicy::JoinShortestQueue,
            _ => BalancerPolicy::PowerOfTwoChoices,
        };
        let wl = workload(1.1, 40 * shard_count as u64, 80, 2_000 + seed);
        let template = wl.template;
        let shards: Vec<ServerConfig> = (0..shard_count)
            .map(|_| shard_config(40, &template))
            .collect();
        let sim = cluster(shards, balancer, seed);
        let mut sinks_a = Vec::new();
        let mut sinks_b = Vec::new();
        let a = sim.run_faulted(&wl, &[], Some(&mut sinks_a)).expect("run a");
        let b = sim.run_faulted(&wl, &[], Some(&mut sinks_b)).expect("run b");
        prop_assert_eq!(a, b);
        prop_assert_eq!(aggregate_utility(&sinks_a), aggregate_utility(&sinks_b));
    }
}
