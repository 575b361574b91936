//! Property-based tests for the streaming server's safety invariants.

use dms_serve::{
    rate_for_load, AdmissionController, AdmissionMemo, AdmissionPolicy, ArrivalProcess,
    CapacityModel, DegradeConfig, RecoveryConfig, ReferenceServerSim, ServeMetricsSink,
    ServerConfig, ServerSim, SessionTemplate, Workload,
};
use dms_sim::{FaultPlan, FaultSpec, Metric, MetricsRegistry};
use proptest::prelude::*;

/// Float slack for occupancy comparisons. The predictor computes
/// occupancy from exact integer bit counts through a handful of f64
/// multiplies and divides, and the report averages at most a few
/// hundred such per-slot values — so legitimate rounding drift is a
/// few hundred ULPs at the bound's magnitude, not an absolute 1e-9.
/// 512 ULPs (~1e-11 for bounds near 100) keeps the assertions tight
/// enough to catch any real off-by-a-frame error.
fn occupancy_slack(bound: f64) -> f64 {
    512.0 * f64::EPSILON * bound.abs().max(1.0)
}

/// The per-slot series `name` of a full-mode sink, read back through
/// its registry export.
fn exported_series(sink: &ServeMetricsSink, name: &str) -> Vec<f64> {
    let mut registry = MetricsRegistry::new();
    sink.export(&mut registry, "server");
    match registry.get(&format!("server/{name}")) {
        Some(Metric::Series(values)) => values.clone(),
        other => panic!("{name} is not an exported series: {other:?}"),
    }
}

/// Strategy: one valid fault spec anywhere inside a 120-slot horizon.
fn fault_spec() -> impl Strategy<Value = FaultSpec> {
    prop_oneof![
        (0u64..110, 1u64..40, 0.0f64..=1.0).prop_map(|(start_slot, duration_slots, factor)| {
            FaultSpec::LinkDegradation {
                start_slot,
                duration_slots,
                factor,
            }
        }),
        (0u64..110, 1u64..10).prop_map(|(start_slot, duration_slots)| FaultSpec::SlotStalls {
            start_slot,
            duration_slots,
        }),
        (1u64..110, 0.05f64..=1.0)
            .prop_map(|(slot, fraction)| FaultSpec::CrashBurst { slot, fraction }),
        (
            0u64..110,
            1u64..40,
            0.01f64..=1.0,
            0.01f64..=1.0,
            0.0f64..=0.2,
            0.1f64..=1.0,
        )
            .prop_map(
                |(
                    start_slot,
                    duration_slots,
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_good,
                    loss_bad,
                )| {
                    FaultSpec::CorruptionBurst {
                        start_slot,
                        duration_slots,
                        p_good_to_bad,
                        p_bad_to_good,
                        loss_good,
                        loss_bad,
                    }
                }
            ),
    ]
}

/// Strategy: a valid capacity model with a bound strictly inside the
/// system size.
fn capacity_model() -> impl Strategy<Value = CapacityModel> {
    (1_000u64..1_000_000, 8u32..128, 0.05f64..0.9).prop_map(|(link, k, frac)| CapacityModel {
        link_bits_per_slot: link,
        queue_frames: k,
        occupancy_bound: frac * f64::from(k),
    })
}

proptest! {
    /// Safety: after any sequence of admissions, the predicted
    /// occupancy of the admitted set never exceeds the configured
    /// bound — the controller cannot be talked past its own model.
    #[test]
    fn admitted_set_never_exceeds_predicted_bound(
        model in capacity_model(),
        frame_bits in 100u64..50_000,
        demands in proptest::collection::vec(1u64..200_000, 1..64),
    ) {
        let mut ctl = AdmissionController::new(model, AdmissionPolicy::QueuePredictor, frame_bits)
            .expect("valid model");
        let mut admitted_bits = 0u64;
        for d in demands {
            if ctl.decide(admitted_bits, d) {
                admitted_bits += d;
                let occ = ctl.predicted_occupancy(admitted_bits);
                // Re-deriving the decision's own prediction: exact up
                // to rounding, so only ULP-scale slack is admissible.
                prop_assert!(
                    occ <= model.occupancy_bound + occupancy_slack(model.occupancy_bound),
                    "admitted set predicts occupancy {occ} > bound {}",
                    model.occupancy_bound
                );
            }
        }
    }

    /// Monotonicity: if a candidate is rejected on top of some active
    /// demand, it is also rejected on top of any larger demand (and
    /// dually, an admit at high load implies an admit at low load).
    #[test]
    fn rejection_is_monotone_in_offered_load(
        model in capacity_model(),
        frame_bits in 100u64..50_000,
        lo in 0u64..2_000_000,
        extra in 0u64..2_000_000,
        candidate in 1u64..100_000,
    ) {
        let mut ctl = AdmissionController::new(model, AdmissionPolicy::QueuePredictor, frame_bits)
            .expect("valid model");
        let hi = lo + extra;
        let admit_lo = ctl.decide(lo, candidate);
        let admit_hi = ctl.decide(hi, candidate);
        prop_assert!(
            admit_lo || !admit_hi,
            "rejected at active demand {lo} but admitted at {hi}"
        );
        // The underlying predictor is monotone too, up to rounding of
        // the larger prediction.
        let hi_occ = ctl.predicted_occupancy(hi + candidate);
        prop_assert!(ctl.predicted_occupancy(lo + candidate) <= hi_occ + occupancy_slack(hi_occ));
    }

    /// The memo's admission frontier answers exactly what the direct
    /// predicate answers, over capacity models from a 1-frame to a
    /// 10^6-frame link, K from 1 to 256 and a bound anywhere in
    /// `(0, K]`, K included. The query walk climbs, falls, hovers,
    /// jumps to a load or to any count below 2^22 (past the memo's
    /// ceiling), and re-estimates the capacity anywhere in
    /// `[0, 2 × link]` between queries, 0 included.
    #[test]
    fn admission_frontier_matches_the_direct_predicate(
        link_frames in (0u32..20, 1u64..1_000_001).prop_map(|(s, x)| (x >> s).max(1)),
        frame_bits in 1u64..10_001,
        k in 1u32..257,
        bound_permille in prop_oneof![Just(1_000u32), 1u32..1_001],
        walk in proptest::collection::vec((0u8..7, 0u64..1 << 22), 1..48),
    ) {
        let link_bits = link_frames * frame_bits;
        let model = CapacityModel {
            link_bits_per_slot: link_bits,
            queue_frames: k,
            occupancy_bound: f64::from(bound_permille) / 1_000.0 * f64::from(k),
        };
        let mut ctl = AdmissionController::new(model, AdmissionPolicy::QueuePredictor, frame_bits)
            .expect("valid model");
        let mut memo = AdmissionMemo::new();
        let mut cursor = 0u64;
        let mut query = |ctl: &AdmissionController, count: u64| {
            prop_assert_eq!(
                memo.would_admit(ctl, count),
                ctl.would_admit(count * frame_bits, frame_bits),
                "count {} at capacity {} of {:?}",
                count,
                ctl.effective_capacity(),
                model
            );
            Ok(())
        };
        for (kind, x) in walk {
            match kind {
                0 => {
                    for _ in 0..=x % 64 {
                        cursor += 1;
                        query(&ctl, cursor)?;
                    }
                }
                1 => {
                    for _ in 0..=x % 64 {
                        cursor = cursor.saturating_sub(1);
                        query(&ctl, cursor)?;
                    }
                }
                2 => {
                    for i in 0..=x % 32 {
                        query(&ctl, cursor + i % 2)?;
                    }
                }
                3 => {
                    cursor = link_frames * (x % 3_000) / 1_000;
                    query(&ctl, cursor)?;
                }
                4 => {
                    cursor = x >> (x % 23);
                    query(&ctl, cursor)?;
                }
                5 => ctl.set_effective_capacity(link_bits * (x % 2_001) / 1_000),
                _ => ctl.set_effective_capacity(0),
            }
        }
    }

    /// End to end: a controlled server run admits only while its own
    /// predictor stays under the bound, whatever the load and seed.
    #[test]
    fn server_runs_respect_the_admission_bound(
        load in 0.2f64..2.0,
        seed in 0u64..1_000,
    ) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let capacity = CapacityModel {
            link_bits_per_slot: 10 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        };
        let rate = rate_for_load(load, &template, capacity.link_bits_per_slot);
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, 120, seed)
            .expect("valid workload");
        let server = ServerSim::new(ServerConfig {
            capacity,
            policy: AdmissionPolicy::QueuePredictor,
            degrade: Some(DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        })
        .expect("valid config");
        let report = server.run(&workload).expect("runs");
        prop_assert_eq!(report.admitted + report.rejected, report.offered);
        // Every admitted state satisfied the bound at admission time and
        // departures only lower the demand, so the slot-mean prediction
        // must sit under the bound too (slack covers the 120-term mean's
        // accumulation rounding).
        prop_assert!(
            report.predicted_occupancy <= capacity.occupancy_bound + occupancy_slack(capacity.occupancy_bound),
            "mean predicted occupancy {} exceeds bound {}",
            report.predicted_occupancy,
            capacity.occupancy_bound
        );
    }

    /// Bookkeeping invariants across random loads, policies and seeds:
    /// every offered session is either admitted or rejected, and the
    /// bits the report accounts for leaving the playout buffers
    /// (delivered + dropped at the door + purged by deadline skips)
    /// never exceed the bits the workload enqueued into them.
    #[test]
    fn server_bit_accounting_is_conservative(
        load in 0.2f64..2.0,
        policy_admit_all in proptest::bool::ANY,
        degrade_on in proptest::bool::ANY,
        selfsim in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let capacity = CapacityModel {
            link_bits_per_slot: 10 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        };
        let rate = rate_for_load(load, &template, capacity.link_bits_per_slot);
        let process = if selfsim {
            ArrivalProcess::SelfSimilar { rate, hurst: 0.85, burstiness: 1.0 }
        } else {
            ArrivalProcess::Poisson { rate }
        };
        let workload = Workload::generate(process, template, 120, seed).expect("valid workload");
        let server = ServerSim::new(ServerConfig {
            capacity,
            policy: if policy_admit_all {
                AdmissionPolicy::AdmitAll
            } else {
                AdmissionPolicy::QueuePredictor
            },
            degrade: degrade_on.then(DegradeConfig::default),
            buffer_slots: 4,
            miss_slots: 2,
        })
        .expect("valid config");
        let mut sink = ServeMetricsSink::with_capacity(120);
        let report = server.run_instrumented(&workload, Some(&mut sink)).expect("runs");
        prop_assert_eq!(report.admitted + report.rejected, report.offered);
        prop_assert!(
            report.delivered_bits + report.buffer_dropped_bits + report.purged_bits
                <= sink.enqueued_bits(),
            "accounted bits {} exceed enqueued bits {}",
            report.delivered_bits + report.buffer_dropped_bits + report.purged_bits,
            sink.enqueued_bits()
        );
        // The sink's per-slot series are consistent with the report.
        let total = |name: &str| exported_series(&sink, name).iter().sum::<f64>();
        prop_assert_eq!(sink.utility().len() as u64, report.slots);
        prop_assert_eq!(total("admitted"), report.admitted as f64);
        prop_assert_eq!(total("active"), report.session_slots as f64);
        prop_assert_eq!(total("deadline_misses"), report.deadline_misses as f64);
    }

    /// Fault injection never breaks the conservation ledgers: whatever
    /// faults strike and whichever policies run, every offered session
    /// is admitted or rejected exactly once (retries re-enter through
    /// the non-recording predicate), and the bits the report accounts
    /// for leaving the playout buffers — delivered, dropped at the
    /// door, purged by deadline skips or destroyed by faults — never
    /// exceed the bits enqueued into them.
    #[test]
    fn faulted_runs_conserve_bits(
        load in 0.2f64..1.5,
        policy_admit_all in proptest::bool::ANY,
        degrade_on in proptest::bool::ANY,
        recovery_on in proptest::bool::ANY,
        specs in proptest::collection::vec(fault_spec(), 0..6),
        seed in 0u64..500,
        plan_seed in 0u64..500,
    ) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let capacity = CapacityModel {
            link_bits_per_slot: 10 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        };
        let rate = rate_for_load(load, &template, capacity.link_bits_per_slot);
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, 120, seed)
            .expect("valid workload");
        let plan = FaultPlan::compile(&specs, 120, plan_seed).expect("strategy emits valid specs");
        let server = ServerSim::new(ServerConfig {
            capacity,
            policy: if policy_admit_all {
                AdmissionPolicy::AdmitAll
            } else {
                AdmissionPolicy::QueuePredictor
            },
            degrade: degrade_on.then(DegradeConfig::default),
            buffer_slots: 4,
            miss_slots: 2,
        })
        .expect("valid config");
        let recovery = recovery_on.then(RecoveryConfig::default);
        let mut sink = ServeMetricsSink::with_capacity(120);
        let report = server
            .run_faulted(&workload, &plan, recovery.as_ref(), Some(&mut sink))
            .expect("runs");
        prop_assert_eq!(report.base.admitted + report.base.rejected, report.base.offered);
        let accounted = report.base.delivered_bits
            + report.base.buffer_dropped_bits
            + report.base.purged_bits
            + report.lost_to_fault_bits;
        prop_assert!(
            accounted <= sink.enqueued_bits(),
            "accounted bits {} exceed enqueued bits {}",
            accounted,
            sink.enqueued_bits()
        );
        // Recovery books stay consistent with the crash/timeout totals,
        // and without a recovery policy nothing retries.
        prop_assert!(report.readmitted + report.retry_rejected <= report.retries);
        if recovery.is_none() {
            prop_assert_eq!(report.retries, 0);
            prop_assert_eq!(report.timed_out, 0);
        }
    }

    /// Recovery restores pre-fault service within the backoff horizon:
    /// after a crash burst, an admit-all server with retry enabled has
    /// every victim with playout time left back on the air by
    /// `crash + backoff_horizon`, so from that slot on the active
    /// population is never below the fault-free run's (timeouts, which
    /// park a session for one backoff gap, are the only slack).
    #[test]
    fn recovery_restores_service_within_the_backoff_horizon(
        load in 0.2f64..0.9,
        fraction in 0.1f64..=1.0,
        crash_slot in 20u64..70,
        seed in 0u64..500,
    ) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let capacity = CapacityModel {
            link_bits_per_slot: 10 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        };
        let rate = rate_for_load(load, &template, capacity.link_bits_per_slot);
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, 120, seed)
            .expect("valid workload");
        let server = ServerSim::new(ServerConfig {
            capacity,
            policy: AdmissionPolicy::AdmitAll,
            degrade: Some(DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        })
        .expect("valid config");
        let recovery = RecoveryConfig::default();
        let plan = FaultPlan::compile(
            &[FaultSpec::CrashBurst {
                slot: crash_slot,
                fraction,
            }],
            120,
            1,
        )
        .expect("valid spec");

        let mut nominal_sink = ServeMetricsSink::with_capacity(120);
        server
            .run_instrumented(&workload, Some(&mut nominal_sink))
            .expect("nominal run");
        let mut faulted_sink = ServeMetricsSink::with_capacity(120);
        let report = server
            .run_faulted(&workload, &plan, Some(&recovery), Some(&mut faulted_sink))
            .expect("faulted run");

        // Admit-all readmits every retry on the first attempt.
        prop_assert_eq!(report.readmitted, report.retries);
        prop_assert_eq!(report.retry_rejected, 0);
        let recovered_from = (crash_slot + recovery.backoff_horizon_slots()) as usize;
        let faulted_active = exported_series(&faulted_sink, "active");
        let nominal_active = exported_series(&nominal_sink, "active");
        for slot in recovered_from..120 {
            prop_assert!(
                faulted_active[slot] + report.timed_out as f64 >= nominal_active[slot],
                "slot {}: faulted active {} (+{} timed out) below nominal {}",
                slot,
                faulted_active[slot],
                report.timed_out,
                nominal_active[slot]
            );
        }
    }

    /// Differential oracle for the arena-backed engine: on arbitrary
    /// loads, policies and arrival processes, the slot-calendar + arena
    /// `ServerSim` produces a report *byte-identical* (every counter and
    /// every float, compared exactly) to [`ReferenceServerSim`], the
    /// retained seed implementation (binary heap + `Vec` active set +
    /// per-offer predictor calls).
    #[test]
    fn arena_engine_matches_reference_nominal(
        load in 0.2f64..2.0,
        policy_admit_all in proptest::bool::ANY,
        degrade_on in proptest::bool::ANY,
        selfsim in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let capacity = CapacityModel {
            link_bits_per_slot: 10 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        };
        let rate = rate_for_load(load, &template, capacity.link_bits_per_slot);
        let process = if selfsim {
            ArrivalProcess::SelfSimilar { rate, hurst: 0.85, burstiness: 1.0 }
        } else {
            ArrivalProcess::Poisson { rate }
        };
        let workload = Workload::generate(process, template, 120, seed).expect("valid workload");
        let config = ServerConfig {
            capacity,
            policy: if policy_admit_all {
                AdmissionPolicy::AdmitAll
            } else {
                AdmissionPolicy::QueuePredictor
            },
            degrade: degrade_on.then(DegradeConfig::default),
            buffer_slots: 4,
            miss_slots: 2,
        };
        let fast = ServerSim::new(config).expect("valid config").run(&workload).expect("runs");
        let oracle = ReferenceServerSim::new(config)
            .expect("valid config")
            .run(&workload)
            .expect("runs");
        prop_assert_eq!(fast, oracle);
    }

    /// The same oracle under fault injection and recovery: crash
    /// victim selection, retry scheduling, timeout sweeps and the
    /// per-slot metrics series must all match the seed implementation
    /// exactly, for any compiled fault plan.
    #[test]
    fn arena_engine_matches_reference_faulted(
        load in 0.2f64..1.5,
        policy_admit_all in proptest::bool::ANY,
        degrade_on in proptest::bool::ANY,
        recovery_on in proptest::bool::ANY,
        specs in proptest::collection::vec(fault_spec(), 0..6),
        seed in 0u64..500,
        plan_seed in 0u64..500,
    ) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let capacity = CapacityModel {
            link_bits_per_slot: 10 * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        };
        let rate = rate_for_load(load, &template, capacity.link_bits_per_slot);
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, 120, seed)
            .expect("valid workload");
        let plan = FaultPlan::compile(&specs, 120, plan_seed).expect("strategy emits valid specs");
        let config = ServerConfig {
            capacity,
            policy: if policy_admit_all {
                AdmissionPolicy::AdmitAll
            } else {
                AdmissionPolicy::QueuePredictor
            },
            degrade: degrade_on.then(DegradeConfig::default),
            buffer_slots: 4,
            miss_slots: 2,
        };
        let recovery = recovery_on.then(RecoveryConfig::default);
        let mut fast_sink = ServeMetricsSink::with_capacity(120);
        let fast = ServerSim::new(config)
            .expect("valid config")
            .run_faulted(&workload, &plan, recovery.as_ref(), Some(&mut fast_sink))
            .expect("runs");
        let mut oracle_sink = ServeMetricsSink::with_capacity(120);
        let oracle = ReferenceServerSim::new(config)
            .expect("valid config")
            .run_faulted(&workload, &plan, recovery.as_ref(), Some(&mut oracle_sink))
            .expect("runs");
        prop_assert_eq!(fast, oracle);
        for name in ["admitted", "active", "deadline_misses"] {
            prop_assert_eq!(exported_series(&fast_sink, name), exported_series(&oracle_sink, name));
        }
        prop_assert_eq!(fast_sink.enqueued_bits(), oracle_sink.enqueued_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The oracle at cohort scale. The two differential tests above
    /// run a 10-session link, so a settled cohort holds about ten
    /// sessions. Here the link carries 100–2000 sessions and sessions
    /// are short, so large settled cohorts step in bulk for many slots
    /// on an unordered arena, recycling each departure's slot at once,
    /// until a fault, a miss or a contended slot sends them back to the
    /// per-session path, which rebuilds the admission order from the
    /// records. The reference predates the PI shedding law (it runs the
    /// hysteresis law for any degrade config), so the PI arm is checked
    /// in the engine's own tests, against its per-session path.
    #[test]
    fn arena_engine_matches_reference_at_cohort_scale(
        link_sessions in 100u64..2_001,
        load in 0.3f64..1.5,
        selfsim in proptest::bool::ANY,
        policy_admit_all in proptest::bool::ANY,
        degrade_on in proptest::bool::ANY,
        recovery_on in proptest::bool::ANY,
        mean_duration in 5.0f64..60.0,
        specs in proptest::collection::vec(fault_spec(), 0..5),
        seed in 0u64..500,
        plan_seed in 0u64..500,
    ) {
        const SLOTS: u64 = 200;
        let mut template = SessionTemplate::streaming_default().expect("preset valid");
        template.mean_duration_slots = mean_duration;
        let capacity = CapacityModel {
            link_bits_per_slot: link_sessions * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        };
        let rate = rate_for_load(load, &template, capacity.link_bits_per_slot);
        let process = if selfsim {
            ArrivalProcess::SelfSimilar { rate, hurst: 0.85, burstiness: 1.0 }
        } else {
            ArrivalProcess::Poisson { rate }
        };
        let workload = Workload::generate(process, template, SLOTS, seed).expect("valid workload");
        let plan = FaultPlan::compile(&specs, SLOTS, plan_seed).expect("strategy emits valid specs");
        let config = ServerConfig {
            capacity,
            policy: if policy_admit_all {
                AdmissionPolicy::AdmitAll
            } else {
                AdmissionPolicy::QueuePredictor
            },
            degrade: degrade_on.then(DegradeConfig::default),
            buffer_slots: 4,
            miss_slots: 2,
        };
        let recovery = recovery_on.then(RecoveryConfig::default);
        let mut fast_sink = ServeMetricsSink::with_capacity(SLOTS as usize);
        let fast = ServerSim::new(config)
            .expect("valid config")
            .run_faulted(&workload, &plan, recovery.as_ref(), Some(&mut fast_sink))
            .expect("runs");
        let mut oracle_sink = ServeMetricsSink::with_capacity(SLOTS as usize);
        let oracle = ReferenceServerSim::new(config)
            .expect("valid config")
            .run_faulted(&workload, &plan, recovery.as_ref(), Some(&mut oracle_sink))
            .expect("runs");
        prop_assert_eq!(fast, oracle);
        for name in ["admitted", "active", "deadline_misses"] {
            prop_assert_eq!(exported_series(&fast_sink, name), exported_series(&oracle_sink, name));
        }
        prop_assert_eq!(fast_sink.enqueued_bits(), oracle_sink.enqueued_bits());
    }
}
