//! Differential and conservation tests for the geo-tiered layer.
//!
//! Two obligations anchor `dms_cluster::tiers` to the fleet model it
//! composes:
//!
//! 1. **Degenerate equivalence** — a one-region tier whose origin
//!    admits everything (huge uplink) and whose cache is disabled
//!    passes every offered session straight through to its fleet, so
//!    the embedded [`ClusterReport`] must reproduce a bare
//!    [`ClusterSim::run`] on the identical workload *bit for bit*
//!    (every `f64` compared exactly) — the same pattern as the
//!    single-shard-cluster ≡ bare-server test one layer down.
//! 2. **Session conservation** — every offered session is exactly one
//!    of cache hit / origin fetch / origin reject, for arbitrary Zipf
//!    exponents, churn processes, cache sizes, and seeds; and the
//!    fleet sees exactly the non-rejected sessions.

use dms_cluster::{
    BalancerPolicy, ClassMix, ClusterConfig, ClusterSim, ContentModel, LastHopEnergy, RegionConfig,
    TieredConfig, TieredSim,
};
use dms_serve::{
    AdmissionPolicy, ArrivalProcess, CapacityModel, RecoveryConfig, ServerConfig, SessionTemplate,
    Workload,
};
use proptest::prelude::*;

fn template() -> SessionTemplate {
    let mut t = SessionTemplate::streaming_default().expect("preset valid");
    t.mean_duration_slots = 40.0;
    t
}

fn shard(sessions: u64, template: &SessionTemplate) -> ServerConfig {
    ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: sessions * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::QueuePredictor,
        degrade: None,
        buffer_slots: 8,
        miss_slots: 4,
    }
}

fn fleet(template: &SessionTemplate, seed: u64) -> ClusterConfig {
    ClusterConfig {
        shards: vec![shard(30, template), shard(50, template)],
        balancer: BalancerPolicy::JoinShortestQueue,
        recovery: RecoveryConfig::default(),
        seed,
    }
}

fn arrivals(rate: f64) -> ArrivalProcess {
    ArrivalProcess::FlashCrowd {
        rate,
        hurst: 0.8,
        burstiness: 0.6,
        diurnal_depth: 0.3,
        diurnal_period_slots: 160,
        diurnal_phase_slots: 0,
        spike_factor: 2.0,
        spike_period_slots: 80,
        spike_slots: 8,
    }
}

/// A one-region tier with caching disabled and an effectively infinite
/// origin is the identity wrapper around its fleet: the embedded
/// cluster report equals the bare `ClusterSim::run` bitwise.
#[test]
fn one_region_tier_matches_bare_cluster_bit_for_bit() {
    let t = template();
    for &(rate, seed) in &[(0.8f64, 21u64), (1.6, 22), (2.4, 23)] {
        let fleet_config = fleet(&t, 7);
        let tier = TieredSim::new(TieredConfig {
            regions: vec![RegionConfig {
                fleet: fleet_config.clone(),
                arrivals: arrivals(rate),
                cache_items: 0,
                proximate: true,
            }],
            template: t,
            slots: 160,
            content: ContentModel {
                catalog_size: 400,
                zipf_exponent: 1.0,
                churn_period_slots: 40,
                churn_stride: 13,
            },
            // An origin that can hold every concurrent session: the
            // predictor admits everything, so no session is dropped
            // before the fleet.
            origin: CapacityModel {
                link_bits_per_slot: 1_000_000 * t.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            classes: ClassMix::streaming_default(&t),
            energy: LastHopEnergy::derive(5).expect("derivable"),
            seed,
        })
        .expect("valid tier");

        let (workloads, draws) = tier.generate().expect("workloads generate");
        let report = tier.run_on(&workloads, &draws).expect("tier runs");
        assert_eq!(report.regions.len(), 1);
        let region = &report.regions[0];
        assert_eq!(region.origin_rejected, 0, "infinite origin rejects nothing");
        assert_eq!(region.edge_hits, 0, "caching disabled");
        assert_eq!(region.origin_fetches, region.offered);

        // The equivalent bare fleet run on the identical workload:
        // region r generates with seed `config.seed + r`.
        let workload = Workload::generate(arrivals(rate), t, 160, seed).expect("valid workload");
        assert_eq!(region.offered, workload.sessions.len() as u64);
        let bare = ClusterSim::new(fleet_config)
            .expect("valid fleet")
            .run(&workload)
            .expect("bare run");
        assert_eq!(
            region.fleet, bare,
            "rate {rate} seed {seed}: tier must be the identity wrapper"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `edge_hits + origin_fetches + origin_rejected == offered` for
    /// arbitrary popularity, churn, cache, and origin parameters — and
    /// the fleet sees exactly the non-rejected sessions.
    #[test]
    fn sessions_are_conserved_across_tiers(
        seed in 0u64..1_000,
        zipf_exponent in 0.5f64..1.6,
        catalog_size in 50u64..400,
        churn_period_slots in prop_oneof![Just(0u64), 10u64..60],
        churn_stride in 1u64..40,
        cache_items in prop_oneof![Just(0usize), 8usize..96],
        origin_sessions in 5u64..60,
        rate in 0.5f64..2.5,
    ) {
        let t = template();
        let tier = TieredSim::new(TieredConfig {
            regions: vec![
                RegionConfig {
                    fleet: fleet(&t, 3),
                    arrivals: arrivals(rate),
                    cache_items,
                    proximate: true,
                },
                RegionConfig {
                    fleet: fleet(&t, 4),
                    arrivals: arrivals(rate * 0.7),
                    cache_items,
                    proximate: true,
                },
            ],
            template: t,
            slots: 120,
            content: ContentModel {
                catalog_size,
                zipf_exponent,
                churn_period_slots,
                churn_stride,
            },
            origin: CapacityModel {
                link_bits_per_slot: origin_sessions * t.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            classes: ClassMix::streaming_default(&t),
            energy: LastHopEnergy::derive(5).expect("derivable"),
            seed,
        }).expect("valid tier");

        let (workloads, draws) = tier.generate().expect("workloads generate");
        let report = tier.run_on(&workloads, &draws).expect("tier runs");
        for region in &report.regions {
            prop_assert!(region.conserved(),
                "hits {} + fetches {} + rejects {} != offered {}",
                region.edge_hits, region.origin_fetches,
                region.origin_rejected, region.offered);
            prop_assert_eq!(
                region.fleet.offered(),
                region.edge_hits + region.origin_fetches,
                "fleet must see exactly the non-rejected sessions");
            if cache_items == 0 {
                prop_assert_eq!(region.edge_hits, 0);
            }
        }
        // The run is a pure function of the config.
        let (workloads, draws) = tier.generate().expect("workloads regenerate");
        let again = tier.run_on(&workloads, &draws).expect("tier reruns");
        prop_assert_eq!(report, again);
    }
}
