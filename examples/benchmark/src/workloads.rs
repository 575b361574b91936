//! The four workloads: their fixed parameters and the seeded trace each
//! one serves. Everything here is set-up work, timed as `setup_s`.

use dms_cluster::{BalancerPolicy, ClusterConfig};
use dms_serve::{
    rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig, PiConfig,
    RecoveryConfig, ServerConfig, SessionTemplate, Workload,
};
use dms_sim::{FaultEvent, FaultPlan, FaultSpec, SimRng};

use crate::trace::{timed, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MegaServer,
    Fleet8,
    OverloadFaults,
    SocketLockstep,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::MegaServer,
        Kind::Fleet8,
        Kind::OverloadFaults,
        Kind::SocketLockstep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MegaServer => "mega-server",
            Kind::Fleet8 => "fleet8",
            Kind::OverloadFaults => "overload-faults",
            Kind::SocketLockstep => "socket-lockstep",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Seed used when `--seed` is not given. `mega-server` and `fleet8`
    /// take E15's seed of its 10^6-session point (1504 + 10^6), so they
    /// replay the `server-1m` / `cluster8-1m` trace.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::MegaServer | Kind::Fleet8 => 1_001_504,
            Kind::OverloadFaults => 1_304,
            Kind::SocketLockstep => 2_026,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    Poisson,
    /// Fractional Gaussian noise counts, rescaled so the realized mean
    /// is exactly the offered load: with long-range dependence the mean
    /// of one draw wanders by a tenth or more from seed to seed, which
    /// would make every seed a different load.
    SelfSimilar {
        hurst: f64,
        burstiness: f64,
    },
}

/// Shape of a seeded trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Link capacity in concurrent full-quality sessions.
    pub link_sessions: u64,
    pub slots: u64,
    pub duration_slots: f64,
    /// Offered load as a multiple of the link.
    pub load: f64,
    pub arrivals: Arrivals,
}

/// Shards of `fleet8`, equal slices of the `mega-server` link.
pub const FLEET_SHARDS: usize = 8;
/// Candidate-stream seed of the fleet balancer (E15's).
const FLEET_BALANCER_SEED: u64 = 1509;

impl Shape {
    pub fn of(kind: Kind) -> Shape {
        match kind {
            // E15's 10^6 point: 10^6 sessions over 500 slots at load 1.0
            // with a 125-slot mean hold, so ~250k are live at once.
            Kind::MegaServer | Kind::Fleet8 => Shape {
                link_sessions: 250_000,
                slots: 500,
                duration_slots: 125.0,
                load: 1.0,
                arrivals: Arrivals::Poisson,
            },
            // Forty 150-slot holds: with long-range dependence the share
            // of offers a trace admits depends on how its few longest
            // troughs fall. Over ten holds (1500 slots) the admit ratio's
            // spread across ten seeds was 0.020; over forty, with the
            // per-slot deviation halved, it is 0.004-0.008.
            Kind::OverloadFaults => Shape {
                link_sessions: 5_000,
                slots: 6_000,
                duration_slots: 150.0,
                load: 1.5,
                arrivals: Arrivals::SelfSimilar {
                    hurst: 0.85,
                    burstiness: 0.5,
                },
            },
            Kind::SocketLockstep => Shape {
                link_sessions: 10_000,
                slots: 4_000,
                duration_slots: 150.0,
                load: 1.2,
                arrivals: Arrivals::Poisson,
            },
        }
    }

    /// The same trace at 1/1000 of the link, for the tests.
    #[cfg(test)]
    pub fn tiny(self) -> Shape {
        Shape {
            link_sessions: self.link_sessions / 1000,
            ..self
        }
    }

    /// Parameters recorded in every result.
    pub fn describe(&self) -> String {
        let arrivals = match self.arrivals {
            Arrivals::Poisson => "poisson".to_string(),
            Arrivals::SelfSimilar { hurst, burstiness } => {
                format!("fgn(H={hurst},burstiness={burstiness},mean=exact)")
            }
        };
        format!(
            "link_sessions={} slots={} duration_slots={} load={} arrivals={arrivals}",
            self.link_sessions, self.slots, self.duration_slots, self.load
        )
    }
}

/// Builds the template and generates the seeded trace.
pub fn generate(
    shape: &Shape,
    seed: u64,
    tr: &mut Option<&mut Tracer>,
) -> Result<Workload, String> {
    let mut template = timed(
        tr,
        "serve.workload/template",
        1,
        SessionTemplate::streaming_default,
    )
    .map_err(|e| format!("template: {e}"))?;
    template.mean_duration_slots = shape.duration_slots;
    let rate = rate_for_load(shape.load, &template, link_bits(shape, &template));
    let workload = timed(tr, "serve.workload/generate", 1, || match shape.arrivals {
        Arrivals::Poisson => Workload::generate(
            ArrivalProcess::Poisson { rate },
            template,
            shape.slots,
            seed,
        ),
        Arrivals::SelfSimilar { hurst, burstiness } => {
            let process = ArrivalProcess::SelfSimilar {
                rate,
                hurst,
                burstiness,
            };
            // The substream `Workload::generate` draws its counts from.
            let mut rng = SimRng::new(seed).substream("serve-arrivals", 0);
            let counts = process.counts(shape.slots as usize, &mut rng)?;
            let total = (rate * shape.slots as f64).round() as u64;
            Workload::from_arrival_counts(&rescale(&counts, total), template, seed)
        }
    })
    .map_err(|e| format!("workload: {e}"))?;
    if !workload
        .sessions
        .windows(2)
        .all(|w| w[0].arrival_slot <= w[1].arrival_slot)
    {
        return Err("workload arrivals are not in slot order".into());
    }
    Ok(workload)
}

/// Scales `counts` to sum to exactly `total`, keeping their shape: slot
/// `i` gets the rounded scaled prefix sum up to `i` minus the one before.
fn rescale(counts: &[u32], total: u64) -> Vec<u32> {
    let sum: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    if sum == 0 {
        return counts.to_vec();
    }
    let (mut prefix, mut given) = (0u64, 0u64);
    counts
        .iter()
        .map(|&c| {
            prefix += u64::from(c);
            let upto = ((u128::from(prefix) * u128::from(total) + u128::from(sum / 2))
                / u128::from(sum)) as u64;
            let n = upto - given;
            given = upto;
            n as u32
        })
        .collect()
}

pub fn link_bits(shape: &Shape, template: &SessionTemplate) -> u64 {
    shape.link_sessions * template.full_bits()
}

fn server(link_bits: u64, policy: AdmissionPolicy, degrade: Option<DegradeConfig>) -> ServerConfig {
    ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: link_bits,
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy,
        degrade,
        buffer_slots: 4,
        miss_slots: 2,
    }
}

/// `mega-server`: E15's single engine, predictor admission, no degrade.
pub fn mega_config(link_bits: u64) -> ServerConfig {
    server(link_bits, AdmissionPolicy::QueuePredictor, None)
}

/// `overload-faults`: predictor admission plus PI layer shedding.
pub fn overload_config(link_bits: u64) -> ServerConfig {
    let degrade = DegradeConfig {
        pi: Some(PiConfig::default()),
        ..DegradeConfig::default()
    };
    server(link_bits, AdmissionPolicy::QueuePredictor, Some(degrade))
}

/// `socket-lockstep`: E12's controlled arm.
pub fn socket_config(link_bits: u64) -> ServerConfig {
    server(
        link_bits,
        AdmissionPolicy::QueuePredictor,
        Some(DegradeConfig::default()),
    )
}

/// `fleet8`: the `mega-server` link cut into equal admit-all shards
/// behind join-shortest-queue, whose per-shard mirrors do admission.
pub fn fleet_config(link_bits: u64) -> ClusterConfig {
    let shard = server(
        link_bits / FLEET_SHARDS as u64,
        AdmissionPolicy::AdmitAll,
        None,
    );
    ClusterConfig {
        shards: vec![shard; FLEET_SHARDS],
        balancer: BalancerPolicy::JoinShortestQueue,
        recovery: RecoveryConfig::default(),
        seed: FLEET_BALANCER_SEED,
    }
}

/// Slots between the starts of two fault blocks in `overload-faults`.
pub const FAULT_PERIOD: u64 = 1_500;

/// E13's crash-level fault block, starting half way into every
/// [`FAULT_PERIOD`] slots: a 60-slot fade to half the link, two 6-slot
/// stalls inside the recovery window, then crash bursts of 60% and 40%
/// of the live set.
pub fn fault_plan(slots: u64, seed: u64) -> Result<FaultPlan, String> {
    let specs: Vec<FaultSpec> = (0..slots / FAULT_PERIOD)
        .flat_map(|k| {
            let start = k * FAULT_PERIOD + FAULT_PERIOD / 2;
            [
                FaultSpec::LinkDegradation {
                    start_slot: start,
                    duration_slots: 60,
                    factor: 0.5,
                },
                FaultSpec::SlotStalls {
                    start_slot: start + 86,
                    duration_slots: 6,
                },
                FaultSpec::SlotStalls {
                    start_slot: start + 116,
                    duration_slots: 6,
                },
                FaultSpec::CrashBurst {
                    slot: start + 180,
                    fraction: 0.6,
                },
                FaultSpec::CrashBurst {
                    slot: start + 186,
                    fraction: 0.4,
                },
            ]
        })
        .collect();
    FaultPlan::compile(&specs, slots, seed).map_err(|e| format!("fault plan: {e}"))
}

/// Link capacity of each slot in bits, as the engine applies `plan`:
/// a slot's events take effect before it is served, a stalled slot
/// serves nothing, and a rate change lasts until the next one.
pub fn slot_capacities(nominal: u64, plan: Option<&FaultPlan>, slots: u64) -> Vec<u64> {
    let events = plan.map_or(&[][..], FaultPlan::events);
    let (mut next, mut factor) = (0, 1.0f64);
    (0..slots)
        .map(|slot| {
            let mut stalled = false;
            while next < events.len() && events[next].slot <= slot {
                match events[next].event {
                    FaultEvent::LinkRate { factor: f } => factor = f,
                    FaultEvent::LinkRestore => factor = 1.0,
                    FaultEvent::SlotStall => stalled = true,
                    _ => {}
                }
                next += 1;
            }
            if stalled {
                0
            } else if factor >= 1.0 {
                nominal
            } else {
                (nominal as f64 * factor).round() as u64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_hits_the_total_and_keeps_the_shape() {
        let counts = [0, 10, 30, 0, 60];
        let scaled = rescale(&counts, 50);
        assert_eq!(scaled.iter().map(|&c| u64::from(c)).sum::<u64>(), 50);
        assert_eq!(scaled, vec![0, 5, 15, 0, 30]);
        assert_eq!(rescale(&[0, 0], 7), vec![0, 0]);
        let odd = rescale(&[1, 1, 1], 2);
        assert_eq!(odd.iter().sum::<u32>(), 2);
    }

    #[test]
    fn slot_capacities_follow_the_fade_and_the_stalls() {
        let plan = fault_plan(2 * FAULT_PERIOD, 1).unwrap();
        let caps = slot_capacities(1000, Some(&plan), 2 * FAULT_PERIOD);
        for k in 0..2 {
            let start = (k * FAULT_PERIOD + FAULT_PERIOD / 2) as usize;
            assert_eq!(caps[start - 1], 1000);
            assert!(caps[start..start + 60].iter().all(|&c| c == 500));
            assert_eq!(caps[start + 60], 1000);
            assert!(caps[start + 86..start + 92].iter().all(|&c| c == 0));
            assert!(caps[start + 116..start + 122].iter().all(|&c| c == 0));
            assert_eq!(caps[start + 122], 1000);
        }
        let reduced = caps.iter().filter(|&&c| c < 1000).count();
        assert_eq!(reduced, 2 * (60 + 6 + 6));
        assert_eq!(slot_capacities(7, None, 3), vec![7, 7, 7]);
    }

    #[test]
    fn self_similar_traces_offer_the_same_load_at_every_seed() {
        let shape = Shape::of(Kind::OverloadFaults).tiny();
        let sizes: Vec<usize> = (0..4)
            .map(|seed| generate(&shape, seed, &mut None).unwrap().sessions.len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }
}
