//! Network-lifetime evaluation — experiment E9.
//!
//! §4.2 defines network lifetime "as the duration of time after which a
//! fixed percentage of multimedia hosts in the network 'die' as a result
//! of energy exhaustion", and reports that lifetime-aware protocols
//! "improve the network lifetime by more than 20%, on average" despite
//! extra control traffic.
//!
//! [`run_lifetime`] drives a random-session workload over one protocol
//! until the death threshold is crossed, measuring lifetime in rounds,
//! delivered traffic, first-death time and fragmentation.

use dms_sim::SimRng;

use crate::error::ManetError;
use crate::network::Manet;
use crate::node::RadioParams;
use crate::routing::{charge_route, route, Protocol};

/// Configuration of one lifetime experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeConfig {
    /// Number of hosts.
    pub nodes: usize,
    /// Deployment area side, metres.
    pub side_m: f64,
    /// Initial battery per host, joules.
    pub battery_j: f64,
    /// Radio parameters.
    pub radio: RadioParams,
    /// Random sessions initiated per round.
    pub sessions_per_round: usize,
    /// Bits per session.
    pub session_bits: u64,
    /// Fraction of dead hosts that ends the network's life.
    pub death_threshold: f64,
    /// Hard cap on simulated rounds.
    pub max_rounds: u64,
    /// Extra per-round control-traffic energy for lifetime-aware
    /// protocols, as a fraction of a session's energy ("these protocols
    /// indeed create additional control traffic").
    pub control_overhead: f64,
    /// Per-round Brownian mobility step (standard deviation in metres
    /// per axis); 0 = static network.
    pub mobility_sigma_m: f64,
}

impl LifetimeConfig {
    /// The E9 reference setup: 50 hosts in 1000 m × 1000 m.
    #[must_use]
    pub fn reference() -> Self {
        LifetimeConfig {
            nodes: 50,
            side_m: 1000.0,
            battery_j: 5.0,
            radio: RadioParams::default(),
            sessions_per_round: 5,
            session_bits: 10_000,
            death_threshold: 0.2,
            max_rounds: 100_000,
            control_overhead: 0.02,
            mobility_sigma_m: 0.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ManetError::InvalidParameter`] naming the offending
    /// field, and propagates radio validation.
    pub fn validate(&self) -> Result<(), ManetError> {
        if self.nodes < 2 {
            return Err(ManetError::InvalidParameter("nodes"));
        }
        if !(self.death_threshold > 0.0 && self.death_threshold <= 1.0) {
            return Err(ManetError::InvalidParameter("death_threshold"));
        }
        if self.sessions_per_round == 0 || self.session_bits == 0 || self.max_rounds == 0 {
            return Err(ManetError::InvalidParameter("workload"));
        }
        if !(self.control_overhead >= 0.0 && self.control_overhead < 1.0) {
            return Err(ManetError::InvalidParameter("control_overhead"));
        }
        if !(self.mobility_sigma_m.is_finite() && self.mobility_sigma_m >= 0.0) {
            return Err(ManetError::InvalidParameter("mobility_sigma_m"));
        }
        self.radio.validate()
    }
}

/// Measured outcome of one lifetime run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Protocol evaluated.
    pub protocol: Protocol,
    /// Rounds survived before the death threshold was crossed.
    pub lifetime_rounds: u64,
    /// Round at which the first host died (0 if none did).
    pub first_death_round: u64,
    /// Sessions successfully routed.
    pub delivered_sessions: u64,
    /// Sessions that found no route.
    pub failed_sessions: u64,
    /// Whether the alive subgraph was still connected at the end.
    pub connected_at_end: bool,
    /// Total energy spent, joules.
    pub energy_spent_j: f64,
    /// Total hops over all delivered sessions (for mean route length).
    pub total_hops: u64,
}

impl LifetimeReport {
    /// Delivery ratio over all attempted sessions.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered_sessions + self.failed_sessions;
        if total == 0 {
            0.0
        } else {
            self.delivered_sessions as f64 / total as f64
        }
    }
}

/// Runs the lifetime experiment for one protocol.
///
/// The deployment and the session sequence depend only on `seed`, so
/// different protocols face *identical* workloads.
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn run_lifetime(
    cfg: &LifetimeConfig,
    protocol: Protocol,
    seed: u64,
) -> Result<LifetimeReport, ManetError> {
    cfg.validate()?;
    let root = SimRng::new(seed);
    let mut deploy_rng = root.substream("manet-deploy", 0);
    let mut session_rng = root.substream("manet-sessions", 0);
    let mut mobility_rng = root.substream("manet-mobility", 0);
    let mut net = Manet::random_deployment(
        cfg.nodes,
        cfg.side_m,
        cfg.battery_j,
        cfg.radio,
        &mut deploy_rng,
    )?;
    let is_lifetime_aware = matches!(
        protocol,
        Protocol::BatteryCost | Protocol::LifetimePrediction
    );
    let session_energy_estimate = cfg.radio.tx_energy_j(cfg.session_bits, cfg.side_m / 4.0);
    let mut delivered = 0u64;
    let mut failed = 0u64;
    let mut first_death = 0u64;
    let mut energy = 0.0;
    let mut total_hops = 0u64;
    let mut round = 0u64;
    while round < cfg.max_rounds {
        round += 1;
        let mut round_drain = vec![0.0; cfg.nodes];
        for _ in 0..cfg.sessions_per_round {
            let src = session_rng.below(cfg.nodes);
            let mut dst = session_rng.below(cfg.nodes);
            while dst == src {
                dst = session_rng.below(cfg.nodes);
            }
            match route(&net, protocol, src, dst, cfg.session_bits) {
                Some(path) => {
                    let before: Vec<f64> = path
                        .iter()
                        .map(|&i| net.node(i).expect("path node").battery_j)
                        .collect();
                    energy += charge_route(&mut net, &path, cfg.session_bits);
                    for (k, &i) in path.iter().enumerate() {
                        let spent = before[k] - net.node(i).expect("path node").battery_j;
                        round_drain[i] += spent;
                    }
                    delivered += 1;
                    total_hops += (path.len() - 1) as u64;
                }
                None => failed += 1,
            }
        }
        // Lifetime-aware protocols pay for their control traffic: a small
        // broadcast charge on every alive node.
        if is_lifetime_aware {
            let control = cfg.control_overhead * session_energy_estimate / cfg.nodes.max(1) as f64;
            for i in 0..cfg.nodes {
                if net.node(i).expect("index in range").is_alive() {
                    net.node_mut(i).expect("index in range").consume(control);
                    round_drain[i] += control;
                    energy += control;
                }
            }
        }
        // Feed the drain estimators (used by lifetime prediction).
        for i in 0..cfg.nodes {
            net.node_mut(i)
                .expect("index in range")
                .record_drain(round_drain[i]);
        }
        // Hosts wander (Brownian mobility, reflected at the area edges).
        if cfg.mobility_sigma_m > 0.0 {
            for i in 0..cfg.nodes {
                if net.node(i).expect("index in range").is_alive() {
                    let dx = mobility_rng.normal(0.0, cfg.mobility_sigma_m);
                    let dy = mobility_rng.normal(0.0, cfg.mobility_sigma_m);
                    net.move_node(i, dx, dy, cfg.side_m)
                        .expect("index in range");
                }
            }
        }
        if first_death == 0 && net.dead_fraction() > 0.0 {
            first_death = round;
        }
        if net.dead_fraction() >= cfg.death_threshold {
            break;
        }
    }
    Ok(LifetimeReport {
        protocol,
        lifetime_rounds: round,
        first_death_round: first_death,
        delivered_sessions: delivered,
        failed_sessions: failed,
        connected_at_end: net.is_connected(),
        energy_spent_j: energy,
        total_hops,
    })
}

#[cfg(test)]
impl LifetimeConfig {
    /// A quick small instance: a unit-test fixture.
    #[must_use]
    pub fn small() -> Self {
        LifetimeConfig {
            nodes: 20,
            side_m: 600.0,
            battery_j: 1.0,
            ..Self::reference()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let mut c = LifetimeConfig::small();
        c.nodes = 1;
        assert!(run_lifetime(&c, Protocol::MinimumPower, 1).is_err());
        let mut c = LifetimeConfig::small();
        c.death_threshold = 0.0;
        assert!(run_lifetime(&c, Protocol::MinimumPower, 1).is_err());
        let mut c = LifetimeConfig::small();
        c.control_overhead = 1.0;
        assert!(run_lifetime(&c, Protocol::MinimumPower, 1).is_err());
    }

    #[test]
    fn experiment_terminates_and_accounts() {
        let r = run_lifetime(&LifetimeConfig::small(), Protocol::MinimumPower, 3)
            .expect("valid config");
        assert!(r.lifetime_rounds > 0);
        assert!(r.delivered_sessions > 0);
        assert!(r.energy_spent_j > 0.0);
        assert!(r.first_death_round <= r.lifetime_rounds);
        assert!(r.delivery_ratio() > 0.0 && r.delivery_ratio() <= 1.0);
    }

    #[test]
    fn route_length_accounting() {
        let r = run_lifetime(&LifetimeConfig::small(), Protocol::MinimumPower, 3)
            .expect("valid config");
        // Every delivered session takes at least one hop.
        assert!(r.total_hops >= r.delivered_sessions);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = LifetimeConfig::small();
        let a = run_lifetime(&cfg, Protocol::BatteryCost, 7).expect("valid");
        let b = run_lifetime(&cfg, Protocol::BatteryCost, 7).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn lifetime_aware_protocols_beat_minimum_power() {
        // E9: >20% average lifetime improvement. Averaged over a few
        // seeds to damp deployment luck.
        let cfg = LifetimeConfig::small();
        let seeds = [1u64, 2, 3, 4, 5];
        let avg = |p: Protocol| {
            seeds
                .iter()
                .map(|&s| run_lifetime(&cfg, p, s).expect("valid").lifetime_rounds as f64)
                .sum::<f64>()
                / seeds.len() as f64
        };
        let mpr = avg(Protocol::MinimumPower);
        let bc = avg(Protocol::BatteryCost);
        let lpr = avg(Protocol::LifetimePrediction);
        let best = bc.max(lpr);
        let improvement = best / mpr - 1.0;
        assert!(
            improvement > 0.20,
            "lifetime-aware improvement {:.1}% should exceed 20% (mpr {mpr}, bc {bc}, lpr {lpr})",
            improvement * 100.0
        );
    }

    #[test]
    fn first_death_is_postponed_by_lifetime_awareness() {
        let cfg = LifetimeConfig::small();
        let seeds = [11u64, 12, 13];
        let avg_first = |p: Protocol| {
            seeds
                .iter()
                .map(|&s| run_lifetime(&cfg, p, s).expect("valid").first_death_round as f64)
                .sum::<f64>()
                / seeds.len() as f64
        };
        assert!(avg_first(Protocol::BatteryCost) > avg_first(Protocol::MinimumPower));
    }

    #[test]
    fn mobility_validation_and_determinism() {
        let mut cfg = LifetimeConfig::small();
        cfg.mobility_sigma_m = -1.0;
        assert!(run_lifetime(&cfg, Protocol::MinimumPower, 1).is_err());
        cfg.mobility_sigma_m = 15.0;
        let a = run_lifetime(&cfg, Protocol::BatteryCost, 5).expect("valid");
        let b = run_lifetime(&cfg, Protocol::BatteryCost, 5).expect("valid");
        assert_eq!(a, b);
        assert!(a.lifetime_rounds > 0);
    }

    #[test]
    fn mobility_changes_the_outcome() {
        let mut still = LifetimeConfig::small();
        still.max_rounds = 200;
        still.death_threshold = 1.0;
        let mut moving = still;
        moving.mobility_sigma_m = 25.0;
        let rs = run_lifetime(&still, Protocol::MinimumPower, 7).expect("valid");
        let rm = run_lifetime(&moving, Protocol::MinimumPower, 7).expect("valid");
        // Same workload, different topology evolution: measurably different.
        assert_ne!(rs.energy_spent_j, rm.energy_spent_j);
    }

    #[test]
    fn control_overhead_costs_energy() {
        // Batteries must outlast the horizon: if nodes die mid-run, the
        // extra control drain can kill relays early and *reduce* total
        // session energy, making the comparison seed-dependent.
        let mut cfg = LifetimeConfig::small();
        cfg.max_rounds = 50;
        cfg.death_threshold = 1.0; // run the full 50 rounds
        cfg.battery_j = 100.0;
        let with = run_lifetime(&cfg, Protocol::BatteryCost, 9).expect("valid");
        cfg.control_overhead = 0.0;
        let without = run_lifetime(&cfg, Protocol::BatteryCost, 9).expect("valid");
        assert_eq!(with.first_death_round, 0, "no node should die");
        assert!(with.energy_spent_j > without.energy_spent_j);
    }
}
