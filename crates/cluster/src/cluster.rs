//! The sharded cluster simulation: deterministic dispatch, parallel
//! shard execution, merged accounting.
//!
//! A [`ClusterSim`] run has two phases:
//!
//! 1. **Dispatch** — a single sequential pass over the offer stream
//!    (arrivals, balancer retries, crash re-offers) ordered by
//!    `(slot, arrival order)` through the [`FleetEndpoint`]. The
//!    `Balancer` routes each offer using its per-shard mirror
//!    predictors and session-count ledgers (JSQ picks the lowest
//!    reserved fraction with a branch-free scan); refusals back off
//!    and retry through the cluster's [`RecoveryConfig`] exactly as
//!    in-server session retries do, and sessions in flight on a dying
//!    shard are re-offered to the survivors after the first backoff
//!    delay. Retries and re-offers wait in a slot-indexed retry
//!    calendar; one due at or after the horizon is counted as a
//!    balancer rejection when it is filed. The pass touches no
//!    simulation state, so it is trivially deterministic.
//! 2. **Shard execution** — the per-shard workloads run as independent
//!    [`ServerSim`] jobs on a [`ParRunner`], merged in job order. Each
//!    shard job is fully seeded and self-contained, so the cluster
//!    output is byte-identical at any `DMS_THREADS` — the same
//!    replication contract every other sweep in this workspace obeys.
//!
//! With one shard and the oblivious round-robin balancer the dispatch
//! pass is the identity and the cluster reproduces a bare
//! [`ServerSim::run`] bit for bit (property-tested in
//! `tests/differential_cluster.rs`).

use dms_serve::{
    FaultReport, RecoveryConfig, ServeError, ServeMetricsSink, ServerConfig, ServerSim, Workload,
};
use dms_sim::{FaultPlan, MetricsRegistry, ParRunner};

use crate::balancer::BalancerPolicy;
use crate::endpoint::FleetEndpoint;

/// Cluster-wide configuration: the shard replicas plus the balancer
/// that fronts them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// One server configuration per shard. Capacities may differ —
    /// heterogeneous fleets are exactly where balancer choice matters.
    pub shards: Vec<ServerConfig>,
    /// Routing policy at the front door.
    pub balancer: BalancerPolicy,
    /// Backoff/retry knobs for refused offers and crash re-offers
    /// (`backoff_base_slots`, `backoff_factor`, `max_retries`; the
    /// in-server timeout/stall fields are unused at this layer).
    pub recovery: RecoveryConfig,
    /// Seed for the power-of-two-choices candidate stream.
    pub seed: u64,
}

impl ClusterConfig {
    /// Validates every shard config and the recovery knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] for an empty shard
    /// list and propagates shard/recovery validation failures.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards.is_empty() {
            return Err(ServeError::InvalidParameter("shards"));
        }
        for shard in &self.shards {
            shard.validate()?;
        }
        self.recovery.validate()
    }
}

/// Faults striking one shard: a compiled in-shard plan plus the slot
/// (if any) from which the balancer must treat the shard as dead.
///
/// `down_from` is the *balancer's* health view; the in-shard `plan`
/// carries the simulation-level consequences (typically a
/// `FaultSpec::CrashBurst` at the same slot killing the sessions in
/// flight). Keeping the two explicit — rather than inferring health
/// from the plan — models a fleet whose failure detector is a separate
/// signal from the failure itself.
#[derive(Debug, Clone, Default)]
pub struct ShardFault {
    /// Compiled fault schedule for the shard's own run.
    pub plan: FaultPlan,
    /// First slot at which the balancer routes around the shard.
    pub down_from: Option<u64>,
}

/// The dispatch pass's routing ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchReport {
    /// Sessions in the offered workload.
    pub offered: u64,
    /// Offers routed to a shard (originals and crash re-offers alike).
    pub dispatched: u64,
    /// Offers every live mirror refused until their retry budget ran
    /// out — the cluster's admission rejections.
    pub balancer_rejected: u64,
    /// Backoff re-attempts scheduled after refusals.
    pub retries: u64,
    /// Sessions re-offered to the survivors after their shard died.
    pub rerouted: u64,
    /// Offers dropped while still in backoff. Always 0: every dispatch
    /// runs each retry to resolution. [`DispatchReport::verify`] still
    /// counts it in the ledger
    /// `dispatched + balancer_rejected + drained == offered + rerouted`.
    pub drained: u64,
    /// Sessions routed to each shard.
    pub shard_sessions: Vec<u64>,
}

impl DispatchReport {
    /// Checks that the ledger closes: every offer and re-offer is
    /// dispatched, rejected or drained
    /// (`dispatched + balancer_rejected + drained == offered + rerouted`),
    /// and the per-shard counts add up to `dispatched`. Every
    /// dispatch pass runs this in release builds too.
    ///
    /// # Errors
    ///
    /// Returns the [`LedgerError`] naming the side that does not close.
    pub fn verify(&self) -> Result<(), LedgerError> {
        let resolved = self.dispatched + self.balancer_rejected + self.drained;
        let entered = self.offered + self.rerouted;
        if resolved != entered {
            return Err(LedgerError::Unbalanced { resolved, entered });
        }
        let routed: u64 = self.shard_sessions.iter().sum();
        if routed != self.dispatched {
            return Err(LedgerError::ShardSessions {
                routed,
                dispatched: self.dispatched,
            });
        }
        Ok(())
    }
}

/// A [`DispatchReport`] whose ledger does not close — a dispatcher bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// `dispatched + balancer_rejected + drained` (`resolved`) differs
    /// from `offered + rerouted` (`entered`).
    Unbalanced {
        /// Offers dispatched, rejected or drained.
        resolved: u64,
        /// Offers and re-offers that entered the dispatcher.
        entered: u64,
    },
    /// The per-shard session counts do not add up to `dispatched`.
    ShardSessions {
        /// Sum of `shard_sessions`.
        routed: u64,
        /// The `dispatched` counter.
        dispatched: u64,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Unbalanced { resolved, entered } => write!(
                f,
                "dispatch ledger does not close: {resolved} resolved vs {entered} entered"
            ),
            LedgerError::ShardSessions { routed, dispatched } => write!(
                f,
                "dispatch ledger does not close: {routed} routed to shards vs {dispatched} dispatched"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// The dispatch passes return [`ServeError`]; a ledger failure maps to
/// its one variant.
impl From<LedgerError> for ServeError {
    fn from(_: LedgerError) -> Self {
        ServeError::InvalidParameter("dispatch_ledger")
    }
}

/// What one cluster run measured: the routing ledger plus every
/// shard's own [`FaultReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Routing ledger of the dispatch pass.
    pub dispatch: DispatchReport,
    /// Per-shard reports, in shard order.
    pub shards: Vec<FaultReport>,
    /// Slots simulated.
    pub slots: u64,
}

impl ClusterReport {
    /// Sessions offered to the cluster.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.dispatch.offered
    }

    /// Sessions admitted across all shards.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.shards.iter().map(|s| s.base.admitted).sum()
    }

    /// Sessions rejected: balancer refusals plus in-shard rejections.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.dispatch.balancer_rejected + self.shards.iter().map(|s| s.base.rejected).sum::<u64>()
    }

    /// Aggregate delivered utility.
    #[must_use]
    pub fn utility_sum(&self) -> f64 {
        self.shards.iter().map(|s| s.base.utility_sum).sum()
    }

    /// Aggregate delivered bits.
    #[must_use]
    pub fn delivered_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.base.delivered_bits).sum()
    }

    /// Aggregate deadline misses.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.base.deadline_misses).sum()
    }

    /// Aggregate session-slots served.
    #[must_use]
    pub fn session_slots(&self) -> u64 {
        self.shards.iter().map(|s| s.base.session_slots).sum()
    }

    /// Sessions killed by shard faults.
    #[must_use]
    pub fn crashed(&self) -> u64 {
        self.shards.iter().map(|s| s.crashed).sum()
    }

    /// Mean delivered utility per session-slot across the fleet.
    #[must_use]
    pub fn mean_utility(&self) -> f64 {
        let slots = self.session_slots();
        if slots == 0 {
            0.0
        } else {
            self.utility_sum() / slots as f64
        }
    }

    /// Exports the cluster's counters into `registry` under `scope`:
    /// aggregate totals at `scope/...` and per-shard totals at
    /// `scope/shard<i>/...` — the run-log shape E14 commits to.
    pub fn export(&self, registry: &mut MetricsRegistry, scope: &str) {
        {
            let mut s = registry.scoped(scope);
            s.counter_add("offered", self.offered());
            s.counter_add("dispatched", self.dispatch.dispatched);
            s.counter_add("balancer_rejected", self.dispatch.balancer_rejected);
            s.counter_add("retries", self.dispatch.retries);
            s.counter_add("rerouted", self.dispatch.rerouted);
            s.counter_add("admitted", self.admitted());
            s.counter_add("rejected", self.rejected());
            s.counter_add("deadline_misses", self.deadline_misses());
            s.counter_add("delivered_bits", self.delivered_bits());
            s.counter_add("crashed", self.crashed());
            s.gauge_set("mean_utility", self.mean_utility());
            s.gauge_set("utility_sum", self.utility_sum());
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let mut s = registry.scoped(&format!("{scope}/shard{i}"));
            s.counter_add("offered", shard.base.offered);
            s.counter_add("admitted", shard.base.admitted);
            s.counter_add("rejected", shard.base.rejected);
            s.counter_add("deadline_misses", shard.base.deadline_misses);
            s.counter_add("delivered_bits", shard.base.delivered_bits);
            s.counter_add("crashed", shard.crashed);
            s.gauge_set("mean_utility", shard.base.mean_utility());
            s.gauge_set("miss_rate", shard.base.miss_rate());
        }
    }
}

/// Element-wise sum of the shards' per-slot delivered-utility series —
/// the cluster-level recovery-curve signal (E14's crash arms).
#[must_use]
pub fn aggregate_utility(sinks: &[ServeMetricsSink]) -> Vec<f64> {
    let slots = sinks.iter().map(|s| s.utility().len()).max().unwrap_or(0);
    let mut total = vec![0.0f64; slots];
    for sink in sinks {
        for (t, &u) in sink.utility().iter().enumerate() {
            total[t] += u;
        }
    }
    total
}

/// A sharded streaming cluster over [`ServerSim`] replicas.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: ClusterConfig,
}

impl ClusterSim {
    /// Builds a cluster after validating its configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterConfig::validate`].
    pub fn new(config: ClusterConfig) -> Result<Self, ServeError> {
        config.validate()?;
        Ok(ClusterSim { config })
    }

    /// Runs `workload` across the shards with no faults.
    ///
    /// # Errors
    ///
    /// Same contract as [`ClusterSim::run_faulted`].
    pub fn run(&self, workload: &Workload) -> Result<ClusterReport, ServeError> {
        self.run_faulted(workload, &[], None)
    }

    /// Runs `workload` across the shards under per-shard fault plans,
    /// optionally collecting one per-slot metrics sink per shard.
    ///
    /// `faults` must be empty (no faults) or hold exactly one
    /// [`ShardFault`] per shard. Shards run in parallel on a
    /// [`ParRunner`] and are merged in shard order, so the report (and
    /// the sinks) are byte-identical at any `DMS_THREADS`.
    ///
    /// If `sinks` arrives pre-seeded with exactly one sink per shard,
    /// each entry is the corresponding shard's starting sink — the seam
    /// for bounded-memory instrumentation (seed with
    /// [`ServeMetricsSink::bounded`] prototypes). Otherwise fresh
    /// full-series sinks are created per shard.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] on a fault-list length
    /// mismatch; propagates template/config validation from the shard
    /// runs.
    pub fn run_faulted(
        &self,
        workload: &Workload,
        faults: &[ShardFault],
        sinks: Option<&mut Vec<ServeMetricsSink>>,
    ) -> Result<ClusterReport, ServeError> {
        let (shard_workloads, dispatch) = self.dispatch(workload, faults)?;
        self.run_dispatched(shard_workloads, dispatch, faults, sinks)
    }

    /// The shard-execution phase alone: runs already-dispatched
    /// per-shard workloads (one per shard, as produced by
    /// [`ClusterSim::dispatch`] or a [`FleetEndpoint`]) on the fleet
    /// and merges the reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] on a workload/fault
    /// list length mismatch; propagates shard-run validation.
    pub fn run_dispatched(
        &self,
        shard_workloads: Vec<Workload>,
        dispatch: DispatchReport,
        faults: &[ShardFault],
        sinks: Option<&mut Vec<ServeMetricsSink>>,
    ) -> Result<ClusterReport, ServeError> {
        if shard_workloads.len() != self.config.shards.len() {
            return Err(ServeError::InvalidParameter("shard_workloads"));
        }
        if !faults.is_empty() && faults.len() != self.config.shards.len() {
            return Err(ServeError::InvalidParameter("faults"));
        }
        let slots = shard_workloads.first().map_or(0, |w| w.slots);
        let none_plan = FaultPlan::none(slots);
        let want_sinks = sinks.is_some();
        // A pre-seeded sink per shard (e.g. bounded prototypes) is the
        // shard's starting sink; anything else means fresh full-mode
        // sinks sized for the horizon.
        let seeded: Option<&[ServeMetricsSink]> = sinks
            .as_deref()
            .map(Vec::as_slice)
            .filter(|s| s.len() == self.config.shards.len());
        let jobs: Vec<usize> = (0..self.config.shards.len()).collect();
        let results: Vec<Result<(FaultReport, ServeMetricsSink), ServeError>> = ParRunner::new()
            .map(&jobs, |&i| {
                let server = ServerSim::new(self.config.shards[i])?;
                let plan = faults.get(i).map_or(&none_plan, |f| &f.plan);
                let mut sink = seeded.map_or_else(
                    || ServeMetricsSink::with_capacity(if want_sinks { slots as usize } else { 0 }),
                    |s| s[i].clone(),
                );
                // Shard-level recovery stays off: crashed sessions are
                // re-routed *across* shards by the dispatch pass, not
                // retried into the shard that lost them.
                let report = server.run_faulted(
                    &shard_workloads[i],
                    plan,
                    None,
                    want_sinks.then_some(&mut sink),
                )?;
                Ok((report, sink))
            });
        let mut shards = Vec::with_capacity(results.len());
        let mut shard_sinks = Vec::with_capacity(results.len());
        for result in results {
            let (report, sink) = result?;
            shards.push(report);
            shard_sinks.push(sink);
        }
        if let Some(out) = sinks {
            *out = shard_sinks;
        }
        Ok(ClusterReport {
            dispatch,
            shards,
            slots,
        })
    }

    /// The dispatch pass alone: per-shard workloads plus the routing
    /// ledger. Exposed so tests (and curious tooling) can inspect
    /// routing without paying for the shard simulations.
    ///
    /// # Errors
    ///
    /// Same contract as [`ClusterSim::run_faulted`]; also fails if the
    /// routing ledger does not close ([`DispatchReport::verify`]).
    pub fn dispatch(
        &self,
        workload: &Workload,
        faults: &[ShardFault],
    ) -> Result<(Vec<Workload>, DispatchReport), ServeError> {
        if !faults.is_empty() && faults.len() != self.config.shards.len() {
            return Err(ServeError::InvalidParameter("faults"));
        }
        // Pre-size the per-shard session lists from the workload: a
        // balanced fleet sees roughly `offered / shards` sessions per
        // shard.
        let per_shard_hint = workload.sessions.len() / self.config.shards.len() + 1;
        let mut endpoint = FleetEndpoint::with_faults(
            &self.config,
            workload.template,
            workload.slots,
            faults,
            per_shard_hint,
        )?;
        endpoint.offer_workload(workload)?;
        let (workloads, report) = endpoint.finish();
        report.verify()?;
        Ok((workloads, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_serve::{
        rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig,
        SessionTemplate,
    };
    use dms_sim::Metric;

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

    fn cluster(shards: Vec<ServerConfig>, balancer: BalancerPolicy) -> ClusterSim {
        ClusterSim::new(ClusterConfig {
            shards,
            balancer,
            recovery: RecoveryConfig::default(),
            seed: 99,
        })
        .expect("valid config")
    }

    #[test]
    fn empty_cluster_is_rejected() {
        let err = ClusterSim::new(ClusterConfig {
            shards: Vec::new(),
            balancer: BalancerPolicy::RoundRobin,
            recovery: RecoveryConfig::default(),
            seed: 0,
        })
        .unwrap_err();
        assert_eq!(err, ServeError::InvalidParameter("shards"));
    }

    #[test]
    fn fault_list_length_must_match() {
        let wl = workload(0.5, 100, 60, 41);
        let template = wl.template;
        let sim = cluster(
            vec![shard_config(100, &template)],
            BalancerPolicy::RoundRobin,
        );
        let err = sim
            .run_faulted(&wl, &[ShardFault::default(), ShardFault::default()], None)
            .unwrap_err();
        assert_eq!(err, ServeError::InvalidParameter("faults"));
    }

    #[test]
    fn dispatch_conserves_every_offer() {
        let wl = workload(1.3, 200, 120, 42);
        let template = wl.template;
        for balancer in [
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
            BalancerPolicy::PowerOfTwoChoices,
        ] {
            let sim = cluster(
                vec![shard_config(150, &template), shard_config(50, &template)],
                balancer,
            );
            let (shard_wls, d) = sim.dispatch(&wl, &[]).expect("dispatch runs");
            assert_eq!(d.offered, wl.sessions.len() as u64);
            assert_eq!(
                d.dispatched + d.balancer_rejected,
                d.offered + d.rerouted,
                "{balancer:?}"
            );
            let total: u64 = shard_wls.iter().map(|w| w.sessions.len() as u64).sum();
            assert_eq!(total, d.dispatched, "{balancer:?}");
            assert_eq!(d.shard_sessions.iter().sum::<u64>(), d.dispatched);
        }
    }

    #[test]
    fn unclosed_ledger_is_rejected() {
        let closed = DispatchReport {
            offered: 5,
            dispatched: 4,
            balancer_rejected: 1,
            retries: 2,
            rerouted: 1,
            drained: 1,
            shard_sessions: vec![3, 1],
        };
        assert_eq!(closed.verify(), Ok(()));
        let lost = DispatchReport {
            balancer_rejected: 0,
            ..closed.clone()
        };
        assert_eq!(
            lost.verify(),
            Err(LedgerError::Unbalanced {
                resolved: 5,
                entered: 6
            })
        );
        let misrouted = DispatchReport {
            shard_sessions: vec![3, 2],
            ..closed
        };
        assert_eq!(
            misrouted.verify(),
            Err(LedgerError::ShardSessions {
                routed: 5,
                dispatched: 4
            })
        );
        assert_eq!(
            ServeError::from(LedgerError::Unbalanced {
                resolved: 0,
                entered: 1
            }),
            ServeError::InvalidParameter("dispatch_ledger")
        );
    }

    #[test]
    fn shard_workloads_stay_sorted_by_arrival() {
        let wl = workload(1.2, 200, 120, 43);
        let template = wl.template;
        let sim = cluster(
            vec![shard_config(100, &template), shard_config(100, &template)],
            BalancerPolicy::JoinShortestQueue,
        );
        let (shard_wls, _) = sim.dispatch(&wl, &[]).expect("dispatch runs");
        for w in &shard_wls {
            assert!(w
                .sessions
                .windows(2)
                .all(|p| p[0].arrival_slot <= p[1].arrival_slot));
        }
    }

    /// A hand-built workload out of slot order dispatches exactly like
    /// its stable-sorted copy: same-slot offers keep workload order.
    #[test]
    fn unsorted_workload_dispatches_like_its_stable_sorted_copy() {
        let wl = workload(1.2, 200, 120, 46);
        let template = wl.template;
        let mut unsorted = wl.clone();
        // Reverse each run of seven offers: slots step backwards inside
        // a run, and same-slot offers leave generation order.
        for run in unsorted.sessions.chunks_mut(7) {
            run.reverse();
        }
        let mut sorted = unsorted.clone();
        sorted.sessions.sort_by_key(|s| s.arrival_slot);
        assert!(!unsorted.sessions.is_sorted_by_key(|s| s.arrival_slot));
        assert_ne!(sorted, wl, "the sort is stable over a new tie order");

        let sim = cluster(
            vec![shard_config(100, &template), shard_config(100, &template)],
            BalancerPolicy::PowerOfTwoChoices,
        );
        let faults = vec![
            ShardFault::default(),
            ShardFault {
                plan: FaultPlan::none(120),
                down_from: Some(60),
            },
        ];
        assert_eq!(
            sim.dispatch(&unsorted, &faults).expect("dispatch runs"),
            sim.dispatch(&sorted, &faults).expect("dispatch runs")
        );
    }

    #[test]
    fn dead_shard_gets_no_arrivals_after_its_death_slot() {
        let wl = workload(0.8, 200, 120, 44);
        let template = wl.template;
        let sim = cluster(
            vec![shard_config(100, &template), shard_config(100, &template)],
            BalancerPolicy::RoundRobin,
        );
        let faults = vec![
            ShardFault::default(),
            ShardFault {
                plan: FaultPlan::none(120),
                down_from: Some(60),
            },
        ];
        let (shard_wls, d) = sim.dispatch(&wl, &faults).expect("dispatch runs");
        assert!(shard_wls[1].sessions.iter().all(|s| s.arrival_slot < 60));
        assert!(d.rerouted > 0, "sessions in flight at the death re-offer");
        // Re-offers land on the survivor after the first backoff.
        let backoff = RecoveryConfig::default().backoff_slots(0);
        assert!(shard_wls[0]
            .sessions
            .iter()
            .any(|s| s.arrival_slot == 60 + backoff));
    }

    /// Pre-seeded bounded sinks flow through the shard fan-out: every
    /// shard records into a bounded prototype, nothing accumulates
    /// per-slot series, and the result is `DMS_THREADS`-independent
    /// (the shard partition and job-order merge are fixed).
    #[test]
    fn preseeded_bounded_sinks_reach_the_shards() {
        let wl = workload(1.0, 200, 120, 45);
        let template = wl.template;
        let sim = cluster(
            vec![shard_config(100, &template), shard_config(100, &template)],
            BalancerPolicy::JoinShortestQueue,
        );
        let mut sinks = vec![ServeMetricsSink::bounded(); 2];
        let report = sim
            .run_faulted(&wl, &[], Some(&mut sinks))
            .expect("cluster runs");
        assert_eq!(sinks.len(), 2);
        // Both shards export into one scope: counters add and the
        // aggregates merge, as the fleet's own export does.
        let mut reg = MetricsRegistry::new();
        for sink in &sinks {
            sink.export(&mut reg, "fleet");
        }
        assert!(
            matches!(reg.get("fleet/active"), Some(Metric::Sketch(_))),
            "no per-slot series accumulate"
        );
        assert_eq!(
            reg.get("fleet/slots"),
            Some(&Metric::Counter(2 * report.slots))
        );
        let total_admitted: u64 = report.shards.iter().map(|s| s.base.admitted).sum();
        assert_eq!(
            reg.get("fleet/admitted_total"),
            Some(&Metric::Counter(total_admitted))
        );
        assert!(
            matches!(reg.get("fleet/departed"), Some(&Metric::Counter(n)) if n > 0),
            "departures flow into the reservoir"
        );

        // Unseeded (or wrong-length) sinks still get full-series mode.
        let mut plain: Vec<ServeMetricsSink> = Vec::new();
        sim.run_faulted(&wl, &[], Some(&mut plain)).expect("runs");
        assert_eq!(plain.len(), 2);
        for sink in &plain {
            let mut reg = MetricsRegistry::new();
            sink.export(&mut reg, "shard");
            let Some(Metric::Series(active)) = reg.get("shard/active") else {
                panic!("a full-mode sink exports series");
            };
            assert_eq!(active.len() as u64, report.slots);
        }
    }

    #[test]
    fn aggregate_utility_sums_elementwise() {
        let mut a = ServeMetricsSink::with_capacity(2);
        let mut b = ServeMetricsSink::with_capacity(2);
        a.record_slot(0, 0, 0, 0, 0, 1.5, 0);
        a.record_slot(0, 0, 0, 0, 0, 2.5, 0);
        b.record_slot(0, 0, 0, 0, 0, 0.5, 0);
        let total = aggregate_utility(&[a, b]);
        assert_eq!(total, vec![2.0, 2.5]);
    }
}
