//! The closed-loop adaptive fleet (E17): autoscaling, feedback
//! shedding and online balancer selection over the sharded cluster.
//!
//! The paper's holistic thesis is that resource policy must adapt to
//! the *user's* stochastic behaviour, not a fixed offered rate. The
//! static [`ClusterSim`] fixes its shard count and balancer at
//! construction; [`AdaptiveSim`] closes three loops around the same
//! dispatch/execution machinery. Its dispatch pass *is* the static
//! one: the [`FleetEndpoint`] every fleet dispatches through, with a
//! crate-private controller attached. The endpoint fires a control
//! step at each period boundary `b` once no offer before `b` remains
//! (after every offer at `b - 1`, before any offer at `b`), and feeds
//! the controller each balancer decision.
//!
//! 1. **Autoscaling** — every `control_period_slots` the controller
//!    samples the mean predicted M/M/1/K occupancy of the routable
//!    shards (the same mirror predictors the balancers route with)
//!    and provisions or drains one shard. A freshly provisioned shard
//!    pays a warm-up cost: the balancer routes nothing to it for
//!    `warmup_slots`, so the shard never sees an offer before it is
//!    warm — yet it counts against the shard-hour bill from the moment
//!    it is provisioned. Scale-in takes the shard down through the
//!    endpoint's death path: the shard is marked down, its in-flight
//!    sessions are re-offered to the survivors with their remaining
//!    duration (counted `rerouted`), and the execution phase runs the
//!    drain slot as the shard's death, crashing its active set there.
//! 2. **Feedback shedding** — per-shard PI controllers on the
//!    measured deadline-miss rate ([`dms_serve::PiConfig`]) replace
//!    the open-loop hysteresis thresholds when the shard config asks
//!    for them; the cluster layer only plumbs the config through.
//! 3. **Balancer selection** — a seeded UCB1 bandit chooses rr / jsq
//!    / p2c per control window from a dispatch-time reward: the
//!    fraction of routed offers whose receiving shard's mirror
//!    predicted it could actually serve them (a utility-per-offer
//!    surrogate measurable before the shards run). All bandit
//!    arithmetic is Q16 fixed point, so arm sequences are
//!    bit-deterministic.
//!
//! The scale-event state machine is deliberately one-way per shard:
//! `Parked → Provisioned (warming) → Routable → Drained`. A drained
//! shard is never reused — scale-up always takes the lowest-index
//! parked spare — which keeps every shard's lifetime a single
//! interval and the shard-hour accounting exact.
//!
//! With the autoscaler pinned (`min_shards == max_shards`), the arm
//! fixed, and no PI block, the adaptive fleet *is* the static cluster
//! bit for bit (`tests/differential_adaptive.rs`): the control loop
//! still samples occupancy, but sampling is pure modulo memo fills
//! that are bit-identical to the direct evaluation.

use dms_serve::{RecoveryConfig, ServeError, ServerConfig, Workload};
use dms_sim::MetricsRegistry;

use crate::balancer::{BalancerPolicy, Route, ShardState};
use crate::cluster::{ClusterConfig, ClusterReport, ClusterSim, DispatchReport};
use crate::endpoint::FleetEndpoint;

/// `ln 2` in Q16 — the quantum of the integer `ln` approximation.
const LN2_Q16: i64 = 45_426;

/// The bandit's arms, in pull order.
const ARMS: [BalancerPolicy; 3] = [
    BalancerPolicy::RoundRobin,
    BalancerPolicy::JoinShortestQueue,
    BalancerPolicy::PowerOfTwoChoices,
];

/// `ln t` in Q16, approximated as `ilog2(t) · ln 2` — monotone,
/// integer-only, and exact at powers of two, which is all UCB's
/// exploration bonus needs.
fn ln_q16(t: u64) -> i64 {
    if t < 2 {
        0
    } else {
        i64::from(t.ilog2()) * LN2_Q16
    }
}

/// Shard-count / warm-up knobs of the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Shards provisioned at slot 0 and never drained below.
    pub min_shards: usize,
    /// Hard ceiling on provisioned shards (the fleet's spare pool is
    /// `max_shards - min_shards`).
    pub max_shards: usize,
    /// Slots between control decisions (also the bandit's reward
    /// window). Must be `> 0`.
    pub control_period_slots: u64,
    /// Provision one spare when the mean predicted occupancy of the
    /// routable shards exceeds this (M/M/1/K frames, the admission
    /// predictors' unit).
    pub scale_up_above: f64,
    /// Drain the youngest shard when the mean predicted occupancy
    /// falls below this. Must be `< scale_up_above`.
    pub scale_in_below: f64,
    /// Slots a freshly provisioned shard spends warming before the
    /// balancer routes to it (it bills shard-hours throughout).
    pub warmup_slots: u64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_shards: 1,
            max_shards: 4,
            control_period_slots: 20,
            scale_up_above: 2.5,
            scale_in_below: 0.6,
            warmup_slots: 8,
        }
    }
}

impl AutoscaleConfig {
    /// Validates bounds and thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.min_shards == 0 {
            return Err(ServeError::InvalidParameter("min_shards"));
        }
        if self.max_shards < self.min_shards {
            return Err(ServeError::InvalidParameter("max_shards"));
        }
        if self.control_period_slots == 0 {
            return Err(ServeError::InvalidParameter("control_period_slots"));
        }
        if !(self.scale_up_above.is_finite() && self.scale_up_above > 0.0) {
            return Err(ServeError::InvalidParameter("scale_up_above"));
        }
        if !(self.scale_in_below.is_finite()
            && self.scale_in_below >= 0.0
            && self.scale_in_below < self.scale_up_above)
        {
            return Err(ServeError::InvalidParameter("scale_in_below"));
        }
        Ok(())
    }
}

/// How the fleet picks its balancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmSelection {
    /// One policy for the whole run (the pinned/differential mode —
    /// and exactly the static cluster's behaviour).
    Fixed(BalancerPolicy),
    /// UCB1 over rr/jsq/p2c, re-selected every control window.
    Ucb {
        /// Exploration-bonus scale in Q16 (`2 << 16` is the textbook
        /// `sqrt(2 ln t / n)`).
        exploration_q16: i64,
    },
}

impl ArmSelection {
    /// The textbook UCB1 configuration.
    #[must_use]
    pub fn ucb() -> Self {
        ArmSelection::Ucb {
            exploration_q16: 2 << 16,
        }
    }
}

/// Full configuration of the adaptive fleet: one homogeneous shard
/// template plus the three control loops' knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Per-shard server configuration (homogeneous fleet — the
    /// autoscaler adds and removes identical replicas).
    pub shard: ServerConfig,
    /// Shard-count control loop.
    pub autoscale: AutoscaleConfig,
    /// Balancer-selection loop.
    pub arms: ArmSelection,
    /// Backoff/retry knobs shared by refusals and drain re-offers.
    pub recovery: RecoveryConfig,
    /// Seed for the balancer candidate streams.
    pub seed: u64,
}

impl AdaptiveConfig {
    /// Validates the shard template and every control loop.
    ///
    /// # Errors
    ///
    /// Propagates shard/autoscale/recovery validation; rejects a
    /// non-positive UCB exploration scale.
    pub fn validate(&self) -> Result<(), ServeError> {
        self.shard.validate()?;
        self.autoscale.validate()?;
        self.recovery.validate()?;
        if let ArmSelection::Ucb { exploration_q16 } = self.arms {
            if exploration_q16 <= 0 {
                return Err(ServeError::InvalidParameter("exploration_q16"));
            }
        }
        Ok(())
    }
}

/// One autoscaler decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Control-boundary slot the decision fired at.
    pub slot: u64,
    /// Shard provisioned or drained.
    pub shard: usize,
    /// `true` = provisioned (scale-up), `false` = drained (scale-in).
    pub up: bool,
    /// Mean predicted occupancy that triggered the decision.
    pub occupancy: f64,
}

/// One control window's measurements (closed at each boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlWindow {
    /// Slot the window closed at (a control boundary, or the horizon
    /// for the final partial window).
    pub end_slot: u64,
    /// Balancer that routed during the window.
    pub arm: BalancerPolicy,
    /// Offers routed (originals, retries and re-offers) in the window.
    pub offered: u64,
    /// Dispatches whose receiving shard's mirror predicted it could
    /// serve the session — the bandit's "good" count.
    pub good: u64,
    /// `good / offered` in Q16 (`0` for an empty window).
    pub reward_q16: i64,
    /// Mean predicted occupancy sampled at the closing boundary.
    pub mean_occupancy: f64,
    /// Routable shards at the closing boundary.
    pub routable_shards: u64,
}

/// Everything the adaptive dispatch pass measured beyond the routing
/// ledger: scale events, control windows and the shard-hour bill.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveControl {
    /// Scale decisions in slot order.
    pub scale_events: Vec<ScaleEvent>,
    /// Control windows in slot order.
    pub windows: Vec<ControlWindow>,
    /// Provisioned shard count per slot (warming shards included —
    /// warm-up is precisely the interval where a shard bills without
    /// serving).
    pub shard_count: Vec<u64>,
    /// Total provisioned shard-slots (the denominator of
    /// utility-per-shard-hour).
    pub shard_slots: u64,
    /// Per shard: the slot it was provisioned at (`None` = parked the
    /// whole run).
    pub provisioned_at: Vec<Option<u64>>,
    /// Per shard: the slot it was drained at (`None` = ran to the
    /// horizon once provisioned).
    pub drained_at: Vec<Option<u64>>,
}

/// What one adaptive run measured: the cluster report (dispatch
/// ledger + per-shard reports) plus the control-plane trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Dispatch ledger and per-shard execution reports, exactly as a
    /// static [`ClusterReport`] shapes them.
    pub cluster: ClusterReport,
    /// The control-plane trace.
    pub control: AdaptiveControl,
}

impl AdaptiveReport {
    /// Delivered utility per provisioned shard-slot — the E17
    /// headline. Scale by slots-per-hour for a per-shard-hour figure;
    /// any fixed scale preserves the static-vs-adaptive comparison.
    #[must_use]
    pub fn utility_per_shard_slot(&self) -> f64 {
        if self.control.shard_slots == 0 {
            0.0
        } else {
            self.cluster.utility_sum() / self.control.shard_slots as f64
        }
    }

    /// Exports the cluster counters (same shape as
    /// [`ClusterReport::export`]) plus the control-plane series: the
    /// per-slot shard count and the per-window controller state.
    pub fn export(&self, registry: &mut MetricsRegistry, scope: &str) {
        self.cluster.export(registry, scope);
        let mut s = registry.scoped(scope);
        s.counter_add(
            "scale_ups",
            self.control.scale_events.iter().filter(|e| e.up).count() as u64,
        );
        s.counter_add(
            "scale_ins",
            self.control.scale_events.iter().filter(|e| !e.up).count() as u64,
        );
        s.counter_add("shard_slots", self.control.shard_slots);
        s.gauge_set("utility_per_shard_slot", self.utility_per_shard_slot());
        s.series_extend(
            "shard_count",
            self.control.shard_count.iter().map(|&c| c as f64),
        );
        s.series_extend(
            "ctl/arm",
            self.control
                .windows
                .iter()
                .map(|w| ARMS.iter().position(|&a| a == w.arm).unwrap_or(0) as f64),
        );
        s.series_extend(
            "ctl/reward_q16",
            self.control.windows.iter().map(|w| w.reward_q16 as f64),
        );
        s.series_extend(
            "ctl/occupancy",
            self.control.windows.iter().map(|w| w.mean_occupancy),
        );
        s.series_extend(
            "ctl/routable_shards",
            self.control
                .windows
                .iter()
                .map(|w| w.routable_shards as f64),
        );
    }
}

/// The E17 control loop. [`AdaptiveSim::dispatch`] attaches it to the
/// dispatching [`FleetEndpoint`], which calls [`Controller::step`] at
/// each control boundary and [`Controller::observe`] after each
/// balancer decision; the autoscaler and bandit state live here.
#[derive(Debug)]
pub(crate) struct Controller {
    autoscale: AutoscaleConfig,
    /// Balancer policy per arm (one arm for [`ArmSelection::Fixed`]).
    arms: Vec<BalancerPolicy>,
    active_arm: usize,
    ucb: Option<i64>,
    pulls: [u64; 3],
    rewards_q16: [i64; 3],
    window_offered: u64,
    window_good: u64,
    next_boundary: u64,
    provisioned_at: Vec<Option<u64>>,
    drained_at: Vec<Option<u64>>,
    scale_events: Vec<ScaleEvent>,
    windows: Vec<ControlWindow>,
}

impl Controller {
    fn new(config: &AdaptiveConfig) -> Self {
        let auto = config.autoscale;
        let (arms, ucb) = match config.arms {
            ArmSelection::Fixed(policy) => (vec![policy], None),
            ArmSelection::Ucb { exploration_q16 } => (ARMS.to_vec(), Some(exploration_q16)),
        };
        Controller {
            autoscale: auto,
            arms,
            active_arm: 0,
            ucb,
            pulls: [0; 3],
            rewards_q16: [0; 3],
            window_offered: 0,
            window_good: 0,
            next_boundary: auto.control_period_slots,
            provisioned_at: (0..auto.max_shards)
                .map(|i| (i < auto.min_shards).then_some(0))
                .collect(),
            drained_at: vec![None; auto.max_shards],
            scale_events: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// The balancer policies, one per arm.
    pub(crate) fn arms(&self) -> &[BalancerPolicy] {
        &self.arms
    }

    /// The arm routing during the current window.
    pub(crate) fn arm(&self) -> usize {
        self.active_arm
    }

    /// The next control boundary.
    pub(crate) fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// Parks the spares: never routable until provisioned.
    pub(crate) fn park(&self, states: &mut [ShardState]) {
        for state in &mut states[self.autoscale.min_shards..] {
            state.set_up_from(Some(u64::MAX));
        }
    }

    /// Shards provisioned (warming or routable) and not drained.
    fn provisioned(&self) -> usize {
        self.provisioned_at
            .iter()
            .zip(&self.drained_at)
            .filter(|(p, d)| p.is_some() && d.is_none())
            .count()
    }

    /// Route-time observer, called after each balancer decision and
    /// before a dispatch reserves its session: counts the routed offer
    /// into the bandit's window and scores it with the dispatch-time
    /// reward oracle — would the receiving shard's mirror have
    /// admitted this session? For jsq/p2c the route already implies
    /// yes; for the oblivious rr this is exactly where overload shows.
    pub(crate) fn observe(&mut self, route: Route, states: &mut [ShardState]) {
        self.window_offered += 1;
        if let Route::To(shard) = route {
            if states[shard].would_admit() {
                self.window_good += 1;
            }
        }
    }

    /// One control boundary at `b`: sample occupancy, scale (only
    /// while the stream is still open — the final partial window must
    /// not schedule re-offers nothing will route), close the bandit
    /// window. Returns the shard a scale-in drains; the endpoint takes
    /// it down exactly like a crashed shard.
    pub(crate) fn step(&mut self, b: u64, scale: bool, states: &mut [ShardState]) -> Option<usize> {
        self.next_boundary = b + self.autoscale.control_period_slots;
        // 1. Load signal: mean predicted occupancy over the shards the
        //    balancer can route to at `b`. `release_until` first, so
        //    the signal sees the same reservation ledger the next
        //    routing decision would (idempotent — the endpoint releases
        //    every shard again once an offer's slot passes its mark).
        let mut occ_sum = 0.0f64;
        let mut routable = 0u64;
        for state in states.iter_mut() {
            if state.alive(b) {
                state.release_until(b);
                occ_sum += state.current_occupancy();
                routable += 1;
            }
        }
        let mean_occ = if routable > 0 {
            occ_sum / routable as f64
        } else {
            0.0
        };

        // 2. Autoscale: at most one provisioning step per boundary.
        //    Decisions count *provisioned* shards (warming included)
        //    so a warming spare suppresses further scale-ups. A drain
        //    takes the highest provisioned shard.
        let mut drain = None;
        if scale && self.autoscale.min_shards < self.autoscale.max_shards {
            let provisioned = self.provisioned();
            if mean_occ > self.autoscale.scale_up_above && provisioned < self.autoscale.max_shards {
                if let Some(i) = self.provisioned_at.iter().position(Option::is_none) {
                    self.provisioned_at[i] = Some(b);
                    states[i].set_up_from(Some(b + self.autoscale.warmup_slots));
                    self.scale_events.push(ScaleEvent {
                        slot: b,
                        shard: i,
                        up: true,
                        occupancy: mean_occ,
                    });
                }
            } else if mean_occ < self.autoscale.scale_in_below
                && provisioned > self.autoscale.min_shards
            {
                drain = (0..self.provisioned_at.len())
                    .rev()
                    .find(|&i| self.provisioned_at[i].is_some() && self.drained_at[i].is_none());
                if let Some(i) = drain {
                    self.drained_at[i] = Some(b);
                    self.scale_events.push(ScaleEvent {
                        slot: b,
                        shard: i,
                        up: false,
                        occupancy: mean_occ,
                    });
                }
            }
        }

        // 3. Close the bandit window: reward the arm that routed it,
        //    then pick the next arm.
        let reward_q16 = if self.window_offered > 0 {
            ((self.window_good as i64) << 16) / self.window_offered as i64
        } else {
            0
        };
        self.windows.push(ControlWindow {
            end_slot: b,
            arm: self.arms[self.active_arm],
            offered: self.window_offered,
            good: self.window_good,
            reward_q16,
            mean_occupancy: mean_occ,
            routable_shards: routable,
        });
        if let Some(exploration_q16) = self.ucb {
            // Empty windows teach nothing: keep the arm, skip the
            // pull so its mean is not diluted by idle periods.
            if self.window_offered > 0 {
                self.pulls[self.active_arm] += 1;
                self.rewards_q16[self.active_arm] += reward_q16;
                self.active_arm = select_arm(&self.pulls, &self.rewards_q16, exploration_q16);
            }
        }
        self.window_offered = 0;
        self.window_good = 0;
        drain
    }

    /// Closes the final partial window at the horizon `slots`, so
    /// late-run routing is still accounted (and rewarded, in UCB
    /// mode).
    pub(crate) fn close(&mut self, slots: u64, states: &mut [ShardState]) {
        if self.window_offered > 0 {
            self.step(slots, false, states);
        }
    }
}

/// Picks the next UCB1 arm: unpulled arms first (in `ARMS` order),
/// then `argmax(mean + sqrt(exploration · ln t / n))`, ties to the
/// lower index. Pure integer math in Q16.
fn select_arm(pulls: &[u64; 3], rewards_q16: &[i64; 3], exploration_q16: i64) -> usize {
    if let Some(i) = pulls.iter().position(|&p| p == 0) {
        return i;
    }
    let t: u64 = pulls.iter().sum();
    let ln = ln_q16(t);
    let mut best = 0usize;
    let mut best_score = i64::MIN;
    for i in 0..3 {
        let mean = rewards_q16[i] / pulls[i] as i64;
        // inner = exploration · ln(t) / n, Q16; widen through i128 so
        // large pull counts cannot overflow the product.
        let inner_q16 =
            ((i128::from(exploration_q16) * i128::from(ln)) / i128::from(pulls[i] << 16)) as i64;
        // sqrt of a Q16 value x is isqrt(x << 16) in Q16.
        let bonus = (((inner_q16.max(0) as u64) << 16).isqrt()) as i64;
        let score = mean + bonus;
        if score > best_score {
            best_score = score;
            best = i;
        }
    }
    best
}

/// The adaptive fleet simulation: dispatch with closed control loops,
/// then the standard parallel shard execution.
#[derive(Debug, Clone)]
pub struct AdaptiveSim {
    config: AdaptiveConfig,
}

impl AdaptiveSim {
    /// Builds an adaptive fleet after validating its configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`AdaptiveConfig::validate`].
    pub fn new(config: AdaptiveConfig) -> Result<Self, ServeError> {
        config.validate()?;
        Ok(AdaptiveSim { config })
    }

    /// The static fleet of `max_shards` template shards that the
    /// adaptive one dispatches and executes on. Its balancer is the
    /// first arm (execution never re-routes): the pinned arm in the
    /// differential case, where the config is then exactly the static
    /// cluster's.
    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            shards: vec![self.config.shard; self.config.autoscale.max_shards],
            balancer: match self.config.arms {
                ArmSelection::Fixed(policy) => policy,
                ArmSelection::Ucb { .. } => ARMS[0],
            },
            recovery: self.config.recovery,
            seed: self.config.seed,
        }
    }

    /// The adaptive dispatch pass alone: per-shard workloads, the
    /// routing ledger and the control trace. Sequential and
    /// simulation-free, like [`ClusterSim::dispatch`].
    ///
    /// # Errors
    ///
    /// Propagates template validation; fails if the dispatch ledger
    /// does not close ([`DispatchReport::verify`]).
    pub fn dispatch(
        &self,
        workload: &Workload,
    ) -> Result<(Vec<Workload>, DispatchReport, AdaptiveControl), ServeError> {
        let n = self.config.autoscale.max_shards;
        let mut endpoint = FleetEndpoint::with_faults(
            &self.cluster_config(),
            workload.template,
            workload.slots,
            &[],
            workload.sessions.len() / n + 1,
        )?;
        endpoint.attach(Controller::new(&self.config), self.config.seed);
        endpoint.offer_workload(workload)?;
        let (workloads, report, ctl) = endpoint.finish_controlled();
        let ctl = ctl.expect("controller attached above");
        report.verify()?;

        let slots = workload.slots;
        // Shard-hour bill: each shard is provisioned over one interval
        // `[provisioned_at, drained_at | horizon)`.
        let mut shard_count = vec![0u64; slots as usize];
        let mut shard_slots = 0u64;
        for i in 0..n {
            if let Some(a) = ctl.provisioned_at[i] {
                let end = ctl.drained_at[i].unwrap_or(slots).min(slots);
                shard_slots += end.saturating_sub(a);
                for c in shard_count.iter_mut().take(end as usize).skip(a as usize) {
                    *c += 1;
                }
            }
        }
        let control = AdaptiveControl {
            scale_events: ctl.scale_events,
            windows: ctl.windows,
            shard_count,
            shard_slots,
            provisioned_at: ctl.provisioned_at,
            drained_at: ctl.drained_at,
        };
        Ok((workloads, report, control))
    }

    /// Runs the full adaptive pipeline: closed-loop dispatch, then the
    /// standard [`ClusterSim`] parallel shard execution (byte-identical
    /// at any `DMS_THREADS`). Every shard runs the template shard
    /// config; a drained shard dies at its drain slot, exactly like a
    /// shard death in [`ClusterSim::run_faulted`].
    ///
    /// # Errors
    ///
    /// Propagates dispatch and shard-run validation.
    pub fn run(&self, workload: &Workload) -> Result<AdaptiveReport, ServeError> {
        let (workloads, dispatch, control) = self.dispatch(workload)?;
        let cluster = ClusterSim::new(self.cluster_config())?;
        let report = cluster.run_dispatched(workloads, dispatch, &control.drained_at, None)?;
        Ok(AdaptiveReport {
            cluster: report,
            control,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autoscale_validation() {
        let mut a = AutoscaleConfig::default();
        assert!(a.validate().is_ok());
        a.min_shards = 0;
        assert!(a.validate().is_err());
        let mut a = AutoscaleConfig::default();
        a.max_shards = 0;
        assert!(a.validate().is_err());
        let mut a = AutoscaleConfig::default();
        a.control_period_slots = 0;
        assert!(a.validate().is_err());
        let mut a = AutoscaleConfig::default();
        a.scale_in_below = a.scale_up_above;
        assert!(a.validate().is_err());
    }

    #[test]
    fn ln_q16_is_monotone_and_anchored() {
        assert_eq!(ln_q16(0), 0);
        assert_eq!(ln_q16(1), 0);
        assert_eq!(ln_q16(2), LN2_Q16);
        assert_eq!(ln_q16(4), 2 * LN2_Q16);
        let mut last = 0;
        for t in 1..1_000 {
            let v = ln_q16(t);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn select_arm_plays_every_arm_once_then_exploits() {
        let mut pulls = [0u64; 3];
        let mut rewards = [0i64; 3];
        // Unplayed arms first, in order.
        assert_eq!(select_arm(&pulls, &rewards, 2 << 16), 0);
        pulls[0] = 1;
        assert_eq!(select_arm(&pulls, &rewards, 2 << 16), 1);
        pulls[1] = 1;
        assert_eq!(select_arm(&pulls, &rewards, 2 << 16), 2);
        pulls[2] = 1;
        // Arm 1 has the clearly dominant mean: exploited.
        rewards[1] = 1 << 16;
        let mut counts = [0usize; 3];
        for _ in 0..50 {
            let a = select_arm(&pulls, &rewards, 2 << 16);
            counts[a] += 1;
            pulls[a] += 1;
            rewards[a] += if a == 1 { 1 << 16 } else { 0 };
        }
        assert!(counts[1] > counts[0] + counts[2], "{counts:?}");
    }
}
