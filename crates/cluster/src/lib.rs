//! # dms-cluster — sharded multi-server streaming
//!
//! The [`dms_serve`] server scales *up* to one link; this crate scales
//! it *out*: N independent [`dms_serve::ServerSim`] replicas behind a
//! pluggable balancer, the holistic §2.2 resource-steering argument
//! applied at fleet level. Per-shard M/M/1/K admission predictors —
//! the same [`dms_serve::AdmissionController`] the single server
//! consults — feed a global routing decision:
//!
//! * [`BalancerPolicy::RoundRobin`] — oblivious rotation, the skew
//!   baseline;
//! * [`BalancerPolicy::JoinShortestQueue`] — least reserved capacity
//!   first, gated by the shard's mirror predictor;
//! * [`BalancerPolicy::PowerOfTwoChoices`] — two seeded candidates,
//!   lower predicted occupancy wins, same gate.
//!
//! Refused offers back off and retry through the cluster's
//! [`dms_serve::RecoveryConfig`]. A shard dies at one slot, given per
//! shard to [`ClusterSim::run_faulted`]: the balancer routes around it
//! from that slot, the sessions in flight on it are re-offered to the
//! survivors after the first backoff delay, and the shard's own run
//! crashes what it still holds there. Dispatch is a single sequential
//! pass, the shard simulations then fan out across
//! [`dms_sim::ParRunner`] and merge in shard order — cluster runs are
//! byte-identical at any `DMS_THREADS`, and a single-shard round-robin
//! cluster reproduces a bare [`dms_serve::ServerSim::run`] bit for bit.
//!
//! [`FleetEndpoint`] is the only dispatcher: the batch
//! [`ClusterSim::dispatch`] and the adaptive [`AdaptiveSim::dispatch`]
//! both route through it. Shard deaths and (adaptive fleets only)
//! control boundaries are edges in its offer merge: an edge at slot
//! `b` fires after every offer before `b` and before any offer at `b`.
//! A scale-in drain is a death at its control boundary, and a warming
//! shard is one the balancer does not route to yet; the shards
//! themselves know neither. Every dispatch pass ends with
//! [`DispatchReport::verify`], so a ledger that does not close is an
//! error in release builds too.
//!
//! Experiment E14 (in `dms-bench`) sweeps shard count × balancer ×
//! fault arm over a heterogeneous fleet and shows near-linear
//! admitted-utility scaling under the smart balancers, the round-robin
//! arm collapsing first under capacity skew, and crash re-routing
//! retaining ≥90% of pre-crash utility when one of four shards dies.
//!
//! The [`adaptive`] module closes the loop (E17): an [`AdaptiveSim`]
//! autoscales the shard count on the predictors' occupancy signal,
//! replaces the open-loop degrade hysteresis with per-shard PI
//! controllers on the measured miss rate, and picks the balancer
//! policy online with a seeded UCB bandit — pinned, it reproduces the
//! static [`ClusterSim`] bit for bit.

pub mod adaptive;
pub mod balancer;
pub mod cluster;
pub mod endpoint;
pub mod tiers;

pub use adaptive::{
    AdaptiveConfig, AdaptiveControl, AdaptiveReport, AdaptiveSim, ArmSelection, AutoscaleConfig,
    ControlWindow, ScaleEvent,
};
pub use balancer::BalancerPolicy;
pub use cluster::{
    aggregate_utility, ClusterConfig, ClusterReport, ClusterSim, DispatchReport, LedgerError,
};
pub use endpoint::FleetEndpoint;
pub use tiers::{
    merge_regions, ClassMix, ClassReport, ContentModel, DeviceClass, LastHopEnergy, RegionConfig,
    RegionReport, SessionDraw, TieredConfig, TieredReport, TieredSim, ZipfSampler,
};
