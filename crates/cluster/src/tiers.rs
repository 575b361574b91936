//! Geo-tiered edge/origin delivery: the whole workspace composed into
//! one scenario (E16).
//!
//! The paper's thesis is *holistic* design — storage, network, and
//! client layers co-designed rather than optimised per layer. This
//! module is the composition: a per-region [`ClusterSim`] fleet of
//! edge servers fronts one shared origin uplink, and every layer of
//! the workspace does the job it was built for:
//!
//! * **Content popularity** is Zipf over a fixed catalog with a
//!   deterministic hot-set *churn* process ([`ContentModel`]): every
//!   churn epoch the rank→id mapping rotates, so yesterday's cached
//!   hot set goes cold and the edge caches re-fill through the origin.
//! * **Edge caching** is plain LRU per region; a miss must *fetch
//!   through the shared origin*, whose uplink is guarded by the same
//!   M/M/1/K [`dms_serve::AdmissionController`] predictor the servers
//!   use, with the fleet balancer's per-shard ledger and memo — an
//!   over-subscribed origin rejects fetches outright (the flash-crowd
//!   failure mode of a flat fleet).
//! * **Arrivals** are the [`ArrivalProcess::FlashCrowd`] process:
//!   self-similar session arrivals shaped by a per-region diurnal
//!   envelope (timezone-shifted) with superimposed flash-crowd spikes.
//! * **The last hop** is device-class aware ([`DeviceClass`]): wired
//!   clients take a constant-energy NIC path, wireless clients pay the
//!   `dms-wireless` adaptive-modulation energy plus the JSCC-chosen
//!   FEC decoder energy at their tier's channel gain, and mesh clients
//!   pay the `dms-manet` multi-hop relay energy of an actual routed
//!   path. Each class decodes a capped number of `dms-media` FGS
//!   layers, so the bits shipped on the last hop are matched to what
//!   the device can use ([`ClassMix`]).
//!
//! Serving from the edge is worth real joules: the edge AP sees a
//! better channel (higher gain → cheaper modulation), the mesh
//! gateway is fewer hops away, and a cache hit skips the core-network
//! transit entirely. [`LastHopEnergy::derive`] computes all of those
//! numbers *from the underlying models* rather than hard-coding them.
//!
//! Determinism contract: workload generation and the cache/origin pass
//! are sequential; the per-region fleet runs fan out on a
//! [`ParRunner`] and are merged in region order (each fleet internally
//! fans out per shard the same way), so a [`TieredReport`] is
//! byte-identical at any `DMS_THREADS`.

use dms_manet::{routing, Manet, Protocol, RadioParams};
use dms_media::ImageModel;
use dms_serve::workload::SessionRequest;
use dms_serve::{ArrivalProcess, CapacityModel, ServeError, SessionTemplate, Workload};
use dms_sim::{MetricsRegistry, ParRunner, SimRng};
use dms_wireless::jscc::CodecEnergy;
use dms_wireless::{AdaptivePolicy, JsccOptimizer, Modulation, Transceiver};

use crate::balancer::ShardState;
use crate::cluster::{ClusterConfig, ClusterReport, ClusterSim};

/// Number of device classes ([`DeviceClass::ALL`]).
pub const DEVICE_CLASSES: usize = 3;

/// The client population of a region, by last-hop technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// Fixed broadband: constant per-bit NIC energy, decodes every
    /// FGS layer.
    Wired,
    /// WLAN/cellular: adaptive-modulation transmit energy plus the
    /// JSCC-chosen FEC decoder energy at the tier's channel gain.
    Wireless,
    /// Ad-hoc mesh: multi-hop relay energy over a routed `dms-manet`
    /// path to the tier's gateway.
    Mesh,
}

impl DeviceClass {
    /// Every class, in canonical (index) order.
    pub const ALL: [DeviceClass; DEVICE_CLASSES] =
        [DeviceClass::Wired, DeviceClass::Wireless, DeviceClass::Mesh];

    /// Canonical index into per-class arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            DeviceClass::Wired => 0,
            DeviceClass::Wireless => 1,
            DeviceClass::Mesh => 2,
        }
    }

    /// Stable lower-case label for reports and metrics scopes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Wired => "wired",
            DeviceClass::Wireless => "wireless",
            DeviceClass::Mesh => "mesh",
        }
    }
}

/// Zipf content popularity with deterministic hot-set churn.
///
/// Requests draw a popularity *rank* from a Zipf(`zipf_exponent`)
/// distribution over `catalog_size` items; the rank maps to a content
/// id through a rotation that advances every `churn_period_slots`
/// slots by `churn_stride` positions. Caches hold content *ids*, so
/// each rotation re-labels the hot set and previously-cached items go
/// cold — a deterministic stand-in for trending-content turnover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentModel {
    /// Distinct content items.
    pub catalog_size: u64,
    /// Zipf skew `s` in `rank^-s` (`> 0`; ~1 for web-like popularity).
    pub zipf_exponent: f64,
    /// Slots between hot-set rotations; `0` disables churn.
    pub churn_period_slots: u64,
    /// Positions the rank→id mapping rotates per churn epoch.
    pub churn_stride: u64,
}

impl ContentModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.catalog_size == 0 || self.catalog_size > 10_000_000 {
            return Err(ServeError::InvalidParameter("catalog_size"));
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent > 0.0) {
            return Err(ServeError::InvalidParameter("zipf_exponent"));
        }
        if self.churn_period_slots > 0 && self.churn_stride == 0 {
            return Err(ServeError::InvalidParameter("churn_stride"));
        }
        Ok(())
    }

    /// The content id a popularity rank resolves to at `slot`.
    #[must_use]
    pub fn content_id(&self, rank: u64, slot: u64) -> u64 {
        debug_assert!(rank < self.catalog_size);
        if self.churn_period_slots == 0 {
            return rank;
        }
        let epoch = slot / self.churn_period_slots;
        (rank + epoch.wrapping_mul(self.churn_stride)) % self.catalog_size
    }
}

/// Inverse-CDF sampler for the Zipf rank distribution of a
/// [`ContentModel`]. Built once (O(catalog)), sampled in O(log catalog).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Precomputes the cumulative rank weights `rank^-s`.
    ///
    /// # Errors
    ///
    /// Propagates [`ContentModel::validate`].
    pub fn new(model: &ContentModel) -> Result<Self, ServeError> {
        model.validate()?;
        let mut cdf = Vec::with_capacity(model.catalog_size as usize);
        let mut acc = 0.0f64;
        for rank in 0..model.catalog_size {
            acc += ((rank + 1) as f64).powf(-model.zipf_exponent);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        Ok(ZipfSampler { cdf })
    }

    /// Draws a popularity rank in `0..catalog_size` (one uniform).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.uniform();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Per-device-class population weights and FGS decode ceilings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Relative population weight per [`DeviceClass`] (index order).
    pub weights: [f64; DEVICE_CLASSES],
    /// FGS enhancement layers each class can decode — bits past this
    /// are never shipped on the last hop.
    pub layers: [usize; DEVICE_CLASSES],
}

impl ClassMix {
    /// A broadband-heavy default: 35 % wired (full quality), 45 %
    /// wireless (all but one layer), 20 % mesh (base + one layer).
    #[must_use]
    pub fn streaming_default(template: &SessionTemplate) -> Self {
        ClassMix {
            weights: [0.35, 0.45, 0.20],
            layers: [
                template.max_layers,
                template.max_layers.saturating_sub(1).max(1),
                1,
            ],
        }
    }

    /// Validates the mix.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if !self.weights.iter().all(|w| w.is_finite() && *w >= 0.0)
            || self.weights.iter().sum::<f64>() <= 0.0
        {
            return Err(ServeError::InvalidParameter("weights"));
        }
        Ok(())
    }
}

/// Joules per delivered bit on the last hop, per device class, per
/// serving tier — plus the core-network transit cost an origin fetch
/// pays. Derived from the `dms-wireless` and `dms-manet` energy
/// models by [`LastHopEnergy::derive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LastHopEnergy {
    /// J/bit when the serving point is client-proximate (edge tier).
    pub edge_j_per_bit: [f64; DEVICE_CLASSES],
    /// J/bit when serving origin-direct (flat fleet, far gateway).
    pub origin_j_per_bit: [f64; DEVICE_CLASSES],
    /// Core-network transit J/bit charged for every bit fetched
    /// through the origin (cache hits skip this entirely).
    pub transit_j_per_bit: f64,
}

/// Channel gain a client of an *edge* AP sees, dB (short range).
const EDGE_GAIN_DB: f64 = 24.0;
/// Channel gain on the origin-direct macro hop, dB (long range).
const ORIGIN_GAIN_DB: f64 = 12.0;
/// Wired NIC energy, J/bit (edge) — an access switch hop.
const WIRED_EDGE_J_PER_BIT: f64 = 10e-9;
/// Wired path J/bit origin-direct — metro aggregation adds hops.
const WIRED_ORIGIN_J_PER_BIT: f64 = 25e-9;
/// Core-network transit J/bit for origin fetches.
const TRANSIT_J_PER_BIT: f64 = 15e-9;
/// Bits probed through the mesh when measuring per-bit route cost.
const MESH_PROBE_BITS: u64 = 1_000_000;

impl LastHopEnergy {
    /// Derives the per-class energy table from the workspace's own
    /// models:
    ///
    /// * **Wireless** — [`AdaptivePolicy::choose`] picks the cheapest
    ///   modulation/power meeting a 1e-5 BER at the tier's gain
    ///   (`EDGE_GAIN_DB` vs `ORIGIN_GAIN_DB`); on outage the radio
    ///   falls back to BPSK at maximum power. The JSCC optimiser's FEC
    ///   choice at the same gain adds its Viterbi decoder energy.
    /// * **Mesh** — a seeded [`Manet::random_deployment`] routed with
    ///   [`Protocol::BatteryCost`]: the edge gateway is the nearest
    ///   routable node outside the source's own radio cell, the origin
    ///   gateway the farthest routable node; per-bit cost is the
    ///   charged route energy over a probe transfer.
    /// * **Wired** — documented constants (access switch vs metro
    ///   aggregation path).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] if an underlying model
    /// rejects its (fixed) parameters — never in practice.
    pub fn derive(seed: u64) -> Result<Self, ServeError> {
        let radio =
            Transceiver::default_radio().map_err(|_| ServeError::InvalidParameter("radio"))?;
        let policy =
            AdaptivePolicy::new(1e-5).map_err(|_| ServeError::InvalidParameter("target_ber"))?;
        let image =
            ImageModel::new(352, 288, 2500.0).map_err(|_| ServeError::InvalidParameter("image"))?;
        let jscc = JsccOptimizer::new(image, radio, 30.0)
            .map_err(|_| ServeError::InvalidParameter("target_psnr"))?;
        let acs_op_j = CodecEnergy::default().acs_op_j;
        let wireless = |gain_db: f64| -> f64 {
            let tx = policy.choose(&radio, gain_db).map_or_else(
                || radio.energy_per_bit_j(Modulation::Bpsk, radio.max_tx_power_w),
                |c| c.energy_j,
            );
            let fec_decode = jscc
                .optimize(gain_db)
                .map_or(0.0, |c| c.fec.decoder_energy_per_bit_j(acs_op_j));
            tx + fec_decode
        };

        let mut rng = SimRng::new(seed).substream("tier-mesh", 0);
        let net = Manet::random_deployment(40, 600.0, 1_000.0, RadioParams::default(), &mut rng)
            .map_err(|_| ServeError::InvalidParameter("mesh"))?;
        let mesh_cost = |target_far: bool| -> f64 {
            // Candidate gateways sorted by distance from the source
            // node; near-but-multi-hop for the edge tier, farthest for
            // origin-direct. First routable candidate wins, so the
            // choice is deterministic in the deployment.
            let src = 0usize;
            let src_node = net.node(src).expect("node 0 exists");
            let mut by_distance: Vec<(usize, f64)> = (1..net.node_count())
                .map(|i| (i, src_node.distance_to(net.node(i).expect("node exists"))))
                .collect();
            by_distance.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
            if target_far {
                by_distance.reverse();
            } else {
                // Skip direct neighbours: an edge gateway still relays.
                let range = net.radio().range_m;
                by_distance.retain(|&(_, d)| d > range);
            }
            for (dst, _) in by_distance {
                if let Some(path) =
                    routing::route(&net, Protocol::BatteryCost, src, dst, MESH_PROBE_BITS)
                {
                    let mut probe_net = net.clone();
                    let joules = routing::charge_route(&mut probe_net, &path, MESH_PROBE_BITS);
                    return joules / MESH_PROBE_BITS as f64;
                }
            }
            // Disconnected deployment: fall back to one max-range hop.
            let r = net.radio();
            (r.tx_energy_j(MESH_PROBE_BITS, r.range_m) + r.rx_energy_j(MESH_PROBE_BITS))
                / MESH_PROBE_BITS as f64
        };

        Ok(LastHopEnergy {
            edge_j_per_bit: [
                WIRED_EDGE_J_PER_BIT,
                wireless(EDGE_GAIN_DB),
                mesh_cost(false),
            ],
            origin_j_per_bit: [
                WIRED_ORIGIN_J_PER_BIT,
                wireless(ORIGIN_GAIN_DB),
                mesh_cost(true),
            ],
            transit_j_per_bit: TRANSIT_J_PER_BIT,
        })
    }

    /// Validates the table.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] on a non-finite or
    /// negative entry.
    pub fn validate(&self) -> Result<(), ServeError> {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if !self
            .edge_j_per_bit
            .iter()
            .chain(&self.origin_j_per_bit)
            .all(|&x| ok(x))
            || !ok(self.transit_j_per_bit)
        {
            return Err(ServeError::InvalidParameter("j_per_bit"));
        }
        Ok(())
    }
}

/// One geographic region: an edge fleet, its arrival process, and its
/// cache.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionConfig {
    /// The region's `dms-cluster` fleet (shards + balancer + recovery).
    pub fleet: ClusterConfig,
    /// How this region's sessions arrive (typically
    /// [`ArrivalProcess::FlashCrowd`] with a per-region diurnal phase).
    pub arrivals: ArrivalProcess,
    /// LRU cache capacity in content items; `0` disables caching (the
    /// flat-baseline arm: every session fetches through the origin).
    pub cache_items: usize,
    /// Whether the serving point is client-proximate: `true` bills the
    /// last hop at [`LastHopEnergy::edge_j_per_bit`], `false` (a flat
    /// central fleet) at [`LastHopEnergy::origin_j_per_bit`].
    pub proximate: bool,
}

/// The full tiered-delivery scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredConfig {
    /// Edge regions (≥ 1).
    pub regions: Vec<RegionConfig>,
    /// Media profile all sessions stream.
    pub template: SessionTemplate,
    /// Horizon, slots.
    pub slots: u64,
    /// Popularity + churn process.
    pub content: ContentModel,
    /// The shared origin uplink the M/M/1/K predictor guards: a cache
    /// miss reserves the session's full-quality demand here for its
    /// whole holding time.
    pub origin: CapacityModel,
    /// Device-class population and FGS decode ceilings.
    pub classes: ClassMix,
    /// Last-hop energy table (see [`LastHopEnergy::derive`]).
    pub energy: LastHopEnergy,
    /// Master seed. Region `r`'s workload is generated with seed
    /// `seed + r`; content/class draws use labelled substreams of
    /// `seed`.
    pub seed: u64,
}

impl TieredConfig {
    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field; propagates nested validations.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.regions.is_empty() {
            return Err(ServeError::InvalidParameter("regions"));
        }
        if self.slots == 0 {
            return Err(ServeError::InvalidParameter("slots"));
        }
        for region in &self.regions {
            region.fleet.validate()?;
        }
        self.template.validate()?;
        self.content.validate()?;
        self.origin.validate()?;
        self.classes.validate()?;
        self.energy.validate()?;
        Ok(())
    }
}

/// Per-session content/class draw, made at generation time so the
/// cache pass never touches the rng (draws are a pure function of the
/// config, independent of cache or origin state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionDraw {
    /// Zipf popularity rank in `0..catalog_size`.
    pub rank: u64,
    /// The requesting device's class.
    pub class: DeviceClass,
}

/// Last-hop accounting for one device class of one region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassReport {
    /// The class.
    pub class: DeviceClass,
    /// Sessions of this class that reached the region fleet.
    pub sessions: u64,
    /// Estimated served session-slots attributed to this class (fleet
    /// session-slots split by offered per-class holding time).
    pub est_session_slots: f64,
    /// Bits shipped per session-slot on the last hop: the fleet's mean
    /// delivered bits capped at the class's FGS decode ceiling.
    pub ship_bits_per_slot: u64,
    /// [`SessionTemplate::utility`] of the shipped bits, `[0, 1]`.
    pub utility: f64,
    /// Last-hop energy, joules.
    pub energy_j: f64,
}

/// One region's end-to-end report.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Sessions the region's workload offered.
    pub offered: u64,
    /// Sessions answered from the region cache.
    pub edge_hits: u64,
    /// Cache misses the origin admitted (fetched through the uplink).
    pub origin_fetches: u64,
    /// Cache misses the origin predictor refused — lost demand.
    pub origin_rejected: u64,
    /// Bits of origin-fetch traffic (full demand × holding time).
    pub fetched_bits: u64,
    /// The region fleet's own report (admission, scheduling, QoS).
    pub fleet: ClusterReport,
    /// Per-device-class last-hop accounting.
    pub classes: Vec<ClassReport>,
    /// Session-slot-weighted mean last-hop utility, `[0, 1]`.
    pub last_hop_utility: f64,
    /// Core-network transit energy for this region's fetches, joules.
    pub transit_energy_j: f64,
    /// Total delivery energy: per-class last hop + transit, joules.
    pub energy_j: f64,
}

impl RegionReport {
    /// The region's conservation ledger: every offered session is
    /// exactly one of hit / fetched / rejected.
    ///
    /// Ledger check: `tiered_run_conserves_sessions_and_is_deterministic`
    /// and `differential_tiers::sessions_are_conserved_across_tiers`
    /// assert it, so the unit and the property tests share one
    /// definition.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.edge_hits + self.origin_fetches + self.origin_rejected == self.offered
    }
}

/// The tiered scenario's end-to-end report.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredReport {
    /// Per-region reports, in region order.
    pub regions: Vec<RegionReport>,
    /// Mean origin uplink occupancy over the horizon, bits/slot.
    pub origin_mean_active_bits: f64,
    /// Per-slot origin uplink occupancy (bits reserved), for run-logs.
    pub origin_series: Vec<f64>,
    /// The origin uplink capacity the series is measured against.
    pub origin_capacity_bits_per_slot: u64,
    /// Horizon, slots.
    pub slots: u64,
}

impl TieredReport {
    /// Sessions offered across all regions.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.regions.iter().map(|r| r.offered).sum()
    }

    /// Cache hits across all regions.
    #[must_use]
    pub fn edge_hits(&self) -> u64 {
        self.regions.iter().map(|r| r.edge_hits).sum()
    }

    /// Origin-admitted fetches across all regions.
    #[must_use]
    pub fn origin_fetches(&self) -> u64 {
        self.regions.iter().map(|r| r.origin_fetches).sum()
    }

    /// Origin-refused sessions across all regions.
    #[must_use]
    pub fn origin_rejected(&self) -> u64 {
        self.regions.iter().map(|r| r.origin_rejected).sum()
    }

    /// Fraction of offered sessions answered from an edge cache.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 0.0;
        }
        self.edge_hits() as f64 / offered as f64
    }

    /// Mean origin uplink load: reserved bits over capacity, `ρ`-like.
    #[must_use]
    pub fn origin_load(&self) -> f64 {
        if self.origin_capacity_bits_per_slot == 0 {
            return 0.0;
        }
        self.origin_mean_active_bits / self.origin_capacity_bits_per_slot as f64
    }

    /// Deadline-miss rate across every region fleet.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let slots: u64 = self.regions.iter().map(|r| r.fleet.session_slots()).sum();
        if slots == 0 {
            return 0.0;
        }
        let misses: u64 = self.regions.iter().map(|r| r.fleet.deadline_misses()).sum();
        misses as f64 / slots as f64
    }

    /// Session-slot-weighted mean last-hop utility, `[0, 1]`. Unlike
    /// the fleet's own mean utility this includes the device-class FGS
    /// truncation of the last hop.
    #[must_use]
    pub fn mean_utility(&self) -> f64 {
        let mut weight = 0.0;
        let mut acc = 0.0;
        for region in &self.regions {
            let w = region.fleet.session_slots() as f64;
            weight += w;
            acc += w * region.last_hop_utility;
        }
        if weight == 0.0 {
            return 0.0;
        }
        acc / weight
    }

    /// Total delivered utility: each region's last-hop utility summed
    /// over its served session-slots. Unlike [`TieredReport::mean_utility`]
    /// this is *volume-sensitive* — sessions an arm sheds at the origin
    /// are utility it never delivers.
    #[must_use]
    pub fn delivered_utility(&self) -> f64 {
        self.regions
            .iter()
            .map(|r| r.last_hop_utility * r.fleet.session_slots() as f64)
            .sum()
    }

    /// Total delivery energy (last hop + transit), joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.regions.iter().map(|r| r.energy_j).sum()
    }

    /// Bits delivered by every region fleet.
    #[must_use]
    pub fn delivered_bits(&self) -> u64 {
        self.regions.iter().map(|r| r.fleet.delivered_bits()).sum()
    }

    /// Delivery energy per fleet-delivered bit, J/bit.
    #[must_use]
    pub fn energy_per_bit(&self) -> f64 {
        let bits = self.delivered_bits();
        if bits == 0 {
            return 0.0;
        }
        self.total_energy_j() / bits as f64
    }

    /// Exports counters/gauges under `scope` plus per-region scopes.
    pub fn export(&self, registry: &mut MetricsRegistry, scope: &str) {
        {
            let mut s = registry.scoped(scope);
            s.counter_add("offered", self.offered());
            s.counter_add("edge_hits", self.edge_hits());
            s.counter_add("origin_fetches", self.origin_fetches());
            s.counter_add("origin_rejected", self.origin_rejected());
            s.gauge_set("hit_ratio", self.hit_ratio());
            s.gauge_set("origin_load", self.origin_load());
            s.gauge_set("miss_rate", self.miss_rate());
            s.gauge_set("mean_utility", self.mean_utility());
            s.gauge_set("delivered_utility", self.delivered_utility());
            s.gauge_set("energy_j", self.total_energy_j());
            s.gauge_set("energy_j_per_bit", self.energy_per_bit());
        }
        for (i, region) in self.regions.iter().enumerate() {
            let region_scope = format!("{scope}/region{i}");
            {
                let mut s = registry.scoped(&region_scope);
                s.counter_add("offered", region.offered);
                s.counter_add("edge_hits", region.edge_hits);
                s.counter_add("origin_fetches", region.origin_fetches);
                s.counter_add("origin_rejected", region.origin_rejected);
                s.counter_add("fetched_bits", region.fetched_bits);
                s.gauge_set("last_hop_utility", region.last_hop_utility);
                s.gauge_set("energy_j", region.energy_j);
            }
            for class in &region.classes {
                let mut s = registry.scoped(&format!("{region_scope}/{}", class.class.name()));
                s.counter_add("sessions", class.sessions);
                s.gauge_set("ship_bits_per_slot", class.ship_bits_per_slot as f64);
                s.gauge_set("utility", class.utility);
                s.gauge_set("energy_j", class.energy_j);
            }
            region
                .fleet
                .export(registry, &format!("{region_scope}/fleet"));
        }
    }
}

/// A per-region LRU cache of content ids. Region caches are a few
/// hundred items, so a recency-ordered `Vec` beats pointer-chasing.
#[derive(Debug, Clone)]
struct LruCache {
    items: Vec<u64>,
    cap: usize,
}

impl LruCache {
    fn new(cap: usize) -> Self {
        LruCache {
            items: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Hit check + recency promotion.
    fn touch(&mut self, id: u64) -> bool {
        match self.items.iter().position(|&x| x == id) {
            Some(pos) => {
                let v = self.items.remove(pos);
                self.items.push(v);
                true
            }
            None => false,
        }
    }

    /// Inserts (evicting the least-recently used item when full).
    fn insert(&mut self, id: u64) {
        if self.cap == 0 {
            return;
        }
        if self.items.len() == self.cap {
            self.items.remove(0);
        }
        self.items.push(id);
    }
}

/// The tiered-delivery simulator.
#[derive(Debug, Clone)]
pub struct TieredSim {
    config: TieredConfig,
    zipf: ZipfSampler,
}

impl TieredSim {
    /// Builds a simulator after validating `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`TieredConfig::validate`].
    pub fn new(config: TieredConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let zipf = ZipfSampler::new(&config.content)?;
        Ok(TieredSim { config, zipf })
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &TieredConfig {
        &self.config
    }

    /// Generates every region's workload and its per-session
    /// content/class draws. Pure function of the config: region `r`
    /// uses workload seed `seed + r` and the labelled draw substream
    /// `("tier-draws", r)`.
    ///
    /// # Errors
    ///
    /// Propagates workload generation errors.
    pub fn generate(&self) -> Result<(Vec<Workload>, Vec<Vec<SessionDraw>>), ServeError> {
        let mut workloads = Vec::with_capacity(self.config.regions.len());
        let mut draws = Vec::with_capacity(self.config.regions.len());
        let master = SimRng::new(self.config.seed);
        for (r, region) in self.config.regions.iter().enumerate() {
            let workload = Workload::generate(
                region.arrivals,
                self.config.template,
                self.config.slots,
                self.config.seed + r as u64,
            )?;
            let mut rng = master.substream("tier-draws", r as u64);
            let session_draws = workload
                .sessions
                .iter()
                .map(|_| {
                    let rank = self.zipf.sample(&mut rng);
                    let class = DeviceClass::ALL[rng
                        .weighted_choice(&self.config.classes.weights)
                        .expect("validated weights")];
                    SessionDraw { rank, class }
                })
                .collect();
            workloads.push(workload);
            draws.push(session_draws);
        }
        Ok((workloads, draws))
    }

    /// Runs explicit per-region workloads/draws end to end. The E16
    /// flat-baseline arm uses this to offer the *same* sessions and
    /// content draws to a single central fleet that the tiered arm
    /// splits across regions.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] on a length mismatch
    /// with the configured regions; propagates fleet-run errors.
    pub fn run_on(
        &self,
        workloads: &[Workload],
        draws: &[Vec<SessionDraw>],
    ) -> Result<TieredReport, ServeError> {
        let regions = &self.config.regions;
        if workloads.len() != regions.len() || draws.len() != regions.len() {
            return Err(ServeError::InvalidParameter("workloads"));
        }
        for (w, d) in workloads.iter().zip(draws) {
            if w.sessions.len() != d.len() || w.slots != self.config.slots {
                return Err(ServeError::InvalidParameter("draws"));
            }
        }
        let template = &self.config.template;
        let full_bits = template.full_bits();
        // The origin admission mirror: a cache miss reserves the
        // session's full demand on the uplink for its holding time, in
        // the same ledger a fleet balancer keeps per shard.
        let mut origin = ShardState::new(self.config.origin, full_bits, None, self.config.slots)?;
        let mut origin_series = Vec::with_capacity(self.config.slots as usize);

        let mut caches: Vec<LruCache> = regions
            .iter()
            .map(|r| LruCache::new(r.cache_items))
            .collect();
        let n = regions.len();
        let mut cursors = vec![0usize; n];
        let mut edge_sessions: Vec<Vec<SessionRequest>> = vec![Vec::new(); n];
        let mut edge_hits = vec![0u64; n];
        let mut origin_fetches = vec![0u64; n];
        let mut origin_rejected = vec![0u64; n];
        let mut fetched_bits = vec![0u64; n];
        let mut class_sessions = vec![[0u64; DEVICE_CLASSES]; n];
        let mut class_slots = vec![[0u64; DEVICE_CLASSES]; n];

        // Sequential cache/origin pass in global slot order, regions
        // in index order within a slot — the deterministic dispatch
        // discipline (the parallel fleet phase comes after).
        for slot in 0..self.config.slots {
            // Fetches departing at `slot` free the uplink first.
            origin.release_until(slot + 1);
            for r in 0..n {
                let sessions = &workloads[r].sessions;
                while cursors[r] < sessions.len() && sessions[cursors[r]].arrival_slot == slot {
                    let session = sessions[cursors[r]];
                    let draw = draws[r][cursors[r]];
                    cursors[r] += 1;
                    let cid = self.config.content.content_id(draw.rank, slot);
                    let cached = regions[r].cache_items > 0 && caches[r].touch(cid);
                    let to_fleet = if cached {
                        edge_hits[r] += 1;
                        true
                    } else if origin.would_admit() {
                        origin_fetches[r] += 1;
                        origin.reserve(slot.saturating_add(session.duration_slots));
                        fetched_bits[r] = fetched_bits[r]
                            .saturating_add(full_bits.saturating_mul(session.duration_slots));
                        caches[r].insert(cid);
                        true
                    } else {
                        origin_rejected[r] += 1;
                        false
                    };
                    if to_fleet {
                        let c = draw.class.index();
                        class_sessions[r][c] += 1;
                        class_slots[r][c] =
                            class_slots[r][c].saturating_add(session.duration_slots);
                        edge_sessions[r].push(session);
                    }
                }
            }
            origin_series.push(origin.reserved_bits() as f64);
        }

        // Parallel fleet phase: each region's cluster runs on the
        // ParRunner (nesting its own per-shard fan-out) and results
        // merge in region order.
        let fleet_workloads: Vec<Workload> = edge_sessions
            .into_iter()
            .map(|sessions| Workload {
                sessions,
                template: *template,
                slots: self.config.slots,
            })
            .collect();
        let jobs: Vec<usize> = (0..n).collect();
        let results: Vec<Result<ClusterReport, ServeError>> = ParRunner::new().map(&jobs, |&r| {
            ClusterSim::new(regions[r].fleet.clone())?.run(&fleet_workloads[r])
        });

        let mut region_reports = Vec::with_capacity(n);
        for (r, result) in results.into_iter().enumerate() {
            let fleet = result?;
            let served_slots = fleet.session_slots();
            let mean_delivered = if served_slots == 0 {
                0.0
            } else {
                fleet.delivered_bits() as f64 / served_slots as f64
            };
            let offered_class_slots = class_slots[r]
                .iter()
                .fold(0u64, |a, b| a.saturating_add(*b));
            let j_per_bit = if regions[r].proximate {
                &self.config.energy.edge_j_per_bit
            } else {
                &self.config.energy.origin_j_per_bit
            };
            let mut classes = Vec::with_capacity(DEVICE_CLASSES);
            let mut utility_acc = 0.0;
            let mut slots_acc = 0.0;
            let mut energy_acc = 0.0;
            for class in DeviceClass::ALL {
                let c = class.index();
                let share = if offered_class_slots == 0 {
                    0.0
                } else {
                    class_slots[r][c] as f64 / offered_class_slots as f64
                };
                let est_session_slots = served_slots as f64 * share;
                let ceiling = template.demand_bits(self.config.classes.layers[c]);
                let ship_bits_per_slot = (mean_delivered.min(ceiling as f64)) as u64;
                let utility = template.utility(ship_bits_per_slot);
                let energy_j = est_session_slots * ship_bits_per_slot as f64 * j_per_bit[c];
                utility_acc += est_session_slots * utility;
                slots_acc += est_session_slots;
                energy_acc += energy_j;
                classes.push(ClassReport {
                    class,
                    sessions: class_sessions[r][c],
                    est_session_slots,
                    ship_bits_per_slot,
                    utility,
                    energy_j,
                });
            }
            let last_hop_utility = if slots_acc == 0.0 {
                0.0
            } else {
                utility_acc / slots_acc
            };
            let transit_energy_j = fetched_bits[r] as f64 * self.config.energy.transit_j_per_bit;
            region_reports.push(RegionReport {
                offered: workloads[r].sessions.len() as u64,
                edge_hits: edge_hits[r],
                origin_fetches: origin_fetches[r],
                origin_rejected: origin_rejected[r],
                fetched_bits: fetched_bits[r],
                fleet,
                classes,
                last_hop_utility,
                transit_energy_j,
                energy_j: energy_acc + transit_energy_j,
            });
        }

        let origin_mean_active_bits = if origin_series.is_empty() {
            0.0
        } else {
            origin_series.iter().sum::<f64>() / origin_series.len() as f64
        };
        Ok(TieredReport {
            regions: region_reports,
            origin_mean_active_bits,
            origin_series,
            origin_capacity_bits_per_slot: self.config.origin.link_bits_per_slot,
            slots: self.config.slots,
        })
    }
}

/// Merges per-region workloads/draws into one region's worth — the
/// flat-baseline arm offers the *same* sessions (and content/class
/// draws) to a single central fleet. Sessions interleave in
/// `(arrival_slot, region, id)` order — exactly the order the tiered
/// cache pass processes them — and are re-numbered sequentially so the
/// merged workload is a valid arrival stream.
#[must_use]
pub fn merge_regions(
    workloads: &[Workload],
    draws: &[Vec<SessionDraw>],
    template: SessionTemplate,
    slots: u64,
) -> (Workload, Vec<SessionDraw>) {
    let mut tagged: Vec<(u64, usize, u64, SessionRequest, SessionDraw)> = Vec::new();
    for (r, (workload, region_draws)) in workloads.iter().zip(draws).enumerate() {
        for (session, draw) in workload.sessions.iter().zip(region_draws) {
            tagged.push((session.arrival_slot, r, session.id, *session, *draw));
        }
    }
    tagged.sort_by_key(|&(slot, r, id, _, _)| (slot, r, id));
    let mut sessions = Vec::with_capacity(tagged.len());
    let mut merged_draws = Vec::with_capacity(tagged.len());
    for (i, (_, _, _, mut session, draw)) in tagged.into_iter().enumerate() {
        session.id = i as u64;
        sessions.push(session);
        merged_draws.push(draw);
    }
    (
        Workload {
            sessions,
            template,
            slots,
        },
        merged_draws,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerPolicy;
    use dms_serve::{AdmissionPolicy, RecoveryConfig, ServerConfig};

    /// Generates the configured workloads and runs them end to end.
    fn run(sim: &TieredSim) -> Result<TieredReport, ServeError> {
        let (workloads, draws) = sim.generate()?;
        sim.run_on(&workloads, &draws)
    }

    fn template() -> SessionTemplate {
        SessionTemplate::streaming_default().expect("preset valid")
    }

    fn small_config(cache_items: usize, origin_capacity_sessions: u64) -> TieredConfig {
        let t = template();
        let full = t.full_bits();
        let shard = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 40 * full,
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::QueuePredictor,
            degrade: None,
            buffer_slots: 8,
            miss_slots: 4,
        };
        let region = |phase: u64| RegionConfig {
            fleet: ClusterConfig {
                shards: vec![shard; 2],
                balancer: BalancerPolicy::JoinShortestQueue,
                recovery: RecoveryConfig::default(),
                seed: 0xE16,
            },
            arrivals: ArrivalProcess::FlashCrowd {
                rate: 0.6,
                hurst: 0.8,
                burstiness: 0.6,
                diurnal_depth: 0.4,
                diurnal_period_slots: 200,
                diurnal_phase_slots: phase,
                spike_factor: 2.0,
                spike_period_slots: 100,
                spike_slots: 10,
            },
            cache_items,
            proximate: true,
        };
        TieredConfig {
            regions: vec![region(0), region(70)],
            template: t,
            slots: 200,
            content: ContentModel {
                catalog_size: 150,
                zipf_exponent: 1.2,
                churn_period_slots: 80,
                churn_stride: 37,
            },
            origin: CapacityModel {
                link_bits_per_slot: origin_capacity_sessions * full,
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            classes: ClassMix::streaming_default(&t),
            energy: LastHopEnergy::derive(7).expect("derivable"),
            seed: 11,
        }
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let model = ContentModel {
            catalog_size: 1000,
            zipf_exponent: 1.0,
            churn_period_slots: 0,
            churn_stride: 0,
        };
        let zipf = ZipfSampler::new(&model).expect("valid");
        let mut rng = SimRng::new(3);
        let mut top10 = 0u64;
        let draws = 20_000;
        for _ in 0..draws {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 1000);
            if rank < 10 {
                top10 += 1;
            }
        }
        // H(10)/H(1000) ≈ 0.39 at s = 1: the head dominates.
        let frac = top10 as f64 / draws as f64;
        assert!(frac > 0.3, "top-10 fraction {frac}");
    }

    #[test]
    fn churn_rotates_the_hot_set() {
        let model = ContentModel {
            catalog_size: 100,
            zipf_exponent: 1.0,
            churn_period_slots: 50,
            churn_stride: 10,
        };
        assert_eq!(model.content_id(0, 0), 0);
        assert_eq!(model.content_id(0, 49), 0);
        assert_eq!(model.content_id(0, 50), 10);
        assert_eq!(model.content_id(95, 50), 5, "rotation wraps");
        let no_churn = ContentModel {
            churn_period_slots: 0,
            ..model
        };
        assert_eq!(no_churn.content_id(7, 10_000), 7);
    }

    #[test]
    fn lru_cache_evicts_least_recent() {
        let mut cache = LruCache::new(2);
        cache.insert(1);
        cache.insert(2);
        assert!(cache.touch(1), "1 present");
        cache.insert(3); // evicts 2 (1 was promoted)
        assert!(!cache.touch(2));
        assert!(cache.touch(1));
        assert!(cache.touch(3));
    }

    #[test]
    fn zero_capacity_cache_holds_nothing_and_stays_conserved() {
        let mut cache = LruCache::new(0);
        cache.insert(1);
        assert!(!cache.touch(1), "capacity 0 stores nothing");
        cache.insert(2);
        cache.insert(2);
        assert!(!cache.touch(2), "re-insertion cannot smuggle an item in");

        // End to end: a cacheless region never hits, every session is
        // an origin fetch or an origin reject, and the ledger holds.
        let report = run(&TieredSim::new(small_config(0, 25)).expect("valid")).expect("runs");
        assert_eq!(report.edge_hits(), 0, "no cache, no hits");
        for region in &report.regions {
            assert!(region.conserved());
            assert_eq!(
                region.origin_fetches + region.origin_rejected,
                region.offered
            );
        }
    }

    #[test]
    fn single_content_catalogue_degenerates_to_the_compulsory_miss() {
        // Zipf over one item is the point mass at rank 0, churn
        // rotates modulo 1, and the sampler never leaves the head.
        let model = ContentModel {
            catalog_size: 1,
            zipf_exponent: 1.3,
            churn_period_slots: 50,
            churn_stride: 10,
        };
        assert!(model.validate().is_ok());
        assert_eq!(model.content_id(0, 0), 0);
        assert_eq!(model.content_id(0, 12_345), 0);
        let zipf = ZipfSampler::new(&model).expect("valid");
        let mut rng = SimRng::new(9);
        assert!((0..1_000).all(|_| zipf.sample(&mut rng) == 0));

        // With any cache at all, each region pays at most a handful of
        // compulsory misses (until the item first lands) and then hits
        // forever: the hit side must dominate the fetch side.
        let mut config = small_config(4, 25);
        config.content = model;
        let report = run(&TieredSim::new(config).expect("valid")).expect("runs");
        for region in &report.regions {
            assert!(region.conserved());
            assert!(region.edge_hits > 0);
            assert!(
                region.edge_hits > region.origin_fetches + region.origin_rejected,
                "hits {} must dominate misses {} + {}",
                region.edge_hits,
                region.origin_fetches,
                region.origin_rejected
            );
        }
    }

    /// A caller's workload may carry any `duration_slots`, `u64::MAX`
    /// included. The origin ledger saturates rather than overflowing,
    /// so such a fetch holds the shared uplink to the end of the run,
    /// exactly as one lasting the whole horizon does.
    #[test]
    fn endless_sessions_hold_the_origin_like_horizon_long_ones() {
        let sim = TieredSim::new(small_config(0, 40)).expect("valid");
        let (workloads, draws) = sim.generate().expect("valid workloads");
        let with_region0_durations = |duration_slots: u64| {
            let mut workloads = workloads.clone();
            for session in &mut workloads[0].sessions {
                session.duration_slots = duration_slots;
            }
            sim.run_on(&workloads, &draws).expect("runs")
        };
        let endless = with_region0_durations(u64::MAX);
        let horizon_long = with_region0_durations(sim.config().slots);
        for (e, h) in endless.regions.iter().zip(&horizon_long.regions) {
            assert!(e.conserved() && h.conserved());
            assert_eq!(
                (e.origin_fetches, e.origin_rejected),
                (h.origin_fetches, h.origin_rejected)
            );
        }
        assert!(endless.origin_rejected() > 0, "the held uplink refuses");
    }

    #[test]
    fn tiered_run_conserves_sessions_and_is_deterministic() {
        let sim = TieredSim::new(small_config(64, 20)).expect("valid");
        let a = run(&sim).expect("runs");
        for region in &a.regions {
            assert!(region.conserved(), "hits+fetches+rejects == offered");
            assert_eq!(
                region.fleet.offered(),
                region.edge_hits + region.origin_fetches,
                "fleet sees exactly the non-rejected sessions"
            );
        }
        assert!(a.offered() > 0);
        assert!(a.edge_hits() > 0, "cache must produce hits");
        assert!(a.origin_rejected() > 0, "tight origin must reject");
        let b = run(&TieredSim::new(small_config(64, 20)).expect("valid")).expect("runs");
        assert_eq!(a, b, "bit-identical reruns");
    }

    #[test]
    fn caching_relieves_the_origin() {
        let cached = run(&TieredSim::new(small_config(64, 25)).expect("valid")).expect("runs");
        let uncached = run(&TieredSim::new(small_config(0, 25)).expect("valid")).expect("runs");
        assert_eq!(uncached.edge_hits(), 0);
        assert!(cached.hit_ratio() > 0.2, "hit ratio {}", cached.hit_ratio());
        assert!(
            cached.origin_load() < uncached.origin_load(),
            "hits must unload the origin: {} vs {}",
            cached.origin_load(),
            uncached.origin_load()
        );
        assert!(
            cached.origin_rejected() < uncached.origin_rejected(),
            "hits must save sessions from origin rejection"
        );
    }

    #[test]
    fn last_hop_energy_prefers_the_edge() {
        let e = LastHopEnergy::derive(7).expect("derivable");
        for c in 0..DEVICE_CLASSES {
            assert!(
                e.edge_j_per_bit[c] <= e.origin_j_per_bit[c],
                "{}: edge {} vs origin {}",
                DeviceClass::ALL[c].name(),
                e.edge_j_per_bit[c],
                e.origin_j_per_bit[c]
            );
        }
        assert!(e.transit_j_per_bit > 0.0);
        // The wireless gap is the modulation-adaptation story: better
        // gain at the edge buys a cheaper constellation.
        assert!(e.edge_j_per_bit[1] < e.origin_j_per_bit[1]);
    }

    #[test]
    fn merge_regions_preserves_sessions_and_order() {
        let sim = TieredSim::new(small_config(64, 20)).expect("valid");
        let (workloads, draws) = sim.generate().expect("generates");
        let total: usize = workloads.iter().map(|w| w.sessions.len()).sum();
        let (merged, merged_draws) = merge_regions(
            &workloads,
            &draws,
            sim.config().template,
            sim.config().slots,
        );
        assert_eq!(merged.sessions.len(), total);
        assert_eq!(merged_draws.len(), total);
        for pair in merged.sessions.windows(2) {
            assert!(pair[0].arrival_slot <= pair[1].arrival_slot);
            assert!(pair[0].id < pair[1].id);
        }
    }

    #[test]
    fn run_on_rejects_mismatched_inputs() {
        let sim = TieredSim::new(small_config(64, 20)).expect("valid");
        let (workloads, mut draws) = sim.generate().expect("generates");
        assert!(sim.run_on(&workloads[..1], &draws[..1]).is_err());
        draws[0].pop();
        assert!(sim.run_on(&workloads, &draws).is_err());
    }
}
