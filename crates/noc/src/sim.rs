//! Cycle-accurate, flit-level wormhole NoC simulation.
//!
//! Implements the §3.2 router fabric: each tile has a 5-port router
//! (North/East/South/West/Local) with finite input FIFOs, deterministic
//! XY routing, wormhole switching (an output port is locked to a packet
//! from head to tail flit) and credit-based flow control (a flit only
//! advances when the downstream FIFO has room). Round-robin arbitration
//! resolves output-port contention. "Transactions can potentially be
//! performed in parallel" — each router moves up to five flits per
//! cycle, one per output port.
//!
//! Energy is charged through the [`BitEnergyModel`]: every switch
//! traversal costs router energy and every inter-tile move costs link
//! energy, so the simulator's totals agree with the analytical
//! `(h+1)·E_R + h·E_L` model used by the mapping optimiser.

use std::collections::VecDeque;

use dms_sim::{OnlineStats, SimRng};

use crate::energy::BitEnergyModel;
use crate::error::NocError;
use crate::packet::{Flit, Packet};
use crate::topology::{Direction, Mesh2d, TileId};
use crate::traffic::{InjectionProcess, MappedTraffic, TrafficPattern};

/// The routing algorithm a [`NocSim`] run uses (§3.3's routing knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum RoutingAlgorithm {
    /// Deterministic dimension-ordered routing.
    #[default]
    Xy,
    /// West-first turn-model routing: minimal and adaptive in the
    /// non-west directions, deadlock-free.
    WestFirst,
}

/// Configuration of a NoC simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Mesh width in tiles.
    pub width: usize,
    /// Mesh height in tiles.
    pub height: usize,
    /// Input-FIFO depth per router port, in flits — the §3.2 buffer-size
    /// customisation parameter.
    pub buffer_flits: usize,
    /// Flit width in bytes.
    pub flit_bytes: u64,
    /// Header bytes carried in each packet's head flit.
    pub header_bytes: u64,
    /// Payload bytes per generated packet (§3.3 packet-size knob).
    pub payload_bytes: u64,
    /// When tiles inject.
    pub injection: InjectionProcess,
    /// Where packets go.
    pub pattern: TrafficPattern,
    /// Cycles during which tiles inject.
    pub inject_cycles: u64,
    /// Extra cycles to let the network drain afterwards.
    pub drain_cycles: u64,
    /// Energy constants.
    pub energy: BitEnergyModel,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
}

impl NocConfig {
    /// A 4×4 mesh with 32-bit flits and moderate uniform Bernoulli load —
    /// a sensible starting point for experiments.
    #[must_use]
    pub fn mesh4x4() -> Self {
        NocConfig {
            width: 4,
            height: 4,
            buffer_flits: 8,
            flit_bytes: 4,
            header_bytes: 4,
            payload_bytes: 32,
            injection: InjectionProcess::Bernoulli { p: 0.02 },
            pattern: TrafficPattern::Uniform,
            inject_cycles: 20_000,
            drain_cycles: 5_000,
            energy: BitEnergyModel::default(),
            routing: RoutingAlgorithm::Xy,
        }
    }

    /// Validates dimensions and sizes.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::EmptyMesh`] or [`NocError::InvalidParameter`].
    pub fn validate(&self) -> Result<(), NocError> {
        Mesh2d::new(self.width, self.height)?;
        if self.buffer_flits == 0 {
            return Err(NocError::InvalidParameter("buffer_flits"));
        }
        if self.flit_bytes == 0 {
            return Err(NocError::InvalidParameter("flit_bytes"));
        }
        if self.inject_cycles == 0 {
            return Err(NocError::InvalidParameter("inject_cycles"));
        }
        Ok(())
    }
}

/// Measured outcome of a NoC simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct NocReport {
    /// Packets created at sources.
    pub packets_injected: u64,
    /// Packets whose tail flit was ejected at the destination.
    pub packets_received: u64,
    /// Flits delivered (ejected).
    pub flits_delivered: u64,
    /// Mean packet latency (creation → tail ejection) in cycles.
    pub mean_latency_cycles: f64,
    /// 95th-ish latency proxy: mean + 2σ.
    pub latency_p95_cycles: f64,
    /// Delivered payload throughput in bytes per cycle (whole chip).
    pub throughput_bytes_per_cycle: f64,
    /// Total communication energy in picojoules.
    pub energy_pj: f64,
    /// Energy per delivered payload byte, in picojoules.
    pub energy_per_byte_pj: f64,
    /// Mean over cycles of total flits buffered in the network.
    pub mean_network_occupancy: f64,
    /// Flits carried by the busiest inter-tile link.
    pub max_link_flits: u64,
    /// Mean flits per inter-tile link (over links that exist).
    pub mean_link_flits: f64,
    /// Cycles simulated (inject + drain).
    pub cycles: u64,
}

/// One 5-port wormhole router.
#[derive(Debug)]
struct Router {
    /// Input FIFOs indexed by [`Direction::port_index`].
    inputs: [VecDeque<Flit>; 5],
    /// The output direction locked by the packet currently streaming
    /// through each input port.
    input_route: [Option<Direction>; 5],
    /// The input port that owns each output direction, if locked.
    output_owner: [Option<usize>; 5],
    /// Round-robin pointer per output port.
    rr: [usize; 5],
}

impl Router {
    fn new() -> Self {
        Router {
            inputs: Default::default(),
            input_route: [None; 5],
            output_owner: [None; 5],
            rr: [0; 5],
        }
    }
}

/// The flit-level mesh simulator.
#[derive(Debug)]
pub struct NocSim {
    config: NocConfig,
    mesh: Mesh2d,
    routers: Vec<Router>,
    /// Unbounded per-tile source queues (the IP's local memory).
    sources: Vec<VecDeque<Flit>>,
    schedules: Vec<Vec<bool>>,
    dest_rngs: Vec<SimRng>,
    /// When set, destinations come from the mapped application instead
    /// of `config.pattern`.
    mapped: Option<MappedTraffic>,
    next_packet_id: u64,
    packets_injected: u64,
    packets_received: u64,
    flits_delivered: u64,
    payload_bytes_delivered: u64,
    energy_pj: f64,
    latency: OnlineStats,
    occupancy_sum: f64,
    /// Flits carried per (router, output direction) link.
    link_flits: Vec<[u64; 5]>,
    flit_energy_router: f64,
    flit_energy_link: f64,
}

impl NocSim {
    /// Builds the simulator (generating per-tile injection schedules).
    ///
    /// # Errors
    ///
    /// Propagates [`NocConfig::validate`] failures.
    pub fn new(config: NocConfig, seed: u64) -> Result<Self, NocError> {
        config.validate()?;
        let mesh = Mesh2d::new(config.width, config.height)?;
        let root = SimRng::new(seed);
        let total_cycles = (config.inject_cycles) as usize;
        let schedules: Vec<Vec<bool>> = mesh
            .tiles()
            .map(|t| {
                let mut r = root.substream("noc-inject", t.index() as u64);
                config.injection.schedule(total_cycles, &mut r)
            })
            .collect();
        let dest_rngs: Vec<SimRng> = mesh
            .tiles()
            .map(|t| root.substream("noc-dest", t.index() as u64))
            .collect();
        let bits_per_flit = config.flit_bytes as f64 * 8.0;
        Ok(NocSim {
            config,
            mesh,
            routers: (0..mesh.tile_count()).map(|_| Router::new()).collect(),
            sources: vec![VecDeque::new(); mesh.tile_count()],
            schedules,
            dest_rngs,
            mapped: None,
            next_packet_id: 0,
            packets_injected: 0,
            packets_received: 0,
            flits_delivered: 0,
            payload_bytes_delivered: 0,
            energy_pj: 0.0,
            latency: OnlineStats::new(),
            occupancy_sum: 0.0,
            link_flits: vec![[0; 5]; mesh.tile_count()],
            flit_energy_router: bits_per_flit * config.energy.router_pj,
            flit_energy_link: bits_per_flit * config.energy.link_pj,
        })
    }

    /// Convenience: build, run all configured cycles, and report.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn run(config: NocConfig, seed: u64) -> Result<NocReport, NocError> {
        let mut sim = NocSim::new(config, seed)?;
        let total = config.inject_cycles + config.drain_cycles;
        for cycle in 0..total {
            sim.step(cycle);
        }
        Ok(sim.report(total))
    }

    /// Runs the simulator driven by application traffic: per-tile
    /// injection rates and destinations come from `traffic` (derived
    /// from a mapped core graph), overriding `config.injection` and
    /// `config.pattern`. This is how the flit-level simulator validates
    /// the mapping optimiser's analytical energy model end to end.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn run_mapped(
        config: NocConfig,
        traffic: &MappedTraffic,
        seed: u64,
    ) -> Result<NocReport, NocError> {
        let mut sim = NocSim::new(config, seed)?;
        let root = SimRng::new(seed);
        sim.schedules = Mesh2d::new(config.width, config.height)?
            .tiles()
            .map(|t| {
                let mut r = root.substream("noc-mapped-inject", t.index() as u64);
                traffic.schedule(t, config.inject_cycles as usize, &mut r)
            })
            .collect();
        sim.mapped = Some(traffic.clone());
        let total = config.inject_cycles + config.drain_cycles;
        for cycle in 0..total {
            sim.step(cycle);
        }
        Ok(sim.report(total))
    }

    /// Advances the network by one cycle.
    pub fn step(&mut self, cycle: u64) {
        self.inject(cycle);
        self.switch(cycle);
        self.occupancy_sum += self
            .routers
            .iter()
            .map(|r| r.inputs.iter().map(VecDeque::len).sum::<usize>() as f64)
            .sum::<f64>();
    }

    /// Produces the report after `cycles` simulated cycles.
    #[must_use]
    pub fn report(&self, cycles: u64) -> NocReport {
        NocReport {
            packets_injected: self.packets_injected,
            packets_received: self.packets_received,
            flits_delivered: self.flits_delivered,
            mean_latency_cycles: self.latency.mean(),
            latency_p95_cycles: self.latency.mean() + 2.0 * self.latency.std_dev(),
            throughput_bytes_per_cycle: if cycles == 0 {
                0.0
            } else {
                self.payload_bytes_delivered as f64 / cycles as f64
            },
            energy_pj: self.energy_pj,
            energy_per_byte_pj: if self.payload_bytes_delivered == 0 {
                0.0
            } else {
                self.energy_pj / self.payload_bytes_delivered as f64
            },
            mean_network_occupancy: if cycles == 0 {
                0.0
            } else {
                self.occupancy_sum / cycles as f64
            },
            max_link_flits: self.link_loads().into_iter().max().unwrap_or(0),
            mean_link_flits: {
                let loads = self.link_loads();
                if loads.is_empty() {
                    0.0
                } else {
                    loads.iter().sum::<u64>() as f64 / loads.len() as f64
                }
            },
            cycles,
        }
    }

    /// Flits carried by each existing inter-tile link (one entry per
    /// directed link), for bottleneck identification — §3.3: "along this
    /// path, the network should provide the highest bandwidth".
    #[must_use]
    pub fn link_loads(&self) -> Vec<u64> {
        let mut loads = Vec::new();
        for t in self.mesh.tiles() {
            for dir in [
                Direction::North,
                Direction::East,
                Direction::South,
                Direction::West,
            ] {
                if self.mesh.neighbor(t, dir).is_some() {
                    loads.push(self.link_flits[t.index()][dir.port_index()]);
                }
            }
        }
        loads
    }

    fn inject(&mut self, cycle: u64) {
        // Create new packets per the schedule.
        if (cycle as usize) < self.schedules[0].len() {
            for tile in 0..self.mesh.tile_count() {
                if self.schedules[tile][cycle as usize] {
                    let src = TileId(tile);
                    let dst = match &self.mapped {
                        Some(traffic) => {
                            match traffic.pick_destination(src, &mut self.dest_rngs[tile]) {
                                Some(d) => d,
                                None => continue, // silent core
                            }
                        }
                        None => self.config.pattern.pick_destination(
                            &self.mesh,
                            src,
                            &mut self.dest_rngs[tile],
                        ),
                    };
                    if dst == src {
                        continue; // 1×1 mesh corner case
                    }
                    let pkt = Packet {
                        id: self.next_packet_id,
                        src,
                        dst,
                        payload_bytes: self.config.payload_bytes,
                        created_cycle: cycle,
                    };
                    self.next_packet_id += 1;
                    self.packets_injected += 1;
                    let flits = pkt
                        .into_flits(self.config.flit_bytes, self.config.header_bytes)
                        .expect("flit width validated");
                    self.sources[tile].extend(flits);
                }
            }
        }
        // Move source flits into the local input FIFO while room remains.
        for tile in 0..self.mesh.tile_count() {
            let local = Direction::Local.port_index();
            while !self.sources[tile].is_empty()
                && self.routers[tile].inputs[local].len() < self.config.buffer_flits
            {
                let flit = self.sources[tile].pop_front().expect("non-empty");
                self.routers[tile].inputs[local].push_back(flit);
            }
        }
    }

    /// One switch-allocation + traversal phase across all routers.
    fn switch(&mut self, cycle: u64) {
        // Staged moves: (destination router, destination input port, flit).
        let mut staged: Vec<(usize, usize, Flit)> = Vec::new();
        // Reserved downstream slots this cycle, so credits are honoured
        // even for flits that have not physically moved yet.
        let mut reserved = vec![[0usize; 5]; self.routers.len()];
        // An input port may release at most one flit per cycle.
        let mut input_moved = vec![[false; 5]; self.routers.len()];

        for r_idx in 0..self.routers.len() {
            let tile = TileId(r_idx);
            for out_dir in Direction::ALL {
                let out = out_dir.port_index();
                // Choose the feeding input: the wormhole owner, or a new
                // head flit found by round-robin search.
                let chosen: Option<usize> = match self.routers[r_idx].output_owner[out] {
                    Some(owner) => Some(owner),
                    None => {
                        let start = self.routers[r_idx].rr[out];
                        (0..5).map(|k| (start + k) % 5).find(|&inp| {
                            if input_moved[r_idx][inp] {
                                return false;
                            }
                            match self.routers[r_idx].inputs[inp].front() {
                                Some(f) if f.is_head() => match self.config.routing {
                                    RoutingAlgorithm::Xy => {
                                        self.mesh.xy_next_direction(tile, f.dst) == out_dir
                                    }
                                    RoutingAlgorithm::WestFirst => self
                                        .mesh
                                        .west_first_directions(tile, f.dst)
                                        .contains(&out_dir),
                                },
                                _ => false,
                            }
                        })
                    }
                };
                let Some(inp) = chosen else { continue };
                if input_moved[r_idx][inp] {
                    continue;
                }
                // The owner's front flit may belong to the locked packet
                // (body/tail) or may not have arrived yet this cycle.
                let Some(front) = self.routers[r_idx].inputs[inp].front().copied() else {
                    continue;
                };
                if self.routers[r_idx].output_owner[out].is_some()
                    && self.routers[r_idx].input_route[inp] != Some(out_dir)
                {
                    continue;
                }
                // Credit check for non-local hops.
                let target = if out_dir == Direction::Local {
                    None
                } else {
                    let Some(n) = self.mesh.neighbor(tile, out_dir) else {
                        continue;
                    };
                    let in_port = out_dir.opposite().port_index();
                    let free = self.config.buffer_flits
                        - self.routers[n.index()].inputs[in_port].len()
                        - reserved[n.index()][in_port];
                    if free == 0 {
                        continue;
                    }
                    Some((n.index(), in_port))
                };
                // Commit the traversal.
                let flit = self.routers[r_idx].inputs[inp]
                    .pop_front()
                    .expect("front existed");
                debug_assert_eq!(flit.packet_id, front.packet_id);
                input_moved[r_idx][inp] = true;
                self.routers[r_idx].rr[out] = (inp + 1) % 5;
                if flit.is_head() {
                    self.routers[r_idx].input_route[inp] = Some(out_dir);
                    self.routers[r_idx].output_owner[out] = Some(inp);
                }
                if flit.is_tail() {
                    self.routers[r_idx].input_route[inp] = None;
                    self.routers[r_idx].output_owner[out] = None;
                }
                self.energy_pj += self.flit_energy_router;
                match target {
                    Some((n_idx, in_port)) => {
                        self.energy_pj += self.flit_energy_link;
                        self.link_flits[r_idx][out] += 1;
                        reserved[n_idx][in_port] += 1;
                        staged.push((n_idx, in_port, flit));
                    }
                    None => {
                        // Ejection at the destination tile.
                        self.flits_delivered += 1;
                        if flit.is_tail() {
                            self.packets_received += 1;
                            self.payload_bytes_delivered += self.config.payload_bytes;
                            self.latency.record((cycle - flit.created_cycle) as f64);
                        }
                    }
                }
            }
        }
        for (r_idx, in_port, flit) in staged {
            self.routers[r_idx].inputs[in_port].push_back(flit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light_config() -> NocConfig {
        let mut c = NocConfig::mesh4x4();
        c.inject_cycles = 5_000;
        c.drain_cycles = 2_000;
        c
    }

    #[test]
    fn validation() {
        let mut c = light_config();
        c.width = 0;
        assert!(NocSim::run(c, 1).is_err());
        let mut c = light_config();
        c.buffer_flits = 0;
        assert!(NocSim::run(c, 1).is_err());
        let mut c = light_config();
        c.flit_bytes = 0;
        assert!(NocSim::run(c, 1).is_err());
    }

    #[test]
    fn light_load_delivers_all_packets() {
        let r = NocSim::run(light_config(), 7).expect("valid");
        assert!(r.packets_injected > 500, "injected {}", r.packets_injected);
        assert_eq!(
            r.packets_received, r.packets_injected,
            "light load with drain must deliver everything"
        );
        assert!(r.mean_latency_cycles >= 1.0);
        assert!(r.energy_pj > 0.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let mut low = light_config();
        low.injection = InjectionProcess::Bernoulli { p: 0.01 };
        let mut high = light_config();
        high.injection = InjectionProcess::Bernoulli { p: 0.12 };
        let rl = NocSim::run(low, 3).expect("valid");
        let rh = NocSim::run(high, 3).expect("valid");
        assert!(
            rh.mean_latency_cycles > rl.mean_latency_cycles,
            "high-load latency {} must exceed low-load {}",
            rh.mean_latency_cycles,
            rl.mean_latency_cycles
        );
    }

    #[test]
    fn energy_matches_analytical_model() {
        // Under light uniform load every packet takes its XY hop count;
        // total energy must equal Σ flits × ((h+1)·E_R + h·E_L).
        let mut c = light_config();
        c.injection = InjectionProcess::Bernoulli { p: 0.005 };
        let r = NocSim::run(c, 11).expect("valid");
        // Average uniform 4×4 hop distance is 8/3; check the energy per
        // delivered flit lies in the feasible [h=1, h=6] band.
        let flit_bits = c.flit_bytes as f64 * 8.0;
        let e_min = flit_bits * c.energy.bit_energy_pj(1);
        let e_max = flit_bits * c.energy.bit_energy_pj(6);
        let per_flit = r.energy_pj / r.flits_delivered as f64;
        assert!(
            per_flit >= e_min && per_flit <= e_max,
            "per-flit energy {per_flit}"
        );
    }

    #[test]
    fn hotspot_congests_more_than_uniform() {
        let mut uni = light_config();
        uni.injection = InjectionProcess::Bernoulli { p: 0.05 };
        let mut hot = uni;
        hot.pattern = TrafficPattern::Hotspot {
            hotspot: TileId(5),
            fraction: 0.6,
        };
        let ru = NocSim::run(uni, 13).expect("valid");
        let rh = NocSim::run(hot, 13).expect("valid");
        assert!(
            rh.mean_latency_cycles > ru.mean_latency_cycles,
            "hotspot latency {} must exceed uniform {}",
            rh.mean_latency_cycles,
            ru.mean_latency_cycles
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = NocSim::run(light_config(), 5).expect("valid");
        let b = NocSim::run(light_config(), 5).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn hotspot_concentrates_link_load() {
        let mut uni = light_config();
        uni.injection = InjectionProcess::Bernoulli { p: 0.03 };
        let mut hot = uni;
        hot.pattern = TrafficPattern::Hotspot {
            hotspot: TileId(5),
            fraction: 0.7,
        };
        let ru = NocSim::run(uni, 51).expect("valid");
        let rh = NocSim::run(hot, 51).expect("valid");
        // Hotspot traffic skews the max/mean link-load ratio upward.
        let skew = |r: &NocReport| r.max_link_flits as f64 / r.mean_link_flits.max(1e-9);
        assert!(
            skew(&rh) > skew(&ru),
            "hotspot skew {:.2} should exceed uniform skew {:.2}",
            skew(&rh),
            skew(&ru)
        );
        assert!(rh.max_link_flits > 0);
    }

    #[test]
    fn larger_packets_cost_less_energy_per_byte() {
        // Header amortisation: the §3.3 packet-size effect.
        let mut small = light_config();
        small.payload_bytes = 8;
        small.injection = InjectionProcess::Bernoulli { p: 0.01 };
        let mut large = small;
        large.payload_bytes = 256;
        large.injection = InjectionProcess::Bernoulli { p: 0.002 };
        let rs = NocSim::run(small, 17).expect("valid");
        let rl = NocSim::run(large, 17).expect("valid");
        assert!(
            rl.energy_per_byte_pj < rs.energy_per_byte_pj,
            "large-packet energy/byte {} should undercut small-packet {}",
            rl.energy_per_byte_pj,
            rs.energy_per_byte_pj
        );
    }

    #[test]
    fn wormhole_preserves_flit_conservation() {
        let mut c = light_config();
        c.injection = InjectionProcess::Bernoulli { p: 0.08 };
        c.drain_cycles = 20_000; // generous drain
        let r = NocSim::run(c, 19).expect("valid");
        let flits_per_packet = ((c.payload_bytes + c.header_bytes).div_ceil(c.flit_bytes)).max(1);
        assert_eq!(
            r.flits_delivered,
            r.packets_received * flits_per_packet,
            "every delivered packet must deliver all its flits"
        );
        assert_eq!(r.packets_received, r.packets_injected);
    }

    #[test]
    fn west_first_routing_delivers_everything() {
        let mut c = light_config();
        c.routing = RoutingAlgorithm::WestFirst;
        c.injection = InjectionProcess::Bernoulli { p: 0.05 };
        c.drain_cycles = 20_000;
        let r = NocSim::run(c, 29).expect("valid");
        assert_eq!(
            r.packets_received, r.packets_injected,
            "west-first must not deadlock"
        );
        assert!(r.mean_latency_cycles >= 1.0);
    }

    #[test]
    fn west_first_relieves_hotspot_pressure() {
        // Under a hotspot, adaptivity in the non-west directions gives
        // west-first at least parity with XY; usually better.
        let mut xy = light_config();
        xy.injection = InjectionProcess::Bernoulli { p: 0.06 };
        xy.pattern = TrafficPattern::Hotspot {
            hotspot: TileId(5),
            fraction: 0.5,
        };
        xy.drain_cycles = 20_000;
        let mut wf = xy;
        wf.routing = RoutingAlgorithm::WestFirst;
        let rx = NocSim::run(xy, 31).expect("valid");
        let rw = NocSim::run(wf, 31).expect("valid");
        assert_eq!(rw.packets_received, rw.packets_injected);
        // Conservative check: adaptivity does not blow latency up.
        assert!(
            rw.mean_latency_cycles < rx.mean_latency_cycles * 1.5,
            "west-first {} vs xy {}",
            rw.mean_latency_cycles,
            rx.mean_latency_cycles
        );
    }

    #[test]
    fn mapped_traffic_validates_the_analytical_energy_model() {
        use crate::mapping::{CoreGraph, Mapper};
        let graph = CoreGraph::vopd();
        let mesh = Mesh2d::new(4, 4).expect("valid");
        let mapper = Mapper::new(&graph, &mesh).expect("fits");
        let good = mapper.simulated_annealing(3);
        let bad = mapper.random(1);
        let mut cfg = light_config();
        cfg.injection = InjectionProcess::Bernoulli { p: 0.0 }; // overridden
        cfg.drain_cycles = 30_000;
        let run = |mapping| {
            let traffic = MappedTraffic::from_mapping(&graph, mapping, &mesh, 0.02)
                .expect("VOPD has traffic");
            NocSim::run_mapped(cfg, &traffic, 43).expect("valid")
        };
        let r_good = run(&good);
        let r_bad = run(&bad);
        assert!(r_good.packets_received > 0);
        // The flit-level simulator agrees with the analytical model about
        // which mapping is cheaper per byte.
        assert!(
            r_good.energy_per_byte_pj < r_bad.energy_per_byte_pj,
            "simulated energy/byte: SA {} vs random {}",
            r_good.energy_per_byte_pj,
            r_bad.energy_per_byte_pj
        );
    }

    #[test]
    fn single_row_mesh_works() {
        let mut c = light_config();
        c.width = 8;
        c.height = 1;
        let r = NocSim::run(c, 23).expect("valid");
        assert!(r.packets_received > 0);
        assert_eq!(r.packets_received, r.packets_injected);
    }
}
