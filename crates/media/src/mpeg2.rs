//! The MPEG-2 decoder of Fig. 1(b).
//!
//! The figure shows `receive → VLD → {IDCT, MV} → display` with the VLD
//! feeding its consumers through buffers **B3** and **B4**, packets
//! entering through **B2-Rx**, and a *scheduler* sequencing the
//! concurrent processes on a shared resource: "Mapping ... the simple
//! VLD-IDCT/MV processes onto a platform with a single CPU would imply
//! another process, namely the scheduler" (§2.1).
//!
//! [`DecoderPipelineSim`] is exactly that mapped system: three processes
//! sharing one CPU under a round-robin scheduler, exchanging tokens
//! through finite buffers. Its headline outputs are the average lengths
//! of B3/B4 — the buffer-utilisation measure §2.1 calls "very
//! important" — which experiment F1 cross-checks against the
//! [`dms_analysis::prodcons`] Markov model.

use dms_core::graph::{ProcessGraph, ProcessId};
use dms_core::FiniteQueue;
use dms_sim::{Engine, EventQueue, Model, OnlineStats, SimRng, SimTime};

use crate::error::MediaError;

/// Builds the Fig. 1(b) process graph (for mapping experiments).
///
/// Returns the graph plus the ids of `(receive, vld, idct, mv, display)`.
///
/// # Examples
///
/// ```
/// let (graph, [_, vld, ..]) = dms_media::mpeg2::decoder_graph();
/// assert_eq!(graph.processes().count(), 5);
/// assert_eq!(graph.successors(vld).count(), 2); // B3 to IDCT, B4 to MV
/// ```
#[must_use]
pub fn decoder_graph() -> (ProcessGraph, [ProcessId; 5]) {
    let mut g = ProcessGraph::new("mpeg2-decoder");
    let receive = g.add_process("receive", 40);
    let vld = g.add_process("VLD", 120);
    let idct = g.add_process("IDCT", 300);
    let mv = g.add_process("MV", 180);
    let display = g.add_process("display", 60);
    // B2: network receive buffer; B3/B4: VLD→IDCT / VLD→MV; join at display.
    g.connect(receive, vld, 32, 188).expect("endpoints valid");
    g.connect(vld, idct, 16, 512).expect("endpoints valid");
    g.connect(vld, mv, 16, 128).expect("endpoints valid");
    g.connect(idct, display, 8, 1024).expect("endpoints valid");
    g.connect(mv, display, 8, 256).expect("endpoints valid");
    (g, [receive, vld, idct, mv, display])
}

/// Configuration of the decoder-pipeline simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderConfig {
    /// Mean ticks between packet arrivals (exponential interarrivals —
    /// network traffic into B2 is bursty).
    pub mean_arrival_interval: f64,
    /// Packets to feed through the pipeline.
    pub packet_count: u64,
    /// CPU ticks one VLD activation takes.
    pub vld_service: u64,
    /// CPU ticks one IDCT activation takes.
    pub idct_service: u64,
    /// CPU ticks one MV activation takes.
    pub mv_service: u64,
    /// Capacity of B2 (Rx), in packets.
    pub b2_capacity: usize,
    /// Capacity of B3 (VLD → IDCT), in tokens.
    pub b3_capacity: usize,
    /// Capacity of B4 (VLD → MV), in tokens.
    pub b4_capacity: usize,
    /// Blocks (macroblock rows) one packet decodes into: each VLD
    /// activation emits this many tokens into B3 and B4.
    pub blocks_per_packet: usize,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        DecoderConfig {
            mean_arrival_interval: 700.0,
            packet_count: 10_000,
            vld_service: 120,
            idct_service: 75,
            mv_service: 45,
            b2_capacity: 32,
            b3_capacity: 16,
            b4_capacity: 16,
            blocks_per_packet: 4,
        }
    }
}

impl DecoderConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::InvalidParameter`] for non-positive
    /// intervals, counts, service times or capacities.
    pub fn validate(&self) -> Result<(), MediaError> {
        if !(self.mean_arrival_interval.is_finite() && self.mean_arrival_interval > 0.0) {
            return Err(MediaError::InvalidParameter("mean_arrival_interval"));
        }
        if self.packet_count == 0 {
            return Err(MediaError::InvalidParameter("packet_count"));
        }
        if self.vld_service == 0 || self.idct_service == 0 || self.mv_service == 0 {
            return Err(MediaError::InvalidParameter("service time"));
        }
        if self.b2_capacity == 0 || self.b3_capacity == 0 || self.b4_capacity == 0 {
            return Err(MediaError::InvalidParameter("buffer capacity"));
        }
        if self.blocks_per_packet == 0 {
            return Err(MediaError::InvalidParameter("blocks_per_packet"));
        }
        Ok(())
    }
}

/// Measured outcome of a decoder-pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderPipelineReport {
    /// Frames fully displayed (both IDCT and MV halves done).
    pub displayed: u64,
    /// Packets dropped at a full B2.
    pub dropped_b2: u64,
    /// Tokens dropped at a full B3.
    pub dropped_b3: u64,
    /// Tokens dropped at a full B4.
    pub dropped_b4: u64,
    /// Time-averaged B2 occupancy.
    pub b2_avg: f64,
    /// Time-averaged B3 occupancy — the §2.1 utilisation measure.
    pub b3_avg: f64,
    /// Time-averaged B4 occupancy.
    pub b4_avg: f64,
    /// Peak B3 occupancy.
    pub b3_peak: f64,
    /// Mean packet latency (arrival → both halves decoded) in ticks.
    pub mean_latency_ticks: f64,
    /// Fraction of time the CPU was busy.
    pub cpu_utilization: f64,
    /// Simulated duration in ticks.
    pub duration_ticks: u64,
}

/// Which decoder process an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Vld,
    Idct,
    Mv,
}

/// A work token flowing through the decoder buffers.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    created: SimTime,
}

/// Events driving the simulation (public because it is the model's
/// [`Model::Event`] type; construct simulations via the `run` helpers).
#[derive(Debug)]
pub enum DecoderEvent {
    Arrival(u64),
    ServiceDone(Stage, Token),
}

/// The mapped single-CPU MPEG-2 decoder pipeline as a DES model.
#[derive(Debug)]
pub struct DecoderPipelineSim {
    config: DecoderConfig,
    rng: SimRng,
    b2: FiniteQueue<Token>,
    b3: FiniteQueue<Token>,
    b4: FiniteQueue<Token>,
    cpu_busy: bool,
    busy_ticks: u64,
    rr_next: usize,
    idct_done: u64,
    mv_done: u64,
    dropped_b2: u64,
    dropped_b3: u64,
    dropped_b4: u64,
    latency: OnlineStats,
}

impl DecoderPipelineSim {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Propagates [`DecoderConfig::validate`] failures.
    pub fn new(config: DecoderConfig, seed: u64) -> Result<Self, MediaError> {
        config.validate()?;
        Ok(DecoderPipelineSim {
            config,
            rng: SimRng::new(seed).substream("mpeg2-arrivals", 0),
            b2: FiniteQueue::new(config.b2_capacity),
            b3: FiniteQueue::new(config.b3_capacity),
            b4: FiniteQueue::new(config.b4_capacity),
            cpu_busy: false,
            busy_ticks: 0,
            rr_next: 0,
            idct_done: 0,
            mv_done: 0,
            dropped_b2: 0,
            dropped_b3: 0,
            dropped_b4: 0,
            latency: OnlineStats::new(),
        })
    }

    /// Runs the pipeline to completion and reports.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn run(config: DecoderConfig, seed: u64) -> Result<DecoderPipelineReport, MediaError> {
        let model = DecoderPipelineSim::new(config, seed)?;
        let mut engine = Engine::new(model);
        engine
            .queue_mut()
            .schedule(SimTime::ZERO, DecoderEvent::Arrival(0));
        engine.run_to_completion();
        let now = engine.now();
        let m = engine.into_model();
        let blocks = config.blocks_per_packet as u64;
        Ok(DecoderPipelineReport {
            displayed: m.idct_done.min(m.mv_done) / blocks,
            dropped_b2: m.dropped_b2,
            dropped_b3: m.dropped_b3,
            dropped_b4: m.dropped_b4,
            b2_avg: m.b2.average_occupancy(now),
            b3_avg: m.b3.average_occupancy(now),
            b4_avg: m.b4.average_occupancy(now),
            b3_peak: m.b3.peak_occupancy(),
            mean_latency_ticks: m.latency.mean(),
            cpu_utilization: if now.ticks() == 0 {
                0.0
            } else {
                m.busy_ticks as f64 / now.ticks() as f64
            },
            duration_ticks: now.ticks(),
        })
    }

    /// The scheduler process of §2.1: pick the next ready stage in
    /// round-robin order among VLD, IDCT and MV and start it.
    fn dispatch(&mut self, now: SimTime, q: &mut EventQueue<DecoderEvent>) {
        if self.cpu_busy {
            return;
        }
        const RR_ORDER: [Stage; 3] = [Stage::Vld, Stage::Idct, Stage::Mv];
        for k in 0..3 {
            let stage = RR_ORDER[(self.rr_next + k) % 3];
            let token = match stage {
                // Blocking-write semantics (§2.1 finite queues): VLD only
                // fires when B3 and B4 can absorb a whole packet's blocks.
                Stage::Vld => {
                    let room = self.config.blocks_per_packet;
                    if self.b3.capacity() - self.b3.len() >= room
                        && self.b4.capacity() - self.b4.len() >= room
                    {
                        self.b2.pop(now)
                    } else {
                        None
                    }
                }
                Stage::Idct => self.b3.pop(now),
                Stage::Mv => self.b4.pop(now),
            };
            if let Some(token) = token {
                self.rr_next = (self.rr_next + k + 1) % 3;
                let service = match stage {
                    Stage::Vld => self.config.vld_service,
                    Stage::Idct => self.config.idct_service,
                    Stage::Mv => self.config.mv_service,
                };
                self.cpu_busy = true;
                self.busy_ticks += service;
                q.schedule(
                    now + SimTime::from_ticks(service),
                    DecoderEvent::ServiceDone(stage, token),
                );
                return;
            }
        }
    }
}

impl Model for DecoderPipelineSim {
    type Event = DecoderEvent;

    fn handle(&mut self, now: SimTime, event: DecoderEvent, q: &mut EventQueue<DecoderEvent>) {
        match event {
            DecoderEvent::Arrival(i) => {
                if self.b2.push(now, Token { created: now }).is_err() {
                    self.dropped_b2 += 1;
                }
                if i + 1 < self.config.packet_count {
                    let gap = self.rng.exponential(self.config.mean_arrival_interval);
                    q.schedule(
                        now + SimTime::from_secs_f64(gap * 1e-9).max(SimTime::from_ticks(1)),
                        DecoderEvent::Arrival(i + 1),
                    );
                }
                self.dispatch(now, q);
            }
            DecoderEvent::ServiceDone(stage, token) => {
                self.cpu_busy = false;
                match stage {
                    Stage::Vld => {
                        // VLD fans out: each packet yields several blocks of
                        // coefficients (B3, to IDCT) and motion vectors
                        // (B4, to MV).
                        for _ in 0..self.config.blocks_per_packet {
                            if self.b3.push(now, token).is_err() {
                                self.dropped_b3 += 1;
                            }
                            if self.b4.push(now, token).is_err() {
                                self.dropped_b4 += 1;
                            }
                        }
                    }
                    Stage::Idct => {
                        self.idct_done += 1;
                        self.latency
                            .record(now.saturating_since(token.created) as f64);
                    }
                    Stage::Mv => {
                        self.mv_done += 1;
                    }
                }
                self.dispatch(now, q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_matches_figure() {
        let (g, [receive, vld, idct, mv, display]) = decoder_graph();
        assert_eq!(g.channel_count(), 5);
        assert_eq!(g.sources(), vec![receive]);
        assert_eq!(g.sinks(), vec![display]);
        assert_eq!(g.successors(vld).count(), 2);
        assert_eq!(g.predecessors(display).count(), 2);
        assert_eq!(g.predecessors(idct).count(), 1);
        assert_eq!(g.predecessors(mv).count(), 1);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = DecoderConfig::default();
        c.mean_arrival_interval = 0.0;
        assert!(DecoderPipelineSim::run(c, 1).is_err());
        let mut c = DecoderConfig::default();
        c.idct_service = 0;
        assert!(DecoderPipelineSim::run(c, 1).is_err());
        let mut c = DecoderConfig::default();
        c.b3_capacity = 0;
        assert!(DecoderPipelineSim::run(c, 1).is_err());
    }

    #[test]
    fn underloaded_pipeline_displays_everything() {
        let mut c = DecoderConfig::default();
        c.packet_count = 2000;
        // Total service 120 + 4×75 + 4×45 = 600 ticks per packet vs
        // 700-tick mean arrivals: utilisation ≈ 0.86, stable.
        let r = DecoderPipelineSim::run(c, 7).expect("valid");
        assert_eq!(r.displayed, 2000);
        assert_eq!(r.dropped_b2 + r.dropped_b3 + r.dropped_b4, 0);
        assert!(r.cpu_utilization > 0.5 && r.cpu_utilization < 1.0);
    }

    #[test]
    fn overloaded_pipeline_drops_at_b2() {
        let mut c = DecoderConfig::default();
        c.mean_arrival_interval = 300.0; // offered load ≈ 2×
        c.packet_count = 5000;
        let r = DecoderPipelineSim::run(c, 8).expect("valid");
        assert!(r.dropped_b2 > 0, "B2 should overflow under 2× load");
        assert!(r.displayed < 5000);
        assert!(r.cpu_utilization > 0.95);
    }

    #[test]
    fn buffer_occupancy_grows_with_load() {
        let mut light = DecoderConfig::default();
        light.mean_arrival_interval = 2000.0;
        light.packet_count = 3000;
        let mut heavy = light;
        heavy.mean_arrival_interval = 650.0;
        let rl = DecoderPipelineSim::run(light, 9).expect("valid");
        let rh = DecoderPipelineSim::run(heavy, 9).expect("valid");
        assert!(
            rh.b2_avg > rl.b2_avg,
            "B2: heavy {} vs light {}",
            rh.b2_avg,
            rl.b2_avg
        );
        assert!(rh.mean_latency_ticks > rl.mean_latency_ticks);
    }

    #[test]
    fn idct_and_mv_complete_in_lockstep() {
        let mut c = DecoderConfig::default();
        c.packet_count = 500;
        let r = DecoderPipelineSim::run(c, 10).expect("valid");
        // Every VLD output enters both B3 and B4 and nothing is dropped,
        // so both halves finish for every packet.
        assert_eq!(r.displayed, 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let c = DecoderConfig::default();
        let a = DecoderPipelineSim::run(c, 3).expect("valid");
        let b = DecoderPipelineSim::run(c, 3).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn b3_average_tracks_analytical_producer_consumer() {
        use dms_analysis::ProducerConsumerChain;
        // In the pipeline, B3 is produced into by VLD and drained by IDCT.
        // With round-robin service the per-"cycle" produce/consume odds are
        // roughly equal; the analytical chain with p ≈ q predicts a mid-level
        // average. We only check qualitative agreement: the simulated
        // average stays well inside (0, capacity) for a balanced pipeline.
        let mut c = DecoderConfig::default();
        c.packet_count = 20_000;
        let r = DecoderPipelineSim::run(c, 11).expect("valid");
        let chain = ProducerConsumerChain::new(0.5, 0.5, c.b3_capacity).expect("valid");
        let perf = chain.performance().expect("converges");
        assert!(
            r.b3_avg > 0.0 && r.b3_avg < c.b3_capacity as f64,
            "b3_avg = {}",
            r.b3_avg
        );
        // Both see a non-degenerate buffer: neither pinned empty nor full.
        assert!(perf.mean_occupancy > 0.0 && perf.mean_occupancy < c.b3_capacity as f64);
    }
}
