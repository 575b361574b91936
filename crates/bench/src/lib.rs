//! # dms-bench — experiment reproductions
//!
//! One function per quantitative claim or figure of the paper (see
//! `DESIGN.md` for the experiment index). Each returns an
//! [`Experiment`] of paper-vs-measured rows; [`EXPERIMENTS`] lists them
//! by id for [`all_experiments`], the `experiments` binary and
//! `bench_smoke`, which times each one and the [`micro`] kernels.
//!
//! The server sweeps E12–E17 are each one [`Sweep`]: a grid of seeded
//! points that [`run_sweep`] runs once each on the [`ParRunner`]. The
//! same outcomes yield the experiment's rows and its run-log
//! ([`Experiment::log`]), so writing run-logs re-runs nothing.
//!
//! Seeds are fixed so every number here is reproducible bit-for-bit.

pub mod micro;
pub mod net;

use dms_ambient::smartspace::SmartSpace;
use dms_ambient::user::UserBehaviorModel;
use dms_analysis::{
    aggregate_variance_hurst, FractionalGaussianNoise, PoissonArrivals, ProducerConsumerChain,
};
use dms_asip::flow::{DesignFlow, FlowConstraints};
use dms_asip::workloads;
use dms_cluster::{
    aggregate_utility, AdaptiveConfig, AdaptiveControl, AdaptiveSim, ArmSelection, AutoscaleConfig,
    BalancerPolicy, ClusterConfig, ClusterReport, ClusterSim,
};
use dms_manet::lifetime::{run_lifetime, LifetimeConfig};
use dms_manet::routing::Protocol;
use dms_media::fgs::FgsEncoder;
use dms_media::image::ImageModel;
use dms_media::mpeg2::{DecoderConfig, DecoderPipelineSim};
use dms_media::trace_gen::VideoTraceGenerator;
use dms_noc::mapping::{CoreGraph, Mapper};
use dms_noc::queueing::SlottedQueueSim;
use dms_noc::sched::{random_task_graph, EdfScheduler, EnergyAwareScheduler, SchedPlatform};
use dms_noc::sim::{NocConfig, NocSim};
use dms_noc::topology::{Mesh2d, TileId};
use dms_noc::traffic::InjectionProcess;
use dms_serve::{
    corruption_burst, rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, DegradeConfig,
    FaultReport, PiConfig, RecoveryConfig, ReferenceServerSim, ServeMetricsSink, ServerConfig,
    ServerReport, ServerSim, SessionTemplate, Workload,
};
use dms_sim::{
    FaultPlan, FaultSpec, Metric, MetricsRegistry, ParRunner, RunLog, RunRecord, SimRng,
};
use dms_wireless::channel::FadingChannel;
use dms_wireless::fgs::{FgsStreamer, StreamingPolicy};
use dms_wireless::jscc::JsccOptimizer;
use dms_wireless::transceiver::{compare_over_trace, AdaptivePolicy, Transceiver};

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// What the paper reports (or implies).
    pub paper: String,
    /// What this reproduction measures.
    pub measured: String,
}

impl Row {
    fn new(
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> Self {
        Row {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
        }
    }
}

/// One reproduced experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment id from DESIGN.md (F1, E1, …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The comparison rows.
    pub rows: Vec<Row>,
    /// What the experiment's runs recorded: a sweep's metadata,
    /// per-point metrics and records; empty for single-shot
    /// experiments. [`run_log_for`] appends the rows.
    pub log: RunLog,
}

/// One explore-and-evaluate loop of the paper's design flow (Fig. 2):
/// a grid of independent, fully seeded points. [`run_sweep`] runs each
/// point once; its outcome feeds both the paper-vs-measured rows and
/// the run-log.
pub trait Sweep: Sized {
    /// One grid point.
    type Point: Sync;
    /// What running one point yields.
    type Outcome: Send;
    /// Experiment id from DESIGN.md.
    const ID: &'static str;
    /// Human-readable title.
    const TITLE: &'static str;

    /// The grid, in run-log order.
    fn points() -> Vec<Self::Point>;
    /// Runs one point. Seeds depend only on the point.
    fn run(point: &Self::Point) -> Self::Outcome;
    /// Run-log metadata of the sweep.
    fn meta() -> Vec<(&'static str, String)>;
    /// Records one point's metrics, on the worker that ran it.
    fn export(point: &Self::Point, outcome: &Self::Outcome, registry: &mut MetricsRegistry);
    /// One point's run-log record.
    fn record(point: &Self::Point, outcome: &Self::Outcome) -> RunRecord;
    /// The paper-vs-measured rows, read off the finished grid.
    fn rows(grid: &Grid<Self>) -> Vec<Row>;
    /// Appends sweep-level records after the per-point ones.
    fn finish(_grid: &Grid<Self>, _log: &mut RunLog) {}
}

/// A finished sweep: every point with its outcome, in grid order.
pub struct Grid<S: Sweep> {
    points: Vec<S::Point>,
    outcomes: Vec<S::Outcome>,
}

impl<S: Sweep> Grid<S> {
    /// The outcome of the first point matching `pred`.
    ///
    /// # Panics
    ///
    /// If no point matches: rows only read points on the grid.
    pub fn find(&self, pred: impl Fn(&S::Point) -> bool) -> &S::Outcome {
        let i = self
            .points
            .iter()
            .position(pred)
            .expect("point is on the grid");
        &self.outcomes[i]
    }
}

/// Runs sweep `S` and assembles its experiment. Every point runs once,
/// fanned out on the [`ParRunner`], and exports its metrics on the
/// worker that ran it. Registries merge and records push in grid
/// order, so rows and run-log are byte-identical at any `DMS_THREADS`.
#[must_use]
pub fn run_sweep<S: Sweep>() -> Experiment {
    let points = S::points();
    let results = ParRunner::new().map(&points, |point| {
        let outcome = S::run(point);
        let mut registry = MetricsRegistry::new();
        S::export(point, &outcome, &mut registry);
        (outcome, registry)
    });
    let mut log = RunLog::new();
    for (key, value) in S::meta() {
        log.set_meta(key, value);
    }
    let mut outcomes = Vec::with_capacity(points.len());
    for (point, (outcome, registry)) in points.iter().zip(results) {
        log.registry_mut().merge(&registry);
        log.push(S::record(point, &outcome));
        outcomes.push(outcome);
    }
    let grid = Grid { points, outcomes };
    S::finish(&grid, &mut log);
    Experiment {
        id: S::ID,
        title: S::TITLE,
        rows: S::rows(&grid),
        log,
    }
}

/// The run-log of one experiment: the log its runs recorded, with its
/// id and title as metadata and its rows appended as typed records.
#[must_use]
pub fn run_log_for(exp: &Experiment) -> RunLog {
    let mut log = exp.log.clone();
    log.set_meta("experiment", exp.id);
    log.set_meta("title", exp.title);
    for row in &exp.rows {
        log.push(
            RunRecord::new("row")
                .with("metric", row.metric.as_str())
                .with("paper", row.paper.as_str())
                .with("measured", row.measured.as_str()),
        );
    }
    log
}

/// F1 — the Fig. 1 decoder pipeline: buffer utilisation and stability.
#[must_use]
pub fn fig1_stream() -> Experiment {
    let mut cfg = DecoderConfig::default();
    cfg.packet_count = 20_000;
    let r = DecoderPipelineSim::run(cfg, 11).expect("valid config");
    Experiment {
        id: "F1",
        title: "Fig.1(b) MPEG-2 decoder pipeline: B2-B4 buffer utilisation",
        rows: vec![
            Row::new(
                "B3 average occupancy (tokens)",
                "non-degenerate (\"very important\" §2.1)",
                format!("{:.2} of 16", r.b3_avg),
            ),
            Row::new(
                "B4 average occupancy (tokens)",
                "non-degenerate",
                format!("{:.2} of 16", r.b4_avg),
            ),
            Row::new(
                "frames displayed",
                "all (stable pipeline)",
                format!("{}/20000", r.displayed),
            ),
            Row::new(
                "CPU utilisation",
                "high but < 1",
                format!("{:.1}%", r.cpu_utilization * 100.0),
            ),
        ],
        log: RunLog::new(),
    }
}

/// F2 — the Fig. 2 design flow executed end to end.
#[must_use]
pub fn fig2_design_flow() -> Experiment {
    let (n, tones, templates) = (512, 8, 8);
    let program = workloads::voice_recognition(n, tones, templates).expect("valid dims");
    let memory = workloads::voice_test_memory(n, tones, templates, 1 << 16);
    let report = DesignFlow::new(FlowConstraints::default())
        .run_with_memory(&program, memory)
        .expect("flow runs");
    Experiment {
        id: "F2",
        title:
            "Fig.2 extensible-processor design flow (profile->identify->define->retarget->verify)",
        rows: vec![
            Row::new(
                "flow completes",
                "yes (iterated to constraints)",
                format!("yes, {} iteration(s)", report.iterations),
            ),
            Row::new(
                "retargeted semantics",
                "must match base core",
                if report.verified {
                    "bit-identical".into()
                } else {
                    "MISMATCH".to_string()
                },
            ),
            Row::new(
                "adopted extensions",
                "designer-defined set",
                format!("{:?}", report.adopted),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E1 — voice recognition: 5–10× at <10 instructions, <200k gates.
#[must_use]
pub fn e1_asip_speedup() -> Experiment {
    let (n, tones, templates) = (512, 8, 8);
    let program = workloads::voice_recognition(n, tones, templates).expect("valid dims");
    let memory = workloads::voice_test_memory(n, tones, templates, 1 << 16);
    let report = DesignFlow::new(FlowConstraints::default())
        .run_with_memory(&program, memory)
        .expect("flow runs");
    Experiment {
        id: "E1",
        title: "Voice-recognition ASIP customisation (§3.1)",
        rows: vec![
            Row::new("speed-up", "5x-10x", format!("{:.2}x", report.speedup)),
            Row::new(
                "custom instructions",
                "< 10",
                format!("{}", report.custom_instructions),
            ),
            Row::new(
                "total gate count",
                "< 200k",
                format!("{}", report.total_gates),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E2 — self-similar vs Markovian traffic through a router buffer.
#[must_use]
pub fn e2_traffic() -> Experiment {
    let mut rng = SimRng::new(97);
    let n = 30_000;
    let mean = 3.0;
    let poisson = PoissonArrivals::new(mean)
        .expect("valid")
        .generate(n, &mut rng);
    let fgn = FractionalGaussianNoise::new(0.85).expect("valid");
    let lrd = fgn.generate_counts(n, mean, 2.5, &mut rng);
    let h_poisson = aggregate_variance_hurst(&poisson).unwrap_or(f64::NAN);
    let h_lrd = aggregate_variance_hurst(&lrd).unwrap_or(f64::NAN);
    let queue = SlottedQueueSim::new(16, mean * 1.25).expect("valid");
    let rp = queue.run(&poisson);
    let rl = queue.run(&lrd);
    Experiment {
        id: "E2",
        title: "Self-similar vs Markovian traffic: queueing at a router buffer (§3.2)",
        rows: vec![
            Row::new(
                "Hurst (Poisson)",
                "~0.5 (short-range dependent)",
                format!("{h_poisson:.2}"),
            ),
            Row::new(
                "Hurst (fGn H=0.85)",
                "~0.85 (long-range dependent)",
                format!("{h_lrd:.2}"),
            ),
            Row::new(
                "loss rate at util 0.8, buffer 16",
                "drastically higher under LRD",
                format!(
                    "Poisson {:.4} vs LRD {:.4} ({:.0}x)",
                    rp.loss_rate(),
                    rl.loss_rate(),
                    rl.loss_rate() / rp.loss_rate().max(1e-9)
                ),
            ),
            Row::new(
                "buffer >90% full",
                "far more often under LRD",
                format!(
                    "{:.2}% vs {:.2}% of slots",
                    rp.high_watermark_fraction * 100.0,
                    rl.high_watermark_fraction * 100.0
                ),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E3 — energy-aware NoC mapping vs ad-hoc/random baselines.
#[must_use]
pub fn e3_noc_mapping() -> Experiment {
    let graph = CoreGraph::vopd();
    let mesh = Mesh2d::new(4, 4).expect("valid");
    let mapper = Mapper::new(&graph, &mesh).expect("fits");
    let adhoc = mapper.energy(&mapper.ad_hoc()).expect("valid");
    let random_avg: f64 = (0..10)
        .map(|s| mapper.energy(&mapper.random(s)).expect("valid"))
        .sum::<f64>()
        / 10.0;
    let sa = mapper
        .energy(&mapper.simulated_annealing_restarts(7, 4))
        .expect("valid");
    Experiment {
        id: "E3",
        title: "Energy-aware mapping of a video/audio app onto a 4x4 NoC (§3.3, [20])",
        rows: vec![
            Row::new(
                "saving vs communication-oblivious mapping",
                "> 50%",
                format!("{:.1}% vs random-average", (1.0 - sa / random_avg) * 100.0),
            ),
            Row::new(
                "saving vs identity placement",
                "(identity is accidentally pipeline-friendly)",
                format!("{:.1}%", (1.0 - sa / adhoc) * 100.0),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E4 — packet-size exploration.
#[must_use]
pub fn e4_packet_size() -> Experiment {
    let mut rows = Vec::new();
    let mut best: Option<(u64, f64)> = None;
    let mut small_latency = 0.0;
    let mut large_latency = 0.0;
    for payload in [8u64, 64, 512] {
        let mut cfg = NocConfig::mesh4x4();
        cfg.payload_bytes = payload;
        cfg.injection = InjectionProcess::Bernoulli {
            p: 0.64 / payload as f64,
        };
        cfg.inject_cycles = 15_000;
        cfg.drain_cycles = 15_000;
        let r = NocSim::run(cfg, 7).expect("valid");
        if payload == 8 {
            small_latency = r.mean_latency_cycles;
        }
        if payload == 512 {
            large_latency = r.mean_latency_cycles;
        }
        if best.is_none_or(|(_, e)| r.energy_per_byte_pj < e) {
            best = Some((payload, r.energy_per_byte_pj));
        }
        rows.push(Row::new(
            format!("{payload} B packets: energy/byte, latency"),
            "large packets amortise headers but block links",
            format!(
                "{:.2} pJ/B, {:.1} cycles",
                r.energy_per_byte_pj, r.mean_latency_cycles
            ),
        ));
    }
    rows.push(Row::new(
        "trade-off direction",
        "energy favours large, latency favours small",
        format!(
            "energy/byte min at {} B; latency grows {:.1}x from 8 B to 512 B",
            best.expect("swept").0,
            large_latency / small_latency
        ),
    ));
    Experiment {
        id: "E4",
        title: "Packet-size exploration on the NoC (§3.3, [21][22])",
        rows,
        log: RunLog::new(),
    }
}

/// E5 — energy-aware scheduling vs EDF.
#[must_use]
pub fn e5_scheduling() -> Experiment {
    let platform = SchedPlatform::default();
    let mesh = Mesh2d::new(4, 4).expect("valid");
    let mut rows = Vec::new();
    let seeds = [11u64, 12, 13, 14, 15];
    for slack in [1.5f64, 2.0, 3.0] {
        // Replications are independent seeded runs — fan them out;
        // results come back in seed order, so the averages are the same
        // numbers the sequential loop produced.
        let reps = ParRunner::new().map(&seeds, |&seed| {
            let mut rng = SimRng::new(seed);
            let graph = random_task_graph(40, slack, &platform, &mut rng);
            let placement: Vec<TileId> = (0..40).map(|i| TileId(i % 16)).collect();
            let edf = EdfScheduler
                .schedule(&graph, &mesh, &placement, &platform)
                .expect("valid");
            let eas = EnergyAwareScheduler
                .schedule(&graph, &mesh, &placement, &platform)
                .expect("valid");
            (
                1.0 - eas.energy_j / edf.energy_j,
                eas.missed_deadlines.saturating_sub(edf.missed_deadlines),
            )
        });
        let extra_misses: usize = reps.iter().map(|&(_, m)| m).sum();
        let avg = reps.iter().map(|&(s, _)| s).sum::<f64>() / reps.len() as f64;
        rows.push(Row::new(
            format!("energy saving at deadline slack {slack}x"),
            "> 40% on average for multimedia task sets",
            format!(
                "{:.1}% (misses introduced vs EDF: {extra_misses})",
                avg * 100.0
            ),
        ));
    }
    Experiment {
        id: "E5",
        title: "Energy-aware comm+task scheduling vs EDF (§3.3, [23])",
        rows,
        log: RunLog::new(),
    }
}

/// E6 — dynamic modulation/power scaling.
#[must_use]
pub fn e6_modulation() -> Experiment {
    let radio = Transceiver::default_radio().expect("preset valid");
    let policy = AdaptivePolicy::new(1e-5).expect("valid");
    let channel = FadingChannel::indoor().expect("preset valid");
    let trace = channel.snr_trace_db(20_000, &mut SimRng::new(11));
    let r = compare_over_trace(&radio, &policy, &trace, 10_000);
    Experiment {
        id: "E6",
        title: "Dynamic modulation/power scaling over a fading channel (§4, [26])",
        rows: vec![
            Row::new(
                "transceiver energy reduction",
                "~12% average",
                format!("{:.1}%", r.saving() * 100.0),
            ),
            Row::new(
                "performance penalty",
                "none appreciable",
                format!("{} best-effort slots of {}", r.adaptive_outages, r.slots),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E7 — joint source-channel image transmission.
#[must_use]
pub fn e7_image_tx() -> Experiment {
    let image = ImageModel::new(256, 256, 2500.0).expect("valid");
    let radio = Transceiver::default_radio().expect("preset valid");
    let optimizer = JsccOptimizer::new(image, radio, 32.0).expect("valid target");
    let channel = FadingChannel::new(22.0, 3.0, 0.9).expect("valid");
    let trace = channel.snr_trace_db(200, &mut SimRng::new(13));
    let r = optimizer.compare_over_trace(&trace);
    Experiment {
        id: "E7",
        title: "Joint source-channel image transmission vs worst-case design (§4, [27])",
        rows: vec![
            Row::new(
                "average energy saving",
                "~60% across channel conditions",
                format!("{:.1}%", r.saving() * 100.0),
            ),
            Row::new(
                "quality misses",
                "target PSNR always met",
                format!("{} infeasible states of {}", r.infeasible_states, r.states),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E8 — energy-aware MPEG-4 FGS streaming.
#[must_use]
pub fn e8_fgs_streaming() -> Experiment {
    let generator = VideoTraceGenerator::cif_mpeg2().expect("preset valid");
    let encoder = FgsEncoder::streaming_default().expect("preset valid");
    let frames = encoder.encode(&generator, 1_000, &mut SimRng::new(21));
    let streamer = FgsStreamer::xscale_client().expect("preset valid");
    let full = streamer.stream(&frames, StreamingPolicy::FullRate);
    let smart = streamer.stream(&frames, StreamingPolicy::ClientFeedback);
    Experiment {
        id: "E8",
        title: "Energy-aware MPEG-4 FGS streaming with client feedback (§4.1, [28])",
        rows: vec![
            Row::new(
                "client communication-energy reduction",
                "~15% average",
                format!(
                    "{:.1}%",
                    (1.0 - smart.comm_energy_j / full.comm_energy_j) * 100.0
                ),
            ),
            Row::new(
                "video quality",
                "unchanged (normalised load at unity)",
                format!(
                    "{:.2} dB vs {:.2} dB PSNR",
                    smart.mean_psnr_db, full.mean_psnr_db
                ),
            ),
            Row::new(
                "normalised decoding load",
                "driven to 1",
                format!(
                    "{:.2} (vs {:.2} full-rate)",
                    smart.mean_normalized_load, full.mean_normalized_load
                ),
            ),
            Row::new(
                "client compute energy",
                "also reduced via DVFS",
                format!(
                    "{:.4} J vs {:.4} J",
                    smart.compute_energy_j, full.compute_energy_j
                ),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E9 — MANET energy-aware routing lifetime.
#[must_use]
pub fn e9_manet_routing() -> Experiment {
    let cfg = LifetimeConfig::reference();
    let seeds = [1u64, 2, 3];
    // All protocol × seed runs are independent; fan the 9 simulations
    // out at once and average per protocol from the ordered results.
    let jobs: Vec<(Protocol, u64)> = [
        Protocol::MinimumPower,
        Protocol::BatteryCost,
        Protocol::LifetimePrediction,
    ]
    .into_iter()
    .flat_map(|p| seeds.iter().map(move |&s| (p, s)))
    .collect();
    let rounds = ParRunner::new().map(&jobs, |&(p, s)| {
        run_lifetime(&cfg, p, s).expect("valid").lifetime_rounds as f64
    });
    let avg_of = |chunk: &[f64]| chunk.iter().sum::<f64>() / chunk.len() as f64;
    let mpr = avg_of(&rounds[0..3]);
    let bc = avg_of(&rounds[3..6]);
    let lpr = avg_of(&rounds[6..9]);
    Experiment {
        id: "E9",
        title: "Energy-aware MANET routing: network lifetime (§4.2, [30-32])",
        rows: vec![
            Row::new(
                "battery-cost routing vs min-power",
                "> 20% lifetime improvement",
                format!(
                    "{:+.1}% ({:.0} vs {:.0} rounds)",
                    (bc / mpr - 1.0) * 100.0,
                    bc,
                    mpr
                ),
            ),
            Row::new(
                "lifetime-prediction routing vs min-power",
                "> 20% lifetime improvement",
                format!(
                    "{:+.1}% ({:.0} vs {:.0} rounds)",
                    (lpr / mpr - 1.0) * 100.0,
                    lpr,
                    mpr
                ),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E10 — steady-state analysis vs simulation.
#[must_use]
pub fn e10_steady_state() -> Experiment {
    // Analytical producer–consumer chain vs a slotted simulation of the
    // same system.
    let (p, q, k) = (0.45, 0.5, 8);
    let chain = ProducerConsumerChain::new(p, q, k).expect("valid");
    let perf = chain.performance().expect("converges");
    // Simulate the same slotted system directly.
    let mut rng = SimRng::new(31);
    let mut occupancy = 0usize;
    let mut occ_sum = 0.0;
    let mut delivered = 0u64;
    let mut lost = 0u64;
    let slots = 2_000_000u64;
    for _ in 0..slots {
        // Exact slot semantics of the analytical chain: simultaneous
        // produce+consume passes the token through (state unchanged).
        let produced = rng.chance(p);
        let consumed = rng.chance(q);
        match (produced, consumed) {
            (true, true) => delivered += 1, // pass-through
            (true, false) => {
                if occupancy < k {
                    occupancy += 1;
                } else {
                    lost += 1;
                }
            }
            (false, true) => {
                if occupancy > 0 {
                    occupancy -= 1;
                    delivered += 1;
                }
            }
            (false, false) => {}
        }
        occ_sum += occupancy as f64;
    }
    let sim_occ = occ_sum / slots as f64;
    let sim_throughput = delivered as f64 / slots as f64;
    let sim_loss = lost as f64 / (delivered + lost).max(1) as f64;
    Experiment {
        id: "E10",
        title: "Steady-state analysis vs simulation of a producer-consumer buffer (§2.2)",
        rows: vec![
            Row::new(
                "mean occupancy",
                format!("analysis: {:.3}", perf.mean_occupancy),
                format!("simulation: {sim_occ:.3}"),
            ),
            Row::new(
                "throughput/slot",
                format!("analysis: {:.4}", perf.throughput),
                format!("simulation: {sim_throughput:.4}"),
            ),
            Row::new(
                "loss rate",
                format!("analysis: {:.4}", perf.loss_rate),
                format!("simulation: {sim_loss:.4}"),
            ),
        ],
        log: RunLog::new(),
    }
}

/// E11 — ambient multimedia under sensor failures.
#[must_use]
pub fn e11_ambient() -> Experiment {
    let space = SmartSpace::home_preset(0.05).expect("preset valid");
    let fresh = space.evaluate(0.0).expect("converges");
    let aged = space.evaluate(10.0).expect("converges");
    let old = space.evaluate(40.0).expect("converges");
    Experiment {
        id: "E11",
        title: "Ambient multimedia: stochastic user + failing sensors (§5, [33][34])",
        rows: vec![
            Row::new(
                "utility at deployment",
                "ceiling",
                format!(
                    "{:.3} ({:.0}% degradation)",
                    fresh.expected_utility,
                    fresh.degradation() * 100.0
                ),
            ),
            Row::new(
                "utility at t=10",
                "graceful degradation",
                format!(
                    "{:.3} ({:.0}% degradation)",
                    aged.expected_utility,
                    aged.degradation() * 100.0
                ),
            ),
            Row::new(
                "utility at t=40",
                "graceful degradation",
                format!(
                    "{:.3} ({:.0}% degradation)",
                    old.expected_utility,
                    old.degradation() * 100.0
                ),
            ),
        ],
        log: RunLog::new(),
    }
}

/// Server arm of one E12 sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E12Arm {
    /// Admit everything, never shed a layer: the collapse baseline.
    Uncontrolled,
    /// Admit everything but let the QoS controller shed FGS layers.
    DegradeOnly,
    /// Analytical admission control plus layer shedding.
    Controlled,
}

impl E12Arm {
    fn label(self) -> &'static str {
        match self {
            E12Arm::Uncontrolled => "uncontrolled",
            E12Arm::DegradeOnly => "degrade-only",
            E12Arm::Controlled => "controlled",
        }
    }
}

/// One `(arrival process, offered load, server arm)` point of the E12
/// sweep ([`E12ServerLoad`]). Each point is an independent seeded job,
/// which is how the sweep shards across the [`ParRunner`] (and how
/// `bench_smoke` times it point by point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E12Point {
    /// Offered load as a multiple of link capacity at full quality.
    pub load: f64,
    /// Self-similar (fGn, H = 0.85) rather than Poisson arrivals.
    pub self_similar: bool,
    /// Which server variant handles the workload.
    pub arm: E12Arm,
}

impl E12Point {
    /// Stable human-readable label (`poisson-1.2x-controlled`).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}-{:.1}x-{}",
            if self.self_similar {
                "selfsim"
            } else {
                "poisson"
            },
            self.load,
            self.arm.label()
        )
    }
}

/// Link capacity of the E12 server, in concurrent full-quality
/// sessions: 2 000 sessions saturate the link at offered load 1.0.
const E12_SESSIONS: u64 = 2_000;
/// Slots each E12 point simulates.
const E12_SLOTS: u64 = 700;
/// Mean session holding time used by E12 (shorter than the template
/// default so the sweep sees several session generations per run).
const E12_DURATION_SLOTS: f64 = 150.0;

/// Runs one E12 sweep point, with an optional per-slot metrics sink
/// attached to the server run. Seeds depend only on
/// `(process, load)`, so the three arms of a point see the *same*
/// arrival sequence and their comparison is paired, not statistical.
#[must_use]
pub fn e12_run_point_instrumented(
    point: E12Point,
    sink: Option<&mut ServeMetricsSink>,
) -> ServerReport {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = E12_DURATION_SLOTS;
    let capacity = CapacityModel {
        link_bits_per_slot: E12_SESSIONS * template.full_bits(),
        queue_frames: 64,
        occupancy_bound: 8.0,
    };
    let rate = rate_for_load(point.load, &template, capacity.link_bits_per_slot);
    let process = if point.self_similar {
        ArrivalProcess::SelfSimilar {
            rate,
            hurst: 0.85,
            burstiness: 1.0,
        }
    } else {
        ArrivalProcess::Poisson { rate }
    };
    let seed = 2004 + u64::from(point.self_similar) * 100 + (point.load * 10.0).round() as u64;
    let workload = Workload::generate(process, template, E12_SLOTS, seed).expect("valid workload");
    let (policy, degrade) = match point.arm {
        E12Arm::Uncontrolled => (AdmissionPolicy::AdmitAll, None),
        E12Arm::DegradeOnly => (AdmissionPolicy::AdmitAll, Some(DegradeConfig::default())),
        E12Arm::Controlled => (
            AdmissionPolicy::QueuePredictor,
            Some(DegradeConfig::default()),
        ),
    };
    let server = ServerSim::new(ServerConfig {
        capacity,
        policy,
        degrade,
        buffer_slots: 4,
        miss_slots: 2,
    })
    .expect("valid config");
    server
        .run_instrumented(&workload, sink)
        .expect("valid template")
}

/// E12 — the multi-session streaming server under offered-load sweep:
/// admission control bounds the deadline-miss rate where the
/// uncontrolled server collapses, and FGS layer shedding turns the
/// overload cliff into a graceful utility slope.
///
/// The run-log carries summary counters and gauges for all 30 points
/// and complete per-slot series for the 1.2× overload points (the ones
/// the headline claims are about — exporting all 30 would make the log
/// 5× larger for numbers nothing reads).
pub struct E12ServerLoad;

impl Sweep for E12ServerLoad {
    type Point = E12Point;
    type Outcome = (ServerReport, ServeMetricsSink);
    const ID: &'static str = "E12";
    const TITLE: &'static str =
        "Streaming server under load: admission control + FGS shedding (S2.2, S3.2, S4)";

    /// Offered loads 0.5–1.5× capacity, Poisson and self-similar
    /// arrivals, all three server arms.
    fn points() -> Vec<E12Point> {
        let mut points = Vec::new();
        for &self_similar in &[false, true] {
            for &load in &[0.5, 0.8, 1.0, 1.2, 1.5] {
                for &arm in &[
                    E12Arm::Uncontrolled,
                    E12Arm::DegradeOnly,
                    E12Arm::Controlled,
                ] {
                    points.push(E12Point {
                        load,
                        self_similar,
                        arm,
                    });
                }
            }
        }
        points
    }

    fn run(point: &E12Point) -> Self::Outcome {
        let mut sink = ServeMetricsSink::with_capacity(E12_SLOTS as usize);
        let report = e12_run_point_instrumented(*point, Some(&mut sink));
        (report, sink)
    }

    fn meta() -> Vec<(&'static str, String)> {
        vec![
            ("slots", E12_SLOTS.to_string()),
            ("capacity_sessions", E12_SESSIONS.to_string()),
        ]
    }

    fn export(point: &E12Point, (report, sink): &Self::Outcome, registry: &mut MetricsRegistry) {
        let scope = format!("e12/{}", point.label());
        {
            let mut s = registry.scoped(&scope);
            s.counter_add("offered", report.offered);
            s.counter_add("admitted", report.admitted);
            s.counter_add("rejected", report.rejected);
            s.counter_add("deadline_misses", report.deadline_misses);
            s.counter_add("delivered_bits", report.delivered_bits);
            s.counter_add("enqueued_bits", sink.enqueued_bits());
            s.gauge_set("miss_rate", report.miss_rate());
            s.gauge_set("mean_utility", report.mean_utility());
            s.gauge_set("mean_layers", report.mean_layers);
        }
        if (point.load - 1.2).abs() < 1e-9 {
            sink.export(registry, &format!("{scope}/series"));
        }
    }

    fn record(point: &E12Point, (report, _): &Self::Outcome) -> RunRecord {
        RunRecord::new("e12-point")
            .with("label", point.label())
            .with("load", point.load)
            .with("self_similar", point.self_similar)
            .with("miss_rate", report.miss_rate())
            .with("mean_utility", report.mean_utility())
            .with("rejection_rate", report.rejection_rate())
    }

    fn rows(grid: &Grid<Self>) -> Vec<Row> {
        let find = |load, ss, arm| {
            &grid
                .find(|p| (p.load, p.self_similar, p.arm) == (load, ss, arm))
                .0
        };
        let mut rows = Vec::new();
        for &ss in &[false, true] {
            let name = if ss { "self-similar" } else { "Poisson" };
            let unc = find(1.2, ss, E12Arm::Uncontrolled);
            let ctl = find(1.2, ss, E12Arm::Controlled);
            let base = find(0.8, ss, E12Arm::Controlled);
            let gap = if ctl.miss_rate() > 0.0 {
                format!("({:.0}x)", unc.miss_rate() / ctl.miss_rate())
            } else {
                "(controlled is miss-free)".to_string()
            };
            rows.push(Row::new(
                format!("{name}: miss rate at 1.2x, uncontrolled vs controlled"),
                "collapse vs bounded (> 5x apart)",
                format!(
                    "{:.1}% vs {:.2}% {gap}",
                    unc.miss_rate() * 100.0,
                    ctl.miss_rate() * 100.0,
                ),
            ));
            rows.push(Row::new(
                format!("{name}: controlled mean utility 0.8x -> 1.2x"),
                "within 25% of the under-load baseline",
                format!(
                    "{:.3} -> {:.3} ({:.0}% kept)",
                    base.mean_utility(),
                    ctl.mean_utility(),
                    ctl.mean_utility() / base.mean_utility() * 100.0
                ),
            ));
            let unc15 = find(1.5, ss, E12Arm::Uncontrolled);
            let shed15 = find(1.5, ss, E12Arm::DegradeOnly);
            rows.push(Row::new(
                format!("{name}: utility at 1.5x, cliff vs layer shedding"),
                "shedding degrades gracefully",
                format!(
                    "{:.3} (no shedding) vs {:.3} at {:.1} mean layers",
                    unc15.mean_utility(),
                    shed15.mean_utility(),
                    shed15.mean_layers
                ),
            ));
            rows.push(Row::new(
                format!("{name}: sessions rejected at 1.2x / 1.5x"),
                "grows with overload",
                format!(
                    "{:.0}% / {:.0}%",
                    find(1.2, ss, E12Arm::Controlled).rejection_rate() * 100.0,
                    find(1.5, ss, E12Arm::Controlled).rejection_rate() * 100.0
                ),
            ));
        }
        let p_unc = find(1.0, false, E12Arm::Uncontrolled);
        let s_unc = find(1.0, true, E12Arm::Uncontrolled);
        rows.push(Row::new(
            "1.0x uncontrolled miss rate, Poisson vs self-similar",
            "same mean load: LRD bursts hurt far more (S3.2)",
            format!(
                "{:.2}% vs {:.2}%",
                p_unc.miss_rate() * 100.0,
                s_unc.miss_rate() * 100.0
            ),
        ));
        let p_ctl = find(1.2, false, E12Arm::Controlled);
        let s_ctl = find(1.2, true, E12Arm::Controlled);
        rows.push(Row::new(
            "controlled 1.2x: predicted vs measured occupancy (frames)",
            "admitted set stays under the M/M/1/K bound",
            format!(
                "Poisson {:.1} vs {:.2}, self-similar {:.1} vs {:.2}",
                p_ctl.predicted_occupancy,
                p_ctl.measured_occupancy,
                s_ctl.predicted_occupancy,
                s_ctl.measured_occupancy
            ),
        ));
        rows
    }
}

/// Fault intensity of one E13 resilience point. Levels are cumulative:
/// each adds its faults on top of the previous level, so moving along
/// the sweep isolates the marginal damage of each fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E13Intensity {
    /// No faults: the paired control run.
    None,
    /// Transient link faults: a 60-slot fade to half capacity with a
    /// Gilbert–Elliott corruption burst over the same window.
    Transient,
    /// Plus two 6-slot server stalls (zero service).
    Stalls,
    /// Plus two correlated session-crash bursts (60% then 40% of the
    /// survivors).
    Crash,
}

impl E13Intensity {
    fn label(self) -> &'static str {
        match self {
            E13Intensity::None => "none",
            E13Intensity::Transient => "transient",
            E13Intensity::Stalls => "stalls",
            E13Intensity::Crash => "crash",
        }
    }

    fn rank(self) -> u8 {
        match self {
            E13Intensity::None => 0,
            E13Intensity::Transient => 1,
            E13Intensity::Stalls => 2,
            E13Intensity::Crash => 3,
        }
    }

    /// Declarative fault schedule of this level (empty for `None`).
    fn specs(self) -> Vec<FaultSpec> {
        let mut specs = Vec::new();
        if self.rank() >= 1 {
            specs.push(FaultSpec::LinkDegradation {
                start_slot: E13_FAULT_START,
                duration_slots: E13_FADE_SLOTS,
                factor: 0.5,
            });
            specs.push(
                corruption_burst(
                    &dms_media::ChannelModel::bursty_wireless(1),
                    E13_FAULT_START,
                    E13_FADE_SLOTS,
                )
                .expect("preset channel is valid"),
            );
        }
        if self.rank() >= 2 {
            for &start in &E13_STALL_STARTS {
                specs.push(FaultSpec::SlotStalls {
                    start_slot: start,
                    duration_slots: E13_STALL_SLOTS,
                });
            }
        }
        if self.rank() >= 3 {
            specs.push(FaultSpec::CrashBurst {
                slot: E13_CRASH_SLOT,
                fraction: 0.6,
            });
            specs.push(FaultSpec::CrashBurst {
                slot: E13_CRASH_SLOT + 6,
                fraction: 0.4,
            });
        }
        specs
    }

    /// Slot the last fault of this level has passed by — where the
    /// recovery clock starts.
    fn fault_end(self) -> u64 {
        match self {
            E13Intensity::None => E13_FAULT_START,
            E13Intensity::Transient => E13_FAULT_START + E13_FADE_SLOTS,
            E13Intensity::Stalls => E13_STALL_STARTS[1] + E13_STALL_SLOTS,
            E13Intensity::Crash => E13_CRASH_SLOT + 7,
        }
    }
}

/// One `(fault intensity, server arm)` point of the E13 resilience
/// sweep. All points share one 0.8-load Poisson workload and (per
/// intensity) one compiled fault plan, so every comparison is paired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E13Point {
    /// Which faults strike.
    pub intensity: E13Intensity,
    /// Which server variant absorbs them.
    pub arm: E12Arm,
}

impl E13Point {
    /// Stable human-readable label (`crash-controlled`).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}-{}", self.intensity.label(), self.arm.label())
    }
}

/// Slots each E13 point simulates. Long enough that the fault block
/// starts only after the session population has reached equilibrium
/// (mean duration 150 slots → three time constants of warm-up), so the
/// pre-fault window measures steady state, not the arrival ramp.
const E13_SLOTS: u64 = 900;
/// Offered load of the sweep. E13 probes *resilience*, not overload
/// (E12 owns the overload axis): below capacity every arm delivers
/// full utility in steady state, so any post-fault deficit is the
/// fault's doing — and losing sessions cannot masquerade as congestion
/// relief, which it does at load ≥ 1.
const E13_LOAD: f64 = 0.8;
/// One shared workload seed: every point serves the same arrivals.
const E13_WORKLOAD_SEED: u64 = 1304;
/// One shared plan seed: every arm of an intensity sees the same
/// compiled fault schedule.
const E13_PLAN_SEED: u64 = 1313;
/// First faulted slot (fade + corruption onset).
const E13_FAULT_START: u64 = 450;
/// Length of the fade/corruption window.
const E13_FADE_SLOTS: u64 = 60;
/// Onsets of the two server stalls (`Stalls` intensity and up).
const E13_STALL_STARTS: [u64; 2] = [536, 566];
/// Length of each stall: deliberately shorter than the recovery
/// policy's 8-miss timeout, so stalls exercise stall *detection* and
/// capacity re-estimation rather than mass session timeout.
const E13_STALL_SLOTS: u64 = 6;
/// Slot of the first crash burst.
const E13_CRASH_SLOT: u64 = 630;
/// Pre-fault utility window (steady state, before any fault).
const E13_PRE_WINDOW: (u64, u64) = (350, E13_FAULT_START);
/// Post-fault utility window: past the last fault plus the controlled
/// arm's full backoff horizon, so "recovered" means *stays* recovered.
const E13_POST_WINDOW: (u64, u64) = (670, E13_SLOTS);

/// Runs one E13 point, with an optional per-slot metrics sink
/// attached. The workload seed is shared by *all* points and the plan
/// seed by all arms of an intensity, so the sweep compares arms on
/// identical arrivals under identical fault schedules.
#[must_use]
pub fn e13_run_point_instrumented(
    point: E13Point,
    sink: Option<&mut ServeMetricsSink>,
) -> FaultReport {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = E12_DURATION_SLOTS;
    let capacity = CapacityModel {
        link_bits_per_slot: E12_SESSIONS * template.full_bits(),
        queue_frames: 64,
        occupancy_bound: 8.0,
    };
    let rate = rate_for_load(E13_LOAD, &template, capacity.link_bits_per_slot);
    let workload = Workload::generate(
        ArrivalProcess::Poisson { rate },
        template,
        E13_SLOTS,
        E13_WORKLOAD_SEED,
    )
    .expect("valid workload");
    let plan = FaultPlan::compile(&point.intensity.specs(), E13_SLOTS, E13_PLAN_SEED)
        .expect("grid specs are valid");
    let (policy, degrade, recovery) = match point.arm {
        E12Arm::Uncontrolled => (AdmissionPolicy::AdmitAll, None, None),
        E12Arm::DegradeOnly => (
            AdmissionPolicy::AdmitAll,
            Some(DegradeConfig::default()),
            None,
        ),
        E12Arm::Controlled => (
            AdmissionPolicy::QueuePredictor,
            Some(DegradeConfig::default()),
            Some(RecoveryConfig::default()),
        ),
    };
    let server = ServerSim::new(ServerConfig {
        capacity,
        policy,
        degrade,
        buffer_slots: 4,
        miss_slots: 2,
    })
    .expect("valid config");
    server
        .run_faulted(&workload, &plan, recovery.as_ref(), sink)
        .expect("valid template")
}

/// Mean of `series` over slot window `[from, to)`.
fn window_mean(series: &[f64], (from, to): (u64, u64)) -> f64 {
    let from = from as usize;
    let to = (to as usize).min(series.len());
    if to <= from {
        return 0.0;
    }
    series[from..to].iter().sum::<f64>() / (to - from) as f64
}

/// Delivered-utility recovery of one instrumented E13 run: post-fault
/// window mean over pre-fault window mean of the per-slot utility sum.
#[must_use]
pub fn e13_recovered_fraction(sink: &ServeMetricsSink) -> f64 {
    let pre = window_mean(sink.utility(), E13_PRE_WINDOW);
    if pre <= 0.0 {
        return 0.0;
    }
    window_mean(sink.utility(), E13_POST_WINDOW) / pre
}

/// Recovery time: slots after the intensity's last fault until the
/// trailing 20-slot mean of delivered utility first reaches 90% of its
/// pre-fault mean. `None` if the run never gets back inside the band.
#[must_use]
pub fn e13_recovery_slots(sink: &ServeMetricsSink, intensity: E13Intensity) -> Option<u64> {
    const SMOOTH: usize = 20;
    let series = sink.utility();
    let pre = window_mean(sink.utility(), E13_PRE_WINDOW);
    if pre <= 0.0 {
        return None;
    }
    let start = intensity.fault_end() as usize;
    for end in (start + SMOOTH)..=series.len() {
        let mean = series[end - SMOOTH..end].iter().sum::<f64>() / SMOOTH as f64;
        if mean >= 0.9 * pre {
            return Some(end as u64 - intensity.fault_end());
        }
    }
    None
}

/// E13 — the streaming server under a fault-intensity sweep: fault
/// injection (link fades, corruption bursts, stalls, crash bursts)
/// against the uncontrolled / degrade-only / controlled arms, measuring
/// delivered-utility recovery and recovery time.
///
/// The run-log carries per-point fault/recovery counters and recovery
/// gauges for all 12 points, plus complete per-slot series for the
/// crash-intensity points (the recovery-curve headline).
pub struct E13Resilience;

impl Sweep for E13Resilience {
    type Point = E13Point;
    type Outcome = (FaultReport, ServeMetricsSink);
    const ID: &'static str = "E13";
    const TITLE: &'static str =
        "Resilience: fault injection + recovery on the streaming server (S5, Fig. 1)";

    /// Four fault intensities, all three arms.
    fn points() -> Vec<E13Point> {
        let mut points = Vec::new();
        for &intensity in &[
            E13Intensity::None,
            E13Intensity::Transient,
            E13Intensity::Stalls,
            E13Intensity::Crash,
        ] {
            for &arm in &[
                E12Arm::Uncontrolled,
                E12Arm::DegradeOnly,
                E12Arm::Controlled,
            ] {
                points.push(E13Point { intensity, arm });
            }
        }
        points
    }

    fn run(point: &E13Point) -> Self::Outcome {
        let mut sink = ServeMetricsSink::with_capacity(E13_SLOTS as usize);
        let report = e13_run_point_instrumented(*point, Some(&mut sink));
        (report, sink)
    }

    fn meta() -> Vec<(&'static str, String)> {
        vec![
            ("slots", E13_SLOTS.to_string()),
            ("capacity_sessions", E12_SESSIONS.to_string()),
            (
                "backoff_horizon_slots",
                RecoveryConfig::default()
                    .backoff_horizon_slots()
                    .to_string(),
            ),
        ]
    }

    fn export(point: &E13Point, (report, sink): &Self::Outcome, registry: &mut MetricsRegistry) {
        let scope = format!("e13/{}", point.label());
        {
            let mut s = registry.scoped(&scope);
            s.counter_add("offered", report.base.offered);
            s.counter_add("admitted", report.base.admitted);
            s.counter_add("rejected", report.base.rejected);
            s.counter_add("deadline_misses", report.base.deadline_misses);
            s.counter_add("delivered_bits", report.base.delivered_bits);
            s.counter_add("enqueued_bits", sink.enqueued_bits());
            s.counter_add("crashed", report.crashed);
            s.counter_add("timed_out", report.timed_out);
            s.counter_add("retries", report.retries);
            s.counter_add("readmitted", report.readmitted);
            s.counter_add("retry_rejected", report.retry_rejected);
            s.counter_add("lost_to_fault_bits", report.lost_to_fault_bits);
            s.counter_add("stall_slots", report.stall_slots);
            s.counter_add("stalls_detected", report.stalls_detected);
            s.counter_add("capacity_reestimates", report.capacity_reestimates);
            s.counter_add("degraded_slots", report.degraded_slots);
            s.gauge_set("miss_rate", report.base.miss_rate());
            s.gauge_set("mean_utility", report.base.mean_utility());
            s.gauge_set("recovered_fraction", e13_recovered_fraction(sink));
        }
        if point.intensity == E13Intensity::Crash {
            sink.export(registry, &format!("{scope}/series"));
        }
    }

    fn record(point: &E13Point, (report, sink): &Self::Outcome) -> RunRecord {
        let record = RunRecord::new("e13-point")
            .with("label", point.label())
            .with("intensity", point.intensity.label())
            .with("arm", point.arm.label())
            .with("miss_rate", report.base.miss_rate())
            .with("mean_utility", report.base.mean_utility())
            .with("recovered_fraction", e13_recovered_fraction(sink))
            .with("crashed", report.crashed)
            .with("readmitted", report.readmitted)
            .with("lost_to_fault_bits", report.lost_to_fault_bits);
        match e13_recovery_slots(sink, point.intensity) {
            Some(slots) => record.with("recovery_slots", slots),
            None => record,
        }
    }

    fn rows(grid: &Grid<Self>) -> Vec<Row> {
        let find = |intensity, arm| grid.find(|p| *p == E13Point { intensity, arm });
        let mut rows = Vec::new();
        for &intensity in &[
            E13Intensity::Transient,
            E13Intensity::Stalls,
            E13Intensity::Crash,
        ] {
            let unc = find(intensity, E12Arm::Uncontrolled);
            let shed = find(intensity, E12Arm::DegradeOnly);
            let ctl = find(intensity, E12Arm::Controlled);
            rows.push(Row::new(
                format!(
                    "{}: recovered utility (uncontrolled / degrade-only / controlled)",
                    intensity.label()
                ),
                "controlled >= 80% of pre-fault",
                format!(
                    "{:.0}% / {:.0}% / {:.0}%",
                    e13_recovered_fraction(&unc.1) * 100.0,
                    e13_recovered_fraction(&shed.1) * 100.0,
                    e13_recovered_fraction(&ctl.1) * 100.0
                ),
            ));
        }
        let fmt_recovery = |r: &Self::Outcome| match e13_recovery_slots(&r.1, E13Intensity::Crash) {
            Some(slots) => format!("{slots}"),
            None => "never".to_string(),
        };
        let unc = find(E13Intensity::Crash, E12Arm::Uncontrolled);
        let shed = find(E13Intensity::Crash, E12Arm::DegradeOnly);
        let ctl = find(E13Intensity::Crash, E12Arm::Controlled);
        rows.push(Row::new(
            "crash: recovery time to 90% of pre-fault utility, slots",
            "retry+backoff recovers within the backoff horizon; no-retry waits for session turnover",
            format!(
                "{} / {} / {} (backoff horizon {})",
                fmt_recovery(unc),
                fmt_recovery(shed),
                fmt_recovery(ctl),
                RecoveryConfig::default().backoff_horizon_slots()
            ),
        ));
        rows.push(Row::new(
            "crash: victims retried / readmitted (controlled)",
            "crashed sessions come back instead of being lost",
            format!(
                "{} crashed, {} retries, {} readmitted",
                ctl.0.crashed, ctl.0.retries, ctl.0.readmitted
            ),
        ));
        let stalls_ctl = find(E13Intensity::Stalls, E12Arm::Controlled);
        rows.push(Row::new(
            "stalls: detected / capacity re-estimates (controlled)",
            "multiplexer flags stalls and admission re-plans",
            format!(
                "{} stall slots, {} episodes detected, {} re-estimates",
                stalls_ctl.0.stall_slots,
                stalls_ctl.0.stalls_detected,
                stalls_ctl.0.capacity_reestimates
            ),
        ));
        rows.push(Row::new(
            "crash: bits lost to faults (uncontrolled vs controlled)",
            "reservations released, nothing leaks",
            format!(
                "{} vs {} bits",
                unc.0.lost_to_fault_bits, ctl.0.lost_to_fault_bits
            ),
        ));
        rows
    }
}

/// One `(shard count, offered load, balancer, fault arm)` point of the
/// E14 scale-out sweep. Like [`E12Point`], each point is one fully
/// seeded job; unlike E12, a point is itself a whole cluster whose
/// shards fan out on the inner [`ParRunner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E14Point {
    /// Number of server replicas behind the balancer.
    pub shards: usize,
    /// Offered load as a multiple of *total fleet* capacity.
    pub load: f64,
    /// Routing policy at the front door.
    pub balancer: BalancerPolicy,
    /// Whether the last (smallest) shard crashes mid-run.
    pub crash: bool,
}

impl E14Point {
    /// Stable human-readable label (`n4-0.70x-jsq-crash`).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "n{}-{:.2}x-{}-{}",
            self.shards,
            self.load,
            self.balancer.label(),
            if self.crash { "crash" } else { "nominal" }
        )
    }
}

/// Fleet capacity per *weight unit*, in concurrent full-quality
/// sessions: a shard of weight `w` serves `w x 320` sessions, and an
/// `N`-shard fleet totals `N` units (weights sum to `N`).
const E14_SESSIONS_PER_UNIT: u64 = 320;
/// Slots each E14 point simulates.
const E14_SLOTS: u64 = 500;
/// Mean session holding time: several generations per run, and short
/// enough that the fleet drains mid-run churn quickly.
const E14_DURATION_SLOTS: f64 = 125.0;
/// Shard counts of the scale-out axis.
const E14_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Offered loads: comfortably admitted, and just past saturation —
/// where balancer choice decides whether the *small* shards overload.
const E14_LOADS: [f64; 2] = [0.7, 1.05];
/// Slot at which the crash arm's victim shard dies.
const E14_CRASH_SLOT: u64 = 250;
/// Pre-crash utility window (the fleet is warm well before the crash).
const E14_PRE_WINDOW: (u64, u64) = (150, E14_CRASH_SLOT);
/// Post-crash window: past the re-offer backoff and readmission churn.
const E14_POST_WINDOW: (u64, u64) = (300, E14_SLOTS);
/// Base seed of the per-`(shards, load)` workloads.
const E14_WORKLOAD_SEED: u64 = 1404;
/// Seed of the balancer's power-of-two-choices candidate stream.
const E14_P2C_SEED: u64 = 1409;

/// Capacity weights of an `N`-shard fleet: a single shard takes the
/// whole unit; larger fleets alternate big (1.5) and small (0.5)
/// shards. The skew is the point — an oblivious balancer spreads
/// sessions evenly and drowns the small shards while the big ones
/// idle.
#[must_use]
pub fn e14_shard_weights(shards: usize) -> Vec<f64> {
    if shards == 1 {
        vec![1.0]
    } else {
        (0..shards)
            .map(|i| if i % 2 == 0 { 1.5 } else { 0.5 })
            .collect()
    }
}

fn e14_template() -> SessionTemplate {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = E14_DURATION_SLOTS;
    template
}

/// Builds the cluster of one E14 point: *bare* admit-all shards behind
/// the point's balancer — no in-shard admission and no layer shedding,
/// so the front door's mirror predictors are the fleet's only
/// protection. That isolates the balancer as the experiment's single
/// knob: an oblivious front drives the small shards over the backlog
/// cliff, a predictor-guided front sheds the excess instead.
fn e14_cluster(point: E14Point, template: &SessionTemplate) -> ClusterSim {
    let shards = e14_shard_weights(point.shards)
        .iter()
        .map(|w| ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: (w * E14_SESSIONS_PER_UNIT as f64).round() as u64
                    * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::AdmitAll,
            degrade: None,
            buffer_slots: 4,
            miss_slots: 2,
        })
        .collect();
    ClusterSim::new(ClusterConfig {
        shards,
        balancer: point.balancer,
        recovery: RecoveryConfig::default(),
        seed: E14_P2C_SEED,
    })
    .expect("valid config")
}

/// The crash arm's death list: the last shard — one of the *small*
/// ones in every skewed fleet — dies at [`E14_CRASH_SLOT`], where the
/// balancer routes around it and the shard crashes everything it
/// holds.
fn e14_deaths(point: E14Point) -> Vec<Option<u64>> {
    if !point.crash {
        return Vec::new();
    }
    (0..point.shards)
        .map(|i| (i == point.shards - 1).then_some(E14_CRASH_SLOT))
        .collect()
}

/// Runs one E14 point, with optional per-shard metrics sinks
/// attached. The workload seed depends only on `(shards, load)`, so
/// every balancer and fault arm of a fleet size sees the *same*
/// arrival sequence and their comparison is paired.
#[must_use]
pub fn e14_run_point_instrumented(
    point: E14Point,
    sinks: Option<&mut Vec<ServeMetricsSink>>,
) -> ClusterReport {
    let template = e14_template();
    let total_bits = point.shards as u64 * E14_SESSIONS_PER_UNIT * template.full_bits();
    let rate = rate_for_load(point.load, &template, total_bits);
    let seed = E14_WORKLOAD_SEED + point.shards as u64 * 100 + (point.load * 100.0).round() as u64;
    let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, E14_SLOTS, seed)
        .expect("valid workload");
    e14_cluster(point, &template)
        .run_faulted(&workload, &e14_deaths(point), sinks)
        .expect("valid config")
}

/// Fleet-level delivered-utility recovery of one instrumented crash
/// run: post-crash window mean over pre-crash window mean of the
/// shard-summed per-slot utility.
#[must_use]
pub fn e14_recovered_fraction(sinks: &[ServeMetricsSink]) -> f64 {
    let total = aggregate_utility(sinks);
    let pre = window_mean(&total, E14_PRE_WINDOW);
    if pre <= 0.0 {
        return 0.0;
    }
    window_mean(&total, E14_POST_WINDOW) / pre
}

/// E14 — scale-out across a sharded cluster: aggregate utility grows
/// near-linearly with shard count under the predictor-guided
/// balancers, the oblivious round-robin front collapses first on the
/// skewed fleet, and cross-shard re-routing retains ≥90% of pre-crash
/// utility when one of four shards dies.
///
/// The run-log carries cluster and per-shard counters for all 48
/// points, recovery gauges for the crash arms, and the aggregate
/// per-slot utility series for the headline crash points (one of four
/// shards dying at 0.7x — the recovery curves the ≥90% claim is
/// about).
pub struct E14ScaleOut;

impl Sweep for E14ScaleOut {
    type Point = E14Point;
    type Outcome = (ClusterReport, Vec<ServeMetricsSink>);
    const ID: &'static str = "E14";
    const TITLE: &'static str =
        "Scale-out: sharded cluster, balancer policies + crash re-routing (S2.2, S4)";

    /// Shard counts x loads x balancers x fault arms.
    fn points() -> Vec<E14Point> {
        let mut points = Vec::new();
        for &shards in &E14_SHARD_COUNTS {
            for &load in &E14_LOADS {
                for &balancer in &[
                    BalancerPolicy::RoundRobin,
                    BalancerPolicy::JoinShortestQueue,
                    BalancerPolicy::PowerOfTwoChoices,
                ] {
                    for &crash in &[false, true] {
                        points.push(E14Point {
                            shards,
                            load,
                            balancer,
                            crash,
                        });
                    }
                }
            }
        }
        points
    }

    fn run(point: &E14Point) -> Self::Outcome {
        let mut sinks = Vec::new();
        let report = e14_run_point_instrumented(*point, Some(&mut sinks));
        (report, sinks)
    }

    fn meta() -> Vec<(&'static str, String)> {
        vec![
            ("slots", E14_SLOTS.to_string()),
            ("sessions_per_unit", E14_SESSIONS_PER_UNIT.to_string()),
            ("crash_slot", E14_CRASH_SLOT.to_string()),
        ]
    }

    fn export(point: &E14Point, (report, sinks): &Self::Outcome, registry: &mut MetricsRegistry) {
        let scope = format!("e14/{}", point.label());
        report.export(registry, &scope);
        if point.crash {
            registry
                .scoped(&scope)
                .gauge_set("recovered_fraction", e14_recovered_fraction(sinks));
        }
        if point.shards == 4 && (point.load - 0.7).abs() < 1e-9 && point.crash {
            registry
                .scoped(&format!("{scope}/series"))
                .series_extend("utility", aggregate_utility(sinks));
        }
    }

    fn record(point: &E14Point, (report, sinks): &Self::Outcome) -> RunRecord {
        let record = RunRecord::new("e14-point")
            .with("label", point.label())
            .with("shards", point.shards as u64)
            .with("load", point.load)
            .with("balancer", point.balancer.label())
            .with("crash", point.crash)
            .with("utility_sum", report.utility_sum())
            .with("mean_utility", report.mean_utility())
            .with("admitted", report.admitted())
            .with("rejected", report.rejected())
            .with("rerouted", report.dispatch.rerouted);
        if point.crash {
            record.with("recovered_fraction", e14_recovered_fraction(sinks))
        } else {
            record
        }
    }

    fn rows(grid: &Grid<Self>) -> Vec<Row> {
        let find = |shards, load, balancer, crash| {
            grid.find(|p| {
                (p.shards, p.load, p.balancer, p.crash) == (shards, load, balancer, crash)
            })
        };
        let mut rows = Vec::new();
        let scaling: Vec<String> = E14_SHARD_COUNTS
            .iter()
            .map(|&n| {
                format!(
                    "{:.0}",
                    find(n, 0.7, BalancerPolicy::JoinShortestQueue, false)
                        .0
                        .utility_sum()
                )
            })
            .collect();
        let one_shard = find(1, 0.7, BalancerPolicy::JoinShortestQueue, false)
            .0
            .utility_sum();
        let eight_shards = find(8, 0.7, BalancerPolicy::JoinShortestQueue, false)
            .0
            .utility_sum();
        rows.push(Row::new(
            "aggregate utility, 1 -> 8 shards at 0.7x (jsq)",
            "near-linear scale-out (>= 6x at 8 shards)",
            format!("{} ({:.2}x)", scaling.join(" / "), eight_shards / one_shard),
        ));
        let rr = &find(8, 1.05, BalancerPolicy::RoundRobin, false).0;
        let jsq = &find(8, 1.05, BalancerPolicy::JoinShortestQueue, false).0;
        let p2c = &find(8, 1.05, BalancerPolicy::PowerOfTwoChoices, false).0;
        rows.push(Row::new(
            "utility at 1.05x on the skewed 8-shard fleet (rr / jsq / p2c)",
            "oblivious rotation drowns the small shards; predictors don't (>= 1.5x apart)",
            format!(
                "{:.0} / {:.0} / {:.0} ({:.2}x / {:.2}x vs rr)",
                rr.utility_sum(),
                jsq.utility_sum(),
                p2c.utility_sum(),
                jsq.utility_sum() / rr.utility_sum(),
                p2c.utility_sum() / rr.utility_sum()
            ),
        ));
        rows.push(Row::new(
            "sessions shed by the balancer at 1.05x, 8 shards (rr / jsq / p2c)",
            "smart fronts reject what the fleet cannot serve; rr admits it all into overload",
            format!(
                "{} / {} / {}",
                rr.dispatch.balancer_rejected,
                jsq.dispatch.balancer_rejected,
                p2c.dispatch.balancer_rejected
            ),
        ));
        let fmt_rf = |r: &Self::Outcome| format!("{:.0}%", e14_recovered_fraction(&r.1) * 100.0);
        let rr_c = find(4, 0.7, BalancerPolicy::RoundRobin, true);
        let jsq_c = find(4, 0.7, BalancerPolicy::JoinShortestQueue, true);
        let p2c_c = find(4, 0.7, BalancerPolicy::PowerOfTwoChoices, true);
        rows.push(Row::new(
            "one-of-four shard crash at 0.7x: post/pre utility (rr / jsq / p2c)",
            "re-routing keeps >= 90% of pre-crash utility",
            format!("{} / {} / {}", fmt_rf(rr_c), fmt_rf(jsq_c), fmt_rf(p2c_c)),
        ));
        rows.push(Row::new(
            "crash fail-over (jsq, 4 shards, 0.7x)",
            "sessions in flight on the dead shard re-offer to the survivors",
            format!(
                "{} crashed, {} rerouted, {} balancer-rejected",
                jsq_c.0.crashed(),
                jsq_c.0.dispatch.rerouted,
                jsq_c.0.dispatch.balancer_rejected
            ),
        ));
        rows
    }
}

/// Slots per E15 run. Short in slots, huge in sessions: the sweep
/// scales the arrival rate, not the horizon, so wall-clock measures
/// per-session engine cost.
const E15_SLOTS: u64 = 500;

/// Mean session duration in slots — 1/4 of the horizon, so steady
/// state is reached early and concurrency ≈ sessions/4.
const E15_DURATION_SLOTS: f64 = 125.0;

/// Offered load relative to link capacity. Right at the knee: the
/// admission predictor works for a living and the multiplexer's
/// water-filling pass sees a full link every slot.
const E15_LOAD: f64 = 1.0;

/// The mega-scale sweep sizes: target offered sessions per run.
pub const E15_SESSION_COUNTS: [u64; 3] = [10_000, 100_000, 1_000_000];

/// Largest size the seed reference engine still runs at. Its
/// `Vec::retain` departure path is O(k·n); at 10^6 sessions that is
/// tens of minutes of wall time, so the comparison arm stops at 10^5.
pub const E15_REFERENCE_MAX_SESSIONS: u64 = 100_000;

/// Shards of the cluster arm: equal slices of the server arm's link.
const E15_SHARDS: usize = 8;

/// Workload seed base (offset by the session count, so every size is
/// an independent but fixed draw).
const E15_WORKLOAD_SEED: u64 = 1504;

/// Balancer candidate-stream seed of the cluster arm.
const E15_BALANCER_SEED: u64 = 1509;

/// Session count of the reduced deterministic point that CI diffs
/// across `DMS_THREADS` and `all_experiments` reports. Big enough to
/// hold thousands of concurrent sessions through the arena, small
/// enough for debug-build test runs.
pub const E15_REDUCED_SESSIONS: u64 = 20_000;

/// Which engine serves an E15 point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E15Arm {
    /// The arena-engine [`ServerSim`]: one link, one admission
    /// controller, per-slot event calendar, SoA session store.
    Server,
    /// Eight equal shards behind the JSQ balancer — the same total
    /// link, scaled out.
    Cluster8,
    /// The seed engine kept verbatim as [`ReferenceServerSim`]:
    /// binary-heap events, retain-based departures. The baseline the
    /// ≥5x headline is measured against.
    Reference,
}

impl E15Arm {
    /// Stable label used in point names and the timing JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            E15Arm::Server => "server",
            E15Arm::Cluster8 => "cluster8",
            E15Arm::Reference => "reference",
        }
    }
}

/// One point of the E15 mega-scale grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E15Point {
    /// Target offered-session count over the whole run.
    pub sessions: u64,
    /// Which engine serves the workload.
    pub arm: E15Arm,
}

impl E15Point {
    /// Stable point label, e.g. `server-100k`.
    #[must_use]
    pub fn label(self) -> String {
        let size = match self.sessions {
            10_000 => "10k".to_string(),
            100_000 => "100k".to_string(),
            1_000_000 => "1m".to_string(),
            other => other.to_string(),
        };
        format!("{}-{size}", self.arm.label())
    }
}

/// The counters every E15 arm reports, cluster and server alike.
#[derive(Debug, Clone, Copy)]
pub struct E15Outcome {
    /// Sessions the workload actually offered (Poisson draw around
    /// the point's target).
    pub offered: u64,
    /// Sessions admitted by the predictor (or the balancer mirrors).
    pub admitted: u64,
    /// Playout-deadline misses across the run.
    pub deadline_misses: u64,
    /// Summed delivered utility.
    pub utility_sum: f64,
    /// Mean per-session-slot utility.
    pub mean_utility: f64,
    /// The full single-link report (server and reference arms), which
    /// the E15 table compares bit for bit.
    pub report: Option<ServerReport>,
}

/// The full E15 grid: every size × arm, minus the reference arm at
/// sizes its O(k·n) departure path cannot afford. Ordered smallest
/// size first so a monotone RSS high-water mark read after each point
/// attributes to the largest run so far.
#[must_use]
pub fn e15_points() -> Vec<E15Point> {
    let mut points = Vec::new();
    for &sessions in &E15_SESSION_COUNTS {
        points.push(E15Point {
            sessions,
            arm: E15Arm::Server,
        });
        points.push(E15Point {
            sessions,
            arm: E15Arm::Cluster8,
        });
        if sessions <= E15_REFERENCE_MAX_SESSIONS {
            points.push(E15Point {
                sessions,
                arm: E15Arm::Reference,
            });
        }
    }
    points
}

fn e15_template() -> SessionTemplate {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = E15_DURATION_SLOTS;
    template
}

/// Link capacity sized so `sessions` offered over the horizon is
/// exactly [`E15_LOAD`]× the link: steady-state concurrency
/// (`sessions · duration / slots`) at the full-quality session rate.
fn e15_capacity_bits(sessions: u64, template: &SessionTemplate) -> u64 {
    let concurrent = sessions as f64 * E15_DURATION_SLOTS / E15_SLOTS as f64 / E15_LOAD;
    concurrent.round() as u64 * template.full_bits()
}

/// The seeded workload of one E15 size.
#[must_use]
pub fn e15_workload(sessions: u64) -> Workload {
    let template = e15_template();
    let rate = rate_for_load(E15_LOAD, &template, e15_capacity_bits(sessions, &template));
    Workload::generate(
        ArrivalProcess::Poisson { rate },
        template,
        E15_SLOTS,
        E15_WORKLOAD_SEED + sessions,
    )
    .expect("valid workload")
}

fn e15_server_config(sessions: u64, template: &SessionTemplate) -> ServerConfig {
    ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: e15_capacity_bits(sessions, template),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::QueuePredictor,
        degrade: None,
        buffer_slots: 4,
        miss_slots: 2,
    }
}

/// Runs one E15 point on a pre-built workload and flattens its report
/// into the common counters. Timing harnesses build the workload
/// untimed, so they measure the engine, not the arrival-process
/// generator every arm shares. The run is deterministic at any
/// `DMS_THREADS`.
///
/// The reference arm runs the seed engine on the identical workload
/// and config; its report must equal the server arm's bit for bit, so
/// the only difference left to measure is speed. The cluster arm cuts
/// the server arm's link into eight equal admit-all shards behind the
/// JSQ balancer, mirror predictors doing the admission the single
/// server's controller did.
///
/// A metrics sink attaches to the server arm only; the other arms
/// ignore it. A [`ServeMetricsSink::bounded`] sink keeps even the
/// 10^6-session run observable in O(1) memory: counters, quantile
/// sketches of the per-slot series, and a deterministic per-session
/// deadline-miss sample, instead of six million-element vectors
/// nothing will ever plot whole.
#[must_use]
pub fn e15_run_point_on(
    point: E15Point,
    workload: &Workload,
    sink: Option<&mut ServeMetricsSink>,
) -> E15Outcome {
    let config = e15_server_config(point.sessions, &workload.template);
    let single = |r: ServerReport| E15Outcome {
        offered: r.offered,
        admitted: r.admitted,
        deadline_misses: r.deadline_misses,
        utility_sum: r.utility_sum,
        mean_utility: r.mean_utility(),
        report: Some(r),
    };
    match point.arm {
        E15Arm::Server => single(
            ServerSim::new(config)
                .expect("valid config")
                .run_instrumented(workload, sink)
                .expect("valid workload"),
        ),
        E15Arm::Reference => single(
            ReferenceServerSim::new(config)
                .expect("valid config")
                .run(workload)
                .expect("valid workload"),
        ),
        E15Arm::Cluster8 => {
            let shard = ServerConfig {
                capacity: CapacityModel {
                    link_bits_per_slot: config.capacity.link_bits_per_slot / E15_SHARDS as u64,
                    ..config.capacity
                },
                policy: AdmissionPolicy::AdmitAll,
                ..config
            };
            let r = ClusterSim::new(ClusterConfig {
                shards: vec![shard; E15_SHARDS],
                balancer: BalancerPolicy::JoinShortestQueue,
                recovery: RecoveryConfig::default(),
                seed: E15_BALANCER_SEED,
            })
            .expect("valid config")
            .run(workload)
            .expect("valid workload");
            E15Outcome {
                offered: r.offered(),
                admitted: r.admitted(),
                deadline_misses: r.deadline_misses(),
                utility_sum: r.utility_sum(),
                mean_utility: r.mean_utility(),
                report: None,
            }
        }
    }
}

/// Peak resident-set size of this process so far, in bytes (Linux
/// `VmHWM` from `/proc/self/status`); `None` where procfs is absent.
/// The high-water mark is monotone over the process lifetime, so
/// per-phase samples attribute only when phases run smallest-first —
/// which [`e15_points`] guarantees for the mega-scale sweep.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// E15 — the million-session engine, checked at the reduced size CI
/// can afford: the arena engine must reproduce the seed reference
/// engine's report bit for bit, and the 8-shard fleet must track the
/// single link it was cut from. The timed 10^4/10^5/10^6 sweep
/// (sessions/sec/core, peak RSS, ≥5x over the reference at 10^5)
/// runs in `bench_smoke` and lands in `BENCH_experiments.json`, where
/// `bench_guard --min-throughput` holds the floor.
///
/// The run-log carries the reduced point's counters for all three
/// arms. Wall-clock and RSS deliberately stay out — run-logs are
/// byte-diffed across `DMS_THREADS` in CI, so they carry only
/// deterministic fields; the timings live in `BENCH_experiments.json`.
pub struct E15MegaScale;

impl Sweep for E15MegaScale {
    type Point = E15Point;
    type Outcome = (E15Outcome, Option<ServeMetricsSink>);
    const ID: &'static str = "E15";
    const TITLE: &'static str =
        "Mega-scale engine: slot calendar + arena vs the seed engine (S2.2, S4)";

    /// The reduced point in all three arms.
    fn points() -> Vec<E15Point> {
        [E15Arm::Server, E15Arm::Cluster8, E15Arm::Reference]
            .iter()
            .map(|&arm| E15Point {
                sessions: E15_REDUCED_SESSIONS,
                arm,
            })
            .collect()
    }

    /// The server arm carries a constant-memory sink, so the streaming
    /// aggregates reach the run-log from the same run as the counters.
    fn run(point: &E15Point) -> Self::Outcome {
        let mut sink = (point.arm == E15Arm::Server).then(ServeMetricsSink::bounded);
        let outcome = e15_run_point_on(*point, &e15_workload(point.sessions), sink.as_mut());
        (outcome, sink)
    }

    fn meta() -> Vec<(&'static str, String)> {
        vec![
            ("slots", E15_SLOTS.to_string()),
            ("reduced_sessions", E15_REDUCED_SESSIONS.to_string()),
        ]
    }

    fn export(_: &E15Point, (_, sink): &Self::Outcome, registry: &mut MetricsRegistry) {
        if let Some(sink) = sink {
            sink.export(registry, "e15/instrumented");
        }
    }

    fn record(point: &E15Point, (outcome, _): &Self::Outcome) -> RunRecord {
        RunRecord::new("e15-point")
            .with("label", point.label())
            .with("sessions_target", point.sessions)
            .with("offered", outcome.offered)
            .with("admitted", outcome.admitted)
            .with("deadline_misses", outcome.deadline_misses)
            .with("utility_sum", outcome.utility_sum)
            .with("mean_utility", outcome.mean_utility)
    }

    /// The bounded-instrumentation record: the server arm's sketch
    /// quantiles and deterministic miss sample, flattened from the
    /// registry (under `e15/instrumented`) into one record, so the CI
    /// `DMS_THREADS` byte-diff covers the streaming aggregates end to
    /// end, not just the counters.
    fn finish(grid: &Grid<Self>, log: &mut RunLog) {
        let server = &grid.find(|p| p.arm == E15Arm::Server).0;
        let quantile = |log: &RunLog, key: &str, q: f64| -> f64 {
            match log.registry().get(&format!("e15/instrumented/{key}")) {
                Some(Metric::Sketch(s)) => s.quantile(q).unwrap_or(0.0),
                _ => 0.0,
            }
        };
        let miss_sample = match log.registry().get("e15/instrumented/session_misses") {
            Some(Metric::Reservoir(r)) => {
                let sum: f64 = r.samples().iter().map(|e| e.value).sum();
                (r.len() as u64, sum / r.len().max(1) as f64)
            }
            _ => (0, 0.0),
        };
        log.push(
            RunRecord::new("e15-instrumented")
                .with("label", "server-reduced-bounded")
                .with("offered", server.offered)
                .with("admitted", server.admitted)
                .with("deadline_misses", server.deadline_misses)
                .with("active_p50", quantile(log, "active", 0.5))
                .with("active_p99", quantile(log, "active", 0.99))
                .with("backlog_bits_p99", quantile(log, "backlog_bits", 0.99))
                .with("utility_p50", quantile(log, "utility", 0.5))
                .with("miss_sample_len", miss_sample.0)
                .with("miss_sample_mean", miss_sample.1),
        );
    }

    fn rows(grid: &Grid<Self>) -> Vec<Row> {
        let server = &grid.find(|p| p.arm == E15Arm::Server).0;
        let cluster = &grid.find(|p| p.arm == E15Arm::Cluster8).0;
        let reference = &grid.find(|p| p.arm == E15Arm::Reference).0;
        vec![
            Row::new(
                format!("sessions offered / admitted at the reduced {E15_REDUCED_SESSIONS}-session point"),
                "predictor admits to the knee at 1.0x load",
                format!(
                    "{} / {} ({:.0}%)",
                    server.offered,
                    server.admitted,
                    server.admitted as f64 / server.offered as f64 * 100.0
                ),
            ),
            Row::new(
                "arena engine vs seed reference engine, full report",
                "bit-for-bit identical",
                format!("identical = {}", server.report == reference.report),
            ),
            Row::new(
                "mean utility, single link vs 8-shard jsq fleet",
                "the fleet tracks the link it was cut from",
                format!("{:.3} vs {:.3}", server.mean_utility, cluster.mean_utility),
            ),
            Row::new(
                "deadline misses (server / fleet)",
                "admission keeps misses bounded at the knee",
                format!("{} / {}", server.deadline_misses, cluster.deadline_misses),
            ),
            Row::new(
                "mega-scale sweep (10^4 / 10^5 / 10^6 sessions)",
                "timed out-of-band",
                "bench_smoke -> BENCH_experiments.json: sessions/sec/core, peak RSS, >= 5x vs reference at 10^5",
            ),
        ]
    }
}

// ---------------------------------------------------------------------
// E16 — geo-tiered delivery: the whole workspace composed end to end.
// Per-region edge fleets (dms-cluster) front one shared origin uplink
// guarded by the M/M/1/K predictor (dms-serve); content popularity is
// Zipf with hot-set churn; arrivals are flash-crowd-spiked diurnal
// self-similar processes; the last hop is device-class aware with
// dms-wireless / dms-manet energy and dms-media FGS layer ceilings.
// ---------------------------------------------------------------------

/// Horizon of one E16 run — one diurnal cycle.
const E16_SLOTS: u64 = 600;

/// Mean session holding time, slots.
const E16_DURATION_SLOTS: f64 = 120.0;

/// Edge regions of the tiered arm (timezone-shifted diurnal phases).
const E16_REGIONS: usize = 3;

/// Shards per region fleet; the flat arm gets all
/// `E16_REGIONS × E16_SHARDS_PER_REGION` shards in one central fleet.
const E16_SHARDS_PER_REGION: usize = 2;

/// Full-quality concurrent sessions one shard's link carries.
const E16_SHARD_SESSIONS: u64 = 110;

/// Concurrent full-quality sessions the shared origin uplink carries —
/// deliberately less than half the fleet, so a flat arm that drags
/// *every* session through the origin starves while the tiered arm's
/// cache hits bypass it.
const E16_ORIGIN_SESSIONS: u64 = 300;

/// Offered loads swept, relative to total fleet capacity (pre-spike).
pub const E16_LOADS: [f64; 3] = [0.6, 0.9, 1.2];

/// Content catalog size.
const E16_CATALOG: u64 = 2_000;

/// Zipf popularity exponent.
const E16_ZIPF: f64 = 1.1;

/// Hot-set churn period, slots (4 rotations per run).
const E16_CHURN_PERIOD: u64 = 150;

/// Rank→id rotation stride per churn epoch.
const E16_CHURN_STRIDE: u64 = 211;

/// LRU items per region cache (~13% of the catalog).
const E16_CACHE_ITEMS: usize = 256;

/// Master seed of the sweep.
const E16_SEED: u64 = 1601;

/// Which fleet layout serves an E16 point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E16Arm {
    /// Per-region edge fleets with LRU caches fronting the origin.
    Tiered,
    /// One central fleet of the same total capacity, no caches, every
    /// session fetched through the origin, far last hop.
    Flat,
}

impl E16Arm {
    /// Stable label used in point names and the timing JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            E16Arm::Tiered => "tiered",
            E16Arm::Flat => "flat",
        }
    }
}

/// One point of the E16 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E16Point {
    /// Fleet layout.
    pub arm: E16Arm,
    /// Offered load relative to total fleet capacity (pre-spike).
    pub load: f64,
}

impl E16Point {
    /// Stable point label, e.g. `tiered-0.9`.
    #[must_use]
    pub fn label(self) -> String {
        format!("{}-{:.1}", self.arm.label(), self.load)
    }
}

fn e16_template() -> SessionTemplate {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = E16_DURATION_SLOTS;
    template
}

fn e16_fleet(shards: usize, template: &SessionTemplate, seed: u64) -> ClusterConfig {
    let shard = ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: E16_SHARD_SESSIONS * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::QueuePredictor,
        degrade: Some(DegradeConfig::default()),
        buffer_slots: 8,
        miss_slots: 4,
    };
    ClusterConfig {
        shards: vec![shard; shards],
        balancer: BalancerPolicy::JoinShortestQueue,
        recovery: RecoveryConfig::default(),
        seed,
    }
}

/// Per-region arrival process at `load`: the region's equal share of
/// the fleet-wide rate, diurnal-shifted by a third of a cycle per
/// region, with a 2.5× flash crowd for 30 slots every 300.
fn e16_arrivals(load: f64, region: usize, template: &SessionTemplate) -> ArrivalProcess {
    let total_capacity =
        (E16_REGIONS * E16_SHARDS_PER_REGION) as u64 * E16_SHARD_SESSIONS * template.full_bits();
    let rate = rate_for_load(load, template, total_capacity) / E16_REGIONS as f64;
    ArrivalProcess::FlashCrowd {
        rate,
        hurst: 0.8,
        burstiness: 0.6,
        diurnal_depth: 0.4,
        diurnal_period_slots: E16_SLOTS,
        diurnal_phase_slots: region as u64 * (E16_SLOTS / E16_REGIONS as u64),
        spike_factor: 2.5,
        spike_period_slots: 300,
        spike_slots: 30,
    }
}

fn e16_content() -> dms_cluster::ContentModel {
    dms_cluster::ContentModel {
        catalog_size: E16_CATALOG,
        zipf_exponent: E16_ZIPF,
        churn_period_slots: E16_CHURN_PERIOD,
        churn_stride: E16_CHURN_STRIDE,
    }
}

fn e16_origin(template: &SessionTemplate) -> CapacityModel {
    CapacityModel {
        link_bits_per_slot: E16_ORIGIN_SESSIONS * template.full_bits(),
        queue_frames: 64,
        occupancy_bound: 8.0,
    }
}

/// The tiered arm's configuration at `load`.
#[must_use]
pub fn e16_tiered_config(load: f64) -> dms_cluster::TieredConfig {
    let template = e16_template();
    let regions = (0..E16_REGIONS)
        .map(|r| dms_cluster::RegionConfig {
            fleet: e16_fleet(E16_SHARDS_PER_REGION, &template, E16_SEED + 10 + r as u64),
            arrivals: e16_arrivals(load, r, &template),
            cache_items: E16_CACHE_ITEMS,
            proximate: true,
        })
        .collect();
    dms_cluster::TieredConfig {
        regions,
        template,
        slots: E16_SLOTS,
        content: e16_content(),
        origin: e16_origin(&template),
        classes: dms_cluster::ClassMix::streaming_default(&template),
        energy: dms_cluster::LastHopEnergy::derive(E16_SEED).expect("derivable"),
        seed: E16_SEED,
    }
}

/// The flat single-tier baseline at `load`: one central fleet with the
/// same total shard capacity, no caches (every session fetches through
/// the origin), and the far last hop. It is offered the *same merged
/// sessions and content draws* the tiered arm splits across regions.
#[must_use]
pub fn e16_flat_config(load: f64) -> dms_cluster::TieredConfig {
    let template = e16_template();
    dms_cluster::TieredConfig {
        regions: vec![dms_cluster::RegionConfig {
            fleet: e16_fleet(
                E16_REGIONS * E16_SHARDS_PER_REGION,
                &template,
                E16_SEED + 10,
            ),
            // Placeholder process (run_on supplies the merged
            // workload): the fleet-wide rate with region 0's phase.
            arrivals: e16_arrivals(load, 0, &template),
            cache_items: 0,
            proximate: false,
        }],
        template,
        slots: E16_SLOTS,
        content: e16_content(),
        origin: e16_origin(&template),
        classes: dms_cluster::ClassMix::streaming_default(&template),
        energy: dms_cluster::LastHopEnergy::derive(E16_SEED).expect("derivable"),
        seed: E16_SEED,
    }
}

/// E16 — geo-tiered delivery vs a flat single-tier fleet at equal
/// offered load: the tiered arm's cache hits bypass the shared origin
/// bottleneck (more sessions served → more delivered utility) and its
/// client-proximate last hop is cheaper per bit; the cache-hit-ratio
/// vs origin-load curve quantifies how caching unloads the uplink.
///
/// The run-log carries one record and one metrics scope per grid
/// point, the per-slot origin-occupancy series for the headline tiered
/// point, and the cache-hit-ratio vs origin-load curve.
pub struct E16GeoTiered;

impl Sweep for E16GeoTiered {
    type Point = E16Point;
    type Outcome = dms_cluster::TieredReport;
    const ID: &'static str = "E16";
    const TITLE: &'static str =
        "Geo-tiered delivery: edge fleets + origin vs one flat fleet (S2.2, S4)";

    /// Every load × both arms.
    fn points() -> Vec<E16Point> {
        let mut points = Vec::new();
        for &load in &E16_LOADS {
            for &arm in &[E16Arm::Tiered, E16Arm::Flat] {
                points.push(E16Point { arm, load });
            }
        }
        points
    }

    /// Both arms are offered byte-identical sessions and content/class
    /// draws — generated once from the tiered config, merged in
    /// cache-pass order for the flat arm — so every comparison is at
    /// exactly equal offered load.
    fn run(point: &E16Point) -> dms_cluster::TieredReport {
        let tiered =
            dms_cluster::TieredSim::new(e16_tiered_config(point.load)).expect("valid config");
        let (workloads, draws) = tiered.generate().expect("valid workloads");
        match point.arm {
            E16Arm::Tiered => tiered.run_on(&workloads, &draws).expect("tiered run"),
            E16Arm::Flat => {
                let flat =
                    dms_cluster::TieredSim::new(e16_flat_config(point.load)).expect("valid config");
                let (merged, merged_draws) = dms_cluster::merge_regions(
                    &workloads,
                    &draws,
                    tiered.config().template,
                    tiered.config().slots,
                );
                flat.run_on(&[merged], &[merged_draws]).expect("flat run")
            }
        }
    }

    fn meta() -> Vec<(&'static str, String)> {
        vec![
            ("slots", E16_SLOTS.to_string()),
            ("regions", E16_REGIONS.to_string()),
            ("origin_sessions", E16_ORIGIN_SESSIONS.to_string()),
        ]
    }

    fn export(
        point: &E16Point,
        report: &dms_cluster::TieredReport,
        registry: &mut MetricsRegistry,
    ) {
        let scope = format!("e16/{}", point.label());
        report.export(registry, &scope);
        if point.arm == E16Arm::Tiered && (point.load - E16_LOADS[2]).abs() < 1e-9 {
            registry.series_extend(
                &format!("{scope}/origin_active_bits"),
                report.origin_series.iter().copied(),
            );
        }
    }

    fn record(point: &E16Point, report: &dms_cluster::TieredReport) -> RunRecord {
        RunRecord::new("e16-point")
            .with("label", point.label())
            .with("arm", point.arm.label())
            .with("load", point.load)
            .with("offered", report.offered())
            .with("edge_hits", report.edge_hits())
            .with("origin_fetches", report.origin_fetches())
            .with("origin_rejected", report.origin_rejected())
            .with("hit_ratio", report.hit_ratio())
            .with("origin_load", report.origin_load())
            .with("miss_rate", report.miss_rate())
            .with("mean_utility", report.mean_utility())
            .with("delivered_utility", report.delivered_utility())
            .with("energy_j", report.total_energy_j())
            .with("energy_j_per_bit", report.energy_per_bit())
    }

    fn rows(grid: &Grid<Self>) -> Vec<Row> {
        let find = |arm, load: f64| grid.find(|p| p.arm == arm && (p.load - load).abs() < 1e-9);
        let peak = E16_LOADS[2];
        let tiered = find(E16Arm::Tiered, peak);
        let flat = find(E16Arm::Flat, peak);
        let mut rows = vec![
            Row::new(
                format!("offered sessions at {peak}x (tiered == flat)"),
                "identical workload both arms",
                format!(
                    "{} == {} ({})",
                    tiered.offered(),
                    flat.offered(),
                    tiered.offered() == flat.offered()
                ),
            ),
            Row::new(
                format!("sessions lost at the origin at {peak}x, tiered vs flat"),
                "caching rescues most of the flash crowd",
                format!(
                    "{} ({:.0}%) vs {} ({:.0}%)",
                    tiered.origin_rejected(),
                    tiered.origin_rejected() as f64 / tiered.offered() as f64 * 100.0,
                    flat.origin_rejected(),
                    flat.origin_rejected() as f64 / flat.offered() as f64 * 100.0
                ),
            ),
            Row::new(
                format!("delivered utility at {peak}x, tiered vs flat"),
                "tiered wins on volume served",
                format!(
                    "{:.0} vs {:.0} ({:.2}x)",
                    tiered.delivered_utility(),
                    flat.delivered_utility(),
                    tiered.delivered_utility() / flat.delivered_utility()
                ),
            ),
            Row::new(
                format!("last-hop energy per delivered bit at {peak}x, tiered vs flat"),
                "edge proximity + transit bypass are cheaper",
                format!(
                    "{:.2} vs {:.2} nJ/bit ({:.0}% saved)",
                    tiered.energy_per_bit() * 1e9,
                    flat.energy_per_bit() * 1e9,
                    (1.0 - tiered.energy_per_bit() / flat.energy_per_bit()) * 100.0
                ),
            ),
        ];
        for &load in &E16_LOADS {
            let t = find(E16Arm::Tiered, load);
            rows.push(Row::new(
                format!("cache-hit ratio vs origin load at {load}x"),
                "hits rise with load; origin stays below the flat arm",
                format!(
                    "{:.0}% hit -> origin rho {:.2} (flat rho {:.2})",
                    t.hit_ratio() * 100.0,
                    t.origin_load(),
                    find(E16Arm::Flat, load).origin_load()
                ),
            ));
        }
        rows
    }
}

// ---------------------------------------------------------------------
// E17 — the closed-loop adaptive fleet. The E11 ambient user model
// (home-preset DTMC walkers) generates the offered trace; a static
// peak-provisioned fleet and the adaptive fleet (occupancy-driven
// autoscaling + PI feedback shedding + UCB balancer selection) serve
// the *same* trace, and the headline is delivered utility per
// provisioned shard-hour: paying for capacity only while the users
// demand it.
// ---------------------------------------------------------------------

/// Horizon of one E17 run, slots.
const E17_SLOTS: u64 = 480;

/// Slots per "hour" in the shard-hour tables (any fixed scale
/// preserves the static-vs-adaptive comparison).
const E17_SLOTS_PER_HOUR: f64 = 60.0;

/// Mean session holding time, slots.
const E17_DURATION_SLOTS: f64 = 40.0;

/// Full-quality concurrent sessions one shard's link carries.
const E17_SHARD_SESSIONS: u64 = 30;

/// Fleet floor/ceiling; the static baseline always pays for the
/// ceiling.
const E17_MIN_SHARDS: usize = 1;
const E17_MAX_SHARDS: usize = 4;

/// Autoscaler control period (also the bandit's reward window).
const E17_PERIOD: u64 = 20;

/// Warm-up slots a freshly provisioned shard bills without serving.
const E17_WARMUP: u64 = 10;

/// Home-preset DTMC walkers at the trough and at the peak (~1.7
/// concurrent streams per user at a 40-slot mean hold).
const E17_USERS_TROUGH: usize = 5;
const E17_USERS_PEAK: usize = 55;

/// Bandwidth threshold an activity must demand to count as a
/// streaming session (video and video-call in the home preset).
const E17_STREAM_BPS: f64 = 1e6;

/// Master seed of the sweep.
const E17_SEED: u64 = 1701;

/// Which offered-load regime drives an E17 point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E17Regime {
    /// The trough population all day: one shard suffices.
    Trough,
    /// Trough population with the peak population swelling in for the
    /// middle third of the horizon — the diurnal shape the autoscaler
    /// exists for.
    Diurnal,
    /// The peak population all day: the fleet ceiling is needed
    /// throughout.
    Surge,
}

impl E17Regime {
    /// Stable label used in point names and the timing JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            E17Regime::Trough => "trough",
            E17Regime::Diurnal => "diurnal",
            E17Regime::Surge => "surge",
        }
    }
}

/// Which fleet serves an E17 point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E17Arm {
    /// Peak-provisioned `E17_MAX_SHARDS` fleet, fixed JSQ balancer,
    /// open-loop hysteresis degrade — today's static cluster.
    Static,
    /// The closed-loop [`AdaptiveSim`]: autoscaling + PI shedding +
    /// UCB balancer selection.
    Adaptive,
}

impl E17Arm {
    /// Stable label used in point names and the timing JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            E17Arm::Static => "static",
            E17Arm::Adaptive => "adaptive",
        }
    }
}

/// One point of the E17 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E17Point {
    /// Load regime.
    pub regime: E17Regime,
    /// Fleet under test.
    pub arm: E17Arm,
}

impl E17Point {
    /// Stable point label, e.g. `diurnal-adaptive`.
    #[must_use]
    pub fn label(self) -> String {
        format!("{}-{}", self.regime.label(), self.arm.label())
    }
}

fn e17_template() -> SessionTemplate {
    let mut template = SessionTemplate::streaming_default().expect("preset valid");
    template.mean_duration_slots = E17_DURATION_SLOTS;
    template
}

/// The offered trace of a regime: per-slot session-arrival counts
/// from the E11 home-preset user DTMC. The diurnal regime splices the
/// peak population in for the middle third — per-user substreams make
/// the peak trace a slot-wise superset of the trough trace, so the
/// splice is exactly a population swell.
#[must_use]
pub fn e17_arrival_counts(regime: E17Regime) -> Vec<u32> {
    let model = UserBehaviorModel::home_preset().expect("preset valid");
    let slots = E17_SLOTS as usize;
    let lo = model.session_arrivals(slots, E17_USERS_TROUGH, E17_STREAM_BPS, E17_SEED);
    match regime {
        E17Regime::Trough => lo,
        E17Regime::Surge => model.session_arrivals(slots, E17_USERS_PEAK, E17_STREAM_BPS, E17_SEED),
        E17Regime::Diurnal => {
            let hi = model.session_arrivals(slots, E17_USERS_PEAK, E17_STREAM_BPS, E17_SEED);
            (0..slots)
                .map(|s| {
                    if s >= slots / 3 && s < 2 * slots / 3 {
                        hi[s]
                    } else {
                        lo[s]
                    }
                })
                .collect()
        }
    }
}

/// The regime's workload: the ambient trace bridged into session
/// offers through the serve-side duration substream.
#[must_use]
pub fn e17_workload(regime: E17Regime) -> Workload {
    Workload::from_arrival_counts(&e17_arrival_counts(regime), e17_template(), E17_SEED)
        .expect("valid workload")
}

/// The homogeneous shard template. The adaptive arm closes the
/// degrade loop with the PI controller; the static arm keeps the
/// open-loop hysteresis thresholds.
fn e17_shard(template: &SessionTemplate, pi: bool) -> ServerConfig {
    ServerConfig {
        capacity: CapacityModel {
            link_bits_per_slot: E17_SHARD_SESSIONS * template.full_bits(),
            queue_frames: 64,
            occupancy_bound: 8.0,
        },
        policy: AdmissionPolicy::AdmitAll,
        degrade: Some(DegradeConfig {
            pi: pi.then(PiConfig::default),
            ..DegradeConfig::default()
        }),
        buffer_slots: 8,
        miss_slots: 4,
    }
}

/// The adaptive fleet under test.
#[must_use]
pub fn e17_adaptive_config() -> AdaptiveConfig {
    let template = e17_template();
    AdaptiveConfig {
        shard: e17_shard(&template, true),
        autoscale: AutoscaleConfig {
            min_shards: E17_MIN_SHARDS,
            max_shards: E17_MAX_SHARDS,
            control_period_slots: E17_PERIOD,
            scale_up_above: 2.5,
            scale_in_below: 0.6,
            warmup_slots: E17_WARMUP,
        },
        arms: ArmSelection::ucb(),
        recovery: RecoveryConfig::default(),
        seed: E17_SEED,
    }
}

/// The static peak-provisioned baseline.
#[must_use]
pub fn e17_static_config() -> ClusterConfig {
    let template = e17_template();
    ClusterConfig {
        shards: vec![e17_shard(&template, false); E17_MAX_SHARDS],
        balancer: BalancerPolicy::JoinShortestQueue,
        recovery: RecoveryConfig::default(),
        seed: E17_SEED,
    }
}

/// One E17 point's outcome: the cluster report plus (adaptive arm
/// only) the control-plane trace.
#[derive(Debug, Clone)]
pub struct E17Outcome {
    /// Dispatch ledger + per-shard reports.
    pub cluster: ClusterReport,
    /// Scale events, windows and the shard-hour bill (adaptive arm).
    pub control: Option<AdaptiveControl>,
}

impl E17Outcome {
    /// Provisioned shard-slots billed (the static arm pays the
    /// ceiling for the whole horizon).
    #[must_use]
    pub fn shard_slots(&self) -> u64 {
        self.control
            .as_ref()
            .map_or(E17_MAX_SHARDS as u64 * E17_SLOTS, |c| c.shard_slots)
    }

    /// Delivered utility per provisioned shard-hour — the headline.
    #[must_use]
    pub fn utility_per_shard_hour(&self) -> f64 {
        self.cluster.utility_sum() / self.shard_slots() as f64 * E17_SLOTS_PER_HOUR
    }
}

/// E17 — the closed-loop adaptive fleet vs the static peak-provisioned
/// baseline at byte-identical offered traces: autoscaling converts the
/// diurnal/trough regimes' idle capacity into a strictly better
/// utility-per-shard-hour bill, the PI controller sheds layers against
/// the measured miss rate, and the UCB bandit settles on a balancer
/// per regime.
///
/// The run-log carries one record and one metrics scope per grid
/// point; the adaptive scopes carry the per-slot shard-count series
/// and the per-window controller state (arm, reward, occupancy).
pub struct E17AdaptiveFleet;

impl Sweep for E17AdaptiveFleet {
    type Point = E17Point;
    type Outcome = E17Outcome;
    const ID: &'static str = "E17";
    const TITLE: &'static str =
        "Closed-loop adaptive fleet: autoscale + PI shedding + bandit balancer (S2.2, S5)";

    /// Every regime × both arms.
    fn points() -> Vec<E17Point> {
        let mut points = Vec::new();
        for &regime in &[E17Regime::Trough, E17Regime::Diurnal, E17Regime::Surge] {
            for &arm in &[E17Arm::Static, E17Arm::Adaptive] {
                points.push(E17Point { regime, arm });
            }
        }
        points
    }

    /// Both arms are offered the byte-identical ambient trace of the
    /// regime.
    fn run(point: &E17Point) -> E17Outcome {
        let workload = e17_workload(point.regime);
        match point.arm {
            E17Arm::Static => {
                let sim = ClusterSim::new(e17_static_config()).expect("valid config");
                E17Outcome {
                    cluster: sim.run(&workload).expect("static run"),
                    control: None,
                }
            }
            E17Arm::Adaptive => {
                let sim = AdaptiveSim::new(e17_adaptive_config()).expect("valid config");
                let report = sim.run(&workload).expect("adaptive run");
                E17Outcome {
                    cluster: report.cluster,
                    control: Some(report.control),
                }
            }
        }
    }

    fn meta() -> Vec<(&'static str, String)> {
        vec![
            ("slots", E17_SLOTS.to_string()),
            ("min_shards", E17_MIN_SHARDS.to_string()),
            ("max_shards", E17_MAX_SHARDS.to_string()),
            ("control_period", E17_PERIOD.to_string()),
        ]
    }

    fn export(point: &E17Point, outcome: &E17Outcome, registry: &mut MetricsRegistry) {
        let scope = format!("e17/{}", point.label());
        match &outcome.control {
            Some(control) => {
                dms_cluster::AdaptiveReport {
                    cluster: outcome.cluster.clone(),
                    control: control.clone(),
                }
                .export(registry, &scope);
            }
            None => outcome.cluster.export(registry, &scope),
        }
    }

    fn record(point: &E17Point, outcome: &E17Outcome) -> RunRecord {
        let control = outcome.control.as_ref();
        RunRecord::new("e17-point")
            .with("label", point.label())
            .with("regime", point.regime.label())
            .with("arm", point.arm.label())
            .with("offered", outcome.cluster.offered())
            .with("admitted", outcome.cluster.admitted())
            .with("rejected", outcome.cluster.rejected())
            .with("rerouted", outcome.cluster.dispatch.rerouted)
            .with("utility_sum", outcome.cluster.utility_sum())
            .with("shard_slots", outcome.shard_slots())
            .with("utility_per_shard_hour", outcome.utility_per_shard_hour())
            .with(
                "scale_ups",
                control.map_or(0, |c| c.scale_events.iter().filter(|e| e.up).count() as u64),
            )
            .with(
                "scale_ins",
                control.map_or(0, |c| {
                    c.scale_events.iter().filter(|e| !e.up).count() as u64
                }),
            )
    }

    fn rows(grid: &Grid<Self>) -> Vec<Row> {
        let find = |regime, arm| grid.find(|p| p.regime == regime && p.arm == arm);
        let mut rows = Vec::new();
        for &regime in &[E17Regime::Trough, E17Regime::Diurnal, E17Regime::Surge] {
            let s = find(regime, E17Arm::Static);
            let a = find(regime, E17Arm::Adaptive);
            rows.push(Row::new(
                format!("utility per shard-hour, {} regime", regime.label()),
                "adapting the fleet to the users beats peak provisioning",
                format!(
                    "adaptive {:.0} vs static {:.0} ({:.2}x)",
                    a.utility_per_shard_hour(),
                    s.utility_per_shard_hour(),
                    a.utility_per_shard_hour() / s.utility_per_shard_hour()
                ),
            ));
        }
        let diurnal = find(E17Regime::Diurnal, E17Arm::Adaptive);
        let control = diurnal.control.as_ref().expect("adaptive arm");
        let ups = control.scale_events.iter().filter(|e| e.up).count();
        let ins = control.scale_events.iter().filter(|e| !e.up).count();
        rows.push(Row::new(
            "diurnal scale events (up / in)",
            "the fleet breathes with the population swell",
            format!(
                "{ups} up / {ins} in, bill {} of {} shard-slots",
                control.shard_slots,
                E17_MAX_SHARDS as u64 * E17_SLOTS
            ),
        ));
        let arms_played: std::collections::BTreeSet<&str> = control
            .windows
            .iter()
            .filter(|w| w.offered > 0)
            .map(|w| w.arm.label())
            .collect();
        let exploited = control
            .windows
            .iter()
            .rev()
            .find(|w| w.offered > 0)
            .map_or("-", |w| w.arm.label());
        rows.push(Row::new(
            "bandit balancer selection (diurnal)",
            "UCB explores all arms, then exploits",
            format!(
                "played {{{}}}, settled on {} over {} windows",
                arms_played.into_iter().collect::<Vec<_>>().join(","),
                exploited,
                control.windows.len()
            ),
        ));
        let surge = find(E17Regime::Surge, E17Arm::Adaptive);
        rows.push(Row::new(
            "surge regime sessions lost vs static",
            "warm-up is the cost of starting small",
            format!(
                "adaptive rejects {} vs static {} of {}",
                surge.cluster.rejected(),
                find(E17Regime::Surge, E17Arm::Static).cluster.rejected(),
                surge.cluster.offered()
            ),
        ));
        rows
    }
}

/// X1 — lip synchronisation (extension; §2.1's temporal relationship,
/// not a numbered claim of the paper).
#[must_use]
pub fn x1_lip_sync() -> Experiment {
    use dms_media::sync::LipSyncScenario;
    let scenario = LipSyncScenario::streaming_default().expect("preset valid");
    let tolerance = 20.0;
    let before = scenario.evaluate(0.0, tolerance, 7);
    let offset = scenario.optimal_offset(tolerance, 7);
    let after = scenario.evaluate(offset, tolerance, 7);
    Experiment {
        id: "X1",
        title: "Extension: lip-sync skew and sink-side sync buffering (§2.1)",
        rows: vec![
            Row::new(
                "in-sync fraction at ±20 ms, unbuffered",
                "streams must sync \"at precise time instances\"",
                format!("{:.1}%", before.in_sync_fraction * 100.0),
            ),
            Row::new(
                "after optimal sync buffer",
                "buffering trades latency for sync",
                format!(
                    "{:.1}% with {:.1} ms of audio buffering",
                    after.in_sync_fraction * 100.0,
                    offset
                ),
            ),
        ],
        log: RunLog::new(),
    }
}

/// X2 — CTMC transient vs stationary behaviour (extension; the §2.2
/// timed-formalism machinery exercised end to end).
#[must_use]
pub fn x2_ctmc_transient() -> Experiment {
    use dms_analysis::ContinuousMarkovChain;
    let chain = ContinuousMarkovChain::birth_death(8, 0.8, 1.0).expect("valid rates");
    let initial = {
        let mut v = vec![0.0; 9];
        v[0] = 1.0;
        v
    };
    let pi = chain.stationary().expect("converges");
    let l1 = |d: &[f64]| -> f64 { d.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum() };
    let early = chain.transient(&initial, 1.0).expect("valid");
    let late = chain.transient(&initial, 50.0).expect("valid");
    Experiment {
        id: "X2",
        title: "Extension: CTMC transient convergence to steady state (§2.2)",
        rows: vec![
            Row::new(
                "L1 distance to pi at t=1",
                "decays towards 0",
                format!("{:.4}", l1(&early)),
            ),
            Row::new(
                "L1 distance to pi at t=50",
                "~0 (steady state reached)",
                format!("{:.2e}", l1(&late)),
            ),
        ],
        log: RunLog::new(),
    }
}

/// X3 — flit-level validation of the mapping energy model (extension):
/// the cycle-accurate NoC simulator, driven by the mapped VOPD traffic,
/// must agree with the analytical `(h+1)·E_R + h·E_L` model about which
/// placement is cheaper.
#[must_use]
pub fn x3_mapped_validation() -> Experiment {
    use dms_noc::traffic::MappedTraffic;
    let graph = CoreGraph::vopd();
    let mesh = Mesh2d::new(4, 4).expect("valid");
    let mapper = Mapper::new(&graph, &mesh).expect("fits");
    let good = mapper.simulated_annealing(3);
    let bad = mapper.random(1);
    let mut cfg = NocConfig::mesh4x4();
    cfg.inject_cycles = 10_000;
    cfg.drain_cycles = 30_000;
    let run = |mapping: &dms_noc::mapping::TileMapping| {
        let traffic =
            MappedTraffic::from_mapping(&graph, mapping, &mesh, 0.02).expect("VOPD has traffic");
        NocSim::run_mapped(cfg, &traffic, 43).expect("valid")
    };
    let r_good = run(&good);
    let r_bad = run(&bad);
    let analytic_good = mapper.energy(&good).expect("valid");
    let analytic_bad = mapper.energy(&bad).expect("valid");
    Experiment {
        id: "X3",
        title: "Extension: flit-level simulation validates the analytical mapping energy",
        rows: vec![
            Row::new(
                "analytical energy ratio (random / SA)",
                "> 1 (SA mapping cheaper)",
                format!("{:.2}", analytic_bad / analytic_good),
            ),
            Row::new(
                "simulated energy/byte ratio (random / SA)",
                "> 1, same ordering as the model",
                format!(
                    "{:.2}",
                    r_bad.energy_per_byte_pj / r_good.energy_per_byte_pj
                ),
            ),
            Row::new(
                "simulated busiest-link flits (SA)",
                "bottleneck identified",
                format!(
                    "{} (mean {:.0})",
                    r_good.max_link_flits, r_good.mean_link_flits
                ),
            ),
        ],
        log: RunLog::new(),
    }
}

/// X4 — ARQ retransmission energetics and the optimal wireless packet
/// size (extension; §2.1's "how much retransmission can be afforded",
/// the wireless twin of E4).
#[must_use]
pub fn x4_arq_packet_size() -> Experiment {
    use dms_wireless::arq::ArqLink;
    use dms_wireless::modulation::Modulation;
    let radio = Transceiver::default_radio().expect("preset valid");
    let clean = ArqLink::new(1e-5, 64, 8).expect("valid");
    let noisy = ArqLink::new(1e-3, 64, 8).expect("valid");
    let (best_clean, e_clean) = clean
        .optimal_payload_bits(&radio, Modulation::Qpsk, 0.1, 16, 1 << 20)
        .expect("valid range");
    let (best_noisy, e_noisy) = noisy
        .optimal_payload_bits(&radio, Modulation::Qpsk, 0.1, 16, 1 << 20)
        .expect("valid range");
    Experiment {
        id: "X4",
        title: "Extension: ARQ energetics and optimal wireless packet size (§2.1)",
        rows: vec![
            Row::new(
                "optimal payload at BER 1e-5",
                "interior optimum (headers vs retransmissions)",
                format!(
                    "{} bits ({:.2} nJ/delivered bit)",
                    best_clean,
                    e_clean * 1e9
                ),
            ),
            Row::new(
                "optimal payload at BER 1e-3",
                "shrinks on noisier links",
                format!(
                    "{} bits ({:.2} nJ/delivered bit)",
                    best_noisy,
                    e_noisy * 1e9
                ),
            ),
            Row::new(
                "ordering",
                "noisy optimum < clean optimum",
                format!("{}", best_noisy < best_clean),
            ),
        ],
        log: RunLog::new(),
    }
}

/// Runs one experiment and returns its rows and run-log.
pub type ExperimentFn = fn() -> Experiment;

/// Every reproduced experiment by id, in DESIGN.md order, extensions
/// last: the one table [`all_experiments`], the `experiments` binary
/// and `bench_smoke` read.
pub const EXPERIMENTS: [(&str, ExperimentFn); 23] = [
    ("F1", fig1_stream),
    ("F2", fig2_design_flow),
    ("E1", e1_asip_speedup),
    ("E2", e2_traffic),
    ("E3", e3_noc_mapping),
    ("E4", e4_packet_size),
    ("E5", e5_scheduling),
    ("E6", e6_modulation),
    ("E7", e7_image_tx),
    ("E8", e8_fgs_streaming),
    ("E9", e9_manet_routing),
    ("E10", e10_steady_state),
    ("E11", e11_ambient),
    ("E12", run_sweep::<E12ServerLoad>),
    ("E13", run_sweep::<E13Resilience>),
    ("E14", run_sweep::<E14ScaleOut>),
    ("E15", run_sweep::<E15MegaScale>),
    ("E16", run_sweep::<E16GeoTiered>),
    ("E17", run_sweep::<E17AdaptiveFleet>),
    ("X1", x1_lip_sync),
    ("X2", x2_ctmc_transient),
    ("X3", x3_mapped_validation),
    ("X4", x4_arq_packet_size),
];

/// Every experiment of [`EXPERIMENTS`], in table order.
///
/// The experiments are mutually independent and fully seeded, so they
/// run concurrently on a [`ParRunner`]; the job-order merge returns
/// them in exactly the sequence the old sequential loop produced
/// (`DMS_THREADS=1` forces that loop back).
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    ParRunner::new().run(EXPERIMENTS.len(), |i| (EXPERIMENTS[i].1)())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    #[test]
    fn every_experiment_produces_rows() {
        for ((id, _), exp) in EXPERIMENTS.iter().zip(all_experiments()) {
            assert_eq!(*id, exp.id, "table id vs experiment id");
            assert!(!exp.rows.is_empty(), "{} has no rows", exp.id);
            for row in &exp.rows {
                assert!(!row.metric.is_empty());
                assert!(!row.measured.is_empty());
            }
        }
    }

    /// The run-log's metadata value for `key`.
    fn meta<'a>(log: &'a RunLog, key: &str) -> Option<&'a str> {
        log.meta_entries().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Field `name` of a record, through its rendered JSON shape.
    fn field(record: &RunRecord, name: &str) -> Option<dms_sim::JsonValue> {
        record.to_json().get("fields")?.get(name).cloned()
    }

    /// A record's kind, through its rendered JSON shape.
    fn kind(record: &RunRecord) -> Option<String> {
        let json = record.to_json();
        json.get("kind")?.as_str().map(str::to_string)
    }

    #[test]
    fn run_logs_carry_rows_and_meta() {
        let exp = x4_arq_packet_size();
        let log = run_log_for(&exp);
        assert_eq!(meta(&log, "experiment"), Some(exp.id));
        assert_eq!(meta(&log, "title"), Some(exp.title));
        assert_eq!(log.records().len(), exp.rows.len());
        for row in &exp.rows {
            assert!(
                log.records()
                    .iter()
                    .any(|r| field(r, "metric")
                        == Some(dms_sim::JsonValue::from(row.metric.as_str()))),
                "row {} missing from run-log",
                row.metric
            );
        }
        // Building the same log twice yields an equal log, which
        // streams to identical bytes — the property the CI
        // `DMS_THREADS` diff leans on.
        assert_eq!(log, run_log_for(&exp));
    }

    /// Times each toy point ran; only `run_sweep_runs_each_point_once`
    /// runs the toy sweep.
    static TOY_RUNS: [AtomicUsize; 5] = [const { AtomicUsize::new(0) }; 5];

    /// Five points whose outcome is ten times the point.
    struct Toy;

    impl Sweep for Toy {
        type Point = usize;
        type Outcome = u64;
        const ID: &'static str = "T1";
        const TITLE: &'static str = "toy sweep";

        fn points() -> Vec<usize> {
            (0..5).collect()
        }

        fn run(point: &usize) -> u64 {
            TOY_RUNS[*point].fetch_add(1, SeqCst);
            *point as u64 * 10
        }

        fn meta() -> Vec<(&'static str, String)> {
            vec![("points", "5".to_string())]
        }

        fn export(point: &usize, outcome: &u64, registry: &mut MetricsRegistry) {
            registry.series_extend("toy/order", [*point as f64]);
            registry.counter_add(&format!("toy/p{point}/value"), *outcome);
        }

        fn record(point: &usize, outcome: &u64) -> RunRecord {
            RunRecord::new("toy-point")
                .with("point", *point as u64)
                .with("value", *outcome)
        }

        fn rows(grid: &Grid<Self>) -> Vec<Row> {
            (0..5)
                .map(|i| Row::new(format!("p{i}"), "-", grid.find(|p| *p == i).to_string()))
                .collect()
        }
    }

    #[test]
    fn run_sweep_runs_each_point_once() {
        let exp = run_sweep::<Toy>();
        let runs: Vec<usize> = TOY_RUNS.iter().map(|r| r.load(SeqCst)).collect();
        assert_eq!(runs, [1; 5], "each point runs exactly once");
        // Records and the merged series come out in grid order, and
        // the rows read the same outcomes the records carry.
        let log = &exp.log;
        assert_eq!(meta(log, "points"), Some("5"));
        assert_eq!(
            log.registry().get("toy/order"),
            Some(&Metric::Series(vec![0.0, 1.0, 2.0, 3.0, 4.0]))
        );
        let values: Vec<String> = log
            .records()
            .iter()
            .map(|r| {
                assert_eq!(kind(r).as_deref(), Some("toy-point"));
                field(r, "value")
                    .expect("toy records carry a value")
                    .render()
            })
            .collect();
        assert_eq!(values, ["0", "10", "20", "30", "40"]);
        let measured: Vec<&str> = exp.rows.iter().map(|r| r.measured.as_str()).collect();
        assert_eq!(measured, values);
        assert_eq!(
            log.registry().get("toy/p3/value"),
            Some(&Metric::Counter(30))
        );
        // run_log_for re-runs nothing and appends one `row` per row.
        let full = run_log_for(&exp);
        assert!(TOY_RUNS.iter().all(|r| r.load(SeqCst) == 1));
        assert_eq!(&full.records()[..5], log.records());
        let rows: Vec<&RunRecord> = full.records()[5..].iter().collect();
        assert_eq!(rows.len(), exp.rows.len());
        assert!(rows.iter().all(|r| kind(r).as_deref() == Some("row")));
        assert_eq!(meta(&full, "experiment"), Some("T1"));
    }

    /// Guards the EXPERIMENTS.md headline numbers: if a model change
    /// pushes a reproduction out of its claimed band, this test (and CI)
    /// catches it before the documentation silently goes stale.
    #[test]
    fn headline_bands_hold() {
        // E1: 5–10× speed-up (12 allows model headroom), <10 custom
        // instructions, <200k gates.
        let e1 = e1_asip_speedup();
        let speedup: f64 = e1.rows[0]
            .measured
            .trim_end_matches('x')
            .parse()
            .expect("speed-up row is a number");
        assert!((5.0..=12.0).contains(&speedup), "E1 speed-up {speedup}");
        let instructions: u32 = e1.rows[1].measured.parse().expect("count row");
        assert!(instructions < 10);
        let gates: u64 = e1.rows[2].measured.parse().expect("gates row");
        assert!(gates < 200_000);

        // E3: >40% saving vs the communication-oblivious baseline.
        let e3 = e3_noc_mapping();
        let saving: f64 = e3.rows[0]
            .measured
            .split('%')
            .next()
            .expect("percentage")
            .parse()
            .expect("saving row");
        assert!(saving > 40.0, "E3 saving {saving}%");

        // E12: at 1.2x offered load the controlled server keeps mean
        // utility within 25% of the 0.8x baseline, while the
        // uncontrolled server misses deadlines > 5x more often.
        for &ss in &[false, true] {
            let base = e12_run_point_instrumented(
                E12Point {
                    load: 0.8,
                    self_similar: ss,
                    arm: E12Arm::Controlled,
                },
                None,
            );
            let ctl = e12_run_point_instrumented(
                E12Point {
                    load: 1.2,
                    self_similar: ss,
                    arm: E12Arm::Controlled,
                },
                None,
            );
            let unc = e12_run_point_instrumented(
                E12Point {
                    load: 1.2,
                    self_similar: ss,
                    arm: E12Arm::Uncontrolled,
                },
                None,
            );
            assert!(
                ctl.mean_utility() >= 0.75 * base.mean_utility(),
                "E12 ss={ss}: controlled utility {} vs baseline {}",
                ctl.mean_utility(),
                base.mean_utility()
            );
            assert!(
                unc.miss_rate() > 5.0 * ctl.miss_rate() && unc.miss_rate() > 0.05,
                "E12 ss={ss}: uncontrolled miss {} vs controlled {}",
                unc.miss_rate(),
                ctl.miss_rate()
            );
        }

        // E13: after the correlated crash bursts the controlled arm
        // (retry + backoff readmission) recovers >= 80% of pre-fault
        // delivered utility while the arms without recovery do not —
        // they refill crashed sessions only by new arrivals.
        let run = |arm| {
            let mut sink = ServeMetricsSink::with_capacity(E13_SLOTS as usize);
            let report = e13_run_point_instrumented(
                E13Point {
                    intensity: E13Intensity::Crash,
                    arm,
                },
                Some(&mut sink),
            );
            (report, e13_recovered_fraction(&sink))
        };
        let (ctl, ctl_rf) = run(E12Arm::Controlled);
        let (unc, unc_rf) = run(E12Arm::Uncontrolled);
        assert!(
            ctl_rf >= 0.8,
            "E13: controlled recovered fraction {ctl_rf} < 0.8"
        );
        assert!(
            unc_rf < 0.8,
            "E13: uncontrolled recovered fraction {unc_rf} not below 0.8"
        );
        assert!(
            ctl.readmitted * 10 >= ctl.crashed * 9,
            "E13: too few crash victims readmitted ({} crashed, {} readmitted)",
            ctl.crashed,
            ctl.readmitted
        );
        assert_eq!(unc.retries, 0, "uncontrolled arm must not retry");

        // E14: on the skewed 8-shard fleet just past saturation, the
        // predictor-guided balancers deliver >= 1.5x the oblivious
        // round-robin utility; at 0.7x the jsq fleet scales >= 6x from
        // 1 to 8 shards; and when one of four shards dies at 0.7x,
        // cross-shard re-routing keeps >= 90% of pre-crash utility.
        let e14 = |balancer, crash| {
            let point = E14Point {
                shards: if crash { 4 } else { 8 },
                load: if crash { 0.7 } else { 1.05 },
                balancer,
                crash,
            };
            let mut sinks = Vec::new();
            let report = e14_run_point_instrumented(point, Some(&mut sinks));
            let recovered = e14_recovered_fraction(&sinks);
            (report, recovered)
        };
        let (rr, _) = e14(BalancerPolicy::RoundRobin, false);
        let (jsq, _) = e14(BalancerPolicy::JoinShortestQueue, false);
        let (p2c, _) = e14(BalancerPolicy::PowerOfTwoChoices, false);
        assert!(
            jsq.utility_sum() >= 1.5 * rr.utility_sum(),
            "E14: jsq utility {} not 1.5x rr {}",
            jsq.utility_sum(),
            rr.utility_sum()
        );
        assert!(
            p2c.utility_sum() >= 1.5 * rr.utility_sum(),
            "E14: p2c utility {} not 1.5x rr {}",
            p2c.utility_sum(),
            rr.utility_sum()
        );
        let one = e14_run_point_instrumented(
            E14Point {
                shards: 1,
                load: 0.7,
                balancer: BalancerPolicy::JoinShortestQueue,
                crash: false,
            },
            None,
        );
        let eight = e14_run_point_instrumented(
            E14Point {
                shards: 8,
                load: 0.7,
                balancer: BalancerPolicy::JoinShortestQueue,
                crash: false,
            },
            None,
        );
        assert!(
            eight.utility_sum() >= 6.0 * one.utility_sum(),
            "E14: 8-shard utility {} not 6x the 1-shard {}",
            eight.utility_sum(),
            one.utility_sum()
        );
        let (jsq_crash, jsq_rf) = e14(BalancerPolicy::JoinShortestQueue, true);
        assert!(
            jsq_rf >= 0.9,
            "E14: crash recovered fraction {jsq_rf} < 0.9"
        );
        assert!(
            jsq_crash.dispatch.rerouted > 0,
            "E14: no sessions re-routed off the dead shard"
        );

        // E16: at the overload point the tiered arm beats the flat
        // single-tier fleet on delivered utility AND last-hop energy
        // per bit at equal offered load, its caches absorb a healthy
        // hit ratio, and it keeps the origin cooler than the flat arm.
        let peak = E16_LOADS[2];
        let tiered = E16GeoTiered::run(&E16Point {
            arm: E16Arm::Tiered,
            load: peak,
        });
        let flat = E16GeoTiered::run(&E16Point {
            arm: E16Arm::Flat,
            load: peak,
        });
        assert_eq!(
            tiered.offered(),
            flat.offered(),
            "E16: the arms must see identical offered load"
        );
        assert!(
            tiered.delivered_utility() >= 1.2 * flat.delivered_utility(),
            "E16: tiered delivered utility {} not 1.2x flat {}",
            tiered.delivered_utility(),
            flat.delivered_utility()
        );
        assert!(
            tiered.energy_per_bit() < flat.energy_per_bit(),
            "E16: tiered energy/bit {} not below flat {}",
            tiered.energy_per_bit(),
            flat.energy_per_bit()
        );
        assert!(
            tiered.hit_ratio() > 0.3,
            "E16: hit ratio {} too cold",
            tiered.hit_ratio()
        );
        assert!(
            tiered.origin_load() < flat.origin_load(),
            "E16: tiered origin load {} not below flat {}",
            tiered.origin_load(),
            flat.origin_load()
        );

        // E17: the adaptive fleet's utility-per-shard-hour is
        // strictly above the static peak-provisioned baseline on the
        // trough and diurnal regimes (the autoscaler's raison d'être)
        // at byte-identical offered traces, with real margin on each.
        for (regime, margin) in [(E17Regime::Trough, 2.0), (E17Regime::Diurnal, 1.3)] {
            let adaptive = E17AdaptiveFleet::run(&E17Point {
                regime,
                arm: E17Arm::Adaptive,
            });
            let fixed = E17AdaptiveFleet::run(&E17Point {
                regime,
                arm: E17Arm::Static,
            });
            assert_eq!(
                adaptive.cluster.offered(),
                fixed.cluster.offered(),
                "E17 {}: the arms must see identical offered traces",
                regime.label()
            );
            assert!(
                adaptive.utility_per_shard_hour() > margin * fixed.utility_per_shard_hour(),
                "E17 {}: adaptive {} not {}x static {}",
                regime.label(),
                adaptive.utility_per_shard_hour(),
                margin,
                fixed.utility_per_shard_hour()
            );
        }
        // The diurnal run actually breathes: at least one scale-up
        // and one scale-in, and the bill stays under the ceiling.
        let diurnal = E17AdaptiveFleet::run(&E17Point {
            regime: E17Regime::Diurnal,
            arm: E17Arm::Adaptive,
        });
        let control = diurnal.control.as_ref().expect("adaptive control trace");
        assert!(
            control.scale_events.iter().any(|e| e.up),
            "E17: no scale-up"
        );
        assert!(
            control.scale_events.iter().any(|e| !e.up),
            "E17: no scale-in"
        );
        assert!(
            control.shard_slots < E17_MAX_SHARDS as u64 * E17_SLOTS,
            "E17: diurnal bill {} not below the static ceiling",
            control.shard_slots
        );

        // E9: battery-cost routing improves lifetime by >20%.
        let e9 = e9_manet_routing();
        let improvement: f64 = e9.rows[0]
            .measured
            .split('%')
            .next()
            .expect("percentage")
            .trim_start_matches('+')
            .parse()
            .expect("improvement row");
        assert!(improvement > 20.0, "E9 improvement {improvement}%");
    }
}
