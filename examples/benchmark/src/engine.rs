//! `mega-server` and `overload-faults`: one `ServerEngine` stepped slot
//! by slot from outside. A plain repetition adds one `Instant` pair
//! around each `step_slot`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dms_serve::{
    FaultReport, RecoveryConfig, ServeMetricsSink, ServerConfig, ServerEngine, ServerReport,
    Workload,
};
use dms_sim::{
    FaultPlan, JsonValue, MetricsRegistry, RunLogReader, RunLogSummary, RunLogWriter, RunRecord,
    TailState,
};

use crate::harness::{self, Outcome, Plan};
use crate::stats::{self, Digest};
use crate::trace::{timed, Tracer};
use crate::workloads::{self, Kind, Shape};

pub struct Input {
    config: ServerConfig,
    workload: Workload,
    plan: Option<FaultPlan>,
    recovery: Option<RecoveryConfig>,
    /// Link capacity of each slot in bits, under the fault plan.
    capacities: Vec<u64>,
    /// Where `overload-faults` streams its run-log; `None` for
    /// `mega-server`, which runs no sink and writes no log.
    runlog_dir: Option<PathBuf>,
}

/// What the run-log of one repetition held when read back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLogStats {
    pub records: u64,
    pub chunks: u32,
    pub bytes: u64,
    pub read_back: u64,
    pub clean: bool,
    pub delivered_bits: u64,
}

/// Layer times of a traced repetition, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    offer_ns: u64,
    step_ns: u64,
    export_ns: u64,
    record_ns: u64,
    finish_ns: u64,
}

pub struct Rep {
    run_s: f64,
    ticks_ms: Vec<f64>,
    /// Slots whose delivered bits reached 99% of that slot's capacity:
    /// the engine took its water-fill sort path, which it does when the
    /// backlog exceeds the capacity, and then delivers all of it but at
    /// most one bit per session.
    pub full: Vec<bool>,
    pub report: FaultReport,
    pub runlog: Option<RunLogStats>,
    layers: Layers,
}

pub fn setup(
    kind: Kind,
    shape: &Shape,
    seed: u64,
    out_dir: &Path,
    tr: Option<&mut Tracer>,
) -> Result<Input, String> {
    let mut tr = tr;
    let workload = workloads::generate(shape, seed, &mut tr)?;
    let link = workloads::link_bits(shape, &workload.template);
    let faulted = kind == Kind::OverloadFaults;
    let (config, plan, recovery) = if faulted {
        let plan = timed(&mut tr, "sim.faults/compile", 1, || {
            workloads::fault_plan(shape.slots, seed)
        })?;
        (
            workloads::overload_config(link),
            Some(plan),
            Some(RecoveryConfig::default()),
        )
    } else {
        (workloads::mega_config(link), None, None)
    };
    let capacities = workloads::slot_capacities(link, plan.as_ref(), shape.slots);
    let input = Input {
        config,
        workload,
        plan,
        recovery,
        capacities,
        runlog_dir: faulted.then(|| out_dir.join(format!("runlog-{}", std::process::id()))),
    };
    timed(&mut tr, "serve.engine/new", 1, || new_engine(&input))?;
    Ok(input)
}

fn new_engine(input: &Input) -> Result<ServerEngine, String> {
    ServerEngine::with_faults(
        &input.config,
        input.workload.template,
        input.workload.slots,
        input.plan.as_ref(),
        input.recovery.as_ref(),
    )
    .map_err(|e| format!("engine: {e}"))
}

/// The bounded sink and run-log writer `overload-faults` records into.
struct Telemetry {
    sink: ServeMetricsSink,
    writer: RunLogWriter,
}

/// One repetition: inject every offer, step to the horizon, finish.
/// The engine is built before the clock starts; the run phase covers
/// injection, stepping, the sink and the run-log.
pub fn rep(input: &Input, tr: Option<&mut Tracer>) -> Result<Rep, String> {
    let mut tr = tr;
    let mut engine = new_engine(input)?;
    let sessions = &input.workload.sessions;
    let slots = input.workload.slots;
    let mark = tr.as_deref().map_or(0, |t| t.spans().len());
    let mut ticks_ms = Vec::with_capacity(slots as usize);
    let mut full = Vec::with_capacity(slots as usize);

    let start = Instant::now();
    timed(&mut tr, "serve.engine/offer", sessions.len() as u64, || {
        engine.reserve(sessions.len());
        for &req in sessions {
            engine.offer(req);
        }
    });
    let mut telemetry = match &input.runlog_dir {
        Some(dir) => Some(Telemetry {
            sink: ServeMetricsSink::bounded(),
            writer: timed(&mut tr, "sim.runlog/create", 1, || {
                RunLogWriter::create(dir)
            })
            .map_err(|e| format!("run-log create: {e}"))?,
        }),
        None => None,
    };
    let mut delivered = 0u64;
    for slot in 0..slots {
        let a = Instant::now();
        engine.step_slot(telemetry.as_mut().map(|t| &mut t.sink));
        let b = Instant::now();
        ticks_ms.push((b - a).as_secs_f64() * 1e3);
        if let Some(t) = tr.as_deref_mut() {
            t.leaf("serve.engine/step_slot", a, b, 1);
        }
        let delta = engine.delivered_bits() - delivered;
        delivered += delta;
        let capacity = input.capacities[slot as usize];
        full.push(u128::from(delta) * 100 >= u128::from(capacity) * 99);
        if let Some(tel) = telemetry.as_mut() {
            timed(&mut tr, "sim.runlog/record", 1, || {
                tel.writer.record(
                    &RunRecord::new("slot")
                        .at(slot)
                        .with("admitted", engine.admitted())
                        .with("rejected", engine.rejected())
                        .with("delivered_bits", delta),
                )
            })
            .map_err(|e| format!("run-log record: {e}"))?;
        }
    }
    let report = timed(&mut tr, "serve.engine/finish", 1, || engine.finish());
    let summary = match telemetry {
        Some(tel) => {
            let mut registry = MetricsRegistry::new();
            timed(&mut tr, "serve.metrics/export", 1, || {
                tel.sink.export(&mut registry, "serve");
            });
            let summary = timed(&mut tr, "sim.runlog/finish", 1, || {
                tel.writer.finish(&registry)
            })
            .map_err(|e| format!("run-log finish: {e}"))?;
            Some(summary)
        }
        None => None,
    };
    let run_s = start.elapsed().as_secs_f64();

    let layers = match tr.as_deref() {
        Some(t) => Layers {
            offer_ns: t.sum_since(mark, "serve.engine/offer").0,
            step_ns: t.sum_since(mark, "serve.engine/step_slot").0,
            export_ns: t.sum_since(mark, "serve.metrics/export").0,
            record_ns: t.sum_since(mark, "sim.runlog/record").0,
            finish_ns: t.sum_since(mark, "sim.runlog/finish").0,
        },
        None => Layers::default(),
    };
    // Verification reads the log back after the clock stopped.
    let runlog = match (&input.runlog_dir, summary) {
        (Some(dir), Some(summary)) => Some(read_back(dir, summary)?),
        _ => None,
    };
    Ok(Rep {
        run_s,
        ticks_ms,
        full,
        report,
        runlog,
        layers,
    })
}

/// Reads a run-log directory back through `RunLogReader`, next to what
/// its writer reported.
fn read_back(dir: &Path, written: RunLogSummary) -> Result<RunLogStats, String> {
    let reader = RunLogReader::open(dir).map_err(|e| format!("run-log open: {e}"))?;
    let (mut read_back, mut delivered_bits) = (0u64, 0u64);
    let tail = reader
        .for_each_record(|rec| {
            read_back += 1;
            delivered_bits += rec
                .get("fields")
                .and_then(|f| f.get("delivered_bits"))
                .and_then(JsonValue::as_f64)
                .map_or(0, |v| v as u64);
        })
        .map_err(|e| format!("run-log read: {e}"))?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("run-log list: {e}"))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("run-log stat: {e}"))?;
        bytes += meta.len();
    }
    Ok(RunLogStats {
        records: written.records,
        chunks: written.chunks,
        bytes,
        read_back,
        clean: tail == TailState::Clean,
        delivered_bits,
    })
}

pub fn digest_report(d: &mut Digest, r: &ServerReport) {
    d.word(r.offered)
        .word(r.admitted)
        .word(r.rejected)
        .word(r.session_slots)
        .word(r.deadline_misses)
        .float(r.utility_sum)
        .word(r.delivered_bits)
        .word(r.buffer_dropped_bits)
        .word(r.purged_bits)
        .float(r.predicted_occupancy)
        .float(r.measured_occupancy)
        .float(r.mean_layers)
        .word(r.slots);
}

/// Digest of a repetition's exact outputs: the report, the link-full
/// slot count and the run-log's shape.
pub fn digest(rep: &Rep) -> u64 {
    let mut d = Digest::default();
    let f = &rep.report;
    digest_report(&mut d, &f.base);
    d.word(f.crashed)
        .word(f.timed_out)
        .word(f.retries)
        .word(f.readmitted)
        .word(f.retry_rejected)
        .word(f.lost_to_fault_bits)
        .word(f.stall_slots)
        .word(f.stalls_detected)
        .word(f.capacity_reestimates)
        .word(f.degraded_slots)
        .word(rep.full.iter().filter(|&&x| x).count() as u64);
    if let Some(log) = &rep.runlog {
        d.word(log.records)
            .word(u64::from(log.chunks))
            .word(log.bytes);
    }
    d.value()
}

/// Ledger checks of one repetition; returns sessions left undecided.
pub fn check_rep(out: &mut Outcome, input_sessions: u64, slots: u64, rep: &Rep) -> u64 {
    let r = &rep.report.base;
    out.check(r.offered == input_sessions, || {
        format!("offered {} != workload {input_sessions}", r.offered)
    });
    out.check(r.admitted + r.rejected == r.offered, || {
        format!(
            "admitted {} + rejected {} != offered {}",
            r.admitted, r.rejected, r.offered
        )
    });
    if let Some(log) = &rep.runlog {
        out.check(log.clean, || "run-log tail is not clean".to_string());
        out.check(log.records == slots && log.read_back == slots, || {
            format!(
                "run-log holds {} records ({} read back), expected {slots}",
                log.records, log.read_back
            )
        });
        out.check(log.delivered_bits == r.delivered_bits, || {
            format!(
                "run-log delivered {} bits, report {}",
                log.delivered_bits, r.delivered_bits
            )
        });
    }
    input_sessions.saturating_sub(r.admitted + r.rejected)
}

pub fn run(
    kind: Kind,
    seed: u64,
    plan: &Plan,
    tracer: &mut Tracer,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let shape = Shape::of(kind);
    let runs = harness::measure(
        plan,
        tracer,
        |tr| setup(kind, &shape, seed, out_dir, tr),
        rep,
    )?;
    if let Some(dir) = &runs.input.runlog_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut out = Outcome {
        params: shape.describe(),
        ..Outcome::default()
    };
    let offered = runs.input.workload.sessions.len() as u64;
    let slots = runs.input.workload.slots;
    let all: Vec<&Rep> = runs.plain.iter().chain(&runs.traced).collect();
    for rep in &all {
        out.attempted += offered;
        out.failed += check_rep(&mut out, offered, slots, rep);
    }
    out.check_repeatable(&all.iter().map(|r| digest(r)).collect::<Vec<_>>());
    out.record_times(&runs, |r| r.run_s);

    let base = &runs.plain[0].report.base;
    if !plan.traced {
        out.set_run_metrics(offered, runs.peak_rss_mib);
        out.set(
            "tick_p50_ms",
            stats::min_by(&runs.plain, |r| stats::median(&r.ticks_ms)),
        );
        out.set(
            "admit_ratio",
            stats::ratio(base.admitted as f64, offered as f64),
        );
        out.set("mean_utility", base.mean_utility());
        out.set("on_time_ratio", 1.0 - base.miss_rate());
        return Ok(out);
    }

    out.set(
        "serve.engine.offer_ns",
        stats::median_by(&runs.traced, |r| r.layers.offer_ns as f64 / offered as f64),
    );
    out.set(
        "serve.engine.step_s",
        stats::median_by(&runs.traced, |r| r.layers.step_ns as f64 / 1e9),
    );
    out.set("serve.engine.session_slots", base.session_slots as f64);
    out.set(
        "serve.engine.step_ns_per_session_slot",
        stats::median_by(&runs.traced, |r| {
            stats::ratio(r.layers.step_ns as f64, base.session_slots as f64)
        }),
    );
    // Tick shapes come from the untraced repetitions of this invocation.
    let ticks: Vec<f64> = runs
        .plain
        .iter()
        .flat_map(|r| r.ticks_ms.iter().copied())
        .collect();
    let full: Vec<bool> = runs
        .plain
        .iter()
        .flat_map(|r| r.full.iter().copied())
        .collect();
    let pick = |want: bool| {
        ticks
            .iter()
            .zip(&full)
            .filter(|(_, &f)| f == want)
            .map(|(&t, _)| t)
            .collect::<Vec<f64>>()
    };
    out.set(
        "serve.engine.link_full_slot_share",
        stats::ratio(pick(true).len() as f64, ticks.len() as f64),
    );
    out.set(
        "serve.engine.tick_link_full_mean_ms",
        stats::mean(&pick(true)),
    );
    out.set(
        "serve.engine.tick_link_slack_mean_ms",
        stats::mean(&pick(false)),
    );
    let sorted = stats::sorted(ticks);
    out.set("serve.engine.tick_p90_ms", stats::quantile(&sorted, 0.90));
    out.set("serve.engine.tick_p99_ms", stats::quantile(&sorted, 0.99));
    out.set("serve.engine.tick_max_ms", stats::quantile(&sorted, 1.0));
    let f = &runs.plain[0].report;
    out.set("serve.faults.retries", f.retries as f64);
    out.set("serve.faults.readmitted", f.readmitted as f64);
    out.set("serve.faults.timed_out", f.timed_out as f64);
    out.set("serve.faults.crashed", f.crashed as f64);
    if kind == Kind::OverloadFaults {
        out.set("serve.degrade.mean_layers", base.mean_layers);
        out.set(
            "serve.metrics.export_ms",
            stats::median_by(&runs.traced, |r| r.layers.export_ns as f64 / 1e6),
        );
        out.set(
            "sim.runlog.record_us",
            stats::median_by(&runs.traced, |r| {
                r.layers.record_ns as f64 / 1e3 / slots as f64
            }),
        );
        out.set(
            "sim.runlog.finish_ms",
            stats::median_by(&runs.traced, |r| r.layers.finish_ns as f64 / 1e6),
        );
        if let Some(log) = &runs.plain[0].runlog {
            out.set("sim.runlog.bytes", log.bytes as f64);
            out.set("sim.runlog.chunks", f64::from(log.chunks));
        }
    }
    out.set_trace_summary(tracer);
    Ok(out)
}
