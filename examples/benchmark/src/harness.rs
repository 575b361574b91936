//! The measurement loop every workload shares, the metric catalogue,
//! and the correctness ledger of one invocation.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats;
use crate::trace::Tracer;

/// Set-ups timed before each repetition; `setup_s` is the median of
/// all set-ups of the run. Spreading them over the run matters: on a
/// shared virtual machine speed drifts over seconds, and set-ups run
/// back to back would all sample one moment of it.
pub const SETUPS_PER_REP: usize = 3;

/// End-to-end metrics, reported by a plain run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 8] = [
    ("sessions_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("admit_ratio", "ratio"),
    ("mean_utility", "ratio"),
    ("on_time_ratio", "ratio"),
    ("verified_ratio", "ratio"),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`). A layer a
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("serve.workload.template_s", "s"),
    ("serve.workload.generate_s", "s"),
    ("serve.engine.offer_ns", "ns"),
    ("serve.engine.step_s", "s"),
    ("serve.engine.session_slots", "count"),
    ("serve.engine.step_ns_per_session_slot", "ns"),
    ("serve.engine.link_full_slot_share", "ratio"),
    ("serve.engine.tick_link_full_mean_ms", "ms"),
    ("serve.engine.tick_link_slack_mean_ms", "ms"),
    ("serve.engine.tick_p90_ms", "ms"),
    ("serve.engine.tick_p99_ms", "ms"),
    ("serve.engine.tick_max_ms", "ms"),
    ("cluster.dispatch.s", "s"),
    ("cluster.dispatch.offer_ns", "ns"),
    ("cluster.dispatch.retry_ratio", "ratio"),
    ("cluster.dispatch.balancer_rejected_ratio", "ratio"),
    ("cluster.dispatch.shard_skew", "ratio"),
    ("cluster.shards.exec_s", "s"),
    ("cluster.shards.straggler_ratio", "ratio"),
    ("cluster.shards.parallel_efficiency", "ratio"),
    ("cluster.shards.step_ns_per_session_slot", "ns"),
    ("serve.faults.retries", "count"),
    ("serve.faults.readmitted", "count"),
    ("serve.faults.timed_out", "count"),
    ("serve.faults.crashed", "count"),
    ("serve.degrade.mean_layers", "layers"),
    ("serve.metrics.export_ms", "ms"),
    ("sim.runlog.record_us", "us"),
    ("sim.runlog.finish_ms", "ms"),
    ("sim.runlog.bytes", "bytes"),
    ("sim.runlog.chunks", "count"),
    ("net.codec.encode_ns_per_frame", "ns"),
    ("net.codec.decode_ns_per_frame", "ns"),
    ("net.codec.bytes_per_session", "bytes"),
    ("net.socket.write_us_per_slot", "us"),
    ("net.socket.read_wait_us_per_slot", "us"),
    ("net.driver.on_frame_us_per_slot", "us"),
    ("net.verdict_rtt_p99_us", "us"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// How long to measure, and whether to add traced repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub traced: bool,
}

/// Timed set-ups and repetitions of one invocation.
pub struct Runs<I, R> {
    pub input: I,
    pub setup_s: Vec<f64>,
    pub plain: Vec<R>,
    pub traced: Vec<R>,
    /// Peak resident set after the first set-up and repetition, in MiB.
    pub peak_rss_mib: f64,
}

/// Runs one set-up and one untimed warm-up repetition, then, until
/// `plan.seconds` have passed, [`SETUPS_PER_REP`] timed set-ups and a
/// plain repetition (followed by a traced one when tracing). Each
/// set-up replaces the previous one, so two never coexist.
///
/// The warm-up matters: a process's first repetition runs on freshly
/// mapped pages and reads 5-25% slower than the ones after it. The peak
/// resident set is read right after it, which is what one run of the
/// workload costs: later repetitions raise the peak through allocator
/// fragmentation, by an amount that depends on how many fit in the run.
pub fn measure<I, R>(
    plan: &Plan,
    tracer: &mut Tracer,
    mut setup: impl FnMut(Option<&mut Tracer>) -> Result<I, String>,
    mut rep: impl FnMut(&I, Option<&mut Tracer>) -> Result<R, String>,
) -> Result<Runs<I, R>, String> {
    let mut setup_s = Vec::new();
    let mut input = None;
    let mut set_up = |input: &mut Option<I>, tracer: &mut Tracer| -> Result<(), String> {
        drop(input.take());
        let start = Instant::now();
        let built = if plan.traced {
            tracer.open("bench/setup");
            let built = setup(Some(&mut *tracer));
            tracer.close();
            built
        } else {
            setup(None)
        }?;
        setup_s.push(start.elapsed().as_secs_f64());
        *input = Some(built);
        Ok(())
    };
    set_up(&mut input, tracer)?;
    rep(input.as_ref().expect("set up"), None)?;
    let peak_rss_mib = peak_rss_mib();
    let begin = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        for _ in 0..SETUPS_PER_REP {
            set_up(&mut input, tracer)?;
        }
        let current = input.as_ref().expect("set up");
        plain.push(rep(current, None)?);
        if plan.traced {
            tracer.open("bench/run");
            let r = rep(current, Some(&mut *tracer));
            tracer.close();
            traced.push(r?);
        }
        if begin.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
    }
    Ok(Runs {
        input: input.expect("set up"),
        setup_s,
        plain,
        traced,
        peak_rss_mib,
    })
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one invocation measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Sessions offered, summed over every repetition.
    pub attempted: u64,
    /// Sessions with no verdict or a wrong one; all of them if any
    /// ledger, digest or repeatability check failed.
    pub failed: u64,
    /// Every failed check, in words.
    pub failures: Vec<String>,
    pub values: HashMap<&'static str, f64>,
    /// Workload parameters, for the fingerprint.
    pub params: String,
    /// Exact output digest (equal across repetitions).
    pub digest: u64,
    /// Run-phase seconds of each plain and traced repetition, and of
    /// each set-up.
    pub plain_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    pub setup_s: Vec<f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Keeps the run's set-up and repetition times.
    pub fn record_times<I, R>(&mut self, runs: &Runs<I, R>, run_s: impl Fn(&R) -> f64) {
        self.plain_s = runs.plain.iter().map(&run_s).collect();
        self.traced_s = runs.traced.iter().map(&run_s).collect();
        self.setup_s = runs.setup_s.clone();
    }

    /// The end-to-end metrics every workload measures the same way.
    /// Throughput comes from the fastest repetition: on a shared machine
    /// interference only ever adds time, so the fastest repetition is
    /// the one it disturbed least, and it repeats from run to run far
    /// better than the median does.
    pub fn set_run_metrics(&mut self, offered: u64, peak_rss_mib: f64) {
        self.set("sessions_per_s", offered as f64 / stats::min(&self.plain_s));
        self.set("setup_s", stats::median(&self.setup_s));
        self.set("peak_rss_mib", peak_rss_mib);
    }

    /// Checks that every repetition produced the same digest, and keeps it.
    pub fn check_repeatable(&mut self, digests: &[u64]) {
        self.digest = digests.first().copied().unwrap_or(0);
        let first = self.digest;
        self.check(digests.iter().all(|&d| d == first), || {
            format!("repetitions disagree: digests {digests:x?}")
        });
    }

    /// The per-layer metrics every traced run reports: set-up layers,
    /// tracing overhead and the unattributed share.
    pub fn set_trace_summary(&mut self, tracer: &Tracer) {
        self.set(
            "serve.workload.template_s",
            tracer.median_s("serve.workload/template"),
        );
        self.set(
            "serve.workload.generate_s",
            tracer.median_s("serve.workload/generate"),
        );
        let (rows, wall) = crate::trace::self_times(tracer.spans());
        let glue = rows
            .iter()
            .filter(|r| r.layer == "bench")
            .map(|r| r.self_ns)
            .sum::<u64>();
        self.set(
            "trace.overhead",
            stats::ratio(stats::min(&self.traced_s), stats::min(&self.plain_s)) - 1.0,
        );
        self.set(
            "trace.unattributed_share",
            stats::ratio(glue as f64, wall as f64),
        );
    }
}
