//! `fleet8`: the `mega-server` trace through `ClusterSim::dispatch` and
//! `run_dispatched` over eight admit-all shards behind JSQ.
//!
//! A traced repetition takes the same two phases apart through public
//! entry points: `FleetEndpoint::offer` per call for the dispatch, and
//! per-shard `ServerSim::run` on at most `threads` workers for the shard
//! phase. Both must reproduce the plain run's reports exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dms_cluster::{ClusterConfig, ClusterSim, DispatchReport, FleetEndpoint};
use dms_serve::{ServerReport, ServerSim, Workload};

use crate::engine::digest_report;
use crate::harness::{self, Outcome, Plan};
use crate::stats::{self, Digest};
use crate::trace::{timed, Tracer};
use crate::workloads::{self, Kind, Shape, FLEET_SHARDS};

pub struct Input {
    config: ClusterConfig,
    cluster: ClusterSim,
    workload: Workload,
    threads: usize,
}

/// Shard-phase times of a traced repetition.
#[derive(Debug, Clone, Default)]
struct Layers {
    offer_ns: u64,
    shard_ns: Vec<u64>,
    exec_ns: u64,
}

pub struct Rep {
    run_s: f64,
    dispatch_s: f64,
    exec_s: f64,
    pub dispatch: DispatchReport,
    pub shards: Vec<ServerReport>,
    layers: Layers,
}

pub fn setup(
    shape: &Shape,
    seed: u64,
    threads: usize,
    tr: Option<&mut Tracer>,
) -> Result<Input, String> {
    let mut tr = tr;
    let workload = workloads::generate(shape, seed, &mut tr)?;
    let config = workloads::fleet_config(workloads::link_bits(shape, &workload.template));
    let cluster = timed(&mut tr, "cluster.sim/new", 1, || {
        ClusterSim::new(config.clone())
    })
    .map_err(|e| format!("cluster: {e}"))?;
    Ok(Input {
        config,
        cluster,
        workload,
        threads,
    })
}

pub fn rep(input: &Input, tr: Option<&mut Tracer>) -> Result<Rep, String> {
    match tr {
        None => plain_rep(input),
        Some(t) => traced_rep(input, t),
    }
}

fn plain_rep(input: &Input) -> Result<Rep, String> {
    let start = Instant::now();
    let (workloads, dispatch) = input
        .cluster
        .dispatch(&input.workload, &[])
        .map_err(|e| format!("dispatch: {e}"))?;
    let mid = Instant::now();
    let report = input
        .cluster
        .run_dispatched(workloads, dispatch, &[], None)
        .map_err(|e| format!("shards: {e}"))?;
    let end = Instant::now();
    Ok(Rep {
        run_s: (end - start).as_secs_f64(),
        dispatch_s: (mid - start).as_secs_f64(),
        exec_s: (end - mid).as_secs_f64(),
        dispatch: report.dispatch,
        shards: report.shards.into_iter().map(|s| s.base).collect(),
        layers: Layers::default(),
    })
}

fn traced_rep(input: &Input, t: &mut Tracer) -> Result<Rep, String> {
    let wl = &input.workload;
    let mark = t.spans().len();
    let start = Instant::now();
    let mut tr = Some(&mut *t);
    let hint = wl.sessions.len() / FLEET_SHARDS + 1;
    let mut endpoint = timed(&mut tr, "cluster.dispatch/new", 1, || {
        FleetEndpoint::with_faults(&input.config, wl.template, wl.slots, &[], hint)
    })
    .map_err(|e| format!("endpoint: {e}"))?;
    // One span per slot's batch of offers (arrivals are in slot order).
    for batch in wl
        .sessions
        .chunk_by(|a, b| a.arrival_slot == b.arrival_slot)
    {
        timed(
            &mut tr,
            "cluster.dispatch/offer",
            batch.len() as u64,
            || {
                batch
                    .iter()
                    .try_for_each(|s| endpoint.offer(s.id, s.arrival_slot, s.duration_slots))
            },
        )
        .map_err(|e| format!("offer: {e}"))?;
    }
    let (workloads, dispatch) = timed(&mut tr, "cluster.dispatch/finish", 1, || endpoint.finish());
    let mid = Instant::now();

    let exec = t.open("cluster.shards/exec");
    let next = AtomicUsize::new(0);
    let workers = input.threads.clamp(1, FLEET_SHARDS);
    let done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut wt = t.for_thread(w as u64 + 1, Some(exec));
                let (next, workloads, config) = (&next, &workloads, &input.config);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= workloads.len() {
                            break;
                        }
                        let a = Instant::now();
                        let report =
                            ServerSim::new(config.shards[i]).and_then(|sim| sim.run(&workloads[i]));
                        let b = Instant::now();
                        wt.leaf("cluster.shards/run", a, b, 1);
                        out.push((i, report, (b - a).as_nanos() as u64));
                    }
                    (wt, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect::<Vec<_>>()
    });
    t.close();
    let end = Instant::now();

    let mut shards = vec![ServerReport::default(); workloads.len()];
    let mut layers = Layers {
        shard_ns: vec![0; workloads.len()],
        ..Layers::default()
    };
    for (wt, out) in done {
        t.absorb(wt);
        for (i, report, ns) in out {
            shards[i] = report.map_err(|e| format!("shard {i}: {e}"))?;
            layers.shard_ns[i] = ns;
        }
    }
    layers.offer_ns = t.sum_since(mark, "cluster.dispatch/offer").0;
    layers.exec_ns = t.sum_since(mark, "cluster.shards/exec").0;
    Ok(Rep {
        run_s: (end - start).as_secs_f64(),
        dispatch_s: (mid - start).as_secs_f64(),
        exec_s: (end - mid).as_secs_f64(),
        dispatch,
        shards,
        layers,
    })
}

pub fn digest(rep: &Rep) -> u64 {
    let mut d = Digest::default();
    let x = &rep.dispatch;
    d.word(x.offered)
        .word(x.dispatched)
        .word(x.balancer_rejected)
        .word(x.retries)
        .word(x.rerouted)
        .word(x.drained);
    for &n in &x.shard_sessions {
        d.word(n);
    }
    for s in &rep.shards {
        digest_report(&mut d, s);
    }
    d.value()
}

/// Conservation ledgers of one repetition; returns sessions unaccounted.
pub fn check_rep(out: &mut Outcome, offered: u64, rep: &Rep) -> u64 {
    let x = &rep.dispatch;
    out.check(x.offered == offered, || {
        format!("dispatch offered {} != workload {offered}", x.offered)
    });
    out.check(
        x.dispatched + x.balancer_rejected == x.offered + x.rerouted,
        || {
            format!(
                "dispatched {} + balancer_rejected {} != offered {} + rerouted {}",
                x.dispatched, x.balancer_rejected, x.offered, x.rerouted
            )
        },
    );
    out.check(x.shard_sessions.iter().sum::<u64>() == x.dispatched, || {
        format!(
            "shard sessions {:?} do not sum to dispatched {}",
            x.shard_sessions, x.dispatched
        )
    });
    let per_shard: Vec<u64> = rep.shards.iter().map(|s| s.offered).collect();
    out.check(per_shard == x.shard_sessions, || {
        format!(
            "shards were offered {per_shard:?}, dispatch routed {:?}",
            x.shard_sessions
        )
    });
    let decided: u64 = rep.shards.iter().map(|s| s.admitted + s.rejected).sum();
    let decided = decided + x.balancer_rejected;
    out.check(decided == x.offered + x.rerouted, || {
        format!(
            "admitted + rejected {decided} != offered {} + rerouted {}",
            x.offered, x.rerouted
        )
    });
    (x.offered + x.rerouted).saturating_sub(decided)
}

pub fn run(seed: u64, threads: usize, plan: &Plan, tracer: &mut Tracer) -> Result<Outcome, String> {
    let shape = Shape::of(Kind::Fleet8);
    let runs = harness::measure(plan, tracer, |tr| setup(&shape, seed, threads, tr), rep)?;

    let mut out = Outcome {
        params: format!(
            "{} shards={FLEET_SHARDS} balancer=jsq threads={threads}",
            shape.describe()
        ),
        ..Outcome::default()
    };
    let offered = runs.input.workload.sessions.len() as u64;
    let all: Vec<&Rep> = runs.plain.iter().chain(&runs.traced).collect();
    for rep in &all {
        out.attempted += offered;
        out.failed += check_rep(&mut out, offered, rep);
    }
    out.check_repeatable(&all.iter().map(|r| digest(r)).collect::<Vec<_>>());
    out.record_times(&runs, |r| r.run_s);

    let first = &runs.plain[0];
    let sum = |f: fn(&ServerReport) -> u64| first.shards.iter().map(f).sum::<u64>();
    let session_slots = sum(|s| s.session_slots);
    if !plan.traced {
        out.set_run_metrics(offered, runs.peak_rss_mib);
        let utility: f64 = first.shards.iter().map(|s| s.utility_sum).sum();
        // The slot loop runs inside the shards, in parallel and out of
        // sight: the fleet's slot time is the shard phase per slot.
        out.set(
            "tick_p50_ms",
            stats::min_by(&runs.plain, |r| r.exec_s) * 1e3 / shape.slots as f64,
        );
        out.set(
            "admit_ratio",
            stats::ratio(sum(|s| s.admitted) as f64, offered as f64),
        );
        out.set("mean_utility", stats::ratio(utility, session_slots as f64));
        out.set(
            "on_time_ratio",
            1.0 - stats::ratio(sum(|s| s.deadline_misses) as f64, session_slots as f64),
        );
        return Ok(out);
    }

    out.set("serve.engine.session_slots", session_slots as f64);
    let x = &first.dispatch;
    out.set(
        "cluster.dispatch.s",
        stats::median_by(&runs.traced, |r| r.dispatch_s),
    );
    out.set(
        "cluster.dispatch.offer_ns",
        stats::median_by(&runs.traced, |r| r.layers.offer_ns as f64 / offered as f64),
    );
    out.set(
        "cluster.dispatch.retry_ratio",
        stats::ratio(x.retries as f64, x.offered as f64),
    );
    out.set(
        "cluster.dispatch.balancer_rejected_ratio",
        stats::ratio(x.balancer_rejected as f64, x.offered as f64),
    );
    let shard_sessions: Vec<f64> = x.shard_sessions.iter().map(|&n| n as f64).collect();
    out.set(
        "cluster.dispatch.shard_skew",
        stats::ratio(
            stats::sorted(shard_sessions.clone())
                .last()
                .copied()
                .unwrap_or(0.0),
            stats::mean(&shard_sessions),
        ),
    );
    out.set(
        "cluster.shards.exec_s",
        stats::median_by(&runs.traced, |r| r.layers.exec_ns as f64 / 1e9),
    );
    out.set(
        "cluster.shards.straggler_ratio",
        stats::median_by(&runs.traced, |r| {
            let ns: Vec<f64> = r.layers.shard_ns.iter().map(|&n| n as f64).collect();
            stats::ratio(
                stats::sorted(ns.clone()).last().copied().unwrap_or(0.0),
                stats::mean(&ns),
            )
        }),
    );
    let workers = threads.clamp(1, FLEET_SHARDS) as f64;
    out.set(
        "cluster.shards.parallel_efficiency",
        stats::median_by(&runs.traced, |r| {
            let busy: u64 = r.layers.shard_ns.iter().sum();
            stats::ratio(busy as f64, r.layers.exec_ns as f64 * workers)
        }),
    );
    out.set(
        "cluster.shards.step_ns_per_session_slot",
        stats::median_by(&runs.traced, |r| {
            let busy: u64 = r.layers.shard_ns.iter().sum();
            stats::ratio(busy as f64, session_slots as f64)
        }),
    );
    out.set_trace_summary(tracer);
    Ok(out)
}
