//! The session load generator: replays the E12-style soak trace
//! against a `netserve` endpoint over a real socket — or, with
//! `--direct`, through the same driver with no socket at all, where
//! `--runlog DIR` streams the reference run-log directory the socket
//! arm's is compared against with `diff -r` or `logq diff`.
//!
//! ```text
//! loadgen --connect unix:/tmp/dms.sock [--seed N] [--slot-us MICROS]
//! loadgen --direct [--seed N] [--runlog DIR]
//! ```
//!
//! `--slot-us` paces offers in wall-clock time with a
//! [`dms_sim::TickClock`] (one slot = that many microseconds); by
//! default the trace replays at full speed. Pacing never changes the
//! server's run-log — slots travel in the frames, not in the clock.
//! Each flag belongs to one mode: `--slot-us` with `--direct`, or
//! `--runlog` with `--connect`, is an error (the socket arm's log is
//! `netserve --runlog`'s).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dms_bench::net::{soak_direct, soak_setup, SOAK_SEED};
use dms_net::{connect_with_backoff, run_loadgen, EndpointAddr, ReconnectPolicy};
use dms_sim::TickClock;

struct Args {
    connect: Option<EndpointAddr>,
    direct: bool,
    seed: u64,
    slot_us: u64,
    runlog: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut connect = None;
    let mut direct = false;
    let mut seed = SOAK_SEED;
    let mut slot_us = None;
    let mut runlog = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                let v = args.next().ok_or("--connect needs an address")?;
                connect = Some(EndpointAddr::parse(&v).map_err(|e| e.to_string())?);
            }
            "--direct" => direct = true,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--slot-us" => {
                let v = args.next().ok_or("--slot-us needs a value")?;
                slot_us = Some(v.parse().map_err(|_| format!("bad slot-us: {v}"))?);
            }
            "--runlog" => runlog = Some(args.next().ok_or("--runlog needs a directory")?.into()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if direct == connect.is_some() {
        return Err("pass exactly one of --connect ADDR or --direct".into());
    }
    if direct && slot_us.is_some() {
        return Err("--slot-us paces a --connect run; --direct has no clock".into());
    }
    if connect.is_some() && runlog.is_some() {
        return Err(
            "--runlog writes the --direct run's log; netserve --runlog writes a socket run's"
                .into(),
        );
    }
    Ok(Args {
        connect,
        direct,
        seed,
        slot_us: slot_us.unwrap_or(0),
        runlog,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.direct {
        let report = soak_direct(args.seed, args.runlog.as_deref())
            .map_err(|e| format!("direct run failed: {e}"))?;
        eprintln!(
            "loadgen (direct): offered {} admitted {} rejected {}",
            report.offered, report.admitted, report.rejected
        );
        return Ok(());
    }

    let addr = args.connect.as_ref().expect("checked in parse_args");
    let (_, workload) = soak_setup(args.seed);
    eprintln!(
        "loadgen: replaying {} sessions over {} slots to {:?}",
        workload.sessions.len(),
        workload.slots,
        addr
    );
    let mut conn = connect_with_backoff(addr, &ReconnectPolicy::default())
        .map_err(|e| format!("connect failed: {e}"))?;
    let clock = TickClock::new(Duration::from_micros(args.slot_us));
    let pace = (args.slot_us > 0).then_some(&clock);
    let report = run_loadgen(
        &mut conn,
        args.seed,
        workload.slots,
        &workload.sessions,
        pace,
    )
    .map_err(|e| format!("session failed: {e}"))?;
    eprintln!(
        "loadgen: offered {} admitted {} rejected {} heartbeats {}",
        report.offered, report.admitted, report.rejected, report.heartbeats
    );
    Ok(())
}
