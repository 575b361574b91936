//! The socket-facing streaming server: binds a TCP or Unix endpoint,
//! accepts one `loadgen` session, drives the slotted engine in
//! lockstep with the offer stream, and, with `--runlog DIR`, streams
//! the byte-deterministic run-log directory (`dms-runlog/1`, read by
//! `logq`) as it steps.
//!
//! ```text
//! netserve --listen unix:/tmp/dms.sock [--seed N] [--runlog DIR]
//! netserve --listen tcp:127.0.0.1:4070 [--seed N] [--runlog DIR]
//! ```
//!
//! The run-log written here must match `loadgen --direct --seed N
//! --runlog DIR` for the same seed under `diff -r` — that comparison
//! is the CI soak. A session that fails leaves the directory without
//! its manifest, which `logq summary` reports.

use std::path::PathBuf;
use std::process::ExitCode;

use dms_bench::net::{soak_driver, soak_setup, SOAK_SEED};
use dms_net::{serve_connection, EndpointAddr, Listener};

struct Args {
    listen: EndpointAddr,
    seed: u64,
    runlog: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut listen = None;
    let mut seed = SOAK_SEED;
    let mut runlog = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                let v = args.next().ok_or("--listen needs an address")?;
                listen = Some(EndpointAddr::parse(&v).map_err(|e| e.to_string())?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--runlog" => runlog = Some(args.next().ok_or("--runlog needs a directory")?.into()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        listen: listen.ok_or("--listen is required (tcp:HOST:PORT or unix:PATH)")?,
        seed,
        runlog,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| serve(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("netserve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &Args) -> Result<(), String> {
    let (config, workload) = soak_setup(args.seed);
    let mut driver = soak_driver(&config, &workload, args.runlog.as_deref())
        .map_err(|e| format!("creating the run-log directory: {e}"))?;
    eprintln!(
        "netserve: {} sessions over {} slots, listening on {:?}",
        workload.sessions.len(),
        workload.slots,
        args.listen
    );
    let listener = Listener::bind(&args.listen).map_err(|e| format!("bind failed: {e}"))?;
    let mut conn = listener
        .accept()
        .map_err(|e| format!("accept failed: {e}"))?;
    serve_connection(&mut conn, &mut driver).map_err(|e| format!("session failed: {e}"))?;

    let engine = driver.engine();
    eprintln!(
        "netserve: done — offered {} admitted {} rejected {} delivered_bits {}",
        engine.offered(),
        engine.admitted(),
        engine.rejected(),
        engine.delivered_bits()
    );
    Ok(())
}
