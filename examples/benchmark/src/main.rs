//! The repository benchmark: four workloads that drive the public APIs
//! of `dms-sim`, `dms-serve`, `dms-cluster` and `dms-net`, timed from
//! outside at the calls into each layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One workload runs per process, so the peak resident set is the
//! workload's own. A plain run (`--trace 0`) prints the end-to-end
//! metrics; a traced run (`--trace 1`) alternates plain and traced
//! repetitions and prints the per-layer metrics, a self-time table, and
//! writes every span to `.bench_out/`. Every metric is printed as
//! `name value unit`; the last line of standard output is the result as
//! one JSON object. Outputs are checked after timing, and the process
//! exits non-zero when a check fails. See README.md.

mod engine;
mod fleet;
mod harness;
mod socket;
mod stats;
mod trace;
mod workloads;

use std::num::NonZeroUsize;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use dms_sim::JsonValue;

use crate::harness::{Outcome, Plan, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::Kind;

const USAGE: &str =
    "usage: benchmark --workload <mega-server|fleet8|overload-faults|socket-lockstep> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>]";

/// Output digests at each workload's default seed: `workload seed digest`.
const PINNED: &str = include_str!("../digests.txt");

/// Results, traces and run-logs go here, under the working directory.
const OUT_DIR: &str = ".bench_out";

/// Default `--seconds`: the run length the bounds were calibrated at.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut traced) = (None, None, DEFAULT_SECONDS, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?);
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed: seed.unwrap_or(kind.default_seed()),
        seconds,
        traced,
    })
}

/// Fails if `pinned` holds a digest for this workload and seed that
/// differs from `digest`.
fn check_pinned(pinned: &str, kind: Kind, seed: u64, digest: u64) -> Result<(), String> {
    for line in pinned.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, pinned_seed, hex] = fields[..] else {
            return Err(format!("malformed digest line: {line}"));
        };
        if name != kind.name() || pinned_seed.parse() != Ok(seed) {
            continue;
        }
        let want = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|_| format!("malformed digest line: {line}"))?;
        if want != digest {
            return Err(format!(
                "output digest {digest:#018x} differs from the pinned {want:#018x}"
            ));
        }
    }
    Ok(())
}

/// First line of what `program args` prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            let out = String::from_utf8_lossy(&o.stdout);
            out.lines().next().map(|l| l.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint(args: &Args, threads: usize, params: &str) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only ask git inside a repository root: a checkout without `.git`
    // must not pick up an enclosing repository's commit.
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    vec![
        ("workload", args.kind.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        (
            "mode",
            if args.traced { "traced" } else { "plain" }.to_string(),
        ),
        ("nproc", threads.to_string()),
        ("cpu", cpu),
        ("rustc", command_line("rustc", &["-V"])),
        ("git", git),
        (
            "dms_threads",
            std::env::var("DMS_THREADS").unwrap_or_default(),
        ),
        ("params", params.to_string()),
    ]
}

fn metric_object(out: &Outcome, catalogue: &[(&'static str, &'static str)]) -> JsonValue {
    JsonValue::Object(
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = out.values.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Float(value)),
                        ("unit".into(), JsonValue::from(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a build with debug assertions on; build with --release");
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    // The fleet's shard fan-out reads DMS_THREADS: pin it to the cores
    // this machine has. No other thread runs yet.
    std::env::set_var("DMS_THREADS", threads.to_string());
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }

    let plan = Plan {
        seconds: args.seconds,
        traced: args.traced,
    };
    let mut tracer = Tracer::new(Instant::now());
    let result = match args.kind {
        Kind::MegaServer | Kind::OverloadFaults => {
            engine::run(args.kind, args.seed, &plan, &mut tracer, out_dir)
        }
        Kind::Fleet8 => fleet::run(args.seed, threads, &plan, &mut tracer),
        Kind::SocketLockstep => socket::run(args.seed, &plan, &mut tracer),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_pinned(PINNED, args.kind, args.seed, out.digest) {
        out.failures.push(e);
    }
    let correct = out.failures.is_empty();
    if !correct {
        out.failed = out.attempted;
    }
    out.set(
        "verified_ratio",
        1.0 - stats::ratio(out.failed as f64, out.attempted as f64),
    );

    let print = fingerprint(&args, threads, &out.params);
    for (key, value) in &print {
        println!("# {key}: {value}");
    }
    println!("# digest: {:#018x}", out.digest);
    for failure in &out.failures {
        println!("# check failed: {failure}");
    }
    let stem = format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        if args.traced { "traced" } else { "plain" }
    );
    let catalogue: &[(&str, &str)] = if args.traced {
        let (rows, wall) = trace::self_times(tracer.spans());
        println!(
            "# layer self time over {:.3} s of traced thread time",
            wall as f64 / 1e9
        );
        for r in &rows {
            println!(
                "#   {:<16} {:>10.4} s {:>6.2}% {:>10} calls",
                r.layer,
                r.self_ns as f64 / 1e9,
                100.0 * stats::ratio(r.self_ns as f64, wall as f64),
                r.calls
            );
        }
        let path = out_dir.join(format!("trace-{stem}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans: {}", path.display());
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for &(name, unit) in catalogue {
        println!(
            "{name} {} {unit}",
            out.values.get(name).copied().unwrap_or(0.0)
        );
    }

    let metrics = metric_object(&out, catalogue);
    let mut full = vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        ("attempted".to_string(), JsonValue::Uint(out.attempted)),
        ("failed".to_string(), JsonValue::Uint(out.failed)),
        (
            "digest".to_string(),
            JsonValue::from(format!("{:#018x}", out.digest)),
        ),
        (
            "failures".to_string(),
            JsonValue::Array(
                out.failures
                    .iter()
                    .map(|f| JsonValue::from(f.as_str()))
                    .collect(),
            ),
        ),
        ("metrics".to_string(), metrics.clone()),
        (
            "plain_run_s".to_string(),
            JsonValue::from(out.plain_s.clone()),
        ),
        (
            "traced_run_s".to_string(),
            JsonValue::from(out.traced_s.clone()),
        ),
        ("setup_s".to_string(), JsonValue::from(out.setup_s.clone())),
    ];
    full.extend(
        print
            .into_iter()
            .map(|(k, v)| (k.to_string(), JsonValue::from(v))),
    );
    let path = out_dir.join(format!("result-{stem}.json"));
    if let Err(e) = std::fs::write(&path, JsonValue::Object(full).render() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let last = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Uint(out.attempted)),
        ("failed".into(), JsonValue::Uint(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", last.render_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Shape;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_garbage() {
        let a = parse_args(&argv("--workload fleet8 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.kind, Kind::Fleet8);
        assert_eq!(a.seed, Kind::Fleet8.default_seed());
        assert!(a.traced);
        assert_eq!(a.seconds, 3.0);
        let a = parse_args(&argv("--workload socket-lockstep --seed 9")).unwrap();
        assert_eq!((a.seed, a.traced), (9, false));
        for bad in [
            "",
            "--workload nope",
            "--workload fleet8 --trace 2",
            "--workload fleet8 --seed x",
            "--workload fleet8 --seconds -1",
            "--workload fleet8 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} should fail");
        }
    }

    fn temp_dir_for(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dms-benchmark-{tag}-{}", std::process::id()))
    }

    /// Runs a workload's set-up and one plain plus one traced
    /// repetition at 1/1000 size through its correctness gate.
    fn gate_engine(kind: Kind) -> (u64, engine::Rep) {
        let dir = temp_dir_for(kind.name());
        let mut t = Tracer::new(Instant::now());
        let shape = Shape::of(kind).tiny();
        let input = engine::setup(kind, &shape, kind.default_seed(), &dir, None).unwrap();
        let plain = engine::rep(&input, None).unwrap();
        t.open("bench/run");
        let traced = engine::rep(&input, Some(&mut t)).unwrap();
        t.close();
        let _ = std::fs::remove_dir_all(&dir);
        let mut out = Outcome::default();
        let offered = plain.report.base.offered;
        assert!(offered > 100, "tiny {} offers {offered}", kind.name());
        for rep in [&plain, &traced] {
            assert_eq!(engine::check_rep(&mut out, offered, shape.slots, rep), 0);
        }
        out.check_repeatable(&[engine::digest(&plain), engine::digest(&traced)]);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(t.spans().iter().any(|s| s.name == "serve.engine/step_slot"));
        (out.digest, plain)
    }

    #[test]
    fn mega_server_passes_its_gate_and_a_perturbed_report_fails_the_digest() {
        let (digest, mut rep) = gate_engine(Kind::MegaServer);
        assert!(rep.runlog.is_none());
        let pinned = format!("# test\nmega-server 7 {digest:#x}\n");
        assert!(check_pinned(&pinned, Kind::MegaServer, 7, digest).is_ok());
        assert!(
            check_pinned(&pinned, Kind::MegaServer, 8, 1).is_ok(),
            "other seeds are not pinned"
        );
        rep.report.base.admitted += 1;
        let perturbed = engine::digest(&rep);
        assert_ne!(perturbed, digest);
        assert!(check_pinned(&pinned, Kind::MegaServer, 7, perturbed).is_err());
        assert!(check_pinned("mega-server 7", Kind::MegaServer, 7, digest).is_err());
        // The ledger catches the same perturbation.
        let mut out = Outcome::default();
        engine::check_rep(&mut out, rep.report.base.offered, 500, &rep);
        assert!(!out.failures.is_empty());
    }

    #[test]
    fn overload_faults_passes_its_gate_and_logs_every_slot() {
        let (_, rep) = gate_engine(Kind::OverloadFaults);
        let log = rep.runlog.expect("overload-faults writes a run-log");
        assert!(log.clean);
        assert_eq!(log.read_back, Shape::of(Kind::OverloadFaults).slots);
        assert!(
            rep.full.iter().any(|&f| f),
            "the fades and stalls send slots down the water-fill sort path"
        );
        assert!(rep.report.crashed > 0, "the crash bursts hit live sessions");
        assert!(rep.report.retries > 0);
    }

    #[test]
    fn fleet8_passes_its_gate_plain_and_traced_alike() {
        let mut t = Tracer::new(Instant::now());
        let input = fleet::setup(&Shape::of(Kind::Fleet8).tiny(), 5, 2, None).unwrap();
        let plain = fleet::rep(&input, None).unwrap();
        t.open("bench/run");
        let traced = fleet::rep(&input, Some(&mut t)).unwrap();
        t.close();
        let mut out = Outcome::default();
        let offered = plain.dispatch.offered;
        assert!(offered > 100);
        for rep in [&plain, &traced] {
            assert_eq!(fleet::check_rep(&mut out, offered, rep), 0);
        }
        out.check_repeatable(&[fleet::digest(&plain), fleet::digest(&traced)]);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        let runs = t
            .spans()
            .iter()
            .filter(|s| s.name == "cluster.shards/run")
            .count();
        assert_eq!(runs, workloads::FLEET_SHARDS);
        let (rows, wall) = trace::self_times(t.spans());
        assert!(wall > 0 && rows.iter().any(|r| r.layer == "cluster.dispatch"));
    }

    #[test]
    fn socket_lockstep_matches_the_in_process_drive() {
        let mut t = Tracer::new(Instant::now());
        let input = socket::setup(&Shape::of(Kind::SocketLockstep).tiny(), 3, None).unwrap();
        let (expect, report) = socket::direct(&input).unwrap();
        let plain = socket::rep(&input, None).unwrap();
        t.open("bench/run");
        let traced = socket::rep(&input, Some(&mut t)).unwrap();
        t.close();
        let mut out = Outcome::default();
        let offered = report.offered;
        assert!(offered > 100);
        for rep in [&plain, &traced] {
            assert_eq!(socket::check_rep(&mut out, offered, expect, rep), 0);
        }
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(t.spans().iter().any(|s| s.name == "net.driver/on_frame"));
        // A different trace is caught by the verdict comparison.
        let other = socket::setup(&Shape::of(Kind::SocketLockstep).tiny(), 4, None).unwrap();
        let (other_expect, _) = socket::direct(&other).unwrap();
        let mut out = Outcome::default();
        socket::check_rep(&mut out, offered, other_expect, &plain);
        assert!(!out.failures.is_empty());
    }

    /// The catalogue printed here is the one `BENCHMARK.json` declares.
    #[test]
    fn metric_catalogue_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = JsonValue::parse(&text).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(&END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(names, kinds);
    }
}
