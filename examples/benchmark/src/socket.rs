//! `socket-lockstep`: one client and one connection in a closed loop
//! over a Unix socketpair. `dms_net::serve_connection` runs the server
//! on one thread; the client on the other writes each slot's offers plus
//! `Heartbeat{s+1}`, then reads until the server's `Heartbeat{s+1}`
//! comes back behind that slot's verdicts. One `Instant` pair per slot
//! times that round trip.
//!
//! A traced repetition serves through a copy of the `serve_connection`
//! loop with spans around each call, so the driver's time separates
//! from the codec's and the socket's.

use std::io::{Read, Write};
use std::time::Instant;

use dms_net::{
    serve_connection, DriverConfig, Frame, FrameCodec, NetConnection, NetError, SessionDriver,
    PROTOCOL_VERSION,
};
use dms_serve::{ServerConfig, ServerEngine, ServerReport, Workload};

use crate::engine::digest_report;
use crate::harness::{self, Outcome, Plan};
use crate::stats::{self, Digest};
use crate::trace::{timed, Tracer};
use crate::workloads::{self, Kind, Shape};

/// Client id the benchmark announces in `Hello`.
const CLIENT_ID: u64 = 11;

pub struct Input {
    config: ServerConfig,
    workload: Workload,
    /// `workload.sessions[ranges[s].0..ranges[s].1]` arrive in slot `s`.
    ranges: Vec<(usize, usize)>,
}

/// Layer times of a traced repetition, both sides of the socket.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    encode_ns: u64,
    encoded: u64,
    decode_ns: u64,
    decoded: u64,
    write_ns: u64,
    read_ns: u64,
    on_frame_ns: u64,
}

pub struct Rep {
    run_s: f64,
    rtt_ms: Vec<f64>,
    admitted: u64,
    rejected: u64,
    /// Verdicts stamped with another slot than their offer's, plus
    /// offers whose slot closed without their verdict.
    misplaced: u64,
    /// Digest of the `(slot, id, admitted)` stream the client received.
    pub verdicts: u64,
    bytes: u64,
    layers: Layers,
}

pub fn setup(shape: &Shape, seed: u64, tr: Option<&mut Tracer>) -> Result<Input, String> {
    let mut tr = tr;
    let workload = workloads::generate(shape, seed, &mut tr)?;
    let config = workloads::socket_config(workloads::link_bits(shape, &workload.template));
    let mut ranges = vec![(0, 0); shape.slots as usize];
    let mut at = 0;
    for batch in workload
        .sessions
        .chunk_by(|a, b| a.arrival_slot == b.arrival_slot)
    {
        ranges[batch[0].arrival_slot as usize] = (at, at + batch.len());
        at += batch.len();
    }
    let input = Input {
        config,
        workload,
        ranges,
    };
    timed(&mut tr, "net.driver/new", 1, || driver(&input))?;
    timed(&mut tr, "net.socket/pair", 1, NetConnection::pair)
        .map_err(|e| format!("socketpair: {e}"))?;
    Ok(input)
}

fn driver(input: &Input) -> Result<SessionDriver, String> {
    // A heartbeat after every stepped slot closes each round trip, even
    // for a slot with no offers.
    let cfg = DriverConfig {
        heartbeat_every_slots: 1,
        emit_data: false,
    };
    SessionDriver::new(
        &input.config,
        input.workload.template,
        input.workload.slots,
        cfg,
    )
    .map_err(|e| format!("driver: {e}"))
}

/// One repetition: a fresh driver and socketpair, the server on a
/// second thread, the lockstep client on this one.
pub fn rep(input: &Input, tr: Option<&mut Tracer>) -> Result<Rep, String> {
    let mut tr = tr;
    let mut driver = driver(input)?;
    let (mut server_conn, mut client_conn) =
        NetConnection::pair().map_err(|e| format!("socketpair: {e}"))?;
    let server_tracer = tr.as_deref().map(|t| t.for_thread(1, None));
    let (client, (served, server_tracer)) = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let served = match server_tracer {
                None => (serve_connection(&mut server_conn, &mut driver), None),
                Some(mut t) => {
                    t.open("bench/serve");
                    let served = traced_serve(&mut server_conn, &mut driver, &mut t);
                    t.close();
                    (served, Some(t))
                }
            };
            // Closing the socket unblocks a client still reading.
            drop(server_conn);
            served
        });
        let client = run_client(&mut client_conn, input, tr.as_deref_mut());
        drop(client_conn);
        (client, server.join().expect("server thread panicked"))
    });
    let mut rep = client?;
    served.map_err(|e| format!("server: {e}"))?;
    if let (Some(t), Some(st)) = (tr, server_tracer) {
        let (encode_ns, encoded) = st.sum_since(0, "net.codec/encode");
        let (decode_ns, decoded) = st.sum_since(0, "net.codec/decode");
        rep.layers.encode_ns += encode_ns;
        rep.layers.encoded += encoded;
        rep.layers.decode_ns += decode_ns;
        rep.layers.decoded += decoded;
        rep.layers.on_frame_ns = st.sum_since(0, "net.driver/on_frame").0;
        t.absorb(st);
    }
    Ok(rep)
}

/// `dms_net::serve_connection` with a span around each call. It decodes
/// all frames of a read before applying them, which for a well-formed
/// stream is the same as interleaving the two.
fn traced_serve(
    conn: &mut NetConnection,
    driver: &mut SessionDriver,
    t: &mut Tracer,
) -> Result<(), NetError> {
    let mut codec = FrameCodec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut frames = Vec::new();
    let mut out: Vec<Frame> = Vec::new();
    let mut wire: Vec<u8> = Vec::new();
    loop {
        let a = Instant::now();
        let n = conn.read(&mut buf)?;
        t.leaf("net.socket/read", a, Instant::now(), 1);
        if n == 0 {
            return Err(NetError::Closed);
        }
        let a = Instant::now();
        codec.push(&buf[..n]);
        while let Some(frame) = codec.next_frame()? {
            frames.push(frame);
        }
        t.leaf("net.codec/decode", a, Instant::now(), frames.len() as u64);
        let a = Instant::now();
        let applied = frames.len() as u64;
        for frame in frames.drain(..) {
            driver.on_frame(frame, &mut out)?;
        }
        t.leaf("net.driver/on_frame", a, Instant::now(), applied);
        if !out.is_empty() {
            let a = Instant::now();
            wire.clear();
            for f in &out {
                f.encode_into(&mut wire);
            }
            t.leaf("net.codec/encode", a, Instant::now(), out.len() as u64);
            let a = Instant::now();
            conn.write_all(&wire)?;
            conn.flush()?;
            t.leaf("net.socket/write", a, Instant::now(), 1);
            out.clear();
        }
        if driver.is_done() {
            return Ok(());
        }
    }
}

/// What a received frame means to the round trip waiting for it.
enum Flow {
    More,
    Done,
}

/// The client half: Hello, one round trip per slot, Shutdown.
fn run_client(
    conn: &mut NetConnection,
    input: &Input,
    tr: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let mut tr = tr;
    let mark = tr.as_deref().map_or(0, |t| t.spans().len());
    let sessions = &input.workload.sessions;
    let slots = input.workload.slots;
    let mut client = Client {
        codec: FrameCodec::new(),
        buf: vec![0u8; 64 * 1024],
        frames: Vec::new(),
        wire: Vec::with_capacity(64 * 1024),
        bytes: 0,
    };
    let (mut admitted, mut rejected, mut misplaced) = (0u64, 0u64, 0u64);
    let mut rtt_ms = Vec::with_capacity(slots as usize);
    let mut digest = Digest::default();
    let mut offers = Vec::new();

    let start = Instant::now();
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client_id: CLIENT_ID,
        slots,
    };
    client.send(conn, &mut tr, &[hello])?;
    client.recv_until(conn, &mut tr, |f| match f {
        Frame::Hello { .. } => Ok(Flow::Done),
        other => Err(format!("expected Hello, got {other:?}")),
    })?;
    for slot in 0..slots {
        let (from, to) = input.ranges[slot as usize];
        offers.clear();
        offers.extend(sessions[from..to].iter().map(|s| Frame::Offer {
            id: s.id,
            arrival_slot: s.arrival_slot,
            duration_slots: s.duration_slots,
        }));
        offers.push(Frame::Heartbeat { slot: slot + 1 });
        let mut got = 0u64;
        let a = Instant::now();
        client.send(conn, &mut tr, &offers)?;
        client.recv_until(conn, &mut tr, |f| match f {
            Frame::Admit { id, slot: s } | Frame::Reject { id, slot: s } => {
                let ok = matches!(f, Frame::Admit { .. });
                digest.word(s).word(id).word(u64::from(ok));
                if ok {
                    admitted += 1;
                } else {
                    rejected += 1;
                }
                if s == slot {
                    got += 1;
                } else {
                    misplaced += 1;
                }
                Ok(Flow::More)
            }
            Frame::Heartbeat { slot: s } if s == slot + 1 => Ok(Flow::Done),
            other => Err(format!("slot {slot}: unexpected {other:?}")),
        })?;
        rtt_ms.push(a.elapsed().as_secs_f64() * 1e3);
        misplaced += ((to - from) as u64).saturating_sub(got);
    }
    client.send(conn, &mut tr, &[Frame::Shutdown { reason: 0 }])?;
    client.recv_until(conn, &mut tr, |f| match f {
        Frame::Shutdown { .. } => Ok(Flow::Done),
        other => Err(format!("expected the Shutdown ack, got {other:?}")),
    })?;
    let run_s = start.elapsed().as_secs_f64();

    let layers = match tr.as_deref() {
        Some(t) => {
            let (encode_ns, encoded) = t.sum_since(mark, "net.codec/encode");
            let (decode_ns, decoded) = t.sum_since(mark, "net.codec/decode");
            Layers {
                encode_ns,
                encoded,
                decode_ns,
                decoded,
                write_ns: t.sum_since(mark, "net.socket/write").0,
                read_ns: t.sum_since(mark, "net.socket/read").0,
                on_frame_ns: 0,
            }
        }
        None => Layers::default(),
    };
    Ok(Rep {
        run_s,
        rtt_ms,
        admitted,
        rejected,
        misplaced,
        verdicts: digest.value(),
        bytes: client.bytes,
        layers,
    })
}

/// Client-side codec state and byte count.
struct Client {
    codec: FrameCodec,
    buf: Vec<u8>,
    frames: Vec<Frame>,
    wire: Vec<u8>,
    bytes: u64,
}

impl Client {
    fn send(
        &mut self,
        conn: &mut NetConnection,
        tr: &mut Option<&mut Tracer>,
        frames: &[Frame],
    ) -> Result<(), String> {
        let wire = &mut self.wire;
        timed(tr, "net.codec/encode", frames.len() as u64, || {
            wire.clear();
            for f in frames {
                f.encode_into(wire);
            }
        });
        self.bytes += wire.len() as u64;
        timed(tr, "net.socket/write", 1, || conn.write_all(wire))
            .map_err(|e| format!("client write: {e}"))
    }

    /// Reads and decodes until `take` says the round trip is done. In
    /// lockstep the server sends nothing past that frame, so any frame
    /// left over is a protocol failure.
    fn recv_until(
        &mut self,
        conn: &mut NetConnection,
        tr: &mut Option<&mut Tracer>,
        mut take: impl FnMut(Frame) -> Result<Flow, String>,
    ) -> Result<(), String> {
        loop {
            let mut done = false;
            for f in self.frames.drain(..) {
                if done {
                    return Err(format!("frame after the round trip ended: {f:?}"));
                }
                done = matches!(take(f)?, Flow::Done);
            }
            if done {
                return Ok(());
            }
            let n = timed(tr, "net.socket/read", 1, || conn.read(&mut self.buf))
                .map_err(|e| format!("client read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-run".into());
            }
            self.bytes += n as u64;
            let a = Instant::now();
            self.codec.push(&self.buf[..n]);
            while let Some(f) = self
                .codec
                .next_frame()
                .map_err(|e| format!("client decode: {e}"))?
            {
                self.frames.push(f);
            }
            if let Some(t) = tr.as_deref_mut() {
                t.leaf(
                    "net.codec/decode",
                    a,
                    Instant::now(),
                    self.frames.len() as u64,
                );
            }
        }
    }
}

/// The reference the socket must match: the same trace through one
/// `ServerEngine` in process, each slot's offers injected just before
/// that slot is stepped, as the lockstep driver does. (Injection order
/// matters: the event queue is FIFO within a slot, so a departure
/// scheduled earlier drains before an arrival injected later.) Returns
/// the digest of its `(slot, id, admitted)` verdict stream and its report.
pub fn direct(input: &Input) -> Result<(u64, ServerReport), String> {
    let wl = &input.workload;
    let mut engine = ServerEngine::new(&input.config, wl.template, wl.slots)
        .map_err(|e| format!("engine: {e}"))?;
    engine.record_verdicts(true);
    let mut digest = Digest::default();
    let mut verdicts = Vec::new();
    for (slot, &(from, to)) in (0..).zip(&input.ranges) {
        for &req in &wl.sessions[from..to] {
            engine.offer(req);
        }
        engine.step_slot(None);
        engine.take_verdicts(&mut verdicts);
        for &(id, ok) in &verdicts {
            digest.word(slot).word(id).word(u64::from(ok));
        }
        verdicts.clear();
    }
    Ok((digest.value(), engine.finish().base))
}

/// Checks one repetition against the reference; returns sessions
/// without a correct verdict.
pub fn check_rep(out: &mut Outcome, offered: u64, expect: u64, rep: &Rep) -> u64 {
    let answered = rep.admitted + rep.rejected;
    out.check(answered == offered, || {
        format!("{answered} verdicts for {offered} offers")
    });
    out.check(rep.misplaced == 0, || {
        format!("{} verdicts missing from their slot", rep.misplaced)
    });
    out.check(rep.verdicts == expect, || {
        "verdict stream differs from the in-process drive".to_string()
    });
    offered.saturating_sub(answered) + rep.misplaced
}

/// Exact-output digest: the verdict stream and the reference report.
pub fn digest(verdicts: u64, report: &ServerReport) -> u64 {
    let mut d = Digest::default();
    d.word(verdicts);
    digest_report(&mut d, report);
    d.value()
}

pub fn run(seed: u64, plan: &Plan, tracer: &mut Tracer) -> Result<Outcome, String> {
    let shape = Shape::of(Kind::SocketLockstep);
    let runs = harness::measure(plan, tracer, |tr| setup(&shape, seed, tr), rep)?;
    let (expect, report) = direct(&runs.input)?;

    let mut out = Outcome {
        params: format!(
            "{} clients=1 connections=1 transport=socketpair",
            shape.describe()
        ),
        ..Outcome::default()
    };
    let offered = runs.input.workload.sessions.len() as u64;
    let all: Vec<&Rep> = runs.plain.iter().chain(&runs.traced).collect();
    for rep in &all {
        out.attempted += offered;
        out.failed += check_rep(&mut out, offered, expect, rep);
    }
    out.check(report.admitted + report.rejected == offered, || {
        "in-process drive left offers undecided".to_string()
    });
    out.check_repeatable(
        &all.iter()
            .map(|r| digest(r.verdicts, &report))
            .collect::<Vec<_>>(),
    );
    out.record_times(&runs, |r| r.run_s);

    if !plan.traced {
        out.set_run_metrics(offered, runs.peak_rss_mib);
        out.set(
            "tick_p50_ms",
            stats::min_by(&runs.plain, |r| stats::median(&r.rtt_ms)),
        );
        out.set(
            "admit_ratio",
            stats::ratio(runs.plain[0].admitted as f64, offered as f64),
        );
        out.set("mean_utility", report.mean_utility());
        out.set("on_time_ratio", 1.0 - report.miss_rate());
        return Ok(out);
    }

    let slots = shape.slots as f64;
    out.set(
        "net.codec.encode_ns_per_frame",
        stats::median_by(&runs.traced, |r| {
            stats::ratio(r.layers.encode_ns as f64, r.layers.encoded as f64)
        }),
    );
    out.set(
        "net.codec.decode_ns_per_frame",
        stats::median_by(&runs.traced, |r| {
            stats::ratio(r.layers.decode_ns as f64, r.layers.decoded as f64)
        }),
    );
    out.set(
        "net.codec.bytes_per_session",
        stats::ratio(runs.plain[0].bytes as f64, offered as f64),
    );
    out.set(
        "net.socket.write_us_per_slot",
        stats::median_by(&runs.traced, |r| r.layers.write_ns as f64 / 1e3 / slots),
    );
    out.set(
        "net.socket.read_wait_us_per_slot",
        stats::median_by(&runs.traced, |r| r.layers.read_ns as f64 / 1e3 / slots),
    );
    out.set(
        "net.driver.on_frame_us_per_slot",
        stats::median_by(&runs.traced, |r| r.layers.on_frame_ns as f64 / 1e3 / slots),
    );
    let rtt: Vec<f64> = runs
        .plain
        .iter()
        .flat_map(|r| r.rtt_ms.iter().copied())
        .collect();
    out.set(
        "net.verdict_rtt_p99_us",
        stats::quantile(&stats::sorted(rtt), 0.99) * 1e3,
    );
    out.set_trace_summary(tracer);
    Ok(out)
}
