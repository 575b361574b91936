//! Lockstep drivers: frames in, slots stepped, verdicts out.
//!
//! # The tick ↔ slot lockstep contract
//!
//! The engine never looks at a clock. Every [`Frame::Offer`] and
//! [`Frame::Heartbeat`] carries the *slot* it belongs to, and the
//! driver steps the engine exactly up to that slot before applying
//! the frame — wall-clock pacing (a [`dms_sim::TickClock`] in the
//! load generator) only decides *when* frames are sent, never *what*
//! they mean. Two consequences:
//!
//! 1. A socket-fed run is a deterministic function of the offer
//!    trace: same `(id, arrival_slot, duration_slots)` sequence in,
//!    byte-identical run-log directory out, regardless of scheduling
//!    jitter, socket fragmentation, or `DMS_THREADS`.
//! 2. Direct injection is the degenerate transport: [`drive_direct`]
//!    feeds the *same frames* through the *same* [`SessionDriver`]
//!    without a socket, which is what the loopback differential test
//!    compares against.
//!
//! Offers must arrive with non-decreasing slots (the generator owns
//! its own timeline); a slot going backwards is a
//! [`NetError::Protocol`] violation, not a reorder. An offer whose
//! slot the wall clock has already passed simply lands on the next
//! unstepped slot — [`dms_serve::ServerEngine::offer`]'s late-frame
//! rule.
//!
//! On [`Frame::Shutdown`] the driver drains every remaining slot so
//! in-flight sessions play out, then checks its own counts of offers
//! handed to the engine and of `Admit` and `Reject` frames sent against
//! the engine's ledger; a mismatch is a [`NetError::Ledger`], never a
//! panic.
//!
//! A driver records only into a [`RunLogWriter`] attached with
//! [`SessionDriver::attach_run_log`], streamed as the engine steps, so
//! a long-running server holds one bounded write buffer, not its
//! history.

use std::io::{Read, Write};

use dms_serve::{ServeError, ServerConfig, ServerEngine, SessionRequest, SessionTemplate};
use dms_sim::{MetricsRegistry, RunLogWriter, RunRecord, TickClock};

use crate::endpoint::NetConnection;
use crate::error::NetError;
use crate::frame::{Frame, FrameCodec, PROTOCOL_VERSION};

/// Knobs for what a [`SessionDriver`] emits beyond verdicts.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverConfig {
    /// Emit a [`Frame::Heartbeat`] every this many stepped slots
    /// (0 disables). Heartbeats are liveness, not state — they never
    /// appear in the run-log.
    pub heartbeat_every_slots: u64,
    /// Emit a per-slot aggregate [`Frame::Data`] (id 0) with the bits
    /// delivered in that slot.
    pub emit_data: bool,
}

/// Counters a load generator keeps of what the server sent back.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadgenReport {
    /// Offers written to the wire.
    pub offered: u64,
    /// [`Frame::Admit`] verdicts received.
    pub admitted: u64,
    /// [`Frame::Reject`] verdicts received.
    pub rejected: u64,
    /// [`Frame::Heartbeat`] frames received.
    pub heartbeats: u64,
    /// [`Frame::Data`] frames received.
    pub data_frames: u64,
}

impl LoadgenReport {
    fn absorb(&mut self, frame: &Frame) {
        match frame {
            Frame::Admit { .. } => self.admitted += 1,
            Frame::Reject { .. } => self.rejected += 1,
            Frame::Heartbeat { .. } => self.heartbeats += 1,
            Frame::Data { .. } => self.data_frames += 1,
            _ => {}
        }
    }
}

/// Maps a frame stream onto one [`ServerEngine`]: the server half of
/// a `dms-net` session. Feed it decoded frames via
/// [`SessionDriver::on_frame`]; it steps the engine in lockstep,
/// pushes reply frames into the caller's buffer, and streams the
/// byte-deterministic run-log into an attached writer.
#[derive(Debug)]
pub struct SessionDriver {
    engine: ServerEngine,
    cfg: DriverConfig,
    verdict_buf: Vec<(u64, bool)>,
    log: Option<RunLogWriter>,
    hello_seen: bool,
    done: bool,
    last_offer_slot: u64,
    delivered_last: u64,
    /// Offers handed to the engine, and `Admit` / `Reject` frames
    /// emitted: the driver's side of the shutdown ledger check.
    offers_sent: u64,
    admits_sent: u64,
    rejects_sent: u64,
}

impl SessionDriver {
    /// A driver over a fresh nominal engine for `slots` slots.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerEngine::new`] validation.
    pub fn new(
        config: &ServerConfig,
        template: SessionTemplate,
        slots: u64,
        cfg: DriverConfig,
    ) -> Result<Self, ServeError> {
        let mut engine = ServerEngine::new(config, template, slots)?;
        engine.record_verdicts(true);
        Ok(SessionDriver {
            engine,
            cfg,
            verdict_buf: Vec::new(),
            log: None,
            hello_seen: false,
            done: false,
            last_offer_slot: 0,
            delivered_last: 0,
            offers_sent: 0,
            admits_sent: 0,
            rejects_sent: 0,
        })
    }

    /// Whether the session finished (shutdown ack sent).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Slot horizon of the underlying engine.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.engine.horizon()
    }

    /// Streams the run-log into `writer` (a `dms-runlog/1` directory)
    /// from the next stepped slot on; attach before the first frame
    /// for a whole log. Meta `source` and `horizon`, one `verdict`
    /// record per verdict frame (`slot`, `id`, `admitted`), and at
    /// [`Frame::Shutdown`] one `summary` record of the closing counts,
    /// after which the log is finished; a driver dropped before then
    /// leaves no manifest, which [`dms_sim::RunLogReader`] reads as
    /// [`dms_sim::TailState::MissingManifest`]. Identical for
    /// socket-fed and direct-injected runs of one offer trace: it
    /// records slots and verdicts, never the transport. Write errors
    /// surface from [`SessionDriver::on_frame`] as [`NetError::Io`].
    ///
    /// # Panics
    ///
    /// If `writer` has already written a record (its metadata is
    /// frozen).
    pub fn attach_run_log(&mut self, mut writer: RunLogWriter) {
        writer.set_meta("source", "dms-net driver");
        writer.set_meta("horizon", self.engine.horizon().to_string());
        self.log = Some(writer);
    }

    /// The engine, for report inspection after the session ends.
    #[must_use]
    pub fn engine(&self) -> &ServerEngine {
        &self.engine
    }

    /// Applies one frame, pushing any replies into `out`.
    ///
    /// # Errors
    ///
    /// [`NetError::Version`] on a handshake mismatch,
    /// [`NetError::Protocol`] on out-of-order frames (offer before
    /// hello, slot going backwards, frames after shutdown, verdict
    /// frames sent *to* the server), [`NetError::Ledger`] if at
    /// shutdown the driver's counts disagree with the engine's,
    /// [`NetError::Io`] if the attached run-log fails to write.
    pub fn on_frame(&mut self, frame: Frame, out: &mut Vec<Frame>) -> Result<(), NetError> {
        if self.done {
            return Err(NetError::Protocol("frame after shutdown"));
        }
        match frame {
            Frame::Hello {
                version,
                client_id,
                slots,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(NetError::Version {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    });
                }
                if slots != self.engine.horizon() {
                    return Err(NetError::Protocol("slot horizon mismatch"));
                }
                self.hello_seen = true;
                out.push(Frame::Hello {
                    version: PROTOCOL_VERSION,
                    client_id,
                    slots,
                });
                Ok(())
            }
            Frame::Offer {
                id,
                arrival_slot,
                duration_slots,
            } => {
                if !self.hello_seen {
                    return Err(NetError::Protocol("offer before hello"));
                }
                if arrival_slot < self.last_offer_slot {
                    return Err(NetError::Protocol("offer slot went backwards"));
                }
                self.last_offer_slot = arrival_slot;
                self.advance_to(arrival_slot, out)?;
                self.engine.offer(SessionRequest {
                    id,
                    arrival_slot,
                    duration_slots,
                });
                self.offers_sent += 1;
                Ok(())
            }
            Frame::Heartbeat { slot } => {
                if !self.hello_seen {
                    return Err(NetError::Protocol("heartbeat before hello"));
                }
                self.advance_to(slot, out)
            }
            Frame::Shutdown { reason } => {
                if !self.hello_seen {
                    return Err(NetError::Protocol("shutdown before hello"));
                }
                // Graceful drain: step every remaining slot so
                // admitted sessions play out and queued offers get
                // their verdicts.
                self.advance_to(self.engine.horizon(), out)?;
                let offered = self.engine.offered();
                let admitted = self.engine.admitted();
                let rejected = self.engine.rejected();
                // Conservation: every offer the driver handed over is
                // in the engine's ledger, and every verdict the engine
                // recorded went out as exactly one frame.
                for (field, driver, engine) in [
                    ("offered", self.offers_sent, offered),
                    ("admitted", self.admits_sent, admitted),
                    ("rejected", self.rejects_sent, rejected),
                ] {
                    if driver != engine {
                        return Err(NetError::Ledger {
                            field,
                            driver,
                            engine,
                        });
                    }
                }
                if let Some(mut log) = self.log.take() {
                    log.record(
                        &RunRecord::new("summary")
                            .with("offered", offered)
                            .with("admitted", admitted)
                            .with("rejected", rejected)
                            .with("drained", self.engine.undecided())
                            .with("delivered_bits", self.engine.delivered_bits())
                            .with("slots", self.engine.slot()),
                    )?;
                    log.finish(&MetricsRegistry::new())?;
                }
                out.push(Frame::Shutdown { reason });
                self.done = true;
                Ok(())
            }
            Frame::Admit { .. } | Frame::Reject { .. } | Frame::Data { .. } => {
                Err(NetError::Protocol("verdict frame sent to server"))
            }
        }
    }

    /// Steps the engine up to (not beyond) `target`, clamped to the
    /// horizon, emitting verdict frames and run-log records for every
    /// slot stepped.
    fn advance_to(&mut self, target: u64, out: &mut Vec<Frame>) -> Result<(), NetError> {
        let target = target.min(self.engine.horizon());
        while self.engine.slot() < target {
            let stepping = self.engine.slot();
            self.engine.step_slot(None);
            self.engine.take_verdicts(&mut self.verdict_buf);
            for &(id, admitted) in &self.verdict_buf {
                if let Some(log) = &mut self.log {
                    log.record(
                        &RunRecord::new("verdict")
                            .at(stepping)
                            .with("id", id)
                            .with("admitted", admitted),
                    )?;
                }
                out.push(if admitted {
                    self.admits_sent += 1;
                    Frame::Admit { id, slot: stepping }
                } else {
                    self.rejects_sent += 1;
                    Frame::Reject { id, slot: stepping }
                });
            }
            self.verdict_buf.clear();
            if self.cfg.emit_data {
                let delivered = self.engine.delivered_bits();
                out.push(Frame::Data {
                    id: 0,
                    slot: stepping,
                    bits: delivered - self.delivered_last,
                });
                self.delivered_last = delivered;
            }
            let hb = self.cfg.heartbeat_every_slots;
            if hb > 0 && self.engine.slot().is_multiple_of(hb) {
                out.push(Frame::Heartbeat {
                    slot: self.engine.slot(),
                });
            }
        }
        Ok(())
    }
}

/// Runs a [`SessionDriver`] over a connection: decode frames, apply,
/// write replies, until the driver reports done. Returns once the
/// shutdown ack has been flushed.
///
/// # Errors
///
/// [`NetError::Closed`] if the peer disconnects before a graceful
/// shutdown; frame/protocol errors from the driver; I/O errors from
/// the socket.
pub fn serve_connection(
    conn: &mut NetConnection,
    driver: &mut SessionDriver,
) -> Result<(), NetError> {
    let mut codec = FrameCodec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut out: Vec<Frame> = Vec::new();
    let mut wire: Vec<u8> = Vec::new();
    loop {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(NetError::Closed);
        }
        codec.push(&buf[..n]);
        while let Some(frame) = codec.next_frame()? {
            driver.on_frame(frame, &mut out)?;
        }
        if !out.is_empty() {
            wire.clear();
            for f in &out {
                f.encode_into(&mut wire);
            }
            conn.write_all(&wire)?;
            conn.flush()?;
            out.clear();
        }
        if driver.is_done() {
            return Ok(());
        }
    }
}

/// The client half: replays `offers` over `conn` and collects the
/// server's verdicts.
///
/// A second handle to the connection ([`NetConnection::try_clone`])
/// drains the server's frames on a reader thread while this thread
/// writes — with 10⁴-session traces both directions carry hundreds of
/// kilobytes, far past default socket buffers, so a half-duplex client
/// would deadlock against the server's verdict backlog.
///
/// With `pace: Some(clock)` the writer holds each offer until the
/// wall clock reaches its arrival slot ([`TickClock::sleep_until_slot`])
/// — real-time replay. Pacing changes *when* bytes move, never what
/// they say, so the server's run-log is identical paced or not; the
/// loopback soak runs unpaced for speed.
///
/// # Errors
///
/// Handshake ([`NetError::Version`]/[`NetError::Protocol`]), transport
/// ([`NetError::Io`], [`NetError::Closed`]) and frame-grammar errors.
pub fn run_loadgen(
    conn: &mut NetConnection,
    client_id: u64,
    slots: u64,
    offers: &[SessionRequest],
    pace: Option<&TickClock>,
) -> Result<LoadgenReport, NetError> {
    let reader_conn = conn.try_clone()?;
    let reader = std::thread::spawn(move || read_until_shutdown(reader_conn));

    let mut wire: Vec<u8> = Vec::with_capacity(64 * 1024);
    Frame::Hello {
        version: PROTOCOL_VERSION,
        client_id,
        slots,
    }
    .encode_into(&mut wire);
    let mut paced_slot = 0u64;
    for req in offers {
        if let Some(clock) = pace {
            if req.arrival_slot > paced_slot {
                // Flush what the peer can already act on, then wait
                // for the wall clock to catch up to the next slot.
                if !wire.is_empty() {
                    conn.write_all(&wire)?;
                    conn.flush()?;
                    wire.clear();
                }
                clock.sleep_until_slot(req.arrival_slot);
                paced_slot = req.arrival_slot;
            }
        }
        Frame::Offer {
            id: req.id,
            arrival_slot: req.arrival_slot,
            duration_slots: req.duration_slots,
        }
        .encode_into(&mut wire);
        if wire.len() >= 32 * 1024 {
            conn.write_all(&wire)?;
            wire.clear();
        }
    }
    Frame::Shutdown { reason: 0 }.encode_into(&mut wire);
    conn.write_all(&wire)?;
    conn.flush()?;

    let mut report = reader
        .join()
        .map_err(|_| NetError::Protocol("reader thread panicked"))??;
    report.offered = offers.len() as u64;
    Ok(report)
}

fn read_until_shutdown(mut conn: NetConnection) -> Result<LoadgenReport, NetError> {
    let mut codec = FrameCodec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut report = LoadgenReport::default();
    loop {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(NetError::Closed);
        }
        codec.push(&buf[..n]);
        while let Some(frame) = codec.next_frame()? {
            match frame {
                Frame::Hello { version, .. } => {
                    if version != PROTOCOL_VERSION {
                        return Err(NetError::Version {
                            ours: PROTOCOL_VERSION,
                            theirs: version,
                        });
                    }
                }
                Frame::Shutdown { .. } => return Ok(report),
                other => report.absorb(&other),
            }
        }
    }
}

/// The transportless differential arm: pushes the exact frame
/// sequence [`run_loadgen`] would send through the same
/// [`SessionDriver`], no socket involved. Returns the verdict counts a
/// loadgen would have seen, and the driver's run-log (if one is
/// attached) is byte-identical to the socket path's for the same offer
/// trace. Replies are counted and dropped frame by frame, so memory
/// does not grow with the trace.
///
/// # Errors
///
/// The same driver protocol and run-log errors a socket-fed run can
/// hit.
pub fn drive_direct(
    mut driver: SessionDriver,
    client_id: u64,
    offers: &[SessionRequest],
) -> Result<LoadgenReport, NetError> {
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        client_id,
        slots: driver.horizon(),
    };
    let frames = offers.iter().map(|req| Frame::Offer {
        id: req.id,
        arrival_slot: req.arrival_slot,
        duration_slots: req.duration_slots,
    });
    let mut out: Vec<Frame> = Vec::new();
    let mut report = LoadgenReport::default();
    for frame in std::iter::once(hello)
        .chain(frames)
        .chain([Frame::Shutdown { reason: 0 }])
    {
        driver.on_frame(frame, &mut out)?;
        for f in out.drain(..) {
            report.absorb(&f);
        }
    }
    report.offered = offers.len() as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_serve::{
        rate_for_load, AdmissionPolicy, ArrivalProcess, CapacityModel, SessionTemplate, Workload,
    };
    use dms_sim::{JsonValue, RunLogReader, RunLogScan, TailState};
    use std::path::{Path, PathBuf};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dms-net-driver-{tag}-{}", std::process::id()))
    }

    /// Reads a run-log directory back, then removes it.
    fn read_log(dir: &Path) -> RunLogScan {
        let scan = RunLogReader::open(dir)
            .and_then(|r| r.read_all())
            .expect("run-log reads back");
        std::fs::remove_dir_all(dir).expect("cleanup");
        scan
    }

    /// A count field of the log's closing `summary` record.
    fn summary_count(scan: &RunLogScan, field: &str) -> u64 {
        let summary = scan.records.last().expect("has records");
        assert_eq!(
            summary.get("kind").and_then(JsonValue::as_str),
            Some("summary")
        );
        let value = summary.get("fields").and_then(|f| f.get(field));
        match value {
            Some(&JsonValue::Uint(n)) => n,
            other => panic!("summary field {field}: {other:?}"),
        }
    }

    fn hello(slots: u64) -> Frame {
        Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id: 1,
            slots,
        }
    }

    fn setup(load: f64, slots: u64, seed: u64) -> (ServerConfig, Workload) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 20 * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::QueuePredictor,
            degrade: Some(dms_serve::DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        };
        let rate = rate_for_load(load, &template, cfg.capacity.link_bits_per_slot);
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed)
            .expect("valid");
        (cfg, workload)
    }

    fn driver_for(cfg: &ServerConfig, workload: &Workload) -> SessionDriver {
        SessionDriver::new(
            cfg,
            workload.template,
            workload.slots,
            DriverConfig::default(),
        )
        .expect("valid driver")
    }

    #[test]
    fn offer_before_hello_is_a_protocol_error() {
        let (cfg, workload) = setup(1.0, 50, 1);
        let mut driver = driver_for(&cfg, &workload);
        let mut out = Vec::new();
        let err = driver.on_frame(
            Frame::Offer {
                id: 1,
                arrival_slot: 0,
                duration_slots: 10,
            },
            &mut out,
        );
        assert!(matches!(err, Err(NetError::Protocol("offer before hello"))));
    }

    #[test]
    fn version_mismatch_is_rejected_at_hello() {
        let (cfg, workload) = setup(1.0, 50, 1);
        let mut driver = driver_for(&cfg, &workload);
        let mut out = Vec::new();
        let err = driver.on_frame(
            Frame::Hello {
                version: PROTOCOL_VERSION + 1,
                client_id: 1,
                slots: 50,
            },
            &mut out,
        );
        assert!(matches!(err, Err(NetError::Version { ours: 1, theirs: 2 })));
    }

    #[test]
    fn offers_going_backwards_are_rejected() {
        let (cfg, workload) = setup(1.0, 50, 1);
        let mut driver = driver_for(&cfg, &workload);
        let mut out = Vec::new();
        driver
            .on_frame(
                Frame::Hello {
                    version: PROTOCOL_VERSION,
                    client_id: 1,
                    slots: 50,
                },
                &mut out,
            )
            .unwrap();
        driver
            .on_frame(
                Frame::Offer {
                    id: 1,
                    arrival_slot: 10,
                    duration_slots: 5,
                },
                &mut out,
            )
            .unwrap();
        let err = driver.on_frame(
            Frame::Offer {
                id: 2,
                arrival_slot: 9,
                duration_slots: 5,
            },
            &mut out,
        );
        assert!(matches!(
            err,
            Err(NetError::Protocol("offer slot went backwards"))
        ));
    }

    #[test]
    fn direct_drive_conserves_and_matches_the_batch_report() {
        let (cfg, workload) = setup(1.3, 300, 7);
        let batch = dms_serve::ServerSim::new(cfg)
            .expect("valid")
            .run(&workload)
            .expect("runs");

        let dir = temp_dir("direct");
        let mut driver = driver_for(&cfg, &workload);
        driver.attach_run_log(RunLogWriter::create(&dir).expect("create"));
        let report = drive_direct(driver, 99, &workload.sessions).expect("drives");

        assert_eq!(report.offered, batch.offered);
        assert_eq!(report.admitted, batch.admitted);
        assert_eq!(report.rejected, batch.rejected);
        assert_eq!(report.admitted + report.rejected, report.offered);
        let scan = read_log(&dir);
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.meta.get("horizon").map(String::as_str), Some("300"));
        assert_eq!(summary_count(&scan, "offered"), report.offered);
        assert_eq!(summary_count(&scan, "admitted"), report.admitted);
        let verdicts = &scan.records[..scan.records.len() - 1];
        assert_eq!(verdicts.len() as u64, report.admitted + report.rejected);
        let admitted = verdicts
            .iter()
            .filter(|r| {
                r.get("fields").and_then(|f| f.get("admitted")) == Some(&JsonValue::Bool(true))
            })
            .count();
        assert_eq!(admitted as u64, report.admitted);
    }

    #[test]
    fn drained_offers_balance_the_shutdown_ledger() {
        let (cfg, workload) = setup(1.0, 50, 3);
        let dir = temp_dir("drained");
        let mut driver = driver_for(&cfg, &workload);
        driver.attach_run_log(RunLogWriter::create(&dir).expect("create"));
        let mut out = Vec::new();
        driver.on_frame(hello(50), &mut out).unwrap();
        // An offer stamped beyond the horizon can never be decided:
        // it must show up as drained, not vanish.
        driver
            .on_frame(
                Frame::Offer {
                    id: 7,
                    arrival_slot: 60,
                    duration_slots: 5,
                },
                &mut out,
            )
            .unwrap();
        driver
            .on_frame(Frame::Shutdown { reason: 0 }, &mut out)
            .unwrap();
        let scan = read_log(&dir);
        let counts =
            ["offered", "admitted", "rejected", "drained"].map(|f| summary_count(&scan, f));
        assert_eq!(counts, [1, 0, 0, 1]);
    }

    /// A driver dropped mid-session, as when the peer closes before
    /// `Shutdown`, leaves a log that reads as a crash, not a clean
    /// close.
    #[test]
    fn a_driver_dropped_before_shutdown_leaves_no_manifest() {
        let (cfg, workload) = setup(1.2, 100, 5);
        let dir = temp_dir("dropped");
        let mut driver = driver_for(&cfg, &workload);
        driver.attach_run_log(RunLogWriter::create(&dir).expect("create"));
        let mut out = Vec::new();
        driver.on_frame(hello(100), &mut out).unwrap();
        for req in &workload.sessions {
            let offer = Frame::Offer {
                id: req.id,
                arrival_slot: req.arrival_slot,
                duration_slots: req.duration_slots,
            };
            driver.on_frame(offer, &mut out).unwrap();
        }
        assert!(out.len() > 1, "verdicts were sent before the drop");
        drop(driver);
        let scan = read_log(&dir);
        assert_eq!(scan.tail, TailState::MissingManifest);
        assert!(!scan.clean_close);
    }

    /// The run-log only observes: a driver with a log attached sends
    /// the same reply frames as one without.
    #[test]
    fn an_attached_log_leaves_the_reply_frames_unchanged() {
        let (cfg, workload) = setup(1.3, 200, 11);
        let dir = temp_dir("observe");
        let frames: Vec<Frame> = std::iter::once(hello(200))
            .chain(workload.sessions.iter().map(|req| Frame::Offer {
                id: req.id,
                arrival_slot: req.arrival_slot,
                duration_slots: req.duration_slots,
            }))
            .chain([Frame::Shutdown { reason: 0 }])
            .collect();
        let replies = |driver: &mut SessionDriver| {
            let mut out = Vec::new();
            for &frame in &frames {
                driver.on_frame(frame, &mut out).expect("protocol-clean");
            }
            out
        };
        let mut logged = driver_for(&cfg, &workload);
        logged.attach_run_log(RunLogWriter::create(&dir).expect("create"));
        let with_log = replies(&mut logged);
        let without_log = replies(&mut driver_for(&cfg, &workload));
        assert!(with_log.len() > 2, "verdicts flowed");
        assert_eq!(with_log, without_log);
        assert_eq!(read_log(&dir).tail, TailState::Clean);
    }

    /// A driver whose counts disagree with the engine's at shutdown
    /// reports the mismatch as a typed error; it does not panic.
    #[test]
    fn ledger_mismatch_at_shutdown_is_a_typed_error() {
        let (cfg, workload) = setup(1.0, 50, 3);
        let mut driver = driver_for(&cfg, &workload);
        let mut out = Vec::new();
        driver.on_frame(hello(50), &mut out).unwrap();
        for req in workload.sessions.iter().take(20) {
            driver
                .on_frame(
                    Frame::Offer {
                        id: req.id,
                        arrival_slot: req.arrival_slot,
                        duration_slots: req.duration_slots,
                    },
                    &mut out,
                )
                .unwrap();
        }
        driver.admits_sent += 1;
        let err = driver.on_frame(Frame::Shutdown { reason: 0 }, &mut out);
        let admitted = driver.engine().admitted();
        assert!(admitted > 0, "the offers were decided");
        match err {
            Err(NetError::Ledger {
                field: "admitted",
                driver,
                engine,
            }) => assert_eq!((driver, engine), (admitted + 1, admitted)),
            other => panic!("expected a ledger error, got {other:?}"),
        }
    }
}
