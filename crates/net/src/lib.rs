//! # dms-net — a real serving frontier over the simulated core
//!
//! Every other crate in this workspace runs in virtual time: offers
//! come from a pre-built [`dms_serve::Workload`], slots advance in a
//! loop, and determinism is free. This crate puts an actual socket in
//! front of that core without giving the determinism up. Three pieces:
//!
//! * **Wire protocol** ([`frame`]) — one [`Frame`] enum with a strict
//!   length-prefixed binary encoding is the single source of truth for
//!   both sides of every connection. Versioned via the
//!   [`Frame::Hello`] handshake, round-trip tested, and hardened
//!   against truncated/corrupt input (errors, never panics).
//!
//! * **Endpoints** ([`endpoint`]) — TCP and Unix-socket listeners and
//!   connectors with the same recovery discipline the simulated fleet
//!   uses: reconnect backoff is literally
//!   [`dms_serve::RecoveryConfig::backoff_slots`] scaled by a slot
//!   duration.
//!
//! * **Lockstep driver** ([`driver`]) — [`SessionDriver`] maps frames
//!   onto a [`dms_serve::ServerEngine`]: each offer carries its
//!   arrival slot, the driver steps the engine exactly to that slot,
//!   and admission verdicts flow back as [`Frame::Admit`] /
//!   [`Frame::Reject`]. Wall-clock pacing ([`dms_sim::TickClock`])
//!   only *times* the ticks; the slot stamps on the wire *decide*
//!   them, which is why a socket-fed run produces byte-identical
//!   run-logs to direct injection at any `DMS_THREADS`. On shutdown
//!   it drains rather than drops.
//!
//! The `dms-bench` crate ships `netserve` and `loadgen` binaries that
//! put an E12-style Poisson workload over a real loopback socket; the
//! CI soak compares the server's run-log directory (`dms-runlog/1`,
//! streamed by the driver) against the direct-injection path's with
//! `diff -r`.

pub mod driver;
pub mod endpoint;
pub mod error;
pub mod frame;

pub use driver::{
    drive_direct, run_loadgen, serve_connection, DriverConfig, LoadgenReport, SessionDriver,
};
pub use endpoint::{
    connect_with_backoff, EndpointAddr, Listener, NetConnection, ReconnectPolicy, Reconnector,
};
pub use error::NetError;
pub use frame::{Frame, FrameCodec, MAX_PAYLOAD, PROTOCOL_VERSION};
