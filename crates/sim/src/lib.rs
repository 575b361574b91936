//! # dms-sim — discrete-event simulation kernel
//!
//! Foundation of the `dms` framework: a deterministic discrete-event
//! simulation (DES) kernel, seeded random-number utilities, online
//! statistics and a deterministic parallel-replication runner.
//!
//! The media models (packetised stream, MPEG-2 decoder) and the
//! `dms-core` task-graph executor are driven by [`Engine`], which pops
//! events off an [`EventQueue`] (a binary heap) in
//! `(time, insertion-order)` order and dispatches them to a
//! user-supplied [`Model`]. The serving engine and the NoC, wireless
//! and MANET simulators step their own slots and share the RNG and
//! statistics. Because ties are broken by insertion order and all
//! randomness flows through [`SimRng`] sub-streams, a simulation with
//! a fixed seed is bit-reproducible.
//!
//! Each individual simulation run is single-threaded; *independent*
//! seeded runs (replications, sweep points, mapping candidates) fan out
//! across cores via [`par::ParRunner`], whose job-order merge keeps the
//! combined output bit-identical to a sequential loop (set
//! `DMS_THREADS=1` to force sequential execution).
//!
//! ## Example
//!
//! A two-event "ping/pong" model:
//!
//! ```
//! use dms_sim::{Engine, EventQueue, Model, SimTime};
//!
//! #[derive(Debug)]
//! enum Msg { Ping, Pong }
//!
//! #[derive(Default)]
//! struct PingPong { pings: u32, pongs: u32 }
//!
//! impl Model for PingPong {
//!     type Event = Msg;
//!     fn handle(&mut self, now: SimTime, ev: Msg, q: &mut EventQueue<Msg>) {
//!         match ev {
//!             Msg::Ping => { self.pings += 1; q.schedule(now + SimTime::from_ticks(1), Msg::Pong); }
//!             Msg::Pong => { self.pongs += 1; }
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(PingPong::default());
//! engine.queue_mut().schedule(SimTime::ZERO, Msg::Ping);
//! engine.run_to_completion();
//! let model = engine.into_model();
//! assert_eq!(model.pings, 1);
//! assert_eq!(model.pongs, 1);
//! ```

pub mod engine;
pub mod faults;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod runlog;
pub mod sketch;
pub mod stats;
pub mod time;

pub use engine::{Engine, EventQueue, Model, ScheduledEvent};
pub use faults::{FaultError, FaultEvent, FaultPlan, FaultSpec, ScheduledFault};
pub use metrics::{JsonValue, Metric, MetricsRegistry, RunLog, RunRecord, ScopedMetrics};
pub use par::ParRunner;
pub use rng::SimRng;
pub use runlog::{
    stream_run_log, RunLogReader, RunLogScan, RunLogSummary, RunLogWriter, TailState,
};
pub use sketch::{QuantileSketch, Reservoir, ReservoirEntry};
pub use stats::{OnlineStats, TimeWeighted};
pub use time::{SimTime, TickClock};
