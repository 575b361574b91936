//! The generic multimedia stream of Fig. 1(a).
//!
//! "A multimedia stream consists of the Source (e.g. encoder), the Sink
//! (decoder), and the Channel (lossy or lossless) ... the real channel
//! can be modelled as an automaton which simply transmits packets from
//! the transmitter (Tx) to the receiver (Rx) buffers. The packets may be
//! sent over the channel with error, or may be simply lost during
//! transmission." (§2.1)
//!
//! [`StreamSim`] runs that pipeline on the `dms-sim` kernel: a periodic
//! Source fills a finite Tx buffer; the Channel (a two-state
//! Gilbert–Elliott error automaton) serialises packets with a fixed
//! delay, losing some; survivors land in a finite Rx buffer drained by
//! a periodic Sink. Lost packets may be retransmitted a bounded number
//! of times — "one can decide, at the highest level of abstraction, the
//! best rate for the source, how much retransmission can be afforded,
//! etc." \[6\].

use dms_core::FiniteQueue;
use dms_sim::{Engine, EventQueue, Model, OnlineStats, SimRng, SimTime};

use crate::error::MediaError;

/// Two-state Gilbert–Elliott packet-loss automaton.
///
/// The channel is in a Good or Bad state; each transmitted packet is
/// lost with the state's loss probability, and the state evolves per
/// transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelModel {
    /// Probability of switching Good → Bad after a transmission.
    pub p_good_to_bad: f64,
    /// Probability of switching Bad → Good after a transmission.
    pub p_bad_to_good: f64,
    /// Packet-loss probability while Good.
    pub loss_good: f64,
    /// Packet-loss probability while Bad.
    pub loss_bad: f64,
    /// One-way packet delay in ticks.
    pub delay_ticks: u64,
}

impl ChannelModel {
    /// A bursty wireless-like channel: mostly good with occasional deep
    /// fades (Bad state losing 50% of packets).
    #[must_use]
    pub fn bursty_wireless(delay_ticks: u64) -> Self {
        ChannelModel {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.1,
            loss_good: 0.001,
            loss_bad: 0.5,
            delay_ticks,
        }
    }

    /// Validates all probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::InvalidProbability`] naming the first field
    /// outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), MediaError> {
        for (name, v) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(MediaError::InvalidProbability(name, v));
            }
        }
        Ok(())
    }

    /// Long-run fraction of time spent in the Bad state.
    #[must_use]
    pub fn bad_state_fraction(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }

    /// Long-run average packet-loss probability.
    #[must_use]
    pub fn average_loss(&self) -> f64 {
        let b = self.bad_state_fraction();
        (1.0 - b) * self.loss_good + b * self.loss_bad
    }
}

/// Configuration of a Fig. 1(a) stream simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Ticks between source packet emissions.
    pub source_interval: u64,
    /// Number of packets the source emits before stopping.
    pub packet_count: u64,
    /// Tx buffer capacity in packets.
    pub tx_capacity: usize,
    /// Rx buffer capacity in packets.
    pub rx_capacity: usize,
    /// Ticks between sink consumptions (display rate).
    pub sink_interval: u64,
    /// Ticks the channel needs to serialise one packet (its service time).
    pub channel_service: u64,
    /// The error automaton.
    pub channel: ChannelModel,
    /// Maximum retransmissions per packet (0 = none).
    pub max_retransmissions: u32,
}

impl StreamConfig {
    /// Validates intervals and the channel model.
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::InvalidParameter`] for zero intervals or
    /// counts, and propagates channel-probability errors.
    pub fn validate(&self) -> Result<(), MediaError> {
        if self.source_interval == 0 {
            return Err(MediaError::InvalidParameter("source_interval"));
        }
        if self.sink_interval == 0 {
            return Err(MediaError::InvalidParameter("sink_interval"));
        }
        if self.channel_service == 0 {
            return Err(MediaError::InvalidParameter("channel_service"));
        }
        if self.packet_count == 0 {
            return Err(MediaError::InvalidParameter("packet_count"));
        }
        if self.tx_capacity == 0 || self.rx_capacity == 0 {
            return Err(MediaError::InvalidParameter("buffer capacity"));
        }
        self.channel.validate()
    }
}

/// Measured outcome of a stream simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Packets consumed by the sink.
    pub delivered: u64,
    /// Packets lost on the channel after exhausting retransmissions.
    pub lost_channel: u64,
    /// Packets dropped at a full Tx buffer.
    pub dropped_tx: u64,
    /// Packets dropped at a full Rx buffer.
    pub dropped_rx: u64,
    /// Total retransmission attempts.
    pub retransmissions: u64,
    /// Mean end-to-end latency (emission → consumption) in ticks.
    pub mean_latency_ticks: f64,
    /// Latency jitter (standard deviation) in ticks.
    pub jitter_ticks: f64,
    /// Time-averaged Rx buffer occupancy in packets.
    pub rx_occupancy_avg: f64,
    /// Peak Rx buffer occupancy in packets.
    pub rx_occupancy_peak: f64,
    /// Simulated duration in ticks.
    pub duration_ticks: u64,
}

impl StreamReport {
    /// Every packet the report accounts for (delivered or lost anywhere).
    fn accounted(&self) -> u64 {
        self.delivered + self.lost_channel + self.dropped_tx + self.dropped_rx
    }

    /// Overall loss rate: everything not delivered over everything
    /// emitted. A zero-packet run (an empty session) is lossless by
    /// definition, not NaN.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.accounted() == 0 {
            0.0
        } else {
            1.0 - self.delivery_rate()
        }
    }

    /// Fraction of emitted packets the sink consumed; `0.0` for a
    /// zero-packet run.
    #[must_use]
    pub fn delivery_rate(&self) -> f64 {
        let total = self.accounted();
        if total == 0 {
            0.0
        } else {
            self.delivered as f64 / total as f64
        }
    }
}

/// A packet in flight through the Fig. 1(a) pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    created: SimTime,
    retries: u32,
}

/// Events driving the simulation (public because it is the model's
/// [`Model::Event`] type; construct simulations via the `run` helpers).
#[derive(Debug)]
pub enum StreamEvent {
    /// Source emits the next packet.
    Emit(u64),
    /// Channel finishes serialising the head-of-line Tx packet.
    ChannelDone,
    /// A packet survives the channel and reaches the Rx buffer.
    Deliver(Packet),
    /// Sink consumes one packet.
    Consume,
}

/// The Fig. 1(a) stream pipeline as a [`Model`] on the DES kernel.
///
/// Most callers should use [`StreamSim::run`]; the model is public so it
/// can be embedded into larger simulations.
#[derive(Debug)]
pub struct StreamSim {
    config: StreamConfig,
    rng: SimRng,
    tx: FiniteQueue<Packet>,
    rx: FiniteQueue<Packet>,
    channel_bad: bool,
    channel_busy: bool,
    in_flight: Option<Packet>,
    emitted: u64,
    delivered: u64,
    lost_channel: u64,
    dropped_tx: u64,
    dropped_rx: u64,
    retransmissions: u64,
    deliveries_pending: u64,
    latency: OnlineStats,
    last_time: SimTime,
}

impl StreamSim {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamConfig::validate`] failures.
    pub fn new(config: StreamConfig, seed: u64) -> Result<Self, MediaError> {
        config.validate()?;
        Ok(StreamSim {
            config,
            rng: SimRng::new(seed).substream("stream-channel", 0),
            tx: FiniteQueue::new(config.tx_capacity),
            rx: FiniteQueue::new(config.rx_capacity),
            channel_bad: false,
            channel_busy: false,
            in_flight: None,
            emitted: 0,
            delivered: 0,
            lost_channel: 0,
            dropped_tx: 0,
            dropped_rx: 0,
            retransmissions: 0,
            deliveries_pending: 0,
            latency: OnlineStats::new(),
            last_time: SimTime::ZERO,
        })
    }

    /// Runs the full simulation and produces the report.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn run(config: StreamConfig, seed: u64) -> Result<StreamReport, MediaError> {
        let model = StreamSim::new(config, seed)?;
        let mut engine = Engine::new(model);
        engine
            .queue_mut()
            .schedule(SimTime::ZERO, StreamEvent::Emit(0));
        engine.queue_mut().schedule(
            SimTime::from_ticks(config.sink_interval),
            StreamEvent::Consume,
        );
        // The sink keeps rescheduling only while work remains, so the
        // queue drains naturally.
        engine.run_to_completion();
        let now = engine.now();
        let m = engine.into_model();
        Ok(StreamReport {
            delivered: m.delivered,
            lost_channel: m.lost_channel,
            dropped_tx: m.dropped_tx,
            dropped_rx: m.dropped_rx,
            retransmissions: m.retransmissions,
            mean_latency_ticks: m.latency.mean(),
            jitter_ticks: m.latency.std_dev(),
            rx_occupancy_avg: m.rx.average_occupancy(now),
            rx_occupancy_peak: m.rx.peak_occupancy(),
            duration_ticks: now.ticks(),
        })
    }

    fn start_transmission_if_idle(&mut self, now: SimTime, q: &mut EventQueue<StreamEvent>) {
        if self.channel_busy {
            return;
        }
        if let Some(pkt) = self.tx.pop(now) {
            self.channel_busy = true;
            self.in_flight = Some(pkt);
            q.schedule(
                now + SimTime::from_ticks(self.config.channel_service),
                StreamEvent::ChannelDone,
            );
        }
    }

    fn more_work_pending(&self) -> bool {
        self.emitted < self.config.packet_count
            || !self.tx.is_empty()
            || !self.rx.is_empty()
            || self.channel_busy
            || self.deliveries_pending > 0
    }
}

impl Model for StreamSim {
    type Event = StreamEvent;

    fn handle(&mut self, now: SimTime, event: StreamEvent, q: &mut EventQueue<StreamEvent>) {
        self.last_time = now;
        match event {
            StreamEvent::Emit(i) => {
                self.emitted += 1;
                if self
                    .tx
                    .push(
                        now,
                        Packet {
                            created: now,
                            retries: 0,
                        },
                    )
                    .is_err()
                {
                    self.dropped_tx += 1;
                }
                self.start_transmission_if_idle(now, q);
                if i + 1 < self.config.packet_count {
                    q.schedule(
                        now + SimTime::from_ticks(self.config.source_interval),
                        StreamEvent::Emit(i + 1),
                    );
                }
            }
            StreamEvent::ChannelDone => {
                self.channel_busy = false;
                let mut pkt = self.in_flight.take().expect("transmission in progress");
                // Step the Gilbert–Elliott automaton, then draw the loss.
                let flip = if self.channel_bad {
                    self.config.channel.p_bad_to_good
                } else {
                    self.config.channel.p_good_to_bad
                };
                if self.rng.chance(flip) {
                    self.channel_bad = !self.channel_bad;
                }
                let loss_p = if self.channel_bad {
                    self.config.channel.loss_bad
                } else {
                    self.config.channel.loss_good
                };
                if self.rng.chance(loss_p) {
                    if pkt.retries < self.config.max_retransmissions {
                        pkt.retries += 1;
                        self.retransmissions += 1;
                        // Head-of-line retransmission: requeue unless the
                        // Tx buffer filled up in the meantime.
                        if self.tx.push(now, pkt).is_err() {
                            self.lost_channel += 1;
                        }
                    } else {
                        self.lost_channel += 1;
                    }
                } else {
                    self.deliveries_pending += 1;
                    q.schedule(
                        now + SimTime::from_ticks(self.config.channel.delay_ticks),
                        StreamEvent::Deliver(pkt),
                    );
                }
                self.start_transmission_if_idle(now, q);
            }
            StreamEvent::Deliver(pkt) => {
                self.deliveries_pending -= 1;
                if self.rx.push(now, pkt).is_err() {
                    self.dropped_rx += 1;
                }
            }
            StreamEvent::Consume => {
                if let Some(pkt) = self.rx.pop(now) {
                    self.delivered += 1;
                    self.latency
                        .record(now.saturating_since(pkt.created) as f64);
                }
                if self.more_work_pending() {
                    q.schedule(
                        now + SimTime::from_ticks(self.config.sink_interval),
                        StreamEvent::Consume,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> StreamConfig {
        StreamConfig {
            source_interval: 10,
            packet_count: 1000,
            tx_capacity: 16,
            rx_capacity: 16,
            sink_interval: 10,
            channel_service: 5,
            channel: ChannelModel {
                p_good_to_bad: 0.0,
                p_bad_to_good: 1.0,
                loss_good: 0.0,
                loss_bad: 0.0,
                delay_ticks: 3,
            },
            max_retransmissions: 0,
        }
    }

    #[test]
    fn lossless_channel_delivers_everything() {
        let report = StreamSim::run(base_config(), 1).expect("valid config");
        assert_eq!(report.delivered, 1000);
        assert_eq!(report.lost_channel, 0);
        assert_eq!(report.dropped_tx + report.dropped_rx, 0);
        assert_eq!(report.loss_rate(), 0.0);
        assert!(report.mean_latency_ticks >= 8.0); // ≥ service + delay
    }

    #[test]
    fn lossy_channel_loses_packets_without_retransmission() {
        let mut cfg = base_config();
        cfg.channel = ChannelModel {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.2,
            loss_bad: 0.2,
            delay_ticks: 3,
        };
        let report = StreamSim::run(cfg, 2).expect("valid config");
        assert!(report.lost_channel > 100, "lost {}", report.lost_channel);
        let loss = report.loss_rate();
        assert!((loss - 0.2).abs() < 0.05, "loss rate {loss}");
    }

    #[test]
    fn retransmission_recovers_losses() {
        let mut cfg = base_config();
        cfg.channel = ChannelModel {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.2,
            loss_bad: 0.2,
            delay_ticks: 3,
        };
        cfg.max_retransmissions = 5;
        let report = StreamSim::run(cfg, 2).expect("valid config");
        assert!(report.retransmissions > 100);
        assert!(
            report.loss_rate() < 0.02,
            "loss rate {}",
            report.loss_rate()
        );
    }

    #[test]
    fn slow_sink_fills_rx_buffer() {
        let mut cfg = base_config();
        cfg.sink_interval = 40; // sink 4× slower than source
        let report = StreamSim::run(cfg, 3).expect("valid config");
        assert!(report.dropped_rx > 0, "expected Rx overflow");
        assert!(report.rx_occupancy_peak >= 15.0);
    }

    #[test]
    fn slow_channel_fills_tx_buffer() {
        let mut cfg = base_config();
        cfg.channel_service = 40; // channel 4× slower than source
        let report = StreamSim::run(cfg, 4).expect("valid config");
        assert!(report.dropped_tx > 0, "expected Tx overflow");
    }

    #[test]
    fn bursty_channel_has_bursty_loss() {
        let mut cfg = base_config();
        cfg.packet_count = 20_000;
        cfg.channel = ChannelModel::bursty_wireless(3);
        let report = StreamSim::run(cfg, 5).expect("valid config");
        let expected = cfg.channel.average_loss();
        let measured = report.loss_rate();
        assert!(
            (measured - expected).abs() < 0.03,
            "measured {measured}, expected ≈ {expected}"
        );
    }

    #[test]
    fn config_validation() {
        let mut cfg = base_config();
        cfg.source_interval = 0;
        assert!(StreamSim::run(cfg, 1).is_err());
        let mut cfg = base_config();
        cfg.tx_capacity = 0;
        assert!(StreamSim::run(cfg, 1).is_err());
        let mut cfg = base_config();
        cfg.channel.loss_good = 1.5;
        assert!(StreamSim::run(cfg, 1).is_err());
    }

    #[test]
    fn channel_steady_state_math() {
        let ch = ChannelModel::bursty_wireless(1);
        let b = ch.bad_state_fraction();
        assert!((b - 0.01 / 0.11).abs() < 1e-12);
        assert!(ch.average_loss() > 0.0 && ch.average_loss() < 0.1);
        assert_eq!(base_config().channel.average_loss(), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = StreamSim::run(base_config(), 7).expect("valid");
        let b = StreamSim::run(base_config(), 7).expect("valid");
        assert_eq!(a, b);
    }

    /// The empty-session edge case the `dms-serve` load generator hits:
    /// a session admitted and torn down before emitting anything must
    /// report clean zero rates, never NaN.
    #[test]
    fn zero_packet_run_has_zero_rates() {
        let r = StreamReport {
            delivered: 0,
            lost_channel: 0,
            dropped_tx: 0,
            dropped_rx: 0,
            retransmissions: 0,
            mean_latency_ticks: 0.0,
            jitter_ticks: 0.0,
            rx_occupancy_avg: 0.0,
            rx_occupancy_peak: 0.0,
            duration_ticks: 0,
        };
        for (name, rate) in [
            ("loss_rate", r.loss_rate()),
            ("delivery_rate", r.delivery_rate()),
        ] {
            assert!(rate == 0.0, "{name} must be 0.0 on empty runs, got {rate}");
        }
    }

    #[test]
    fn rate_accessors_partition_the_emitted_packets() {
        let mut cfg = base_config();
        cfg.channel = ChannelModel::bursty_wireless(3);
        cfg.max_retransmissions = 2;
        cfg.sink_interval = 15;
        let r = StreamSim::run(cfg, 13).expect("valid");
        assert!(
            (r.delivery_rate() + r.loss_rate() - 1.0).abs() < 1e-12,
            "delivery and loss must partition"
        );
    }

    #[test]
    fn conservation_of_packets() {
        let mut cfg = base_config();
        cfg.channel = ChannelModel::bursty_wireless(3);
        cfg.max_retransmissions = 2;
        let r = StreamSim::run(cfg, 11).expect("valid");
        assert_eq!(
            r.delivered + r.lost_channel + r.dropped_tx + r.dropped_rx,
            cfg.packet_count,
            "every emitted packet must be accounted for"
        );
    }
}
