//! Open-loop session workload generation.
//!
//! The server experiments (E12) drive the multiplexer with an *open
//! loop*: sessions arrive whether or not the server is keeping up,
//! exactly like user requests against a streaming service. Two arrival
//! processes are provided, mirroring the §3.2 contrast the paper draws
//! for on-chip traffic:
//!
//! * [`ArrivalProcess::Poisson`] — the Markovian baseline analytical
//!   admission control is calibrated for;
//! * [`ArrivalProcess::SelfSimilar`] — long-range-dependent session
//!   arrivals driven by fractional Gaussian noise
//!   ([`dms_analysis::FractionalGaussianNoise`]), the regime in which
//!   uncontrolled servers collapse (§3.2: "drastically different from
//!   those experienced with traditional short-range dependent models").
//!
//! Each arriving session is stamped from a [`SessionTemplate`] — an
//! FGS-layered media profile built on [`dms_media::fgs`] — with an
//! exponentially distributed holding time. All randomness flows through
//! labelled [`SimRng`] sub-streams, so a workload is a pure function of
//! `(process, template, slots, seed)`.

use dms_analysis::{FractionalGaussianNoise, PoissonArrivals};
use dms_media::fgs::{FgsEncoder, FgsFrame, BIT_PLANES};
use dms_media::trace_gen::VideoTraceGenerator;
use dms_sim::SimRng;
use dms_wireless::dvfs::DvfsCpu;
use dms_wireless::fgs::FgsStreamer;

use crate::error::ServeError;

/// How new sessions arrive at the server, per scheduling slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` sessions per slot.
    Poisson {
        /// Mean arrivals per slot.
        rate: f64,
    },
    /// Long-range-dependent arrivals: an fGn count process with the
    /// given Hurst parameter, mean `rate` and standard deviation
    /// `burstiness * rate` sessions per slot.
    SelfSimilar {
        /// Mean arrivals per slot.
        rate: f64,
        /// Hurst parameter in `(0, 1)`; `> 0.5` is LRD.
        hurst: f64,
        /// Std-dev of per-slot arrivals as a multiple of `rate`.
        burstiness: f64,
    },
    /// The E16 geo-tiered load: the [`ArrivalProcess::SelfSimilar`]
    /// process shaped by a deterministic diurnal envelope with
    /// superimposed flash-crowd spikes. Slot `t`'s instantaneous rate
    /// is `rate · diurnal(t) · spike(t)` where
    /// `diurnal(t) = 1 + diurnal_depth · sin(2π (t + diurnal_phase_slots) / diurnal_period_slots)`
    /// and `spike(t) = spike_factor` while
    /// `t mod spike_period_slots < spike_slots`, `1` otherwise. The
    /// envelope is pure arithmetic — it draws no randomness — so the
    /// variant consumes exactly the same rng stream as `SelfSimilar`
    /// and stays byte-deterministic at any thread count.
    FlashCrowd {
        /// Mean arrivals per slot *before* envelope shaping.
        rate: f64,
        /// Hurst parameter in `(0, 1)`; `> 0.5` is LRD.
        hurst: f64,
        /// Std-dev of per-slot arrivals as a multiple of `rate`.
        burstiness: f64,
        /// Diurnal modulation depth in `[0, 1)`.
        diurnal_depth: f64,
        /// Diurnal cycle length, slots (`> 0`).
        diurnal_period_slots: u64,
        /// Phase offset into the diurnal cycle, slots (per-region
        /// timezone shift).
        diurnal_phase_slots: u64,
        /// Rate multiplier while a flash crowd is active (`≥ 1`).
        spike_factor: f64,
        /// Flash-crowd recurrence period, slots (`> 0`).
        spike_period_slots: u64,
        /// Flash-crowd duration at the start of each period, slots
        /// (`≤ spike_period_slots`).
        spike_slots: u64,
    },
}

/// The deterministic rate envelope of [`ArrivalProcess::FlashCrowd`]
/// at slot `slot`: diurnal sinusoid times the spike multiplier.
#[must_use]
fn flash_envelope(
    slot: u64,
    diurnal_depth: f64,
    diurnal_period_slots: u64,
    diurnal_phase_slots: u64,
    spike_factor: f64,
    spike_period_slots: u64,
    spike_slots: u64,
) -> f64 {
    let phase = (slot + diurnal_phase_slots) % diurnal_period_slots;
    let diurnal = 1.0
        + diurnal_depth
            * (core::f64::consts::TAU * phase as f64 / diurnal_period_slots as f64).sin();
    let spike = if slot % spike_period_slots < spike_slots {
        spike_factor
    } else {
        1.0
    };
    diurnal * spike
}

impl ArrivalProcess {
    /// Integer arrival counts for `slots` slots.
    ///
    /// The fGn series is real-valued; it is carried to integers with a
    /// running-residual rounding so the long-run mean is preserved (a
    /// plain `round()` would bias bursty slots). The fGn series is used
    /// *unclipped* — zero-truncating it first (as `generate_counts`
    /// does) inflates the realised mean above `rate` — and the carried
    /// residual is clamped to `[-1, 1]` so a deep negative excursion
    /// cannot bank an unbounded debt that silences arrivals for many
    /// subsequent slots.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] for a non-positive rate
    /// or an out-of-range Hurst/burstiness.
    pub fn counts(&self, slots: usize, rng: &mut SimRng) -> Result<Vec<u32>, ServeError> {
        let real: Vec<f64> = match *self {
            ArrivalProcess::Poisson { rate } => PoissonArrivals::new(rate)
                .map_err(|_| ServeError::InvalidParameter("rate"))?
                .generate(slots, rng),
            ArrivalProcess::SelfSimilar {
                rate,
                hurst,
                burstiness,
            } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(ServeError::InvalidParameter("rate"));
                }
                if !(burstiness.is_finite() && burstiness > 0.0) {
                    return Err(ServeError::InvalidParameter("burstiness"));
                }
                let std_dev = burstiness * rate;
                FractionalGaussianNoise::new(hurst)
                    .map_err(|_| ServeError::InvalidParameter("hurst"))?
                    .generate(slots, rng)
                    .into_iter()
                    .map(|z| rate + std_dev * z)
                    .collect()
            }
            ArrivalProcess::FlashCrowd {
                rate,
                hurst,
                burstiness,
                diurnal_depth,
                diurnal_period_slots,
                diurnal_phase_slots,
                spike_factor,
                spike_period_slots,
                spike_slots,
            } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(ServeError::InvalidParameter("rate"));
                }
                if !(burstiness.is_finite() && burstiness > 0.0) {
                    return Err(ServeError::InvalidParameter("burstiness"));
                }
                if !(diurnal_depth.is_finite() && (0.0..1.0).contains(&diurnal_depth)) {
                    return Err(ServeError::InvalidParameter("diurnal_depth"));
                }
                if diurnal_period_slots == 0 {
                    return Err(ServeError::InvalidParameter("diurnal_period_slots"));
                }
                if !(spike_factor.is_finite() && spike_factor >= 1.0) {
                    return Err(ServeError::InvalidParameter("spike_factor"));
                }
                if spike_period_slots == 0 || spike_slots > spike_period_slots {
                    return Err(ServeError::InvalidParameter("spike_period_slots"));
                }
                let std_dev = burstiness * rate;
                // The envelope multiplies the *whole* shaped series —
                // noise included — so flash crowds are burstier in
                // absolute terms, as real crowds are.
                FractionalGaussianNoise::new(hurst)
                    .map_err(|_| ServeError::InvalidParameter("hurst"))?
                    .generate(slots, rng)
                    .into_iter()
                    .enumerate()
                    .map(|(t, z)| {
                        (rate + std_dev * z)
                            * flash_envelope(
                                t as u64,
                                diurnal_depth,
                                diurnal_period_slots,
                                diurnal_phase_slots,
                                spike_factor,
                                spike_period_slots,
                                spike_slots,
                            )
                    })
                    .collect()
            }
        };
        let mut residual = 0.0f64;
        Ok(real
            .into_iter()
            .map(|x| {
                let want = x + residual;
                let n = want.floor().max(0.0);
                residual = (want - n).clamp(-1.0, 1.0);
                n as u32
            })
            .collect())
    }
}

/// The media profile every session of a workload is stamped from: an
/// FGS-layered stream (mandatory base layer plus [`BIT_PLANES`]
/// truncatable enhancement planes) expressed as per-slot bit demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTemplate {
    /// Base-layer bits a session must receive every slot.
    pub base_bits: u64,
    /// Per-plane enhancement bits per slot (most significant first).
    pub plane_bits: [u64; BIT_PLANES],
    /// PSNR of the base layer alone, dB.
    pub base_psnr_db: f64,
    /// PSNR added by each complete plane, dB.
    pub plane_psnr_db: [f64; BIT_PLANES],
    /// Enhancement planes a client can actually decode (layers past
    /// this are never requested).
    pub max_layers: usize,
    /// Mean session holding time, slots.
    pub mean_duration_slots: f64,
}

impl SessionTemplate {
    /// Builds the default streaming profile: a CIF MPEG-2 trace put
    /// through the [`FgsEncoder`] streaming preset, averaged into a
    /// per-slot demand, with the decodable-layer cap taken from the
    /// [`FgsStreamer`] XScale client's full-speed decoding aptitude
    /// (planes the client could never decode are not worth serving).
    ///
    /// # Errors
    ///
    /// Propagates preset-construction failures (never fails in
    /// practice).
    pub fn streaming_default() -> Result<Self, ServeError> {
        let gen = VideoTraceGenerator::cif_mpeg2()
            .map_err(|_| ServeError::InvalidParameter("trace preset"))?;
        let enc =
            FgsEncoder::streaming_default().map_err(|_| ServeError::InvalidParameter("encoder"))?;
        // A fixed internal seed: the template is a *profile*, the same
        // for every workload; per-session randomness lives elsewhere.
        let frames = enc.encode(&gen, 256, &mut SimRng::new(0xE12));
        let n = frames.len() as u64;
        let mut base = 0u64;
        let mut planes = [0u64; BIT_PLANES];
        for f in &frames {
            base += f.base_bits;
            for (acc, b) in planes.iter_mut().zip(&f.plane_bits) {
                *acc += b;
            }
        }
        base /= n;
        for p in &mut planes {
            *p /= n;
        }
        let reference = &frames[0];
        // Client ceiling: bits decodable in one slot at full speed.
        let streamer =
            FgsStreamer::xscale_client().map_err(|_| ServeError::InvalidParameter("client"))?;
        let cpu = DvfsCpu::xscale().map_err(|_| ServeError::InvalidParameter("cpu"))?;
        let aptitude = streamer.aptitude_bits(cpu.max_point().frequency_hz);
        let mut decodable = base;
        let mut max_layers = 0;
        for &p in &planes {
            if decodable + p > aptitude {
                break;
            }
            decodable += p;
            max_layers += 1;
        }
        Ok(SessionTemplate {
            base_bits: base,
            plane_bits: planes,
            base_psnr_db: reference.base_psnr_db,
            plane_psnr_db: reference.plane_psnr_db,
            max_layers: max_layers.max(1),
            mean_duration_slots: 200.0,
        })
    }

    /// Validates the template.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.base_bits == 0 {
            return Err(ServeError::InvalidParameter("base_bits"));
        }
        if self.max_layers > BIT_PLANES {
            return Err(ServeError::InvalidParameter("max_layers"));
        }
        // Full demand, the largest `demand_bits`, must fit a u64.
        let full = self.plane_bits[..self.max_layers]
            .iter()
            .try_fold(self.base_bits, |bits, &plane| bits.checked_add(plane));
        if full.is_none() {
            return Err(ServeError::InvalidParameter("plane_bits"));
        }
        if !(self.mean_duration_slots.is_finite() && self.mean_duration_slots >= 1.0) {
            return Err(ServeError::InvalidParameter("mean_duration_slots"));
        }
        if !(self.base_psnr_db.is_finite() && self.base_psnr_db > 0.0) {
            return Err(ServeError::InvalidParameter("base_psnr_db"));
        }
        Ok(())
    }

    /// Per-slot bit demand when `layers` enhancement planes are served
    /// (capped by [`SessionTemplate::max_layers`]).
    #[must_use]
    pub fn demand_bits(&self, layers: usize) -> u64 {
        let l = layers.min(self.max_layers);
        self.base_bits + self.plane_bits[..l].iter().sum::<u64>()
    }

    /// Per-slot bit demand at full quality (every decodable layer).
    #[must_use]
    pub fn full_bits(&self) -> u64 {
        self.demand_bits(self.max_layers)
    }

    /// The template as a reference [`FgsFrame`], for PSNR bookkeeping.
    #[must_use]
    pub fn reference_frame(&self) -> FgsFrame {
        FgsFrame {
            index: 0,
            base_bits: self.base_bits,
            plane_bits: self.plane_bits,
            base_psnr_db: self.base_psnr_db,
            plane_psnr_db: self.plane_psnr_db,
        }
    }

    /// Normalised utility of receiving `bits` of one slot's demand:
    /// delivered PSNR over the full-quality PSNR at `max_layers`, in
    /// `[0, 1]`. Fine-granularity: partial planes count fractionally.
    #[must_use]
    pub fn utility(&self, bits: u64) -> f64 {
        let frame = self.reference_frame();
        let (_, psnr) = frame.truncate_to(bits.min(self.full_bits()));
        let (_, best) = frame.truncate_to(self.full_bits());
        (psnr / best).clamp(0.0, 1.0)
    }
}

/// One session the workload offers to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRequest {
    /// Stable id (generation order).
    pub id: u64,
    /// Slot the session asks to start in.
    pub arrival_slot: u64,
    /// Holding time in slots (≥ 1).
    pub duration_slots: u64,
}

/// A fully materialised open-loop workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Sessions in arrival order (ties broken by generation order —
    /// the FIFO order the event queue preserves).
    pub sessions: Vec<SessionRequest>,
    /// The media profile each session streams.
    pub template: SessionTemplate,
    /// Horizon the workload was generated for, slots.
    pub slots: u64,
}

impl Workload {
    /// Generates a workload: arrival counts from `process`, one
    /// exponential holding time per session.
    ///
    /// # Errors
    ///
    /// Propagates template validation and arrival-process parameter
    /// errors.
    pub fn generate(
        process: ArrivalProcess,
        template: SessionTemplate,
        slots: u64,
        seed: u64,
    ) -> Result<Workload, ServeError> {
        template.validate()?;
        let counts = process.counts(
            slots as usize,
            &mut SimRng::new(seed).substream("serve-arrivals", 0),
        )?;
        Ok(Workload {
            slots,
            ..Workload::from_arrival_counts(&counts, template, seed)?
        })
    }

    /// Materialises a workload from externally supplied per-slot
    /// arrival counts — the bridge that lets a *closed-loop* trace
    /// (e.g. the E11 ambient user-behaviour DTMC) drive the server
    /// instead of an open-loop arrival process. Holding times come
    /// from the same `"serve-durations"` substream discipline as
    /// [`Workload::generate`], so two traces with identical counts
    /// and seeds yield byte-identical workloads.
    ///
    /// # Errors
    ///
    /// Propagates template validation failures.
    pub fn from_arrival_counts(
        counts: &[u32],
        template: SessionTemplate,
        seed: u64,
    ) -> Result<Workload, ServeError> {
        template.validate()?;
        let master = SimRng::new(seed);
        let mut durations = master.substream("serve-durations", 0);
        // Sized once: doubling a mega-scale trace costs more than
        // generating it.
        let total = counts
            .iter()
            .fold(0usize, |n, &c| n.saturating_add(c as usize));
        let mut sessions = Vec::with_capacity(total);
        let mut id = 0u64;
        for (slot, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                let d = durations
                    .exponential(template.mean_duration_slots)
                    .ceil()
                    .max(1.0) as u64;
                sessions.push(SessionRequest {
                    id,
                    arrival_slot: slot as u64,
                    duration_slots: d,
                });
                id += 1;
            }
        }
        Ok(Workload {
            sessions,
            template,
            slots: counts.len() as u64,
        })
    }
}

/// Arrival rate (sessions per slot) that offers `load` times the link
/// capacity at full quality: `λ = load · C / (full_bits · E[D])`.
#[must_use]
pub fn rate_for_load(load: f64, template: &SessionTemplate, link_bits_per_slot: u64) -> f64 {
    load * link_bits_per_slot as f64 / (template.full_bits() as f64 * template.mean_duration_slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> SessionTemplate {
        SessionTemplate::streaming_default().expect("preset valid")
    }

    /// Pins the FlashCrowd envelope at known slots: the diurnal
    /// sinusoid's peak/trough/zero crossings and the spike duty
    /// window, including the phase shift used for per-region
    /// timezones.
    #[test]
    fn flash_envelope_pins_diurnal_and_spike_factors() {
        let env = |slot, phase| flash_envelope(slot, 0.5, 100, phase, 3.0, 50, 10);
        // Slot 0: diurnal = 1 + 0.5·sin(0) = 1, inside the spike
        // window (0 % 50 < 10) → ×3.
        assert!((env(0, 0) - 3.0).abs() < 1e-9);
        // Slot 25: diurnal peak 1 + 0.5·sin(π/2) = 1.5, no spike.
        assert!((env(25, 0) - 1.5).abs() < 1e-9);
        // Slot 50: diurnal zero-crossing (sin π ≈ 0), spike window of
        // the second period → ×3.
        assert!((env(50, 0) - 3.0).abs() < 1e-9);
        // Slot 75: diurnal trough 1 + 0.5·sin(3π/2) = 0.5, no spike.
        assert!((env(75, 0) - 0.5).abs() < 1e-9);
        // A 25-slot phase shift moves the peak onto slot 0, where it
        // compounds with the spike: 1.5 × 3.
        assert!((env(0, 25) - 4.5).abs() < 1e-9);
        // The envelope is periodic in the diurnal cycle.
        assert!((env(125, 0) - env(25, 0)).abs() < 1e-12);
    }

    /// `from_arrival_counts` with the counts `generate` would draw is
    /// `generate`, byte for byte — same ids, arrival slots, and
    /// holding times.
    #[test]
    fn from_arrival_counts_matches_generate_on_the_same_counts() {
        let t = template();
        let process = ArrivalProcess::Poisson { rate: 1.7 };
        let seed = 42;
        let generated = Workload::generate(process, t, 120, seed).expect("generate");
        let counts = process
            .counts(120, &mut SimRng::new(seed).substream("serve-arrivals", 0))
            .expect("counts");
        let from_counts = Workload::from_arrival_counts(&counts, t, seed).expect("from counts");
        assert_eq!(generated, from_counts);
    }

    #[test]
    fn template_is_sane() {
        let t = template();
        assert!(t.base_bits > 0);
        assert!(t.max_layers >= 1 && t.max_layers <= BIT_PLANES);
        assert!(t.full_bits() > t.base_bits);
        assert_eq!(t.demand_bits(0), t.base_bits);
        // Demand is monotone in layers and saturates at max_layers.
        let mut last = 0;
        for l in 0..=BIT_PLANES {
            let d = t.demand_bits(l);
            assert!(d >= last);
            last = d;
        }
        assert_eq!(t.demand_bits(BIT_PLANES), t.full_bits());
    }

    #[test]
    fn utility_is_monotone_and_normalised() {
        let t = template();
        assert!(t.utility(0) > 0.0, "base layer is mandatory: some quality");
        assert!(t.utility(t.base_bits) < 1.0);
        assert!((t.utility(t.full_bits()) - 1.0).abs() < 1e-12);
        let mut last = 0.0;
        for l in 0..=t.max_layers {
            let u = t.utility(t.demand_bits(l));
            assert!(u >= last, "utility must grow with layers");
            last = u;
        }
    }

    #[test]
    fn poisson_counts_hit_target_rate() {
        let p = ArrivalProcess::Poisson { rate: 2.5 };
        let counts = p
            .counts(20_000, &mut SimRng::new(5))
            .expect("valid process");
        let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / counts.len() as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn selfsimilar_counts_hit_target_rate_and_are_burstier() {
        let rate = 2.5;
        let ss = ArrivalProcess::SelfSimilar {
            rate,
            hurst: 0.85,
            burstiness: 1.0,
        };
        let counts = ss
            .counts(20_000, &mut SimRng::new(5))
            .expect("valid process");
        let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / counts.len() as f64;
        assert!((mean - rate).abs() < 0.2, "mean {mean}");
        let var = counts
            .iter()
            .map(|&c| (f64::from(c) - mean).powi(2))
            .sum::<f64>()
            / counts.len() as f64;
        // Poisson would have var ≈ mean; the fGn process is distinctly
        // burstier even after the floor at zero eats part of the spread.
        assert!(var > 1.5 * mean, "variance {var} vs mean {mean}");
    }

    /// Regression: the integerisation used to run on the *zero-clipped*
    /// `generate_counts` series, inflating the realised mean of bursty
    /// LRD workloads above `rate` by the full clipping bias
    /// (`E[(-X)+] ≈ 0.21` sessions/slot at burstiness 1.0, ≈ 0.5 at
    /// 1.5). The sample mean of an LRD series fluctuates too much for a
    /// single-seed `mean ≈ rate` check to be meaningful (std ≈ 0.4 at
    /// 20 k slots, H = 0.85), so the bias is measured against each
    /// realisation's *own* raw-series mean — an unbiased estimate of
    /// `rate` — and averaged over fixed seeds. The thresholds sit
    /// between the post-fix bias (bounded forgiveness from the
    /// `[-1, 1]` residual clamp) and the pre-fix clipping bias, so the
    /// pre-fix code fails every assertion.
    #[test]
    fn selfsimilar_realised_mean_tracks_rate_when_bursty() {
        use dms_analysis::FractionalGaussianNoise;
        let rate = 2.5;
        let slots = 20_000;
        let seeds = [5u64, 7, 11, 13, 17];
        // (burstiness, max mean integerisation bias in sessions/slot).
        // Pre-fix biases on the same realisations: 0.174 and 0.489.
        for (burstiness, tolerance) in [(1.0, 0.14), (1.5, 0.43)] {
            let ss = ArrivalProcess::SelfSimilar {
                rate,
                hurst: 0.85,
                burstiness,
            };
            let mut bias_sum = 0.0;
            for &seed in &seeds {
                let counts = ss
                    .counts(slots, &mut SimRng::new(seed))
                    .expect("valid process");
                let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / counts.len() as f64;
                // The exact realisation `counts` integerised: the rng
                // draws are identical, so this is not a re-sample.
                let raw_mean = FractionalGaussianNoise::new(0.85)
                    .expect("valid hurst")
                    .generate(slots, &mut SimRng::new(seed))
                    .into_iter()
                    .map(|z| rate + burstiness * rate * z)
                    .sum::<f64>()
                    / slots as f64;
                bias_sum += mean - raw_mean;
            }
            let bias = bias_sum / seeds.len() as f64;
            assert!(
                bias.abs() < tolerance,
                "burstiness {burstiness}: integerisation bias {bias} vs tolerance {tolerance}"
            );
        }
    }

    fn flash_crowd(rate: f64) -> ArrivalProcess {
        ArrivalProcess::FlashCrowd {
            rate,
            hurst: 0.8,
            burstiness: 0.6,
            diurnal_depth: 0.4,
            diurnal_period_slots: 600,
            diurnal_phase_slots: 0,
            spike_factor: 2.5,
            spike_period_slots: 300,
            spike_slots: 30,
        }
    }

    #[test]
    fn flash_crowd_mean_tracks_envelope_weighted_rate() {
        let p = flash_crowd(2.0);
        // Spike duty cycle 30/300 at 2.5x → envelope mean 1.15.
        let counts = p.counts(30_000, &mut SimRng::new(9)).expect("valid");
        let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / counts.len() as f64;
        assert!((mean - 2.3).abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn flash_crowd_spike_slots_are_hotter_than_quiet_slots() {
        let p = flash_crowd(2.0);
        let counts = p.counts(30_000, &mut SimRng::new(9)).expect("valid");
        let (mut spike_sum, mut spike_n, mut quiet_sum, mut quiet_n) = (0.0, 0u64, 0.0, 0u64);
        for (t, &c) in counts.iter().enumerate() {
            if (t as u64) % 300 < 30 {
                spike_sum += f64::from(c);
                spike_n += 1;
            } else {
                quiet_sum += f64::from(c);
                quiet_n += 1;
            }
        }
        let spike_mean = spike_sum / spike_n as f64;
        let quiet_mean = quiet_sum / quiet_n as f64;
        assert!(
            spike_mean > 1.8 * quiet_mean,
            "spike {spike_mean} vs quiet {quiet_mean}"
        );
    }

    #[test]
    fn flash_crowd_phase_shift_changes_counts_not_mass() {
        let base = flash_crowd(2.0);
        let ArrivalProcess::FlashCrowd {
            rate,
            hurst,
            burstiness,
            diurnal_depth,
            diurnal_period_slots,
            spike_factor,
            spike_period_slots,
            spike_slots,
            ..
        } = base
        else {
            unreachable!()
        };
        let shifted = ArrivalProcess::FlashCrowd {
            rate,
            hurst,
            burstiness,
            diurnal_depth,
            diurnal_period_slots,
            diurnal_phase_slots: 150,
            spike_factor,
            spike_period_slots,
            spike_slots,
        };
        let a = base.counts(1200, &mut SimRng::new(3)).expect("valid");
        let b = shifted.counts(1200, &mut SimRng::new(3)).expect("valid");
        assert_ne!(a, b, "phase shift must move load in time");
        let sum_a: u64 = a.iter().map(|&c| u64::from(c)).sum();
        let sum_b: u64 = b.iter().map(|&c| u64::from(c)).sum();
        let diff = sum_a.abs_diff(sum_b) as f64;
        assert!(
            diff / (sum_a as f64) < 0.05,
            "phase shift should preserve total mass: {sum_a} vs {sum_b}"
        );
    }

    #[test]
    fn flash_crowd_rejects_bad_parameters() {
        let mut rng = SimRng::new(1);
        let ok = flash_crowd(2.0);
        assert!(ok.counts(10, &mut rng).is_ok());
        let with = |f: &dyn Fn(&mut ArrivalProcess)| {
            let mut p = ok;
            f(&mut p);
            p
        };
        let cases: Vec<ArrivalProcess> = vec![
            with(&|p| {
                if let ArrivalProcess::FlashCrowd { diurnal_depth, .. } = p {
                    *diurnal_depth = 1.0;
                }
            }),
            with(&|p| {
                if let ArrivalProcess::FlashCrowd {
                    diurnal_period_slots,
                    ..
                } = p
                {
                    *diurnal_period_slots = 0;
                }
            }),
            with(&|p| {
                if let ArrivalProcess::FlashCrowd { spike_factor, .. } = p {
                    *spike_factor = 0.5;
                }
            }),
            with(&|p| {
                if let ArrivalProcess::FlashCrowd {
                    spike_period_slots,
                    spike_slots,
                    ..
                } = p
                {
                    *spike_period_slots = 10;
                    *spike_slots = 11;
                }
            }),
        ];
        for bad in cases {
            assert!(bad.counts(10, &mut rng).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn arrival_process_rejects_bad_parameters() {
        let mut rng = SimRng::new(1);
        assert!(ArrivalProcess::Poisson { rate: 0.0 }
            .counts(10, &mut rng)
            .is_err());
        assert!(ArrivalProcess::SelfSimilar {
            rate: 1.0,
            hurst: 1.5,
            burstiness: 1.0
        }
        .counts(10, &mut rng)
        .is_err());
        assert!(ArrivalProcess::SelfSimilar {
            rate: 1.0,
            hurst: 0.8,
            burstiness: 0.0
        }
        .counts(10, &mut rng)
        .is_err());
    }

    #[test]
    fn workload_is_deterministic_and_ordered() {
        let t = template();
        let p = ArrivalProcess::Poisson { rate: 1.0 };
        let a = Workload::generate(p, t, 500, 42).expect("valid");
        let b = Workload::generate(p, t, 500, 42).expect("valid");
        assert_eq!(a, b);
        assert!(!a.sessions.is_empty());
        for w in a.sessions.windows(2) {
            assert!(w[0].arrival_slot <= w[1].arrival_slot);
            assert!(w[0].id < w[1].id);
        }
        assert!(a.sessions.iter().all(|s| s.duration_slots >= 1));
        let c = Workload::generate(p, t, 500, 43).expect("valid");
        assert_ne!(a, c, "different seeds must differ");
    }

    /// A template whose full demand overflows u64 is a typed error,
    /// where building an engine from it used to overflow in
    /// `demand_bits`. Planes past `max_layers` are never served.
    #[test]
    fn overflowing_plane_bits_are_rejected() {
        let mut t = template();
        t.max_layers = BIT_PLANES - 1;
        t.plane_bits[BIT_PLANES - 1] = u64::MAX;
        assert_eq!(t.validate(), Ok(()));
        // With the base alone this plane reaches u64::MAX; the planes
        // before it push the sum past.
        t.plane_bits[t.max_layers - 1] = u64::MAX - t.base_bits;
        let err = Err(ServeError::InvalidParameter("plane_bits"));
        assert_eq!(t.validate(), err);
        let cfg = crate::ServerConfig {
            capacity: crate::CapacityModel {
                link_bits_per_slot: 1 << 40,
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: crate::AdmissionPolicy::AdmitAll,
            degrade: None,
            buffer_slots: 4,
            miss_slots: 2,
        };
        assert_eq!(crate::ServerEngine::new(&cfg, t, 10).err(), err.err());
    }

    #[test]
    fn rate_for_load_round_trips() {
        let t = template();
        let capacity = 50 * t.full_bits();
        let rate = rate_for_load(1.2, &t, capacity);
        // λ · E[D] · full_bits / C
        let load = rate * t.mean_duration_slots * t.full_bits() as f64 / capacity as f64;
        assert!((load - 1.2).abs() < 1e-9, "load {load}");
    }
}
