//! The incremental server engine: the one slotted loop behind every
//! [`ServerSim`](crate::ServerSim) runner, exposed as a stepper.
//!
//! [`ServerEngine`] is the *offer-source seam*: synthetic workloads
//! ([`ServerSim::run`](crate::ServerSim::run) pre-injects every
//! [`SessionRequest`]) and socket-delivered offers (`dms-net`'s
//! lockstep driver injects them as frames arrive) feed the exact same
//! admission/multiplexing/recovery code path through
//! [`ServerEngine::offer`] + [`ServerEngine::step_slot`]. A batch run
//! is literally "inject everything, then step to the horizon", so the
//! engine is bit-identical to the pre-seam `run_core` loop (pinned by
//! the `ReferenceServerSim` differential proptests and the golden
//! run-logs).
//!
//! A slot's events drain in scheduling order. A batch run schedules
//! every offer before the first step, so a slot's arrivals drain
//! before the departures admitted sessions schedule for it. An offer
//! injected between steps, as the socket driver injects them, drains
//! after the departures already scheduled for its slot, which then
//! free their capacity first. Incremental and batch injection
//! therefore agree only where that order changes no verdict;
//! `incremental_injection_matches_batch_run` pins one seed where they
//! agree.
//!
//! First offers that keep that order by construction skip the slot
//! calendar. An offer joins the arrival queue, in slot order, when its
//! slot is not behind the queue's last slot and the calendar has never
//! filed anything at or after it; every entry the calendar files for
//! that slot is then scheduled later. A slot drains the entries filed
//! for the previous slot after its drain, then the queue's run for the
//! slot, then the slot's calendar bucket, which is scheduling order.
//! Every batch run takes the queue. An offer injected after departures
//! were filed at or after its slot, or one whose slot goes backwards,
//! is filed in the calendar as an `Arrive` event.
//!
//! A queued offer costs 4 bytes: one word holding its duration and the
//! step from the previous queued offer's id. An offer whose id steps
//! backwards or by 256 or more, or whose duration reaches 2^24 - 1
//! slots, takes a marker word plus its exact 16-byte `(id, duration)`
//! in a side queue. A drained calendar bucket whose ring position
//! serves no later slot before the horizon frees its buffers, so what
//! the calendar holds follows the slots still ahead.
//!
//! The engine advances one slot per [`ServerEngine::step_slot`] call
//! and never looks at a wall clock: whoever drives it (a `for` loop or
//! a network driver pacing real time through `dms_sim::TickClock`)
//! owns the mapping from ticks to slots. That inversion is what keeps
//! socket-fed runs byte-deterministic — the simulation only ever sees
//! the slot numbers stamped on the offers.

use std::collections::{BTreeMap, VecDeque};

use dms_sim::{FaultEvent, FaultPlan, ScheduledFault};

use crate::admission::{AdmissionController, AdmissionMemo};
use crate::arena::{Departure, Session, SessionArena};
use crate::degrade::LayerController;
use crate::error::ServeError;
use crate::faults::{FaultReport, RecoveryConfig};
use crate::metrics::ServeMetricsSink;
use crate::session::{ServerConfig, ServerReport};
use crate::workload::{SessionRequest, SessionTemplate};

/// Event payload of the server's slotted event loop. Each event
/// carries what it needs, so nothing outlives its event; the slot it
/// fires at is the calendar bucket that holds it. Departures are not
/// events: a bucket files them apart, as 8-byte [`Departure`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerEvent {
    /// A first offer the arrival queue could not take.
    Arrive {
        /// Session id.
        id: u64,
        /// Service slots the session wants.
        duration: u64,
    },
    /// A crashed or timed-out session re-offering itself after backoff.
    Retry {
        /// Session id.
        id: u64,
        /// Retry attempts consumed before this one fires.
        attempt: u32,
        /// Service slots the session still wants.
        remaining: u64,
    },
}

// Pending events dominate the engine's memory at mega-scale.
const _: () = assert!(std::mem::size_of::<ServerEvent>() == 24);

/// The farthest the calendar's ring reaches past its cursor, in slots
/// (a power of two). Events beyond it wait in the overflow map, so a
/// huge duration costs one map entry, not a bucket per slot.
const WINDOW_SLOTS: usize = 4096;

/// One slot's pending events and departures, each list in scheduling
/// order, and where the two interleave.
///
/// A mark `(i, d)` says that `departs[..d]` drain before `events[i]`;
/// departures past the last mark drain after the last event. Filing an
/// event adds a mark only if departures were filed since the previous
/// one, so a bucket whose events all came before its departures has
/// none. A batch run's offers take the arrival queue, so only its
/// retries can mark a bucket.
#[derive(Debug, Default)]
struct Bucket {
    events: Vec<ServerEvent>,
    departs: Vec<Departure>,
    marks: Vec<(usize, usize)>,
}

impl Bucket {
    /// Departures the marks release before some event.
    fn released(&self) -> usize {
        self.marks.last().map_or(0, |&(_, d)| d)
    }

    fn push_event(&mut self, ev: ServerEvent) {
        if self.departs.len() > self.released() {
            self.marks.push((self.events.len(), self.departs.len()));
        }
        self.events.push(ev);
    }

    fn is_empty(&self) -> bool {
        self.events.is_empty() && self.departs.is_empty()
    }

    fn clear(&mut self) {
        self.events.clear();
        self.departs.clear();
        self.marks.clear();
    }

    /// The bucket in drain order, as runs: each item's events drain,
    /// then its departures.
    fn runs(&self) -> impl Iterator<Item = (&[ServerEvent], &[Departure])> + '_ {
        let mut from = (0, 0);
        let end = (self.events.len(), self.departs.len());
        self.marks
            .iter()
            .copied()
            .chain(std::iter::once(end))
            .map(move |(i, d)| {
                let run = (&self.events[from.0..i], &self.departs[from.1..d]);
                from = (i, d);
                run
            })
    }
}

/// The engine's pending events, one bucket per slot: a calendar queue
/// (R. Brown, "Calendar queues", CACM 31(10), 1988) with the bucket
/// width fixed at one slot, because the engine only ever asks what is
/// due at the slot it steps.
///
/// It drains a slot's events and departures in the order a
/// `(time, insertion)` priority queue pops them. A bucket holds its
/// slot's entries in scheduling order: overflow entries move in when
/// the window reaches their slot, before anything can be filed there
/// directly. Entries filed for the slot just drained (a zero-duration
/// departure) wait in `overdue`, which a slot drains before its own
/// bucket, as their earlier time orders them. The engine drains the
/// arrival queue's run for the slot between the two; `filed_end` tells
/// it which offers may take the queue.
#[derive(Debug)]
struct SlotCalendar {
    /// Power-of-two ring covering slots `[cursor, cursor + len)`; slot
    /// `s` sits at `s % len`. Doubles on demand up to `window`.
    ring: Vec<Bucket>,
    /// Largest ring length (a power of two).
    window: usize,
    /// Next slot to drain.
    cursor: u64,
    /// Entries for slot `cursor - 1` filed after its drain.
    overdue: Bucket,
    /// Entries at or past `cursor + len`, by slot, in scheduling order.
    overflow: BTreeMap<u64, Bucket>,
    /// Entries at or after this slot never drain, so they are dropped.
    horizon: u64,
    /// Every entry ever filed was filed for a slot before this one.
    filed_end: u64,
}

impl SlotCalendar {
    fn new(horizon: u64, window: usize) -> Self {
        debug_assert!(window.is_power_of_two());
        SlotCalendar {
            ring: vec![Bucket::default()],
            window,
            cursor: 0,
            overdue: Bucket::default(),
            overflow: BTreeMap::new(),
            horizon,
            filed_end: 0,
        }
    }

    fn bucket(&mut self, slot: u64) -> &mut Bucket {
        let mask = self.ring.len() as u64 - 1;
        &mut self.ring[(slot & mask) as usize]
    }

    /// The bucket that files entries for `slot`, which must not precede
    /// the slot just drained; `None` at or after the horizon.
    fn bucket_for(&mut self, slot: u64) -> Option<&mut Bucket> {
        if slot >= self.horizon {
            return None;
        }
        self.filed_end = self.filed_end.max(slot + 1);
        let Some(ahead) = slot.checked_sub(self.cursor) else {
            debug_assert_eq!(slot + 1, self.cursor, "scheduled before the drained slot");
            return Some(&mut self.overdue);
        };
        while ahead >= self.ring.len() as u64 && self.ring.len() < self.window {
            self.grow();
        }
        Some(if ahead < self.ring.len() as u64 {
            self.bucket(slot)
        } else {
            self.overflow.entry(slot).or_default()
        })
    }

    /// Files `ev` to fire at `slot`.
    fn schedule(&mut self, slot: u64, ev: ServerEvent) {
        if let Some(bucket) = self.bucket_for(slot) {
            bucket.push_event(ev);
        }
    }

    /// Files `departure` to end its activation at `slot`.
    fn schedule_departure(&mut self, slot: u64, departure: Departure) {
        if let Some(bucket) = self.bucket_for(slot) {
            bucket.departs.push(departure);
        }
    }

    /// Doubles the ring. Each bucket moves to its slot's index in the
    /// wider ring, then the overflow the wider window reaches moves in.
    fn grow(&mut self) {
        let len = self.ring.len();
        self.ring.resize_with(2 * len, Bucket::default);
        for i in 0..len {
            // The slot in [cursor, cursor + len) that bucket i holds.
            let slot = self.cursor + ((i as u64).wrapping_sub(self.cursor) & (len as u64 - 1));
            if slot & len as u64 != 0 {
                self.ring.swap(i, i + len);
            }
        }
        self.refill();
    }

    /// Moves the overflow entries the ring now covers into their
    /// buckets, which are still empty.
    fn refill(&mut self) {
        let end = self.cursor.saturating_add(self.ring.len() as u64);
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() >= end {
                break;
            }
            let (slot, bucket) = entry.remove_entry();
            let target = self.bucket(slot);
            debug_assert!(
                target.is_empty(),
                "slot {slot} in the ring and the overflow"
            );
            *target = bucket;
        }
    }

    /// Moves the entries filed for the slot before the cursor after it
    /// drained into `due`; they drain ahead of the cursor's slot.
    fn drain_overdue(&mut self, due: &mut Bucket) {
        due.clear();
        std::mem::swap(&mut self.overdue, due);
    }

    /// Moves the entries due at `slot`, the cursor, into `due` and
    /// advances the cursor; [`Bucket::runs`] walks them in drain order.
    /// If the drained ring position serves a later slot before the
    /// horizon, it keeps `due`'s old buffers, so a steady state
    /// allocates nothing; otherwise those buffers are freed, and the
    /// position holds none.
    fn drain_slot(&mut self, slot: u64, due: &mut Bucket) {
        debug_assert_eq!(slot, self.cursor, "slots drain in order");
        let serves_later = slot.saturating_add(self.ring.len() as u64) < self.horizon;
        let bucket = self.bucket(slot);
        if serves_later {
            due.clear();
            std::mem::swap(bucket, due);
        } else {
            *due = std::mem::take(bucket);
        }
        self.cursor += 1;
        self.refill();
    }
}

/// Bits of a queued offer's word that hold its id step.
const STEP_BITS: u32 = 8;

/// The word of a queued offer that does not pack; its `(id, duration)`
/// waits in [`ArrivalQueue::wide`]. No packed word equals it, because a
/// packed duration stays below `WIDE >> STEP_BITS`.
const WIDE: u32 = u32::MAX;

/// First offers in slot order, and the slot each run of them arrives
/// at. The engine files an offer here only when the queue's run for its
/// slot drains where a `(time, insertion)` queue would pop it (see the
/// module doc). Entries leave as their slot drains, so the queue holds
/// only undrained offers.
///
/// Each offer is one word, `duration << 8 | step`, where `step` is its
/// id minus the previous queued offer's id. An offer whose id goes
/// backwards or steps by 256 or more, or whose duration is at least
/// 2^24 - 1 slots, is the word [`WIDE`] instead, and its exact
/// `(id, duration)` waits in a side queue. The queue is lossless and
/// drains in push order; a trace whose ids count up by less than 256
/// between offers, as every generated workload's do, costs 4 bytes an
/// offer.
#[derive(Debug, Default)]
struct ArrivalQueue {
    /// One word per offer, oldest first.
    words: VecDeque<u32>,
    /// `(id, duration)` per [`WIDE`] word, oldest first.
    wide: VecDeque<(u64, u64)>,
    /// `(slot, n)`: the `n` offers after the earlier runs' arrive at
    /// `slot`. Slots strictly increase.
    runs: VecDeque<(u64, usize)>,
    /// Id of the last offer pushed; the next word steps from it.
    pushed_id: u64,
    /// Id of the last offer drained; the next word decodes from it.
    drained_id: u64,
}

impl ArrivalQueue {
    /// Whether an offer for `slot` keeps the queue in slot order.
    fn in_order(&self, slot: u64) -> bool {
        self.runs.back().is_none_or(|&(last, _)| slot >= last)
    }

    fn push(&mut self, slot: u64, id: u64, duration: u64) {
        match self.runs.back_mut() {
            Some((last, n)) if *last == slot => *n += 1,
            _ => self.runs.push_back((slot, 1)),
        }
        let word = match id.checked_sub(self.pushed_id) {
            Some(step) if step >> STEP_BITS == 0 && duration < u64::from(WIDE >> STEP_BITS) => {
                (duration as u32) << STEP_BITS | step as u32
            }
            _ => {
                self.wide.push_back((id, duration));
                WIDE
            }
        };
        self.words.push_back(word);
        self.pushed_id = id;
    }

    /// Removes and yields the offers arriving at `slot` as
    /// `(id, duration)`, which must not be past the first run's slot.
    fn drain_run(&mut self, slot: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let n = match self.runs.front() {
            Some(&(first, n)) if first == slot => {
                self.runs.pop_front();
                n
            }
            _ => 0,
        };
        debug_assert!(self.runs.front().is_none_or(|&(first, _)| first > slot));
        let (wide, last) = (&mut self.wide, &mut self.drained_id);
        self.words.drain(..n).map(move |word| {
            let offer = if word == WIDE {
                wide.pop_front().expect("a wide offer per marker word")
            } else {
                (
                    *last + u64::from(word & ((1 << STEP_BITS) - 1)),
                    u64::from(word >> STEP_BITS),
                )
            };
            *last = offer.0;
            offer
        })
    }
}

/// One first-offer admission verdict, recorded when
/// [`ServerEngine::record_verdicts`] is on: `(session id, admitted)`.
pub type Verdict = (u64, bool);

/// The incremental slotted server: offers in, verdicts and a
/// [`FaultReport`] out, one slot per [`ServerEngine::step_slot`].
///
/// `faults: None` takes the exact nominal path (fault state pinned at
/// "no fault", zero extra arithmetic on the served bits). The loop
/// itself draws no randomness — all of it lives pre-compiled inside
/// the [`FaultPlan`] — which is what keeps runs deterministic at any
/// `DMS_THREADS` and lets socket-fed runs byte-match direct injection.
#[derive(Debug)]
pub struct ServerEngine {
    template: SessionTemplate,
    full_bits: u64,
    buffer_bits: u64,
    miss_bits: u64,
    nominal_bits: u64,
    slots: u64,
    recovery: Option<RecoveryConfig>,

    admission: AdmissionController,
    degrade: Option<LayerController>,
    memo: AdmissionMemo,
    calendar: SlotCalendar,
    arrivals: ArrivalQueue,
    arena: SessionArena,
    /// Offers injected so far.
    offered: u64,

    // Per-slot scratch hoisted out of the loop: the calendar's overdue
    // entries and the slot's bucket, taken before either drains.
    overdue: Bucket,
    due: Bucket,
    grants: Vec<u64>,
    /// The contended slot's backlogs, permuted by the level search.
    levels: Vec<u64>,
    /// The contended slot's sessions above the water level.
    tail: Vec<u32>,
    crash_buf: Vec<u32>,

    // Fault state. The plan's events are walked with a cursor, not
    // spliced into `calendar`, so the arrival/departure FIFO order within
    // a slot is untouched by fault injection.
    fault_events: Vec<ScheduledFault>,
    fault_cursor: usize,
    link_factor: f64,
    stall_streak: u64,

    /// Every live session has backlog 0 and no consecutive misses.
    /// Arrivals, readmissions, departures and crashes keep it true, and
    /// each slot recomputes it at its end. While it holds, an
    /// uncontended slot steps the live set as one cohort, and the arena
    /// keeps no admission order, backlogs or miss streaks: a slot that
    /// ends settled drops them ([`SessionArena::settle`]), and the
    /// first walk of the live set rebuilds them.
    settled: bool,
    /// The last `(bits, utility)` pair: `SessionTemplate::utility` is
    /// pure, and nearly every session in a slot gets the same grant.
    utility_memo: (u64, f64),

    /// Previous slot's deadline-miss count / active-set size — the
    /// measurement the PI shedding law closes its loop on.
    prev_misses: u64,
    prev_active: u64,

    /// Next slot to step; slots `0..slot` are already simulated.
    slot: u64,
    report: FaultReport,
    verdicts: Option<Vec<Verdict>>,
}

impl ServerEngine {
    /// Builds a nominal (fault-free, no-recovery) engine for `slots`
    /// slots of simulated time.
    ///
    /// # Errors
    ///
    /// Propagates template/config validation; fails if the config's
    /// buffer/deadline thresholds overflow at this template's demand
    /// ([`ServerConfig::validate_for`]).
    pub fn new(
        config: &ServerConfig,
        template: SessionTemplate,
        slots: u64,
    ) -> Result<Self, ServeError> {
        Self::with_faults(config, template, slots, None, None)
    }

    /// Builds an engine that applies `faults` while stepping and (with
    /// `Some(recovery)`) retries crashed/timed-out sessions with
    /// exponential backoff.
    ///
    /// # Errors
    ///
    /// Same contract as [`ServerEngine::new`]; additionally propagates
    /// [`RecoveryConfig::validate`] failures.
    pub fn with_faults(
        config: &ServerConfig,
        template: SessionTemplate,
        slots: u64,
        faults: Option<&FaultPlan>,
        recovery: Option<&RecoveryConfig>,
    ) -> Result<Self, ServeError> {
        template.validate()?;
        if let Some(rec) = recovery {
            rec.validate()?;
        }
        let full_bits = template.full_bits();
        let (buffer_bits, miss_bits) = config.validate_for(full_bits)?;
        let admission = AdmissionController::new(config.capacity, config.policy, full_bits)?;
        let degrade = config.degrade.map(LayerController::new).transpose()?;
        Ok(ServerEngine {
            template,
            full_bits,
            buffer_bits,
            miss_bits,
            nominal_bits: config.capacity.link_bits_per_slot,
            slots,
            recovery: recovery.copied(),
            admission,
            degrade,
            memo: AdmissionMemo::new(),
            calendar: SlotCalendar::new(slots, WINDOW_SLOTS),
            arrivals: ArrivalQueue::default(),
            arena: SessionArena::with_capacity(1024),
            offered: 0,
            overdue: Bucket::default(),
            due: Bucket::default(),
            grants: Vec::new(),
            levels: Vec::new(),
            tail: Vec::new(),
            crash_buf: Vec::new(),
            fault_events: faults.map_or_else(Vec::new, |f| f.events().to_vec()),
            fault_cursor: 0,
            link_factor: 1.0,
            stall_streak: 0,
            settled: true,
            utility_memo: (full_bits, template.utility(full_bits)),
            prev_misses: 0,
            prev_active: 0,
            slot: 0,
            report: FaultReport::default(),
            verdicts: None,
        })
    }

    /// Does nothing, and is kept for callers that size an engine before
    /// injecting. Offers live only in the arrival queue or their
    /// `Arrive` events, and both grow with what they hold, so there is
    /// nothing to pre-size.
    pub fn reserve(&mut self, _additional: usize) {}

    /// Injects one offer. An offer stamped for a slot already stepped
    /// arrives at the next unstepped slot — the socket driver's
    /// "late frame lands now" rule; pre-injected workloads never hit
    /// it. Offers within one slot keep injection order (FIFO), exactly
    /// like `Workload` arrivals keep generation order. An offer at or
    /// past the horizon is counted and never decided.
    pub fn offer(&mut self, request: SessionRequest) {
        self.offered += 1;
        let slot = request.arrival_slot.max(self.slot);
        if slot >= self.slots {
            return;
        }
        if slot >= self.calendar.filed_end && self.arrivals.in_order(slot) {
            self.arrivals.push(slot, request.id, request.duration_slots);
        } else {
            self.calendar.schedule(
                slot,
                ServerEvent::Arrive {
                    id: request.id,
                    duration: request.duration_slots,
                },
            );
        }
    }

    /// Next slot [`ServerEngine::step_slot`] will simulate (slots
    /// `0..slot()` are done).
    #[must_use]
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The simulation horizon in slots.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.slots
    }

    /// Offers injected so far.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// First offers admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admission.admitted()
    }

    /// First offers rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.admission.rejected()
    }

    /// Offers whose arrival slot has not been stepped yet — the
    /// sessions a shutdown drains without a verdict:
    /// `offered - admitted - rejected`.
    #[must_use]
    pub fn undecided(&self) -> u64 {
        self.offered() - self.admitted() - self.rejected()
    }

    /// Total bits delivered so far (for per-slot `Data` telemetry).
    #[must_use]
    pub fn delivered_bits(&self) -> u64 {
        self.report.base.delivered_bits
    }

    /// Turns first-offer verdict recording on or off. While on, every
    /// `Arrive` drained by [`ServerEngine::step_slot`] appends
    /// `(id, admitted)` to the buffer drained by
    /// [`ServerEngine::take_verdicts`]. Retries are re-admissions of
    /// already-decided sessions and are deliberately not re-reported —
    /// the wire ledger counts each session's first offer once, like
    /// the `admitted + rejected == offered` report invariant.
    pub fn record_verdicts(&mut self, on: bool) {
        if on {
            if self.verdicts.is_none() {
                self.verdicts = Some(Vec::new());
            }
        } else {
            self.verdicts = None;
        }
    }

    /// Moves the verdicts recorded since the last call into `out`.
    pub fn take_verdicts(&mut self, out: &mut Vec<Verdict>) {
        if let Some(v) = self.verdicts.as_mut() {
            out.append(v);
        }
    }

    /// Simulates one slot; returns `false` (and does nothing) once the
    /// horizon is reached. The per-session path is the seed `run_core`
    /// slot loop, auditable against [`crate::ReferenceServerSim`]. An
    /// uncontended slot whose sessions are all settled (no backlog, no
    /// misses) instead takes the settled-cohort step: every session is
    /// granted exactly its demand, so the slot's ledger updates once
    /// for the whole cohort, in time proportional to the slot's events
    /// rather than to the live set. Settled, the arena is unordered and
    /// a departure frees its slot at once; the per-session path, a
    /// crash burst or a timeout first orders it, and a slot that ends
    /// settled drops the order again.
    #[allow(clippy::too_many_lines)] // one slot loop, kept linear for auditability
    pub fn step_slot(&mut self, mut sink: Option<&mut ServeMetricsSink>) -> bool {
        if self.slot >= self.slots {
            return false;
        }
        let slot = self.slot;
        let template = self.template;
        let full_bits = self.full_bits;
        let admitted_before = self.admission.admitted();
        let misses_before = self.report.base.deadline_misses;
        let utility_before = self.report.base.utility_sum;

        // 1. Apply this slot's scheduled faults, in plan order.
        //    Crashes strike the sessions active at the slot edge —
        //    newest first, they hold the freshest reservations.
        let mut stalled = false;
        let mut corrupt_loss = 0.0f64;
        while self.fault_cursor < self.fault_events.len()
            && self.fault_events[self.fault_cursor].slot <= slot
        {
            match self.fault_events[self.fault_cursor].event {
                FaultEvent::LinkRate { factor } => self.link_factor = factor,
                FaultEvent::LinkRestore => self.link_factor = 1.0,
                FaultEvent::SlotStall => stalled = true,
                FaultEvent::Corrupt { loss } => corrupt_loss = loss,
                FaultEvent::SessionCrash { fraction } => {
                    let victims = ((self.arena.live() as f64 * fraction).ceil() as usize)
                        .min(self.arena.live());
                    self.arena.take_newest(victims, &mut self.crash_buf);
                    for &h in &self.crash_buf {
                        let hi = h as usize;
                        self.report.crashed += 1;
                        self.report.lost_to_fault_bits += self.arena.backlogs[hi];
                        if let Some(rec) = self.recovery {
                            let victim = self.arena.sessions[hi];
                            let remaining = victim.depart_slot.saturating_sub(slot);
                            if victim.attempts < rec.max_retries && remaining > 0 {
                                self.report.retries += 1;
                                self.calendar.schedule(
                                    slot.saturating_add(rec.backoff_slots(victim.attempts)),
                                    ServerEvent::Retry {
                                        id: victim.id,
                                        attempt: victim.attempts,
                                        remaining,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            self.fault_cursor += 1;
        }

        // 2. Drain due arrivals, retries and departures in scheduling
        //    order: the entries filed for the previous slot after its
        //    drain, the queued first offers, then the slot's bucket
        //    (retries were scheduled after arrivals, so fresh offers
        //    keep their admission priority). Both buckets leave the
        //    calendar first, so an entry filed for this slot while it
        //    drains waits in `overdue` for the next.
        let mut overdue = std::mem::take(&mut self.overdue);
        let mut due = std::mem::take(&mut self.due);
        self.calendar.drain_overdue(&mut overdue);
        self.calendar.drain_slot(slot, &mut due);
        self.drain_bucket(slot, &overdue, sink.as_deref_mut());
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for (id, duration) in arrivals.drain_run(slot) {
            self.arrive(slot, id, duration);
        }
        self.arrivals = arrivals;
        self.drain_bucket(slot, &due, sink.as_deref_mut());
        self.overdue = overdue;
        self.due = due;

        let full_demand = self.arena.live() as u64 * full_bits;
        self.report.base.predicted_occupancy += self
            .memo
            .predicted_occupancy(&self.admission, self.arena.live() as u64);

        // 3. This slot's effective capacity under the fault state.
        let capacity_now = if stalled {
            self.report.stall_slots += 1;
            0
        } else if self.link_factor >= 1.0 {
            self.nominal_bits
        } else {
            self.report.degraded_slots += 1;
            (self.nominal_bits as f64 * self.link_factor).round() as u64
        };

        // Settled, nothing is carried. Otherwise one sweep pass drops
        // entries killed by departures from the order walk (returning
        // their slots to the free list) and sums the carried backlog;
        // after it, `arena.order` is exactly the live set in admission
        // order.
        let carried = if self.settled {
            0
        } else {
            self.arena.compact()
        };
        let active_now = self.arena.live() as u64;
        let layers = match self.degrade.as_mut() {
            // Closed loop: the previous slot's measured miss rate
            // feeds the PI law; without a PI block this is the
            // hysteresis `observe` path, bit for bit.
            Some(ctl) => ctl.observe_feedback(
                full_demand,
                capacity_now,
                carried,
                self.prev_misses,
                self.prev_active,
            ),
            None => template.max_layers,
        };
        self.report.base.mean_layers += layers.min(template.max_layers) as f64;

        let demand = template.demand_bits(layers);
        let enqueued = demand * active_now;
        let mut backlog_after = 0u64;
        let mut served = 0u64;
        let cohort_fits = active_now
            .checked_mul(demand)
            .is_some_and(|total| total <= capacity_now);
        if self.settled && active_now > 0 && cohort_fits {
            // Settled-cohort step. Validation gives demand <= full_bits
            // <= miss_bits < buffer_bits, so each session enqueues its
            // demand without a drop and, the link covering the total,
            // is granted all of it: nothing is purged or missed, no
            // timeout can fire, every backlog stays 0 (measured
            // occupancy adds 0) and the arena needs no write.
            let corrupted = corrupted_bits(demand, corrupt_loss);
            served = active_now * demand;
            self.report.base.session_slots += active_now;
            self.report.base.delivered_bits += active_now * (demand - corrupted);
            self.report.lost_to_fault_bits += active_now * corrupted;
            let u = memo_utility(
                &mut self.utility_memo,
                &template,
                (demand - corrupted).min(full_bits),
            );
            self.report.base.utility_sum =
                add_repeated(self.report.base.utility_sum, u, active_now);
        } else if active_now > 0 {
            if self.settled {
                // A settled arena keeps no order; the walks below need
                // `order` to be exactly the live set.
                self.arena.compact();
            }
            // Enqueue this slot's demand into each playout buffer,
            // tracking the total so the uncontended shortcut below
            // can skip the water-fill.
            let mut total_backlog = 0u64;
            for &h in &self.arena.order {
                let b = &mut self.arena.backlogs[h as usize];
                let want = *b + demand;
                let capped = want.min(self.buffer_bits);
                self.report.base.buffer_dropped_bits += want - capped;
                *b = capped;
                // Saturating: a saturated total can only exceed any
                // real link capacity, which routes to the contended
                // path below.
                total_backlog = total_backlog.saturating_add(capped);
            }

            self.grants.resize(self.arena.capacity(), 0);
            if total_backlog <= capacity_now {
                // Uncontended slot: max-min fair trivially grants
                // every session its whole backlog, with no level to
                // search for.
                for &h in &self.arena.order {
                    self.grants[h as usize] = self.arena.backlogs[h as usize];
                }
            } else {
                water_fill(
                    &self.arena.order,
                    &self.arena.backlogs,
                    &self.arena.sessions,
                    capacity_now,
                    &mut self.grants,
                    &mut self.levels,
                    &mut self.tail,
                );
            }

            self.report.base.session_slots += self.arena.live() as u64;
            // Grants apply in admission order — the float
            // accumulation order the reference implementation pins.
            for &h in &self.arena.order {
                let hi = h as usize;
                let grant = self.grants[hi];
                self.arena.backlogs[hi] -= grant;
                served += grant;
                let corrupted = corrupted_bits(grant, corrupt_loss);
                self.report.base.delivered_bits += grant - corrupted;
                self.report.lost_to_fault_bits += corrupted;
                if self.arena.backlogs[hi] > self.miss_bits {
                    // Too far behind the deadline: the client skips
                    // ahead, stale bits are worthless.
                    self.report.base.deadline_misses += 1;
                    self.report.base.purged_bits += self.arena.backlogs[hi] - self.miss_bits;
                    self.arena.backlogs[hi] = self.miss_bits;
                    self.arena.misses[hi] += 1;
                } else {
                    self.arena.misses[hi] = 0;
                    self.report.base.utility_sum += memo_utility(
                        &mut self.utility_memo,
                        &template,
                        (grant - corrupted).min(full_bits),
                    );
                }
                backlog_after += self.arena.backlogs[hi];
            }

            // 4. Playout-deadline timeout: a session that missed its
            //    deadline for a full timeout window aborts (the
            //    client gave up) and retries after backoff. A single
            //    in-place sweep in admission order, O(n) for any
            //    number of victims.
            if let Some(rec) = self.recovery {
                let mut w = 0usize;
                for r in 0..self.arena.order.len() {
                    let h = self.arena.order[r];
                    let hi = h as usize;
                    if self.arena.misses[hi] >= rec.timeout_miss_slots {
                        let session = self.arena.sessions[hi];
                        self.report.timed_out += 1;
                        backlog_after -= self.arena.backlogs[hi];
                        self.report.lost_to_fault_bits += self.arena.backlogs[hi];
                        let remaining = session.depart_slot.saturating_sub(slot + 1);
                        if session.attempts < rec.max_retries && remaining > 0 {
                            self.report.retries += 1;
                            self.calendar.schedule(
                                slot.saturating_add(rec.backoff_slots(session.attempts)),
                                ServerEvent::Retry {
                                    id: session.id,
                                    attempt: session.attempts,
                                    remaining,
                                },
                            );
                        }
                        self.arena.release(h);
                    } else {
                        self.arena.order[w] = h;
                        w += 1;
                    }
                }
                self.arena.order.truncate(w);
            }

            self.report.base.measured_occupancy += backlog_after as f64 / full_bits as f64;
        }

        // 5. Stall detection + capacity re-estimation (recovery
        //    only): when the link is not keeping up, admission
        //    control re-plans against what was actually served; a
        //    zero estimate fails closed until service resumes.
        if let Some(rec) = self.recovery {
            if full_demand > 0 && served == 0 {
                self.stall_streak += 1;
                if self.stall_streak == rec.stall_window_slots {
                    self.report.stalls_detected += 1;
                }
            } else {
                self.stall_streak = 0;
            }
            let estimate = if backlog_after > 0 {
                served
            } else {
                self.nominal_bits
            };
            if estimate != self.admission.effective_capacity() {
                self.admission.set_effective_capacity(estimate);
                self.report.capacity_reestimates += 1;
            }
        }

        if let Some(s) = sink {
            s.record_slot(
                self.admission.admitted() - admitted_before,
                self.arena.live() as u64,
                backlog_after,
                layers.min(template.max_layers) as u64,
                self.report.base.deadline_misses - misses_before,
                self.report.base.utility_sum - utility_before,
                enqueued,
            );
        }

        self.prev_misses = self.report.base.deadline_misses - misses_before;
        self.prev_active = active_now;
        // Settled again once the slot leaves no backlog and no miss:
        // every session that did not miss had its miss streak reset.
        self.settled = backlog_after == 0 && self.prev_misses == 0;
        if self.settled {
            self.arena.settle();
        }
        self.slot += 1;
        true
    }

    /// Decides a first offer at `slot` and admits it, or records the
    /// rejection.
    fn arrive(&mut self, slot: u64, id: u64, duration: u64) {
        let admitted = self
            .memo
            .decide(&mut self.admission, self.arena.live() as u64);
        if let Some(v) = self.verdicts.as_mut() {
            v.push((id, admitted));
        }
        if admitted {
            // The duration may come from a peer: saturate rather than
            // overflow or wrap into the past.
            let depart_slot = slot.saturating_add(duration);
            let departure = self.arena.insert(id, depart_slot, 0);
            self.calendar.schedule_departure(depart_slot, departure);
        }
    }

    /// Processes `bucket`'s events and departures in drain order.
    fn drain_bucket(
        &mut self,
        slot: u64,
        bucket: &Bucket,
        mut sink: Option<&mut ServeMetricsSink>,
    ) {
        for (events, departs) in bucket.runs() {
            for &ev in events {
                match ev {
                    ServerEvent::Arrive { id, duration } => self.arrive(slot, id, duration),
                    ServerEvent::Retry {
                        id,
                        attempt,
                        remaining,
                    } => self.retry(slot, id, attempt, remaining),
                }
            }
            depart_all(&mut self.arena, departs, sink.as_deref_mut());
        }
    }

    /// Re-offers a crashed or timed-out session at `slot`: readmits it,
    /// or files its next retry while attempts remain.
    fn retry(&mut self, slot: u64, id: u64, attempt: u32, remaining: u64) {
        // Re-admissions preview the predicate without recording: the
        // `admitted + rejected == offered` ledger counts each session's
        // first offer once.
        if self
            .memo
            .would_admit(&self.admission, self.arena.live() as u64)
        {
            self.report.readmitted += 1;
            let depart_slot = slot.saturating_add(remaining);
            let departure = self.arena.insert(id, depart_slot, attempt + 1);
            self.calendar.schedule_departure(depart_slot, departure);
        } else {
            self.report.retry_rejected += 1;
            if let Some(rec) = self.recovery {
                if attempt + 1 < rec.max_retries {
                    self.report.retries += 1;
                    self.calendar.schedule(
                        slot.saturating_add(rec.backoff_slots(attempt + 1)),
                        ServerEvent::Retry {
                            id,
                            attempt: attempt + 1,
                            remaining,
                        },
                    );
                }
            }
        }
    }

    /// Finalises the run and returns the report. Mean fields are
    /// normalised over the slots actually stepped (a full run steps
    /// exactly the horizon, matching the batch runners byte for byte).
    #[must_use]
    pub fn finish(mut self) -> FaultReport {
        self.report.base = ServerReport {
            offered: self.offered,
            admitted: self.admission.admitted(),
            rejected: self.admission.rejected(),
            slots: self.slot,
            ..self.report.base
        };
        if self.report.base.slots > 0 {
            self.report.base.predicted_occupancy /= self.report.base.slots as f64;
            self.report.base.measured_occupancy /= self.report.base.slots as f64;
            self.report.base.mean_layers /= self.report.base.slots as f64;
        }
        self.report
    }
}

/// Ends the activations `departs` name, in order, where the arena's
/// generation check lets them. A departed session's record and miss
/// streak stay valid until its slot is reused, so the bounded sink
/// reads its trace for the per-session reservoir.
fn depart_all(
    arena: &mut SessionArena,
    departs: &[Departure],
    mut sink: Option<&mut ServeMetricsSink>,
) {
    for &departure in departs {
        if arena.depart(departure) {
            if let Some(s) = sink.as_deref_mut() {
                let id = arena.sessions[departure.handle as usize].id;
                s.record_departure(id, arena.miss_streak(departure.handle));
            }
        }
    }
}

/// Bits of a `grant` lost in flight in a corruption-burst slot: they
/// leave the buffer (the sender cannot tell) but never arrive.
fn corrupted_bits(grant: u64, loss: f64) -> u64 {
    if loss > 0.0 {
        ((grant as f64 * loss).round() as u64).min(grant)
    } else {
        0
    }
}

/// `template.utility(bits)`, recomputed only when `bits` differs from
/// the previous call's.
fn memo_utility(memo: &mut (u64, f64), template: &SessionTemplate, bits: u64) -> f64 {
    if memo.0 != bits {
        *memo = (bits, template.utility(bits));
    }
    memo.1
}

/// Max-min fair water-filling (Bertsekas & Gallager, *Data Networks*,
/// ch. 6) of `capacity` bits over the sessions in `order`, for a slot
/// whose total backlog exceeds it: writes each session's grant into
/// `grants`, by handle. The grants are exactly those of the sorted
/// loop, which visits the sessions in ascending `(backlog, id)` and
/// grants each `min(backlog, remaining / left)`; selection finds them
/// in expected O(n), where the sort took O(n log n).
///
/// Let `f(v) = Σ min(bᵢ, v)` and `C = capacity`. The loop's first
/// session at backlog `b` finds `remaining = C − Σ_{bⱼ<b} bⱼ` and
/// `left = #{bⱼ ≥ b}`, so it gets its whole backlog iff
/// `b·left ≤ remaining`, i.e. iff `f(b) ≤ C`, and then so does the rest
/// of its tie group, since the share never falls. `f` is nondecreasing,
/// so whole backlogs go to exactly the sessions at or below the water
/// level, the largest backlog `v*` with `f(v*) ≤ C` (there may be
/// none). The other `t` sessions share `R = C − Σ_{b ≤ v*} b = q·t + r`:
/// the share stays `q` until `r` sessions are left and is `q + 1` from
/// there. `f` exceeds `C` at the smallest tail backlog, so every tail
/// backlog is at least `q + 1`: the first `t − r` tail sessions in
/// `(backlog, id)` order get `q`, the last `r` get `q + 1`, and the
/// slot allocates all of its capacity. Ids are unique among live
/// sessions, so `(backlog, id)` is a total order, and the `r` largest
/// keys one selection finds are the loop's last `r`.
///
/// `levels` and `tail` are scratch. Sums run in `u128`, which no set of
/// backlogs can overflow.
fn water_fill(
    order: &[u32],
    backlogs: &[u64],
    sessions: &[Session],
    capacity: u64,
    grants: &mut [u64],
    levels: &mut Vec<u64>,
    tail: &mut Vec<u32>,
) {
    levels.clear();
    levels.extend(order.iter().map(|&h| backlogs[h as usize]));
    let (level, below, above) = water_level(levels, capacity);
    let rest = u128::from(capacity) - below;
    // No tail means every backlog fits; the caller never asks then.
    let (q, r) = match u128::from(above) {
        0 => (0, 0),
        t => ((rest / t) as u64, (rest % t) as usize),
    };
    tail.clear();
    for &h in order {
        let b = backlogs[h as usize];
        grants[h as usize] = if level.is_some_and(|v| b <= v) {
            b
        } else {
            tail.push(h);
            q
        };
    }
    if r > 0 {
        let split = tail.len() - r;
        tail.select_nth_unstable_by_key(split, |&h| {
            (backlogs[h as usize], sessions[h as usize].id)
        });
        for &h in &tail[split..] {
            grants[h as usize] = q + 1;
        }
    }
}

/// The water level of `capacity` over the backlogs in `levels`: the
/// largest backlog `v` with `Σ min(bᵢ, v) ≤ capacity` (`None` if there
/// is none), the sum of the backlogs at or below it and the number
/// above it. Permutes `levels`.
///
/// Each round takes the candidates' median as pivot `p`, splits them
/// into `< p`, `= p` and `> p`, evaluates `f(p)` from the sum of the
/// values below `p` and the count at or above it, and keeps the side
/// that holds the level. The values left behind enter the sum below the
/// candidates or the count above them. The median halves the candidates
/// every round, so the search is linear in their number.
fn water_level(levels: &mut [u64], capacity: u64) -> (Option<u64>, u128, u64) {
    let capacity = u128::from(capacity);
    let mut level = None;
    let mut below = 0u128;
    let mut above = 0u64;
    let mut candidates = levels;
    while !candidates.is_empty() {
        let mid = candidates.len() / 2;
        let all = std::mem::take(&mut candidates);
        let (lo, &mut p, hi) = all.select_nth_unstable(mid);
        // lo <= p <= hi: move each side's ties with p next to it.
        let n_lt = partition(lo, |b| b < p);
        let n_gt = partition(hi, |b| b > p);
        let lt_sum: u128 = lo[..n_lt].iter().map(|&b| u128::from(b)).sum();
        let ties = (lo.len() - n_lt + 1 + hi.len() - n_gt) as u64;
        let at_least_p = u128::from(ties + n_gt as u64 + above);
        if below + lt_sum + u128::from(p) * at_least_p <= capacity {
            level = Some(p);
            below += lt_sum + u128::from(p) * u128::from(ties);
            candidates = &mut hi[..n_gt];
        } else {
            above += ties + n_gt as u64;
            candidates = &mut lo[..n_lt];
        }
    }
    (level, below, above)
}

/// Moves the values of `v` that satisfy `pred` to its front; returns
/// how many there are.
fn partition(v: &mut [u64], pred: impl Fn(u64) -> bool) -> usize {
    let mut n = 0;
    for i in 0..v.len() {
        if pred(v[i]) {
            v.swap(n, i);
            n += 1;
        }
    }
    n
}

/// `sum` after `n` additions of `u`, bit for bit what the loop
/// `for _ in 0..n { sum += u }` yields, in time proportional to the
/// binades the sum crosses rather than to `n`.
///
/// A binade `[2^e, 2^(e+1))` holds the doubles that share one spacing
/// `w = 2^(e−52)`, and a double's bit pattern counts multiples of `w`
/// within it (below `2^-1022`, where the spacing stays `2^-1074`, the
/// exponent field is 0 and the same holds). For `x` in the binade,
/// while `x + u` stays below its top, `fl(x + u) = x + δ`, where `δ` is
/// the multiple of `w` nearest `u`, the same at every step. The
/// exception is an exact tie, where `u/w` ends in ½ (such as `u = 1`
/// past 2^53): round-half-even then lands on an even multiple of `w`
/// after one step, and from there every tie resolves by the same `δ`.
/// So per binade the function takes two real additions from a sum
/// already inside it, reads `δ` off the second, and jumps as many steps
/// as keep every step below the top, by adding `k·δ/w` to the sum's
/// bit pattern, which is exact. Real additions cross the top, and
/// `δ == 0` means the sum never moves again. A negative, non-finite or
/// huge sum (1e300 and above), or a `u` that is negative or not finite,
/// takes real additions only.
fn add_repeated(mut sum: f64, u: f64, mut n: u64) -> f64 {
    let steady = u.is_finite() && u >= 0.0;
    while n > 0 {
        let start = sum;
        sum += u;
        n -= 1;
        if !(steady && n > 0 && start.is_sign_positive() && start < 1e300) {
            continue;
        }
        // The start's binade ends where its exponent field steps up.
        let top = ((start.to_bits() >> 52) + 1) << 52;
        let first = sum.to_bits();
        if first >= top {
            continue;
        }
        sum += u;
        n -= 1;
        let second = sum.to_bits();
        if second >= top {
            continue;
        }
        let step = second - first;
        if step == 0 {
            return sum;
        }
        let k = ((top - second - 1) / step).min(n);
        sum = f64::from_bits(second + k * step);
        n -= k;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::degrade::PiConfig;
    use crate::session::ServerSim;
    use crate::workload::{rate_for_load, ArrivalProcess, Workload};
    use crate::{CapacityModel, DegradeConfig};
    use dms_sim::{EventQueue, FaultSpec, MetricsRegistry, SimTime};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn setup(load: f64, slots: u64, seed: u64) -> (ServerConfig, Workload) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 20 * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::QueuePredictor,
            degrade: Some(crate::DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        };
        let rate = rate_for_load(load, &template, cfg.capacity.link_bits_per_slot);
        let workload = Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed)
            .expect("valid");
        (cfg, workload)
    }

    /// The seam contract: a slot's events drain in scheduling order.
    /// Offers injected incrementally, interleaved with stepping as the
    /// socket driver does, are scheduled after the departures already
    /// due in their slot and so drain after them, while a batch run
    /// injects every offer first. The two runs can therefore differ
    /// wherever a departure freed capacity before an arrival was
    /// decided; this test pins one seed and size where they agree.
    #[test]
    fn incremental_injection_matches_batch_run() {
        let (cfg, workload) = setup(1.2, 400, 21);
        let batch = ServerSim::new(cfg)
            .expect("valid")
            .run(&workload)
            .expect("runs");

        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        // Feed each offer only once the engine has stepped up to (but
        // not past) its arrival slot — the lockstep driver's schedule.
        for req in &workload.sessions {
            while engine.slot() < req.arrival_slot {
                assert!(engine.step_slot(None));
            }
            engine.offer(*req);
        }
        while engine.step_slot(None) {}
        let incremental = engine.finish();
        assert_eq!(incremental.base, batch, "seam must not perturb the run");
    }

    #[test]
    fn verdicts_ledger_matches_report() {
        let (cfg, workload) = setup(1.3, 300, 9);
        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        engine.record_verdicts(true);
        for req in &workload.sessions {
            engine.offer(*req);
        }
        let mut verdicts = Vec::new();
        while engine.step_slot(None) {
            engine.take_verdicts(&mut verdicts);
        }
        assert_eq!(engine.undecided(), 0, "horizon drains every offer");
        let admitted = verdicts.iter().filter(|(_, ok)| *ok).count() as u64;
        let rejected = verdicts.len() as u64 - admitted;
        let report = engine.finish();
        assert_eq!(verdicts.len() as u64, report.base.offered);
        assert_eq!(admitted, report.base.admitted);
        assert_eq!(rejected, report.base.rejected);
    }

    /// A late offer (slot already stepped) is not lost: it arrives at
    /// the next unstepped slot.
    #[test]
    fn late_offer_lands_on_the_next_slot() {
        let (cfg, workload) = setup(0.5, 100, 3);
        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        for _ in 0..10 {
            engine.step_slot(None);
        }
        engine.offer(crate::SessionRequest {
            id: 1,
            arrival_slot: 4, // stale stamp: slots 0..10 already ran
            duration_slots: 5,
        });
        engine.record_verdicts(true);
        let mut verdicts = Vec::new();
        engine.step_slot(None);
        engine.take_verdicts(&mut verdicts);
        assert_eq!(verdicts, vec![(1, true)], "late offer decided at slot 10");
    }

    /// A peer can send any duration: the departure slot saturates
    /// instead of overflowing (a panic in debug builds) or wrapping
    /// into the past (a 1-slot session in release builds).
    #[test]
    fn huge_duration_plays_out_to_the_horizon() {
        let (cfg, workload) = setup(0.5, 20, 3);
        let mut engine = ServerEngine::new(&cfg, workload.template, workload.slots).expect("valid");
        engine.offer(crate::SessionRequest {
            id: 1,
            arrival_slot: 5,
            duration_slots: u64::MAX,
        });
        while engine.step_slot(None) {}
        let report = engine.finish();
        assert_eq!(report.base.admitted, 1);
        assert_eq!(report.base.session_slots, 15, "served slots 5..20");
    }

    /// A peer can send any duration, and none may size the calendar:
    /// past its window an event costs one overflow entry per distinct
    /// slot, and an event at or after the horizon costs nothing.
    #[test]
    fn hostile_durations_leave_the_calendar_bounded() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 1_000 * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::AdmitAll,
            degrade: None,
            buffer_slots: 4,
            miss_slots: 2,
        };
        // The shorter horizon first: a ring grown to the farthest slot
        // fails the assertion there instead of exhausting memory.
        for horizon in [1u64 << 20, 1 << 40] {
            let mut engine = ServerEngine::new(&cfg, template, horizon).expect("valid");
            let mut departures = BTreeSet::new();
            let mut id = 0;
            for arrival_slot in 0..8 {
                // 1, 2, 4, ..., horizon / 2, one uneven duration, and
                // one that saturates the departure slot.
                let durations = (0..horizon.trailing_zeros())
                    .map(|k| 1u64 << k)
                    .chain([3 * (horizon >> 3) + arrival_slot, u64::MAX]);
                for duration_slots in durations {
                    engine.offer(SessionRequest {
                        id,
                        arrival_slot,
                        duration_slots,
                    });
                    id += 1;
                    departures.insert(arrival_slot.saturating_add(duration_slots));
                }
            }
            for _ in 0..16 {
                assert!(engine.step_slot(None));
            }
            assert_eq!(engine.admitted(), id, "every offer is admitted");
            let cal = &engine.calendar;
            let window_end = cal.cursor + WINDOW_SLOTS as u64;
            let far = departures.range(window_end..horizon).count();
            assert!(
                cal.ring.len() <= WINDOW_SLOTS,
                "horizon {horizon}: ring of {} buckets",
                cal.ring.len()
            );
            assert!(
                cal.overflow.len() <= far,
                "horizon {horizon}: {} overflow entries for {far} far slots",
                cal.overflow.len()
            );
        }
    }

    /// Entries the calendar holds: every one below the horizon that has
    /// not drained yet.
    fn pending(cal: &SlotCalendar) -> usize {
        let held = |b: &Bucket| b.events.len() + b.departs.len();
        cal.ring.iter().map(held).sum::<usize>()
            + held(&cal.overdue)
            + cal.overflow.values().map(held).sum::<usize>()
    }

    /// Marks are minimal: strictly increasing in both indices, each
    /// before an event, and each releasing at least one departure.
    fn assert_marks_minimal(bucket: &Bucket, at: &str) {
        let mut last = None;
        for &(i, d) in &bucket.marks {
            assert!(i < bucket.events.len(), "{at}: mark {i} past the events");
            assert!(
                d <= bucket.departs.len(),
                "{at}: mark {d} past the departures"
            );
            if let Some((li, ld)) = last {
                assert!(li < i && ld < d, "{at}: marks ({li}, {ld}) then ({i}, {d})");
            } else {
                assert!(d > 0, "{at}: a first mark releasing nothing");
            }
            last = Some((i, d));
        }
    }

    /// What the calendar files: an offer, a retry or a departure.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Offer,
        Retry,
        Depart,
    }

    /// A calendar entry as the heap holds it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Entry {
        Event(ServerEvent),
        Depart(Departure),
    }

    /// One step of an engine-shaped calendar workload.
    #[derive(Debug, Clone)]
    enum CalOp {
        /// An entry filed between slots, this far past the cursor.
        Inject(Kind, u64),
        /// An entry filed at `horizon - 2 + k`, or at the cursor if
        /// that is later.
        NearHorizon(Kind, u64),
        /// One slot's drain, then one entry per offset from the drained
        /// slot: 0 is the drained slot itself (a zero-duration
        /// departure), small offsets are backoffs, large ones pass the
        /// window or the horizon.
        Drain(Vec<(Kind, u64)>),
    }

    fn cal_kind() -> impl Strategy<Value = Kind> {
        prop_oneof![Just(Kind::Offer), Just(Kind::Retry), Just(Kind::Depart)]
    }

    fn cal_offset() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 1u64..=8, 0u64..64, 0u64..400, Just(u64::MAX)]
    }

    fn cal_op() -> impl Strategy<Value = CalOp> {
        let follow = || collection::vec((cal_kind(), cal_offset()), 0..4);
        prop_oneof![
            (cal_kind(), cal_offset()).prop_map(|(k, off)| CalOp::Inject(k, off)),
            (cal_kind(), 0u64..4).prop_map(|(k, off)| CalOp::NearHorizon(k, off)),
            follow().prop_map(CalOp::Drain),
            follow().prop_map(CalOp::Drain),
        ]
    }

    /// A calendar and the `(time, seq)` heap, fed the same schedules.
    struct CalendarOracle {
        cal: SlotCalendar,
        heap: EventQueue<Entry>,
        next: u64,
        /// Entries scheduled below the horizon and not yet drained.
        live: usize,
    }

    impl CalendarOracle {
        fn schedule(&mut self, kind: Kind, slot: u64) {
            let tag = self.next;
            self.next += 1;
            if slot < self.cal.horizon {
                self.live += 1;
            }
            let entry = match kind {
                Kind::Offer => Entry::Event(ServerEvent::Arrive {
                    id: tag,
                    duration: 1,
                }),
                Kind::Retry => Entry::Event(ServerEvent::Retry {
                    id: tag,
                    attempt: 0,
                    remaining: 1,
                }),
                Kind::Depart => Entry::Depart(Departure {
                    handle: tag as u32,
                    gen: (tag >> 32) as u32,
                }),
            };
            match entry {
                Entry::Event(ev) => self.cal.schedule(slot, ev),
                Entry::Depart(d) => self.cal.schedule_departure(slot, d),
            }
            self.heap.schedule(SimTime::from_ticks(slot), entry);
        }

        /// Drains the cursor's slot from both and checks they agree;
        /// returns the drained slot.
        fn drain(&mut self, overdue: &mut Bucket, due: &mut Bucket) -> u64 {
            let slot = self.cal.cursor;
            self.cal.drain_overdue(overdue);
            self.cal.drain_slot(slot, due);
            let mut got = Vec::new();
            for bucket in [&*overdue, &*due] {
                assert_marks_minimal(bucket, &format!("slot {slot}"));
                for (events, departs) in bucket.runs() {
                    got.extend(events.iter().map(|&ev| Entry::Event(ev)));
                    got.extend(departs.iter().map(|&d| Entry::Depart(d)));
                }
            }
            let at = SimTime::from_ticks(slot);
            let want: Vec<Entry> =
                std::iter::from_fn(|| self.heap.pop_at_or_before(at).map(|e| e.payload)).collect();
            assert_eq!(got, want, "slot {slot}: drain order");
            self.live -= got.len();
            assert_eq!(pending(&self.cal), self.live, "slot {slot}: held entries");
            assert!(self.cal.ring.len() <= self.cal.window);
            let end = self.cal.cursor + self.cal.ring.len() as u64;
            assert!(self.cal.overflow.keys().all(|&s| s >= end), "slot {slot}");
            slot
        }
    }

    proptest! {
        /// The calendar's order oracle: under a random mix of offers,
        /// retries and departures filed between slots (some past the
        /// window, some at or after the horizon), one drain per slot,
        /// entries filed after a drain (for the drained slot, one
        /// backoff ahead, past the window) and ring growth mid-run,
        /// every slot below the horizon drains exactly the entries the
        /// heap pops for it, in the heap's order: the overdue bucket,
        /// then the slot's, each walked through its marks.
        #[test]
        fn calendar_drains_each_slot_in_heap_order(
            window in prop_oneof![Just(1usize), Just(2), Just(8), Just(32), Just(WINDOW_SLOTS)],
            horizon in 1u64..300,
            ops in collection::vec(cal_op(), 1..300),
        ) {
            let mut o = CalendarOracle {
                cal: SlotCalendar::new(horizon, window),
                heap: EventQueue::new(),
                next: 0,
                live: 0,
            };
            let (mut overdue, mut due) = (Bucket::default(), Bucket::default());
            for op in ops {
                let cursor = o.cal.cursor;
                match op {
                    CalOp::Inject(kind, ahead) => o.schedule(kind, cursor.saturating_add(ahead)),
                    CalOp::NearHorizon(kind, k) => {
                        o.schedule(kind, (horizon + k).saturating_sub(2).max(cursor));
                    }
                    CalOp::Drain(follow) => {
                        if cursor == horizon {
                            continue;
                        }
                        let slot = o.drain(&mut overdue, &mut due);
                        for (kind, off) in follow {
                            o.schedule(kind, slot.saturating_add(off));
                        }
                    }
                }
            }
            while o.cal.cursor < horizon {
                o.drain(&mut overdue, &mut due);
            }
        }
    }

    /// Buffers a bucket holds, whether or not it holds entries.
    fn capacity(bucket: &Bucket) -> usize {
        bucket.events.capacity() + bucket.departs.capacity() + bucket.marks.capacity()
    }

    /// Files a retry, two departures and another retry at `slot`, so
    /// its bucket grows all three buffers.
    fn file_mixed(cal: &mut SlotCalendar, slot: u64) {
        let retry = ServerEvent::Retry {
            id: slot,
            attempt: 0,
            remaining: 1,
        };
        cal.schedule(slot, retry);
        for handle in 0..2 {
            cal.schedule_departure(slot, Departure { handle, gen: 0 });
        }
        cal.schedule(slot, retry);
    }

    /// With the horizon inside the ring, no drained position serves a
    /// later slot, so each one frees its buffers as it drains and the
    /// ring ends the run holding none.
    #[test]
    fn a_drained_bucket_past_its_last_slot_holds_no_buffer() {
        let horizon = 24;
        let mut cal = SlotCalendar::new(horizon, 32);
        for slot in (0..horizon).rev() {
            file_mixed(&mut cal, slot);
        }
        assert_eq!(cal.ring.len(), 32, "the ring covers the horizon");
        let (mut overdue, mut due) = (Bucket::default(), Bucket::default());
        for slot in 0..horizon {
            cal.drain_overdue(&mut overdue);
            cal.drain_slot(slot, &mut due);
            assert_eq!((due.events.len(), due.departs.len()), (2, 2), "slot {slot}");
            assert_eq!(capacity(cal.bucket(slot)), 0, "slot {slot}");
        }
        assert!(cal.ring.iter().all(|b| capacity(b) == 0));
    }

    /// With a horizon several ring lengths long, a drained position
    /// that serves a later slot parks the previous slot's buffers, so
    /// a steady state allocates nothing; only the positions past their
    /// last slot free theirs.
    #[test]
    fn a_drained_bucket_that_serves_a_later_slot_keeps_its_capacity() {
        let (window, horizon) = (8u64, 40u64);
        let mut cal = SlotCalendar::new(horizon, window as usize);
        for slot in 0..window {
            file_mixed(&mut cal, slot);
        }
        let (mut overdue, mut due) = (Bucket::default(), Bucket::default());
        for slot in 0..horizon {
            let parked = capacity(&due);
            cal.drain_overdue(&mut overdue);
            cal.drain_slot(slot, &mut due);
            assert_eq!((due.events.len(), due.departs.len()), (2, 2), "slot {slot}");
            let later = slot + window;
            let held = capacity(cal.bucket(later));
            if later < horizon {
                assert_eq!(held, parked, "slot {slot}: the position recycles");
                assert!(slot == 0 || held > 0, "slot {slot}");
                file_mixed(&mut cal, later);
            } else {
                assert_eq!(held, 0, "slot {slot}: past its last slot");
            }
        }
        assert!(cal.ring.iter().all(|b| capacity(b) == 0));
    }

    /// A twelve-session link whose predictor admits some of 40 offers
    /// at slot 0, all departing at slot 5, and one more offer for slot
    /// 5. A batch run files that offer before the departures and so
    /// decides it with the frontier reached; injected once the engine
    /// reached slot 5, it drains after them. Returns the late offer's
    /// verdict and how many of the slot-0 offers were admitted.
    fn late_offer_verdict(incremental: bool) -> (bool, u64) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 12 * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::QueuePredictor,
            degrade: None,
            buffer_slots: 4,
            miss_slots: 2,
        };
        let mut engine = ServerEngine::new(&cfg, template, 10).expect("valid");
        engine.record_verdicts(true);
        for id in 0..40 {
            engine.offer(SessionRequest {
                id,
                arrival_slot: 0,
                duration_slots: 5,
            });
        }
        let late = SessionRequest {
            id: 40,
            arrival_slot: 5,
            duration_slots: 5,
        };
        if incremental {
            while engine.slot() < late.arrival_slot {
                engine.step_slot(None);
            }
        }
        engine.offer(late);
        while engine.step_slot(None) {}
        let mut verdicts = Vec::new();
        engine.take_verdicts(&mut verdicts);
        let first = verdicts.iter().filter(|&&(id, ok)| id < 40 && ok).count() as u64;
        let last = verdicts
            .iter()
            .find(|&&(id, _)| id == 40)
            .expect("decided")
            .1;
        (last, first)
    }

    /// Within-slot order, pinned both ways: a slot's departures free
    /// the admission frontier only for offers filed after them.
    #[test]
    fn a_slots_departures_free_capacity_only_for_later_offers() {
        let (batch, admitted) = late_offer_verdict(false);
        assert!(
            admitted > 0 && admitted < 40,
            "the frontier binds at slot 0: {admitted} of 40 admitted"
        );
        assert!(!batch, "batch: the offer drains before the departures");
        let (incremental, admitted_then) = late_offer_verdict(true);
        assert_eq!(admitted_then, admitted);
        assert!(incremental, "incremental: the departures drain first");
    }

    /// The offers `queue` holds as `(id, duration)`, oldest first: a
    /// copy of it drained run by run.
    fn decode(queue: &ArrivalQueue) -> Vec<(u64, u64)> {
        let mut copy = ArrivalQueue {
            words: queue.words.clone(),
            wide: queue.wide.clone(),
            runs: queue.runs.clone(),
            ..*queue
        };
        let mut offers = Vec::new();
        for &(slot, _) in &queue.runs {
            offers.extend(copy.drain_run(slot));
        }
        offers
    }

    /// [`ServerEngine::offer`] without the arrival queue: every offer
    /// filed as a calendar `Arrive` event. The queue's order oracle.
    fn offer_through_calendar(engine: &mut ServerEngine, request: SessionRequest) {
        engine.offered += 1;
        engine.calendar.schedule(
            request.arrival_slot.max(engine.slot),
            ServerEvent::Arrive {
                id: request.id,
                duration: request.duration_slots,
            },
        );
    }

    /// A six-session link under the queue predictor, so the frontier
    /// binds and a verdict depends on what drained before it.
    fn tight_config() -> (ServerConfig, SessionTemplate) {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let cfg = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 6 * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::QueuePredictor,
            degrade: Some(DegradeConfig::default()),
            buffer_slots: 4,
            miss_slots: 2,
        };
        (cfg, template)
    }

    /// One step of an interleaved drive.
    #[derive(Debug, Clone, Copy)]
    enum DriveOp {
        /// An offer this many slots after the last offer's stamp (0 is
        /// the same slot), with this duration.
        Ahead(u64, u64),
        /// An offer this many slots before the last offer's stamp.
        Behind(u64, u64),
        /// An offer stamped this many slots before the engine's slot.
        Late(u64, u64),
        /// An offer this far past the horizon (0 is at it).
        PastHorizon(u64, u64),
        /// Steps this many slots.
        Step(u64),
    }

    fn drive_op() -> impl Strategy<Value = DriveOp> {
        // Beside short ones: the longest duration a queue word holds,
        // the first two it does not, and one that saturates.
        let duration = || {
            prop_oneof![
                Just(0u64),
                Just(u64::MAX),
                1u64..12,
                Just((1 << 24) - 2),
                Just((1 << 24) - 1),
                Just(1 << 24),
            ]
        };
        let ahead = || (prop_oneof![Just(0u64), 0u64..4], duration());
        let step = || (1u64..4).prop_map(DriveOp::Step);
        prop_oneof![
            ahead().prop_map(|(k, d)| DriveOp::Ahead(k, d)),
            ahead().prop_map(|(k, d)| DriveOp::Ahead(k, d)),
            ahead().prop_map(|(k, d)| DriveOp::Ahead(k, d)),
            (1u64..6, duration()).prop_map(|(k, d)| DriveOp::Behind(k, d)),
            (1u64..4, duration()).prop_map(|(k, d)| DriveOp::Late(k, d)),
            (prop_oneof![Just(0u64), Just(1), Just(u64::MAX)], duration())
                .prop_map(|(k, d)| DriveOp::PastHorizon(k, d)),
            step(),
            step(),
        ]
    }

    /// How far an offer's id moves from the previous offer's: not at
    /// all, by 1, by up to the largest step a queue word holds, by the
    /// first it does not, by 2^32, or backwards (wrapping below 0).
    fn id_step() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(1),
            2u64..256,
            Just(256),
            Just(1 << 32),
            (1u64..300).prop_map(|k| k.wrapping_neg()),
        ]
    }

    proptest! {
        /// The arrival queue moves no verdict: through random
        /// interleavings of offers and steps (offers at the same slot,
        /// ascending, backwards, late, at and past the horizon, with
        /// ids that repeat, count up, jump or go backwards, and
        /// durations on both sides of what a queue word holds), under
        /// crashes, stalls, retries and timeouts, the verdict stream
        /// slot by slot and the final report equal an engine's that
        /// files every offer in the calendar.
        #[test]
        fn arrival_queue_matches_the_calendar_path(
            horizon in 1u64..40,
            ops in collection::vec((drive_op(), id_step()), 0..120),
        ) {
            let (cfg, template) = tight_config();
            let specs = [
                FaultSpec::CrashBurst { slot: 4, fraction: 0.5 },
                FaultSpec::SlotStalls { start_slot: 9, duration_slots: 3 },
            ];
            let plan = FaultPlan::compile(&specs, horizon, 7).expect("valid specs");
            let recovery = RecoveryConfig {
                backoff_base_slots: 1,
                timeout_miss_slots: 2,
                ..RecoveryConfig::default()
            };
            let build = || {
                let mut e = ServerEngine::with_faults(
                    &cfg, template, horizon, Some(&plan), Some(&recovery),
                )
                .expect("valid");
                e.record_verdicts(true);
                e
            };
            let (mut queued, mut filed) = (build(), build());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let (mut last, mut id) = (0u64, 1u64 << 20);
            for (op, step) in ops {
                let (arrival_slot, duration_slots) = match op {
                    DriveOp::Ahead(k, d) => (last.saturating_add(k), d),
                    DriveOp::Behind(k, d) => (last.saturating_sub(k), d),
                    DriveOp::Late(k, d) => (queued.slot().saturating_sub(k), d),
                    DriveOp::PastHorizon(k, d) => (horizon.saturating_add(k), d),
                    DriveOp::Step(n) => {
                        for _ in 0..n {
                            prop_assert_eq!(queued.step_slot(None), filed.step_slot(None));
                            queued.take_verdicts(&mut got);
                            filed.take_verdicts(&mut want);
                            prop_assert_eq!(&got, &want, "after slot {}", queued.slot());
                        }
                        continue;
                    }
                };
                last = arrival_slot;
                id = id.wrapping_add(step);
                let request = SessionRequest { id, arrival_slot, duration_slots };
                queued.offer(request);
                offer_through_calendar(&mut filed, request);
            }
            while queued.step_slot(None) {
                prop_assert!(filed.step_slot(None));
            }
            prop_assert!(!filed.step_slot(None));
            queued.take_verdicts(&mut got);
            filed.take_verdicts(&mut want);
            prop_assert_eq!(got, want);
            let q = &queued.arrivals;
            prop_assert!(q.words.is_empty() && q.wide.is_empty() && q.runs.is_empty());
            prop_assert_eq!(queued.finish(), filed.finish());
        }
    }

    /// An offer whose slot is behind the queue's last slot is filed in
    /// the calendar, and drains after the queue's offers for its slot,
    /// which were scheduled before it.
    #[test]
    fn a_backwards_offer_drains_after_the_queued_run() {
        let (cfg, template) = tight_config();
        let mut engine = ServerEngine::new(&cfg, template, 10).expect("valid");
        engine.record_verdicts(true);
        for (id, arrival_slot) in [(1, 2), (2, 5), (3, 2), (4, 5)] {
            engine.offer(SessionRequest {
                id,
                arrival_slot,
                duration_slots: 3,
            });
        }
        assert_eq!(decode(&engine.arrivals), [(1, 3), (2, 3), (4, 3)]);
        assert_eq!(pending(&engine.calendar), 1, "offer 3 went backwards");
        let mut verdicts = Vec::new();
        while engine.slot() <= 2 {
            engine.step_slot(None);
        }
        engine.take_verdicts(&mut verdicts);
        let order: Vec<u64> = verdicts.iter().map(|&(id, _)| id).collect();
        assert_eq!(
            order,
            [1, 3],
            "slot 2: the queued offer, then the filed one"
        );
        while engine.step_slot(None) {}
        engine.take_verdicts(&mut verdicts);
        let order: Vec<u64> = verdicts.iter().map(|&(id, _)| id).collect();
        assert_eq!(order, [1, 3, 2, 4]);
    }

    /// The calendar's high-water mark is the queue's boundary. Once a
    /// departure is filed for slot 2, an offer for slot 2 is filed in
    /// the calendar and drains after it, so the departure frees the
    /// frontier first; an offer for slot 3 still takes the queue.
    #[test]
    fn an_offer_filed_after_a_departure_at_its_slot_drains_after_it() {
        let (cfg, template) = tight_config();
        let mut engine = ServerEngine::new(&cfg, template, 10).expect("valid");
        engine.record_verdicts(true);
        for id in 0..20 {
            engine.offer(SessionRequest {
                id,
                arrival_slot: 0,
                duration_slots: 2,
            });
        }
        engine.step_slot(None);
        let mut verdicts = Vec::new();
        engine.take_verdicts(&mut verdicts);
        let admitted = verdicts.iter().filter(|&&(_, ok)| ok).count();
        assert!(
            admitted > 0 && admitted < 20,
            "the frontier binds: {admitted} of 20 admitted"
        );
        assert_eq!(engine.calendar.filed_end, 3, "departures filed at slot 2");

        for (id, arrival_slot) in [(20, 2), (21, 3)] {
            engine.offer(SessionRequest {
                id,
                arrival_slot,
                duration_slots: 2,
            });
        }
        assert_eq!(
            decode(&engine.arrivals),
            [(21, 2)],
            "slot 3 takes the queue"
        );
        engine.step_slot(None);
        engine.step_slot(None);
        verdicts.clear();
        engine.take_verdicts(&mut verdicts);
        assert_eq!(verdicts, [(20, true)], "the departures drained first");
    }

    /// An engine that admits nothing files nothing in the calendar, so
    /// every offer takes the queue. Fed one slot at a time, the queue
    /// empties every slot and its capacity stays at the largest
    /// one-slot batch over ten times as many slots.
    #[test]
    fn an_engine_fed_slot_by_slot_keeps_the_queue_at_one_batch() {
        let slots = 1_100u64;
        // A one-bit link: one session already overflows the predictor's
        // bound, so the admission frontier is 0 and every offer is
        // refused.
        let (mut cfg, template) = tight_config();
        cfg.capacity.link_bits_per_slot = 1;
        let mut engine = ServerEngine::new(&cfg, template, slots).expect("valid");
        let (mut id, mut largest, mut capacity) = (0u64, 0usize, 0usize);
        for slot in 0..slots {
            // Batches of 1 to 64 offers; the largest comes early.
            let batch = 1 + (slot * 37 % 64) as usize;
            for _ in 0..batch {
                engine.offer(SessionRequest {
                    id,
                    arrival_slot: slot,
                    duration_slots: 5,
                });
                id += 1;
            }
            largest = largest.max(batch);
            assert_eq!(decode(&engine.arrivals).len(), batch, "slot {slot}");
            assert!(engine.step_slot(None));
            assert!(engine.arrivals.words.is_empty() && engine.arrivals.runs.is_empty());
            if slot == slots / 11 {
                capacity = engine.arrivals.words.capacity();
                assert_eq!(largest, 64);
                assert!(capacity >= largest && capacity < 2 * largest);
            }
        }
        assert_eq!(engine.arrivals.words.capacity(), capacity);
        assert_eq!(pending(&engine.calendar), 0);
        assert_eq!(engine.rejected(), id, "the frontier refused all");
    }

    fn add_loop(sum: f64, u: f64, n: u64) -> f64 {
        let mut total = sum;
        for _ in 0..n {
            total += u;
        }
        total
    }

    /// The sums the settled-cohort step starts from: zero, subnormals,
    /// random magnitudes from 2^-20 to 2^60, and sums within a few
    /// thousand of 2^53 and 2^54, where the spacing reaches 1 and 2.
    fn start_sum() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            (1u64..1 << 52).prop_map(f64::from_bits),
            (-20.0f64..60.0).prop_map(|e| e.exp2()),
            (0u64..8192).prop_map(|d| ((1u64 << 53) - 4096 + d) as f64),
            (0u64..8192).prop_map(|d| ((1u64 << 54) - 8192 + 2 * d) as f64),
        ]
    }

    /// What to add: 0, 1, ½, 2^-k, ⅓, 1 a few ulps off, random values
    /// in (0, 1], and values above the sum (1 to 5 times it, plus 0.3).
    #[derive(Debug, Clone, Copy)]
    enum Addend {
        Fixed(f64),
        OnePlusUlps(i64),
        Unit(f64),
        AboveSum(f64),
    }

    fn addend() -> impl Strategy<Value = Addend> {
        prop_oneof![
            prop_oneof![Just(0.0), Just(1.0), Just(0.5), Just(1.0 / 3.0)].prop_map(Addend::Fixed),
            (1i32..70).prop_map(|k| Addend::Fixed(f64::from(-k).exp2())),
            (-4i64..=4).prop_map(Addend::OnePlusUlps),
            (0.0f64..1.0).prop_map(Addend::Unit),
            (1.0f64..5.0).prop_map(Addend::AboveSum),
        ]
    }

    impl Addend {
        fn value(self, sum: f64) -> f64 {
            match self {
                Addend::Fixed(u) => u,
                Addend::OnePlusUlps(k) => f64::from_bits(1f64.to_bits().wrapping_add_signed(k)),
                // 1 − [0, 1) is (0, 1].
                Addend::Unit(x) => 1.0 - x,
                Addend::AboveSum(x) => sum * x + 0.3,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The settled-cohort step adds a slot's utility in one call;
        /// it must leave the exact bits of n sequential additions, for
        /// any start, addend and count.
        #[test]
        fn bulk_utility_add_matches_the_loop_bit_for_bit(
            sum in start_sum(),
            addend in addend(),
            n in prop_oneof![0u64..4, 0u64..5_000, 0u64..1_000_000, Just(1_000_000)],
        ) {
            let u = addend.value(sum);
            prop_assert_eq!(
                add_repeated(sum, u, n).to_bits(),
                add_loop(sum, u, n).to_bits(),
                "sum {:e}, u {:e}, n {}",
                sum,
                u,
                n
            );
        }
    }

    /// The fixed cases of the settled-cohort step's exact sum: the
    /// engine's own utilities at 2^53 and past it.
    #[test]
    fn bulk_utility_add_keeps_the_fixed_cases() {
        let template = SessionTemplate::streaming_default().expect("preset valid");
        let shed = template.utility(template.demand_bits(template.max_layers - 2));
        assert!(shed < 1.0, "a shed layer count gives a utility below 1");
        let edge = (1u64 << 53) as f64;
        let n = 1_000u64;
        let cases = [
            (0.0, 1.0, n),
            // The last sum is 2^53, the top of the spacing-1 binade.
            (edge - n as f64, 1.0, n),
            // One past it: 2^53 + 1 is a tie that rounds back down.
            (edge - n as f64 + 1.0, 1.0, n),
            // Ties from an odd multiple of the spacing: the first step
            // rounds up to an even one, and every later step adds 0.
            (edge + 2.0, 1.0, n),
            ((1u64 << 52) as f64 + 1.0, 0.5, n),
            (12.5, 1.0, n),
            (3.0, shed, n),
            (7.0, 1.0, 0),
            (7.0, shed, 0),
            (7.0, 1.0, 1),
            (0.25, shed, 1),
        ];
        for (sum, u, n) in cases {
            assert_eq!(
                add_repeated(sum, u, n).to_bits(),
                add_loop(sum, u, n).to_bits(),
                "sum {sum}, u {u}, n {n}"
            );
        }
        // Past the edge one addition of n rounds away from the loop's
        // result, and so does one addition of n·u for a fractional u.
        let (sum, n) = (edge - 1.0, 4);
        assert_ne!((sum + n as f64).to_bits(), add_loop(sum, 1.0, n).to_bits());
        assert_eq!(
            add_repeated(sum, 1.0, n).to_bits(),
            add_loop(sum, 1.0, n).to_bits()
        );
        assert_ne!(
            (3.0 + n as f64 * shed).to_bits(),
            add_loop(3.0, shed, n).to_bits(),
            "n * u in one step is not the loop's sum"
        );
    }

    /// The water-fill oracle: the sorted loop the engine ran before the
    /// selection, visiting sessions in ascending `(backlog, id)`.
    fn water_fill_sorted(
        order: &[u32],
        backlogs: &[u64],
        ids: &[u64],
        capacity: u64,
        grants: &mut [u64],
    ) {
        let mut sorted = order.to_vec();
        sorted.sort_unstable_by_key(|&h| (backlogs[h as usize], ids[h as usize]));
        let mut remaining = capacity;
        let mut left = sorted.len() as u64;
        for &h in &sorted {
            let share = remaining / left;
            let grant = backlogs[h as usize].min(share);
            grants[h as usize] = grant;
            remaining -= grant;
            left -= 1;
        }
    }

    /// A bijection on `u64` (the splitmix64 finaliser), so ids derived
    /// from distinct handles stay distinct and follow no handle order.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Backlogs in admission order: 1–3 distinct values (heavy ties),
    /// all equal, random, and values around `u64::MAX / n`, whose sums
    /// pass `u64::MAX`.
    fn contended_backlogs() -> impl Strategy<Value = Vec<u64>> {
        let sizes = || prop_oneof![Just(1usize), 1usize..8, 1usize..300];
        prop_oneof![
            (
                collection::vec(0u64..40, 1..4),
                collection::vec(0usize..3, 1..300)
            )
                .prop_map(|(values, picks)| picks
                    .iter()
                    .map(|&i| values[i % values.len()])
                    .collect()),
            (0u64..1_000_000, sizes()).prop_map(|(b, n)| vec![b; n]),
            (sizes(), collection::vec(0u64..1_000_000, 300))
                .prop_map(|(n, values)| values[..n].to_vec()),
            (sizes(), collection::vec(0u64..64, 300)).prop_map(|(n, offsets)| {
                let base = u64::MAX / n as u64;
                offsets[..n]
                    .iter()
                    .map(|&o| (base - 32).saturating_add(o))
                    .collect()
            }),
            (sizes(), collection::vec(0u64..=128, 300)).prop_map(|(n, steps)| {
                let base = u64::MAX / n as u64;
                steps[..n]
                    .iter()
                    .map(|&k| (base / 64).saturating_mul(k))
                    .collect()
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// The selection water-fill equals the sorted loop, grant for
        /// grant by handle, in every contended slot: capacities of 0,
        /// below the session count, one short of the total and
        /// anywhere between, over live handles scattered among dead
        /// ones, with ids that do not follow handle order.
        #[test]
        fn water_fill_matches_the_sorted_loop(
            backlogs in contended_backlogs(),
            capacity_kind in 0u8..4,
            fraction in 0.0f64..1.0,
            salt in 0u64..u64::MAX,
        ) {
            let n = backlogs.len();
            let total: u128 = backlogs.iter().map(|&b| u128::from(b)).sum();
            if total == 0 {
                return Ok(());
            }
            let short = u64::try_from(total - 1).unwrap_or(u64::MAX - 1);
            let capacity = match capacity_kind {
                0 => 0,
                1 => (n as u64 - 1).min(short),
                2 => short,
                _ => (short as f64 * fraction) as u64,
            };
            // Half as many dead handles as live ones, shuffled in.
            let slots = n + n / 2;
            let mut handles: Vec<u32> = (0..slots as u32).collect();
            handles.sort_by_key(|&h| mix(u64::from(h) ^ salt));
            let order = &handles[..n];
            let mut by_handle = vec![0u64; slots];
            for (&h, &b) in order.iter().zip(&backlogs) {
                by_handle[h as usize] = b;
            }
            let ids: Vec<u64> = (0..slots as u64).map(|h| mix(h ^ salt.rotate_left(17))).collect();
            let sessions: Vec<Session> = ids
                .iter()
                .map(|&id| Session {
                    id,
                    ..Session::default()
                })
                .collect();

            let mut want = vec![u64::MAX; slots];
            water_fill_sorted(order, &by_handle, &ids, capacity, &mut want);
            let mut got = vec![u64::MAX; slots];
            let (mut levels, mut tail) = (Vec::new(), Vec::new());
            water_fill(order, &by_handle, &sessions, capacity, &mut got, &mut levels, &mut tail);
            for &h in order {
                let h = h as usize;
                prop_assert_eq!(
                    got[h], want[h],
                    "handle {} (backlog {}, id {}), capacity {}", h, by_handle[h], ids[h], capacity
                );
            }
            let granted: u128 = order.iter().map(|&h| u128::from(got[h as usize])).sum();
            prop_assert_eq!(granted, u128::from(capacity), "a contended slot allocates it all");
        }
    }

    /// The arena holds only the live set. Settled, a departure frees
    /// its slot at once; ordered, the sweep before the next walk frees
    /// it, and a slot that ends settled frees what a crash's ordering
    /// left stale. So the arena never holds more slots than the most
    /// sessions it has held at once, at most the previous slot's live
    /// count plus the slot's admissions. The first run never leaves the
    /// settled state, so it never orders the arena and allocates none
    /// of the ordered columns. The second crashes settled cohorts and
    /// stalls the link, so the bound also covers the settle and reorder
    /// transitions.
    #[test]
    fn arena_holds_only_the_live_set() {
        let mut template = SessionTemplate::streaming_default().expect("preset valid");
        template.mean_duration_slots = 40.0;
        let cfg = ServerConfig {
            capacity: CapacityModel {
                link_bits_per_slot: 10_000 * template.full_bits(),
                queue_frames: 64,
                occupancy_bound: 8.0,
            },
            policy: AdmissionPolicy::AdmitAll,
            degrade: None,
            buffer_slots: 4,
            miss_slots: 2,
        };
        let slots = 400u64;
        let workload =
            Workload::generate(ArrivalProcess::Poisson { rate: 100.0 }, template, slots, 5)
                .expect("valid");
        let mut specs: Vec<FaultSpec> = (1..8)
            .map(|k| FaultSpec::CrashBurst {
                slot: 50 * k,
                fraction: 0.05,
            })
            .collect();
        specs.push(FaultSpec::SlotStalls {
            start_slot: 120,
            duration_slots: 10,
        });
        specs.push(FaultSpec::SlotStalls {
            start_slot: 280,
            duration_slots: 3,
        });
        let plan = FaultPlan::compile(&specs, slots, 3).expect("valid specs");
        let recovery = RecoveryConfig::default();

        for faulted in [false, true] {
            let mut engine = if faulted {
                ServerEngine::with_faults(&cfg, template, slots, Some(&plan), Some(&recovery))
            } else {
                ServerEngine::new(&cfg, template, slots)
            }
            .expect("valid");
            for req in &workload.sessions {
                engine.offer(*req);
            }
            let mut bound = 0usize;
            loop {
                let live_before = engine.arena.live();
                let admitted_before = engine.admitted() + engine.report.readmitted;
                if !engine.step_slot(None) {
                    break;
                }
                let admissions = engine.admitted() + engine.report.readmitted - admitted_before;
                bound = bound.max(live_before + admissions as usize);
                assert!(
                    engine.arena.capacity() <= bound,
                    "faulted {faulted}, slot {}: arena holds {} slots, bound {bound}",
                    engine.slot,
                    engine.arena.capacity()
                );
                assert!(
                    faulted || engine.settled,
                    "slot {}: left the cohort",
                    engine.slot
                );
            }
            let report = engine.report;
            if faulted {
                assert!(report.crashed > 0 && report.readmitted > 0);
                assert!(report.timed_out > 0, "the long stall times sessions out");
                assert!(engine.settled, "the run settles again after the stalls");
            } else {
                assert!(bound > 3_000, "live peak {bound}: the cohort must be large");
                assert!(
                    workload.sessions.len() > 5 * bound,
                    "enough turnover that an unswept arena would outgrow the bound"
                );
                let a = &engine.arena;
                assert_eq!(
                    (
                        a.order.capacity(),
                        a.backlogs.capacity(),
                        a.misses.capacity()
                    ),
                    (0, 0, 0),
                    "a settled run allocates no ordered state"
                );
            }
        }
    }

    /// Runs `workload` on one engine into `sink`; with `per_session`,
    /// `settled` is cleared before every slot, which forces the
    /// per-session path.
    fn run_paths(
        cfg: &ServerConfig,
        workload: &Workload,
        plan: &FaultPlan,
        per_session: bool,
        mut sink: ServeMetricsSink,
    ) -> (FaultReport, ServeMetricsSink) {
        let recovery = RecoveryConfig::default();
        let mut engine = ServerEngine::with_faults(
            cfg,
            workload.template,
            workload.slots,
            Some(plan),
            Some(&recovery),
        )
        .expect("valid");
        for req in &workload.sessions {
            engine.offer(*req);
        }
        loop {
            if per_session {
                engine.settled = false;
            }
            if !engine.step_slot(Some(&mut sink)) {
                break;
            }
        }
        (engine.finish(), sink)
    }

    /// `ReferenceServerSim` predates the PI shedding law, so for it
    /// the oracle of the settled-cohort step is the engine's own
    /// per-session path, at cohort scale and under every fault kind,
    /// into a full-series sink and a bounded one, which alone records
    /// each departure's miss streak.
    #[test]
    fn settled_cohort_step_matches_the_per_session_path() {
        let slots = 200u64;
        let specs = [
            FaultSpec::LinkDegradation {
                start_slot: 30,
                duration_slots: 20,
                factor: 0.6,
            },
            FaultSpec::SlotStalls {
                start_slot: 70,
                duration_slots: 3,
            },
            FaultSpec::CrashBurst {
                slot: 100,
                fraction: 0.3,
            },
            FaultSpec::CorruptionBurst {
                start_slot: 120,
                duration_slots: 20,
                p_good_to_bad: 0.3,
                p_bad_to_good: 0.3,
                loss_good: 0.01,
                loss_bad: 0.2,
            },
        ];
        let plan = FaultPlan::compile(&specs, slots, 11).expect("valid specs");
        let hysteresis = DegradeConfig::default();
        let pi = DegradeConfig {
            pi: Some(PiConfig::default()),
            ..hysteresis
        };
        for degrade in [None, Some(hysteresis), Some(pi)] {
            for (load, seed) in [(0.6, 1), (1.3, 2)] {
                let mut template = SessionTemplate::streaming_default().expect("preset valid");
                template.mean_duration_slots = 20.0;
                let cfg = ServerConfig {
                    capacity: CapacityModel {
                        link_bits_per_slot: 1_500 * template.full_bits(),
                        queue_frames: 64,
                        occupancy_bound: 8.0,
                    },
                    policy: AdmissionPolicy::AdmitAll,
                    degrade,
                    buffer_slots: 4,
                    miss_slots: 2,
                };
                let rate = rate_for_load(load, &template, cfg.capacity.link_bits_per_slot);
                let workload =
                    Workload::generate(ArrivalProcess::Poisson { rate }, template, slots, seed)
                        .expect("valid");
                let full = || ServeMetricsSink::with_capacity(slots as usize);
                let (fast, fast_sink) = run_paths(&cfg, &workload, &plan, false, full());
                let (slow, slow_sink) = run_paths(&cfg, &workload, &plan, true, full());
                let arm = format!("degrade {degrade:?}, load {load}");
                assert_eq!(fast, slow, "{arm}");
                assert_eq!(fast_sink, slow_sink, "{arm}");
                let bits = |s: &ServeMetricsSink| -> Vec<u64> {
                    s.utility().iter().map(|u| u.to_bits()).collect()
                };
                assert_eq!(bits(&fast_sink), bits(&slow_sink), "{arm}");

                // Only the bounded sink records departures, with each
                // departing session's miss streak.
                let exported = |paths: (FaultReport, ServeMetricsSink)| {
                    let mut registry = MetricsRegistry::new();
                    paths.1.export(&mut registry, "server");
                    registry.to_json().render()
                };
                let bounded = ServeMetricsSink::bounded;
                assert_eq!(
                    exported(run_paths(&cfg, &workload, &plan, false, bounded())),
                    exported(run_paths(&cfg, &workload, &plan, true, bounded())),
                    "{arm}"
                );
            }
        }
    }
}
