//! Generational store for active sessions: one 32-byte record per
//! session, plus, only while the engine walks the live set, its
//! admission order and the two columns the per-session passes stream.
//!
//! The per-session slot path touches every active session a handful of
//! times per slot (enqueue, water-fill, grant application, timeout
//! sweep), in admission order, and reads and writes only the backlog
//! and the miss streak. While it runs, [`SessionArena`] keeps `order`,
//! the live handles in admission order, and each of the two fields in
//! its own dense column. Everything else a session carries (its id,
//! departure slot, admission sequence number, generation and retry
//! count) is written once at admission and read again only at its
//! departure, crash or timeout, so it lives in one [`Session`] record,
//! aligned so that none straddles a cache line.
//!
//! The engine's settled-cohort step never walks the live set, so the
//! arena has two states. *Unordered*, while the engine is settled, it
//! keeps the records and a free list only: an admission pops the most
//! recently freed slot and writes its record, and a departure frees its
//! slot at once, so the next admission reuses a warm slot and nothing
//! is swept. *Ordered*, an admission also appends its handle to `order`
//! and zeroes its backlog and miss streak, and a departure leaves a
//! stale entry that [`SessionArena::compact`] sweeps in one pass before
//! the next walk, so k same-slot departures cost O(k + n). A slot is
//! freed only once no `order` entry names it, which keeps every handle
//! in `order` unambiguous. [`SessionArena::compact`] and
//! [`SessionArena::take_newest`] order an unordered arena;
//! [`SessionArena::settle`] drops the order when the engine settles.
//!
//! Determinism: a walk always follows `order`, never raw slot order,
//! which depends on free-list history. Ordering sorts the live handles
//! by `seq`, the admission counter, which is exactly the order the
//! appends would have kept, and zero-fills both columns, which is exact
//! because settled means every live backlog and miss streak is 0. That
//! preserves the float-accumulation and crash-victim order of the
//! original `Vec<ActiveSession>` loop (`ReferenceServerSim` pins this
//! differentially).
//!
//! A slot's `u32` generation is odd while it holds a live activation:
//! an admission and an end each add 1. A [`Departure`] carries
//! `(handle, generation)` and ends nothing unless the slot still holds
//! that generation, the check that keeps a stale departure (one
//! scheduled for a crashed or timed-out activation) from ending
//! whatever later activation recycled the slot. A slot whose generation
//! wraps to 0 is retired instead of freed, so generations never repeat
//! and the check is exact.

/// One activation's scheduled end: the arena handle and the slot's
/// generation while the activation is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Departure {
    pub handle: u32,
    pub gen: u32,
}

/// A session's fields outside the per-slot passes, one record per
/// slot handle.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(32))]
pub(crate) struct Session {
    /// Session id (unique among live sessions); a crash or timeout
    /// victim's retry carries it.
    pub id: u64,
    /// Slot this activation departs at.
    pub depart_slot: u64,
    /// Admission sequence number: ordering sorts the live set by it.
    pub seq: u64,
    /// Admissions and ends of this slot so far: odd while live.
    pub gen: u32,
    /// Retry attempts consumed to reach this activation.
    pub attempts: u32,
}

// Every departure the calendar holds is one of these, and every
// admission writes one record: the sizes are the design.
const _: () = assert!(std::mem::size_of::<Departure>() == 8);
const _: () = assert!(std::mem::size_of::<Session>() == 32);

/// Per-session state, indexed by slot handle (`u32`).
#[derive(Debug, Default)]
pub(crate) struct SessionArena {
    /// Each slot's record; a dead slot's stays readable until reuse.
    pub sessions: Vec<Session>,
    /// Freed slot handles (LIFO).
    free: Vec<u32>,
    /// The next admission's `seq`.
    next_seq: u64,
    /// Live session count.
    live: usize,
    /// Whether `order`, the two columns and `stale` are kept.
    ordered: bool,
    /// Ordered: live handles in admission order, plus stale entries
    /// for sessions that departed since the last compaction.
    pub order: Vec<u32>,
    /// Ordered: playout-buffer backlog, bits, by handle.
    pub backlogs: Vec<u64>,
    /// Ordered: consecutive deadline-missed slots (the playout-timeout
    /// trigger), by handle.
    pub misses: Vec<u64>,
    /// Ordered: dead entries in `order`.
    stale: usize,
}

impl SessionArena {
    /// Creates an unordered arena with room for `capacity` concurrent
    /// sessions' records.
    pub fn with_capacity(capacity: usize) -> Self {
        SessionArena {
            sessions: Vec::with_capacity(capacity),
            ..SessionArena::default()
        }
    }

    /// Live session count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots allocated so far (live, stale, free and retired); the
    /// bound for any handle-indexed scratch buffer.
    pub fn capacity(&self) -> usize {
        self.sessions.len()
    }

    /// Admits a session: reuses the most recently freed slot under its
    /// next generation or grows the records and, while ordered, appends
    /// the handle to `order` with a zero backlog and miss streak.
    /// Returns the activation's [`Departure`].
    pub fn insert(&mut self, id: u64, depart_slot: u64, attempts: u32) -> Departure {
        let mut session = Session {
            id,
            depart_slot,
            seq: self.next_seq,
            gen: 1,
            attempts,
        };
        self.next_seq += 1;
        let handle = if let Some(h) = self.free.pop() {
            let record = &mut self.sessions[h as usize];
            // A free slot's generation is even and nonzero.
            session.gen = record.gen + 1;
            *record = session;
            h
        } else {
            let h = u32::try_from(self.sessions.len()).expect("session arena exceeds u32 handles");
            self.sessions.push(session);
            h
        };
        if self.ordered {
            let hi = handle as usize;
            if hi < self.backlogs.len() {
                self.backlogs[hi] = 0;
                self.misses[hi] = 0;
            } else {
                self.backlogs.push(0);
                self.misses.push(0);
            }
            self.order.push(handle);
        }
        self.live += 1;
        Departure {
            handle,
            gen: session.gen,
        }
    }

    /// Ends the activation `departure` names iff its slot still holds
    /// it (the generational check); returns whether anything ended.
    /// Unordered, the slot is freed at once; ordered, its `order` entry
    /// goes stale until the next [`SessionArena::compact`].
    pub fn depart(&mut self, departure: Departure) -> bool {
        debug_assert!(departure.gen % 2 == 1, "departures name live generations");
        // A departure's generation is odd, so a match means live.
        if self.sessions[departure.handle as usize].gen != departure.gen {
            return false;
        }
        self.kill(departure.handle);
        if self.ordered {
            self.stale += 1;
        } else {
            self.recycle(departure.handle);
        }
        true
    }

    /// The miss streak of the activation in `handle`: the column while
    /// ordered, and 0 otherwise, since only a settled engine keeps the
    /// arena unordered.
    pub fn miss_streak(&self, handle: u32) -> u64 {
        if self.ordered {
            self.misses[handle as usize]
        } else {
            0
        }
    }

    /// Pops the `count` newest live sessions off `order` into `buf` in
    /// *insertion order* (oldest victim first — the order the reference
    /// implementation's `drain(len - victims..)` yields), freeing their
    /// slots. Orders an unordered arena first. Stale entries met on the
    /// way are swept for free.
    pub fn take_newest(&mut self, count: usize, buf: &mut Vec<u32>) {
        debug_assert!(count <= self.live);
        if !self.ordered {
            self.compact();
        }
        buf.clear();
        while buf.len() < count {
            let h = self.order.pop().expect("fewer live sessions than victims");
            if self.is_live(h) {
                self.kill(h);
                buf.push(h);
            } else {
                self.stale -= 1;
            }
            self.recycle(h);
        }
        buf.reverse();
    }

    /// Ends a live session and frees its slot at once. Only while
    /// ordered, for a caller that removes the handle from `order`
    /// itself (the timeout sweep).
    pub fn release(&mut self, handle: u32) {
        debug_assert!(self.ordered && self.is_live(handle));
        self.kill(handle);
        self.recycle(handle);
    }

    /// Makes `order` exactly the live handles in admission order and
    /// returns the sum of their backlogs. Ordered, one pass sweeps the
    /// stale entries out and frees their slots. Unordered, the live
    /// handles are sorted by `seq`, both columns are sized to
    /// [`SessionArena::capacity`] and zeroed, and the sum is 0: only a
    /// settled engine keeps the arena unordered, and its live backlogs
    /// and miss streaks are all 0.
    pub fn compact(&mut self) -> u64 {
        if !self.ordered {
            self.order_by_seq();
            for column in [&mut self.backlogs, &mut self.misses] {
                column.clear();
                column.resize(self.sessions.len(), 0);
            }
            self.ordered = true;
            return 0;
        }
        let mut carried = 0u64;
        if self.stale == 0 {
            for &h in &self.order {
                carried += self.backlogs[h as usize];
            }
            return carried;
        }
        let mut w = 0usize;
        for r in 0..self.order.len() {
            let h = self.order[r];
            if self.is_live(h) {
                carried += self.backlogs[h as usize];
                self.order[w] = h;
                w += 1;
            } else {
                self.recycle(h);
            }
        }
        self.order.truncate(w);
        self.stale = 0;
        carried
    }

    /// Drops the order when the engine settles, first freeing the slots
    /// of any stale entries (departures after a crash ordered a settled
    /// arena leave some). The columns keep their allocations for the
    /// next ordering.
    pub fn settle(&mut self) {
        if !self.ordered {
            return;
        }
        if self.stale > 0 {
            for r in 0..self.order.len() {
                let h = self.order[r];
                if !self.is_live(h) {
                    self.recycle(h);
                }
            }
            self.stale = 0;
        }
        self.order.clear();
        self.ordered = false;
    }

    /// Sets `order` to the live handles sorted by `seq`. While the live
    /// seqs span less than 2^32 it sorts packed keys,
    /// `(seq - min) << 32 | handle`, built in the `backlogs` column,
    /// which the caller zeroes next: a key compares without reading a
    /// record. A wider span sorts the handles by their records' `seq`.
    /// Seqs are distinct, so both give the same order.
    fn order_by_seq(&mut self) {
        let sessions = &self.sessions;
        let (mut min, mut max) = (u64::MAX, 0);
        self.order.clear();
        for (h, s) in (0u32..).zip(sessions) {
            if s.gen % 2 == 1 {
                self.order.push(h);
                min = min.min(s.seq);
                max = max.max(s.seq);
            }
        }
        if max.saturating_sub(min) <= u64::from(u32::MAX) {
            let keys = &mut self.backlogs;
            keys.clear();
            keys.extend(
                self.order
                    .iter()
                    .map(|&h| (sessions[h as usize].seq - min) << 32 | u64::from(h)),
            );
            keys.sort_unstable();
            for (h, &key) in self.order.iter_mut().zip(keys.iter()) {
                *h = key as u32;
            }
        } else {
            self.order
                .sort_unstable_by_key(|&h| sessions[h as usize].seq);
        }
    }

    fn is_live(&self, handle: u32) -> bool {
        self.sessions[handle as usize].gen % 2 == 1
    }

    /// Ends the live activation in `handle`; its slot is dead but not
    /// yet free.
    fn kill(&mut self, handle: u32) {
        let record = &mut self.sessions[handle as usize];
        record.gen = record.gen.wrapping_add(1);
        self.live -= 1;
    }

    /// Returns a dead slot to the free list unless its generation has
    /// wrapped, which retires it.
    fn recycle(&mut self, handle: u32) {
        if self.sessions[handle as usize].gen != 0 {
            self.free.push(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_depart_compact_recycles_slots() {
        let mut a = SessionArena::with_capacity(4);
        assert_eq!(a.compact(), 0, "ordering an empty arena");
        let d0 = a.insert(10, 5, 0);
        let d1 = a.insert(11, 6, 0);
        let d2 = a.insert(12, 7, 0);
        let [h0, h1, h2] = [d0.handle, d1.handle, d2.handle];
        assert_eq!(a.live(), 3);
        assert_eq!(a.order, vec![h0, h1, h2]);
        a.backlogs[h1 as usize] = 9;

        // Generational check: a stale generation must not kill the slot.
        assert!(!a.depart(Departure { handle: h1, gen: 3 }));
        assert!(a.depart(d1));
        assert!(!a.depart(d1), "double departure is a no-op");
        assert_eq!(a.live(), 2);

        // Ordered, the dead entry stays in order until compaction...
        assert_eq!(a.order.len(), 3);
        a.backlogs[h0 as usize] = 7;
        a.backlogs[h2 as usize] = 5;
        let d3 = a.insert(13, 8, 0);
        assert_ne!(d3.handle, h1, "a stale entry's slot is not reused");
        assert!(a.depart(d3));
        assert_eq!(a.compact(), 12, "carried sums live backlogs only");
        assert_eq!(a.order, vec![h0, h2]);

        // ...after which the slot is recycled, newest-first, under its
        // next generation.
        let d4 = a.insert(14, 9, 1);
        assert_eq!(
            d4,
            Departure {
                handle: d3.handle,
                gen: 3
            },
            "freed slot is reused"
        );
        let d5 = a.insert(15, 9, 1);
        assert_eq!(d5, Departure { handle: h1, gen: 3 });
        assert_eq!(a.capacity(), 4, "no growth while the free list feeds");
        assert_eq!(a.order, vec![h0, h2, d4.handle, h1]);
        assert_eq!(a.backlogs[h1 as usize], 0, "recycled slot state resets");
        assert_eq!(a.sessions[h1 as usize].attempts, 1);
        assert!(!a.depart(d1), "the old activation's departure ends nothing");
        assert_eq!(a.live(), 4);
        assert!(a.depart(d5));
    }

    /// Settled, nothing is ordered, swept or stale: a departure frees
    /// its slot at once, and the next admission reuses it.
    #[test]
    fn a_settled_departure_frees_its_slot_at_once() {
        let mut a = SessionArena::with_capacity(4);
        let d0 = a.insert(10, 5, 0);
        let d1 = a.insert(11, 6, 0);
        assert!(a.order.is_empty());
        assert!(a.backlogs.is_empty() && a.misses.is_empty());

        assert!(a.depart(d0));
        assert!(!a.depart(d0), "double departure is a no-op");
        assert_eq!(a.live(), 1);
        assert_eq!(a.miss_streak(d0.handle), 0);
        let d2 = a.insert(12, 7, 2);
        assert_eq!(
            d2,
            Departure {
                handle: d0.handle,
                gen: 3
            },
            "the departed slot is reused at once"
        );
        assert_eq!(a.capacity(), 2);
        assert!(!a.depart(d0), "the old activation's departure ends nothing");

        // Ordering sorts the live set by admission, not by handle.
        assert_eq!(a.compact(), 0);
        assert_eq!(a.order, vec![d1.handle, d2.handle]);
        assert_eq!(a.backlogs, vec![0, 0]);
        a.misses[d1.handle as usize] = 4;
        assert_eq!(a.miss_streak(d1.handle), 4);

        // Settling drops the order; the next departure frees at once.
        a.misses[d1.handle as usize] = 0;
        a.settle();
        assert!(a.order.is_empty());
        assert!(a.depart(d1));
        assert_eq!(a.insert(13, 8, 0).handle, d1.handle);
    }

    /// Ordering an unordered arena gives the indirect sort's order by
    /// `seq`, both with packed keys and, once the live seqs span 2^32
    /// or more, with the indirect sort itself.
    #[test]
    fn ordering_matches_the_indirect_sort_in_both_branches() {
        for wide in [false, true] {
            let mut a = SessionArena::with_capacity(4);
            let mut departures: Vec<Departure> = (0..40).map(|i| a.insert(i, 9, 0)).collect();
            if wide {
                // Past 2^32, where a packed key would wrap the new seqs
                // in among the old ones.
                a.next_seq = (1 << 32) + 5;
            }
            // Departures free slots the next admissions reuse, so
            // handle order is no longer admission order.
            for i in (0..40).step_by(3) {
                assert!(a.depart(departures[i]));
            }
            departures.extend((40..60).map(|i| a.insert(i, 9, 0)));
            let seqs = |a: &SessionArena| -> Vec<u64> {
                a.order
                    .iter()
                    .map(|&h| a.sessions[h as usize].seq)
                    .collect()
            };
            let mut want: Vec<u32> = (0u32..)
                .zip(&a.sessions)
                .filter(|(_, s)| s.gen % 2 == 1)
                .map(|(h, _)| h)
                .collect();
            want.sort_unstable_by_key(|&h| a.sessions[h as usize].seq);
            assert_eq!(a.compact(), 0);
            assert_eq!(a.order, want, "wide {wide}");
            let spread = seqs(&a).last().unwrap() - seqs(&a)[0];
            assert_eq!(spread >= 1 << 32, wide, "spread {spread}");
            assert!(
                a.backlogs.iter().all(|&b| b == 0),
                "the key scratch is zeroed"
            );
            assert_eq!(a.backlogs.len(), a.capacity());
        }
    }

    #[test]
    fn take_newest_yields_victims_in_insertion_order() {
        for ordered in [false, true] {
            let mut a = SessionArena::with_capacity(4);
            if ordered {
                a.compact();
            }
            let departures: Vec<Departure> = (0..5).map(|i| a.insert(i, 9, 0)).collect();
            let handles: Vec<u32> = departures.iter().map(|d| d.handle).collect();
            // Kill one mid-list so a stale entry sits between live ones,
            // then one at the tail so take_newest has to sweep past it.
            a.depart(departures[2]);
            a.depart(departures[4]);
            // Unordered, the second departure's slot is reused first:
            // handle order is no longer admission order.
            let late = a.insert(5, 9, 0);
            let mut buf = Vec::new();
            a.take_newest(3, &mut buf);
            // Newest three live sessions are ids 1, 3 and 5; insertion
            // order.
            assert_eq!(
                buf,
                vec![handles[1], handles[3], late.handle],
                "ordered {ordered}"
            );
            assert_eq!(a.live(), 1);
            assert_eq!(a.compact(), 0);
            assert_eq!(a.order, vec![handles[0]], "ordered {ordered}");
        }
    }

    /// Generations never repeat: the activation at `u32::MAX` is the
    /// slot's last, and its end retires the slot.
    #[test]
    fn a_spent_generation_retires_its_slot() {
        for ordered in [false, true] {
            let mut a = SessionArena::with_capacity(2);
            if ordered {
                a.compact();
            }
            let first = a.insert(1, 9, 0);
            assert!(a.depart(first));
            a.compact();
            a.settle();
            a.sessions[first.handle as usize].gen = u32::MAX - 1;

            let last = a.insert(2, 9, 0);
            assert_eq!(
                last,
                Departure {
                    handle: first.handle,
                    gen: u32::MAX
                },
                "the slot's last activation"
            );
            if ordered {
                a.compact();
            }
            assert!(a.depart(last));
            assert_eq!(a.sessions[first.handle as usize].gen, 0);
            a.compact();

            // Retired: the next insert grows the arena instead, and so
            // do the ones after it while the free list holds only new
            // slots.
            let next = a.insert(3, 9, 0);
            assert_ne!(next.handle, first.handle, "a spent slot is not handed out");
            assert_eq!(next.gen, 1);
            assert_eq!(a.capacity(), 2);
            assert!(a.depart(next));
            a.compact();
            let again = a.insert(4, 9, 0);
            assert_eq!(again.handle, next.handle);
            assert_eq!(again.gen, 3);
            assert_eq!(a.capacity(), 2, "only the spent slot is dropped");

            // Stale departures for the retired slot end nothing.
            for gen in [1, u32::MAX - 2, u32::MAX] {
                let stale = Departure {
                    handle: first.handle,
                    gen,
                };
                assert!(!a.depart(stale), "generation {gen}");
            }
            assert_eq!(a.live(), 1);
            assert_eq!(a.order, vec![again.handle]);
        }
    }

    /// One step of an engine-shaped arena workload. An index picks its
    /// target modulo the candidates; an op without one does nothing.
    #[derive(Debug, Clone)]
    enum ArenaOp {
        /// Admits a session.
        Insert,
        /// Ends a live activation through its departure.
        Depart(usize),
        /// Replays the departure of an activation that already ended.
        DepartStale(usize),
        /// Crashes this many of the newest live sessions.
        TakeNewest(usize),
        /// Orders the arena and times one live session out, as the
        /// timeout sweep does.
        Release(usize),
        /// Orders the arena and sets one live session's backlog and
        /// miss streak, as a per-session slot does.
        Serve(usize, u64, u64),
        /// Orders or sweeps the arena.
        Compact,
        /// Zeroes the live backlogs and miss streaks, as a settled slot
        /// leaves them, and drops the order.
        Settle,
        /// Moves a free slot to the generation before the wrap.
        Age(usize),
    }

    fn arena_op() -> impl Strategy<Value = ArenaOp> {
        prop_oneof![
            Just(ArenaOp::Insert),
            Just(ArenaOp::Insert),
            Just(ArenaOp::Insert),
            (0usize..64).prop_map(ArenaOp::Depart),
            (0usize..64).prop_map(ArenaOp::Depart),
            (0usize..64).prop_map(ArenaOp::DepartStale),
            (0usize..5).prop_map(ArenaOp::TakeNewest),
            (0usize..64).prop_map(ArenaOp::Release),
            (0usize..64, 0u64..1_000, 0u64..4)
                .prop_map(|(i, backlog, misses)| ArenaOp::Serve(i, backlog, misses)),
            Just(ArenaOp::Compact),
            Just(ArenaOp::Settle),
            (0usize..64).prop_map(ArenaOp::Age),
        ]
    }

    /// An arena and a plain model of what it must hold: the live
    /// activations in admission order.
    struct ArenaModel {
        arena: SessionArena,
        /// Live activations in admission order: departure, id,
        /// backlog and miss streak.
        live: Vec<(Departure, u64, u64, u64)>,
        /// The departures of activations that have ended.
        ended: Vec<Departure>,
        /// Slots whose generation wrapped.
        retired: Vec<u32>,
        next_id: u64,
    }

    impl ArenaModel {
        fn handles(&self) -> Vec<u32> {
            self.live.iter().map(|e| e.0.handle).collect()
        }

        /// Records that `departure`'s activation ended.
        fn record_end(&mut self, departure: Departure) {
            if self.arena.sessions[departure.handle as usize].gen == 0 {
                self.retired.push(departure.handle);
            }
            self.ended.push(departure);
        }

        /// Orders the arena and checks the order against the model.
        fn compact(&mut self) {
            let carried = self.arena.compact();
            assert_eq!(carried, self.live.iter().map(|e| e.2).sum::<u64>());
            assert_eq!(self.arena.order, self.handles(), "order after compact");
            for &(d, _, backlog, misses) in &self.live {
                assert_eq!(self.arena.backlogs[d.handle as usize], backlog);
                assert_eq!(self.arena.miss_streak(d.handle), misses);
            }
        }

        fn step(&mut self, op: &ArenaOp) {
            match *op {
                ArenaOp::Insert => {
                    let id = self.next_id;
                    self.next_id += 1;
                    let a = &mut self.arena;
                    let d = a.insert(id, 0, 0);
                    assert_eq!(d.gen % 2, 1);
                    assert!(
                        !self.retired.contains(&d.handle),
                        "a retired slot came back"
                    );
                    if a.ordered {
                        assert_eq!(a.order.last(), Some(&d.handle));
                        assert_eq!(a.backlogs[d.handle as usize], 0);
                    }
                    assert_eq!(a.miss_streak(d.handle), 0);
                    self.live.push((d, id, 0, 0));
                }
                ArenaOp::Depart(i) if !self.live.is_empty() => {
                    let (d, _, _, misses) = self.live.remove(i % self.live.len());
                    let a = &mut self.arena;
                    assert!(a.depart(d));
                    assert_eq!(a.miss_streak(d.handle), misses, "the sink's read");
                    let freed = a.free.last() == Some(&d.handle);
                    let retired = a.sessions[d.handle as usize].gen == 0;
                    assert_eq!(freed, !a.ordered && !retired, "freed at once iff unordered");
                    self.record_end(d);
                }
                ArenaOp::DepartStale(i) if !self.ended.is_empty() => {
                    let d = self.ended[i % self.ended.len()];
                    assert!(!self.arena.depart(d), "a stale departure ends nothing");
                }
                ArenaOp::TakeNewest(k) => {
                    let k = k.min(self.live.len());
                    let mut buf = Vec::new();
                    self.arena.take_newest(k, &mut buf);
                    let victims = self.live.split_off(self.live.len() - k);
                    let want: Vec<u32> = victims.iter().map(|e| e.0.handle).collect();
                    assert_eq!(buf, want, "victims are the newest, oldest first");
                    for (d, id, backlog, _) in victims {
                        assert_eq!(self.arena.sessions[d.handle as usize].id, id);
                        assert_eq!(self.arena.backlogs[d.handle as usize], backlog);
                        self.record_end(d);
                    }
                }
                ArenaOp::Release(i) if !self.live.is_empty() => {
                    self.compact();
                    let at = i % self.live.len();
                    let (d, _, _, _) = self.live.remove(at);
                    self.arena.order.remove(at);
                    self.arena.release(d.handle);
                    self.record_end(d);
                }
                ArenaOp::Serve(i, backlog, misses) if !self.live.is_empty() => {
                    self.compact();
                    let at = i % self.live.len();
                    let entry = &mut self.live[at];
                    (entry.2, entry.3) = (backlog, misses);
                    let h = entry.0.handle as usize;
                    self.arena.backlogs[h] = backlog;
                    self.arena.misses[h] = misses;
                }
                ArenaOp::Compact => self.compact(),
                ArenaOp::Settle => {
                    let a = &mut self.arena;
                    if a.ordered {
                        for entry in &mut self.live {
                            let h = entry.0.handle as usize;
                            (a.backlogs[h], a.misses[h]) = (0, 0);
                            (entry.2, entry.3) = (0, 0);
                        }
                    }
                    a.settle();
                    assert!(!a.ordered && a.order.is_empty());
                }
                ArenaOp::Age(i) if !self.arena.free.is_empty() => {
                    let a = &mut self.arena;
                    let h = a.free[i % a.free.len()];
                    a.sessions[h as usize].gen = u32::MAX - 1;
                }
                _ => {}
            }
            self.check();
        }

        /// Every slot is live, free, stale in `order` or retired.
        fn check(&self) {
            let a = &self.arena;
            assert_eq!(a.live(), self.live.len());
            for &(d, id, _, _) in &self.live {
                let s = a.sessions[d.handle as usize];
                assert_eq!((s.gen, s.id), (d.gen, id));
            }
            let mut stale_retired = 0;
            if a.ordered {
                assert_eq!(a.order.len(), a.live() + a.stale);
                stale_retired = a
                    .order
                    .iter()
                    .filter(|&&h| a.sessions[h as usize].gen == 0)
                    .count();
            } else {
                assert_eq!(a.stale, 0);
            }
            assert_eq!(
                a.capacity() + stale_retired,
                a.live() + a.free.len() + a.stale + self.retired.len(),
                "a slot leaked"
            );
            assert!(a.free.iter().all(|h| !self.retired.contains(h)));
        }
    }

    proptest! {
        /// The arena against a plain model of the live set in admission
        /// order, through random admissions, current and stale
        /// departures, crashes, timeouts, compactions and settles in
        /// both states, with slots aged to the generation wrap: the
        /// live count, every `order` after a compaction, the victims,
        /// the miss streak a departure reports, and that every slot is
        /// live, free, retired or stale.
        #[test]
        fn arena_matches_a_model_of_the_live_set(
            ops in collection::vec(arena_op(), 1..300),
        ) {
            let mut m = ArenaModel {
                arena: SessionArena::with_capacity(4),
                live: Vec::new(),
                ended: Vec::new(),
                retired: Vec::new(),
                next_id: 0,
            };
            for op in &ops {
                m.step(op);
            }
            m.compact();
        }
    }
}
