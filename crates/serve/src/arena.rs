//! Generational store for active sessions: one 32-byte record per
//! session, plus the two columns the per-slot passes stream.
//!
//! The server's hot loop touches every active session a handful of
//! times per slot (enqueue, water-fill, grant application), and at
//! mega-scale that working set dwarfs the cache. Those passes read and
//! write only the backlog and the liveness flag, so [`SessionArena`]
//! keeps each of the two in its own dense column. Everything else a
//! session carries (its id, departure slot, miss streak, retry count
//! and generation) is written once at admission and read again only at
//! its departure, crash or timeout, so it lives in one [`Session`]
//! record, aligned so that none straddles a cache line. An admission
//! writes one record, one backlog and one flag, and a departure reads
//! the flag and one record. Slots recycle through a free list, so a
//! departure is an O(1) handle free instead of the old `Vec::retain`
//! scan (O(active) per departure, O(k·n) per slot).
//!
//! Determinism: iteration always walks [`SessionArena::order`], the
//! insertion-ordered handle list — never raw slot order, which depends
//! on free-list history. That preserves the exact float-accumulation
//! and crash-victim order of the original `Vec<ActiveSession>` loop
//! (`ReferenceServerSim` pins this differentially). Departures mark the
//! slot dead and leave a stale entry in `order`; the
//! [`SessionArena::compact`] sweep removes stale entries and returns
//! slots to the free list, so k same-slot departures cost O(k + n).
//! The per-session slot path sweeps before it walks `order`; the
//! settled-cohort step, which never walks it, defers the sweep until
//! stale entries exceed an eighth of the live set
//! ([`SessionArena::sweep_if_crowded`]), so a departure costs amortised
//! O(1) and the arena holds at most the live set, an eighth more, and
//! one slot's departures. A slot is only reusable after its stale
//! entry is swept, which keeps every handle in `order` unambiguous.
//!
//! Each slot counts its activations in a `u32` generation, bumped when
//! [`SessionArena::insert`] reuses it. A [`Departure`] carries
//! `(handle, generation)` and ends nothing unless the slot is alive at
//! that generation — the check that keeps a stale departure (one
//! scheduled for a crashed or timed-out activation) from killing
//! whatever later activation recycled the slot. A slot whose
//! generation reaches `u32::MAX` is retired instead of reused, so
//! generations never wrap and the check is exact.

/// [`SessionArena::sweep_if_crowded`] sweeps once stale `order`
/// entries exceed `1 / STALE_SHARE` of the live set.
const STALE_SHARE: usize = 8;

/// One activation's scheduled end: the arena handle and the slot's
/// generation when it was admitted.
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
    /// Consecutive deadline-missed slots (playout-timeout trigger).
    pub misses: u64,
    /// Retry attempts consumed to reach this activation.
    pub attempts: u32,
    /// Activations this slot has held before this one.
    pub gen: u32,
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
    /// Playout-buffer backlog, bits — the water-filling hot field.
    pub backlogs: Vec<u64>,
    /// Whether the slot currently holds a live activation.
    pub alive: Vec<bool>,
    /// Recycled slot handles (LIFO).
    free: Vec<u32>,
    /// Live handles in admission order, plus stale entries for sessions
    /// killed since the last compaction.
    pub order: Vec<u32>,
    /// Live session count (`order.len()` minus stale entries).
    live: usize,
    /// Stale (dead) entries currently in `order`.
    stale: usize,
}

impl SessionArena {
    /// Creates an arena with room for `capacity` concurrent sessions.
    pub fn with_capacity(capacity: usize) -> Self {
        SessionArena {
            sessions: Vec::with_capacity(capacity),
            backlogs: Vec::with_capacity(capacity),
            alive: Vec::with_capacity(capacity),
            free: Vec::new(),
            order: Vec::with_capacity(capacity),
            live: 0,
            stale: 0,
        }
    }

    /// Live session count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots allocated so far (live + dead + free); the bound for any
    /// handle-indexed scratch buffer.
    pub fn capacity(&self) -> usize {
        self.sessions.len()
    }

    /// Admits a session: recycles a swept slot under its next
    /// generation or grows the arrays, appends the handle to `order`,
    /// and returns the activation's [`Departure`]. A free slot whose
    /// generation is spent is dropped, never reused.
    pub fn insert(&mut self, id: u64, depart_slot: u64, attempts: u32) -> Departure {
        let mut session = Session {
            id,
            depart_slot,
            misses: 0,
            attempts,
            gen: 0,
        };
        let handle = loop {
            let Some(h) = self.free.pop() else {
                let h =
                    u32::try_from(self.sessions.len()).expect("session arena exceeds u32 handles");
                self.sessions.push(session);
                self.backlogs.push(0);
                self.alive.push(true);
                break h;
            };
            let hi = h as usize;
            let record = &mut self.sessions[hi];
            if record.gen == u32::MAX {
                continue;
            }
            session.gen = record.gen + 1;
            *record = session;
            self.backlogs[hi] = 0;
            self.alive[hi] = true;
            break h;
        };
        self.order.push(handle);
        self.live += 1;
        Departure {
            handle,
            gen: session.gen,
        }
    }

    /// Kills the activation `departure` names iff its slot still holds
    /// it (the generational check). The `order` entry goes stale until
    /// the next [`SessionArena::compact`]. Returns whether anything
    /// died.
    pub fn depart(&mut self, departure: Departure) -> bool {
        let hi = departure.handle as usize;
        if self.alive[hi] && self.sessions[hi].gen == departure.gen {
            self.alive[hi] = false;
            self.live -= 1;
            self.stale += 1;
            true
        } else {
            false
        }
    }

    /// Pops the `count` newest live sessions off `order` into `buf` in
    /// *insertion order* (oldest victim first — the order the reference
    /// implementation's `drain(len - victims..)` yields), freeing their
    /// slots. Stale entries encountered on the way are swept for free.
    pub fn take_newest(&mut self, count: usize, buf: &mut Vec<u32>) {
        debug_assert!(count <= self.live);
        buf.clear();
        while buf.len() < count {
            let h = self.order.pop().expect("fewer live sessions than victims");
            let hi = h as usize;
            if self.alive[hi] {
                self.alive[hi] = false;
                self.live -= 1;
                buf.push(h);
            } else {
                self.stale -= 1;
            }
            self.free.push(h);
        }
        buf.reverse();
    }

    /// Kills a live session and frees its slot immediately. Only for
    /// callers that are compacting `order` themselves (the timeout
    /// sweep): the handle must be removed from `order` by the caller.
    pub fn release(&mut self, handle: u32) {
        let hi = handle as usize;
        debug_assert!(self.alive[hi]);
        self.alive[hi] = false;
        self.live -= 1;
        self.free.push(handle);
    }

    /// The deferred sweep: compacts only once stale entries exceed an
    /// eighth of the live set. The share is a constant, not an option,
    /// because it bounds how far the arena outgrows the live set.
    pub fn sweep_if_crowded(&mut self) {
        if self.stale * STALE_SHARE > self.live {
            self.compact();
        }
    }

    /// Sweeps stale entries out of `order` (returning their slots to
    /// the free list) and sums the live backlogs in one pass. After
    /// this, `order` holds exactly the live handles in insertion order.
    pub fn compact(&mut self) -> u64 {
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
            if self.alive[h as usize] {
                carried += self.backlogs[h as usize];
                self.order[w] = h;
                w += 1;
            } else {
                self.free.push(h);
            }
        }
        self.order.truncate(w);
        self.stale = 0;
        carried
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_depart_compact_recycles_slots() {
        let mut a = SessionArena::with_capacity(4);
        let d0 = a.insert(10, 5, 0);
        let d1 = a.insert(11, 6, 0);
        let d2 = a.insert(12, 7, 0);
        let [h0, h1, h2] = [d0.handle, d1.handle, d2.handle];
        assert_eq!(a.live(), 3);
        assert_eq!(a.order, vec![h0, h1, h2]);

        // Generational check: a stale generation must not kill the slot.
        assert!(!a.depart(Departure { handle: h1, gen: 1 }));
        assert!(a.depart(d1));
        assert!(!a.depart(d1), "double departure is a no-op");
        assert_eq!(a.live(), 2);

        // The dead entry stays in order until compaction...
        assert_eq!(a.order.len(), 3);
        a.backlogs[h0 as usize] = 7;
        a.backlogs[h2 as usize] = 5;
        assert_eq!(a.compact(), 12, "carried sums live backlogs only");
        assert_eq!(a.order, vec![h0, h2]);

        // ...after which the slot is recycled, newest-first, under its
        // next generation.
        let d3 = a.insert(13, 9, 1);
        assert_eq!(d3, Departure { handle: h1, gen: 1 }, "freed slot is reused");
        assert_eq!(a.capacity(), 3, "no growth while the free list feeds");
        assert_eq!(a.order, vec![h0, h2, h1]);
        assert_eq!(a.backlogs[h1 as usize], 0, "recycled slot state resets");
        assert_eq!(a.sessions[h1 as usize].attempts, 1);
        assert!(!a.depart(d1), "the old activation's departure ends nothing");
        assert_eq!(a.live(), 3);
        assert!(a.depart(d3));
    }

    #[test]
    fn take_newest_yields_victims_in_insertion_order() {
        let mut a = SessionArena::with_capacity(4);
        let departures: Vec<Departure> = (0..5).map(|i| a.insert(i, 9, 0)).collect();
        let handles: Vec<u32> = departures.iter().map(|d| d.handle).collect();
        // Kill one mid-list so a stale entry sits between live ones,
        // then one at the tail so take_newest has to sweep past it.
        a.depart(departures[2]);
        a.depart(departures[4]);
        let mut buf = Vec::new();
        a.take_newest(2, &mut buf);
        // Newest two live sessions are ids 1 and 3; insertion order.
        assert_eq!(buf, vec![handles[1], handles[3]]);
        assert_eq!(a.live(), 1);
        assert_eq!(a.compact(), 0);
        assert_eq!(a.order, vec![handles[0]]);
    }

    /// Frees the only live session's slot through a departure and a
    /// sweep, so the next insert may reuse it.
    fn depart_and_sweep(a: &mut SessionArena, d: Departure) {
        assert!(a.depart(d));
        a.compact();
    }

    /// Generations never wrap: the activation at `u32::MAX` is the
    /// slot's last, and no departure names a later one.
    #[test]
    fn a_spent_generation_retires_its_slot() {
        let mut a = SessionArena::with_capacity(2);
        let first = a.insert(1, 9, 0);
        depart_and_sweep(&mut a, first);
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
        depart_and_sweep(&mut a, last);

        // Retired: the next insert grows the arena instead, and so do
        // the ones after it while the free list holds only new slots.
        let next = a.insert(3, 9, 0);
        assert_ne!(next.handle, first.handle, "a spent slot is not handed out");
        assert_eq!(next.gen, 0);
        assert_eq!(a.capacity(), 2);
        depart_and_sweep(&mut a, next);
        let again = a.insert(4, 9, 0);
        assert_eq!(again.handle, next.handle);
        assert_eq!(again.gen, 1);
        assert_eq!(a.capacity(), 2, "only the spent slot is dropped");

        // Stale departures for the retired slot end nothing.
        for gen in [0, u32::MAX - 1, u32::MAX] {
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
