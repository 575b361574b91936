//! Generational struct-of-arrays store for active sessions.
//!
//! The server's hot loop touches every active session a handful of
//! times per slot (enqueue, water-fill, grant application), and at
//! mega-scale that working set dwarfs the cache. [`SessionArena`] keeps
//! each field in its own dense array so a per-slot pass streams exactly
//! the bytes it needs, and recycles slots through a free list so a
//! departure is an O(1) handle free instead of the old
//! `Vec::retain` scan (O(active) per departure, O(k·n) per slot).
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
//! `Depart` events carry `(handle, act)` and are ignored unless the
//! activation still matches — the generational check that keeps a
//! stale departure from killing a recycled slot.

/// [`SessionArena::sweep_if_crowded`] sweeps once stale `order`
/// entries exceed `1 / STALE_SHARE` of the live set.
const STALE_SHARE: usize = 8;

/// Dense per-session state, indexed by slot handle (`u32`).
#[derive(Debug, Default)]
pub(crate) struct SessionArena {
    /// Session id (unique among live sessions); a crash or timeout
    /// victim's retry carries it.
    pub ids: Vec<u64>,
    /// Activation id, unique per (re)admission — the generation tag.
    pub acts: Vec<u64>,
    /// Slot this activation departs at.
    pub depart_slots: Vec<u64>,
    /// Consecutive deadline-missed slots (playout-timeout trigger).
    pub misses: Vec<u64>,
    /// Retry attempts consumed to reach this activation.
    pub attempts: Vec<u32>,
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
            ids: Vec::with_capacity(capacity),
            acts: Vec::with_capacity(capacity),
            depart_slots: Vec::with_capacity(capacity),
            misses: Vec::with_capacity(capacity),
            attempts: Vec::with_capacity(capacity),
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
        self.ids.len()
    }

    /// Admits a session: recycles a swept slot or grows the arrays,
    /// appends the handle to `order`, and returns it.
    pub fn insert(&mut self, id: u64, act: u64, depart_slot: u64, attempt: u32) -> u32 {
        let h = match self.free.pop() {
            Some(h) => {
                let hi = h as usize;
                self.ids[hi] = id;
                self.acts[hi] = act;
                self.depart_slots[hi] = depart_slot;
                self.misses[hi] = 0;
                self.attempts[hi] = attempt;
                self.backlogs[hi] = 0;
                self.alive[hi] = true;
                h
            }
            None => {
                let h = u32::try_from(self.ids.len()).expect("session arena exceeds u32 handles");
                self.ids.push(id);
                self.acts.push(act);
                self.depart_slots.push(depart_slot);
                self.misses.push(0);
                self.attempts.push(attempt);
                self.backlogs.push(0);
                self.alive.push(true);
                h
            }
        };
        self.order.push(h);
        self.live += 1;
        h
    }

    /// Departure by `(handle, act)`: kills the activation iff the slot
    /// still holds it (the generational check). The `order` entry goes
    /// stale until the next [`SessionArena::compact`]. Returns whether
    /// anything died.
    pub fn depart(&mut self, handle: u32, act: u64) -> bool {
        let hi = handle as usize;
        if self.alive[hi] && self.acts[hi] == act {
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
        let h0 = a.insert(10, 0, 5, 0);
        let h1 = a.insert(11, 1, 6, 0);
        let h2 = a.insert(12, 2, 7, 0);
        assert_eq!(a.live(), 3);
        assert_eq!(a.order, vec![h0, h1, h2]);

        // Generational check: a stale act must not kill the slot.
        assert!(!a.depart(h1, 99));
        assert!(a.depart(h1, 1));
        assert!(!a.depart(h1, 1), "double departure is a no-op");
        assert_eq!(a.live(), 2);

        // The dead entry stays in order until compaction...
        assert_eq!(a.order.len(), 3);
        a.backlogs[h0 as usize] = 7;
        a.backlogs[h2 as usize] = 5;
        assert_eq!(a.compact(), 12, "carried sums live backlogs only");
        assert_eq!(a.order, vec![h0, h2]);

        // ...after which the slot is recycled, newest-first.
        let h3 = a.insert(13, 3, 9, 1);
        assert_eq!(h3, h1, "freed slot is reused");
        assert_eq!(a.capacity(), 3, "no growth while the free list feeds");
        assert_eq!(a.order, vec![h0, h2, h3]);
        assert_eq!(a.backlogs[h3 as usize], 0, "recycled slot state resets");
        assert_eq!(a.attempts[h3 as usize], 1);
    }

    #[test]
    fn take_newest_yields_victims_in_insertion_order() {
        let mut a = SessionArena::with_capacity(4);
        let handles: Vec<u32> = (0..5).map(|i| a.insert(i, i, 9, 0)).collect();
        // Kill one mid-list so a stale entry sits between live ones,
        // then one at the tail so take_newest has to sweep past it.
        a.depart(handles[2], 2);
        a.depart(handles[4], 4);
        let mut buf = Vec::new();
        a.take_newest(2, &mut buf);
        // Newest two live sessions are ids 1 and 3; insertion order.
        assert_eq!(buf, vec![handles[1], handles[3]]);
        assert_eq!(a.live(), 1);
        assert_eq!(a.compact(), 0);
        assert_eq!(a.order, vec![handles[0]]);
    }
}
