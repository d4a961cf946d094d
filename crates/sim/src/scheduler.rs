//! Flat wakeup table for the `wheel` kernel.
//!
//! [`WakeTable`] is the run loop's registry of pending component
//! wakeups: each wake source (one per core, one for the memory system,
//! one for the watchdog deadline) holds **at most one** registration at
//! a time, identified by a small dense id. The table is one exact
//! deadline per source. A run has at most cores + 2 sources, so a
//! linear scan over them is cheaper than any bucketed structure: a jump
//! costs O(sources) however far it goes. The table is allocated once at
//! construction — registering, cancelling and advancing never allocate.
//!
//! The soundness contract mirrors DESIGN.md §9: a wakeup may fire
//! *early* (the woken component simply finds no work and re-registers),
//! but must never fire *late* — a component registering `t` promises it
//! has no observable work strictly before `t`. The table preserves
//! registered times exactly (no rounding), so
//! [`WakeTable::next_wake`] returns precisely the earliest registered
//! cycle.

/// Sentinel for "no wakeup registered".
const NONE: u64 = u64::MAX;

/// A fixed-size wakeup scheduler. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct WakeTable {
    /// Exact registered deadline per source id (`NONE` = unregistered).
    wake_at: Vec<u64>,
    /// Origin: all registrations are ≥ `base`.
    base: u64,
}

impl WakeTable {
    /// A table for `ids` wake sources (ids `0..ids`), with its origin
    /// at cycle `base`. Supports at most 32 sources (16 cores + memory
    /// + watchdog fits comfortably).
    ///
    /// # Panics
    ///
    /// Panics if `ids > 32`.
    pub fn new(ids: usize, base: u64) -> Self {
        assert!(ids <= 32, "wake table supports at most 32 wake sources");
        Self {
            wake_at: vec![NONE; ids],
            base,
        }
    }

    /// The registered deadline of `id`, if any.
    pub fn registered(&self, id: usize) -> Option<u64> {
        match self.wake_at[id] {
            NONE => None,
            t => Some(t),
        }
    }

    /// Registers (or re-registers) source `id` to wake at `at`,
    /// replacing any previous registration. `at` is clamped up to the
    /// origin — firing early is sound, firing late is not, and a
    /// request in the past means "wake immediately".
    pub fn register(&mut self, id: usize, at: u64) {
        self.wake_at[id] = at.max(self.base);
    }

    /// Cancels any pending wakeup for `id`.
    pub fn cancel(&mut self, id: usize) {
        self.wake_at[id] = NONE;
    }

    /// Advances the origin to `now`, consuming every registration with
    /// deadline ≤ `now` (the woken sources re-register when they next
    /// quiesce).
    pub fn advance_to(&mut self, now: u64) {
        debug_assert!(now >= self.base, "the origin never rewinds");
        for t in &mut self.wake_at {
            if *t <= now {
                *t = NONE;
            }
        }
        self.base = now;
    }

    /// The earliest registered wakeup, if any.
    pub fn next_wake(&self) -> Option<u64> {
        self.wake_at.iter().copied().min().filter(|&t| t != NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_has_no_wake() {
        let w = WakeTable::new(4, 0);
        assert_eq!(w.next_wake(), None);
        assert_eq!(w.registered(0), None);
    }

    #[test]
    fn register_and_next_wake_round_trip() {
        let mut w = WakeTable::new(4, 100);
        w.register(0, 150);
        w.register(1, 120);
        w.register(2, 5_000);
        assert_eq!(w.next_wake(), Some(120));
        assert_eq!(w.registered(2), Some(5_000));
    }

    #[test]
    fn re_register_replaces_previous_deadline() {
        let mut w = WakeTable::new(2, 0);
        w.register(0, 10);
        w.register(0, 700);
        assert_eq!(w.next_wake(), Some(700));
        w.register(0, 3);
        assert_eq!(w.next_wake(), Some(3));
    }

    #[test]
    fn cancel_removes_entries() {
        let mut w = WakeTable::new(3, 0);
        w.register(0, 10);
        w.register(1, 9_999);
        w.cancel(0);
        assert_eq!(w.next_wake(), Some(9_999));
        w.cancel(1);
        assert_eq!(w.next_wake(), None);
        w.cancel(2); // cancelling an unregistered id is a no-op
    }

    #[test]
    fn past_deadlines_clamp_to_the_origin() {
        let mut w = WakeTable::new(1, 500);
        w.register(0, 3);
        assert_eq!(w.next_wake(), Some(500));
    }

    #[test]
    fn advance_consumes_only_due_entries() {
        let mut w = WakeTable::new(4, 0);
        w.register(0, 5);
        w.register(1, 200);
        w.register(2, 300);
        w.register(3, 10_000);
        w.advance_to(200);
        assert_eq!(w.registered(0), None, "due entries are consumed");
        assert_eq!(w.registered(1), None);
        assert_eq!(w.registered(2), Some(300), "later entries survive");
        assert_eq!(w.next_wake(), Some(300));
        w.advance_to(9_999);
        assert_eq!(w.next_wake(), Some(10_000));
    }

    #[test]
    fn advance_drains_everything_due() {
        let mut w = WakeTable::new(8, 0);
        for id in 0..8 {
            w.register(id, 1 + id as u64 * 37);
        }
        w.advance_to(1_000);
        assert_eq!(w.next_wake(), None);
    }

    /// The table agrees with a naive model under a deterministic
    /// register/cancel/advance interleaving — the same op mix the
    /// `spb-verify` fuzzer drives, in miniature.
    #[test]
    fn matches_naive_model_under_interleaving() {
        let mut w = WakeTable::new(8, 0);
        let mut model = [NONE; 8];
        let mut now = 0u64;
        let mut x = 0x9E37_79B9u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = (x >> 33) as usize % 8;
            match (x >> 60) % 4 {
                0 | 1 => {
                    let at = now + (x >> 40) % 1_000;
                    w.register(id, at);
                    model[id] = at.max(now);
                }
                2 => {
                    w.cancel(id);
                    model[id] = NONE;
                }
                _ => {
                    now += (x >> 45) % 400;
                    w.advance_to(now);
                    for m in model.iter_mut() {
                        if *m <= now {
                            *m = NONE;
                        }
                    }
                }
            }
            let naive = model.iter().copied().filter(|&t| t != NONE).min();
            assert_eq!(w.next_wake(), naive, "at now={now}");
        }
    }
}
