//! The core's bounded per-µop structures: struct-of-arrays rings for
//! the two FIFOs on the commit path (the reorder buffer and the
//! post-commit store buffer) and the issue queue's occupancy tracker.
//!
//! Both rings are bounded by configuration (dispatch gates on ROB
//! occupancy; a store cannot commit into the SB without holding one of
//! the `sb_entries` slots it acquired at dispatch), so each ring is a
//! set of fixed-capacity parallel lanes. A slot index wraps by one
//! compare-and-subtract, with no division on the per-µop path. The hot
//! loops touch one lane each — commit and the skip-ahead probe poll
//! only `complete_at`, coalescing polls only the tail address —
//! instead of striding over whole entries.

/// One in-flight µop as the rest of the core sees it. Exchange type:
/// [`RobRing`] stores the fields in separate lanes and assembles a copy
/// on [`RobRing::pop_front`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RobEntry {
    pub complete_at: u64,
    pub addr: u64,
    pub pc: u64,
    pub size: u8,
    pub is_store: bool,
    pub is_load: bool,
    pub is_branch: bool,
}

/// `i` wrapped into `0..cap`, for any `i < 2 * cap` (a slot index
/// `head + k` with `head < cap` and `k <= cap`).
#[inline]
fn wrap(i: usize, cap: usize) -> usize {
    if i >= cap {
        i - cap
    } else {
        i
    }
}

const STORE: u8 = 1;
const LOAD: u8 = 2;
const BRANCH: u8 = 4;

/// The reorder buffer: a fixed-capacity FIFO over SoA lanes.
#[derive(Debug)]
pub(crate) struct RobRing {
    cap: usize,
    head: usize,
    len: usize,
    complete_at: Vec<u64>,
    addr: Vec<u64>,
    pc: Vec<u64>,
    size: Vec<u8>,
    kind: Vec<u8>,
}

impl RobRing {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ROB needs at least one entry");
        Self {
            cap,
            head: 0,
            len: 0,
            complete_at: vec![0; cap],
            addr: vec![0; cap],
            pc: vec![0; cap],
            size: vec![0; cap],
            kind: vec![0; cap],
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The completion cycle of the oldest entry — the only field the
    /// commit gate and the idle probe read.
    #[inline]
    pub fn head_complete_at(&self) -> Option<u64> {
        (self.len > 0).then(|| self.complete_at[self.head])
    }

    pub fn push_back(&mut self, e: RobEntry) {
        assert!(self.len < self.cap, "ROB overflow: dispatch gate broken");
        let i = wrap(self.head + self.len, self.cap);
        self.complete_at[i] = e.complete_at;
        self.addr[i] = e.addr;
        self.pc[i] = e.pc;
        self.size[i] = e.size;
        self.kind[i] = ((e.is_store as u8) * STORE)
            | ((e.is_load as u8) * LOAD)
            | ((e.is_branch as u8) * BRANCH);
        self.len += 1;
    }

    pub fn pop_front(&mut self) -> Option<RobEntry> {
        if self.len == 0 {
            return None;
        }
        let i = self.head;
        self.head = wrap(self.head + 1, self.cap);
        self.len -= 1;
        let kind = self.kind[i];
        Some(RobEntry {
            complete_at: self.complete_at[i],
            addr: self.addr[i],
            pc: self.pc[i],
            size: self.size[i],
            is_store: kind & STORE != 0,
            is_load: kind & LOAD != 0,
            is_branch: kind & BRANCH != 0,
        })
    }
}

/// The post-commit store buffer: `(addr, pc, commit cycle)` triples in
/// a fixed-capacity FIFO over SoA lanes. Drain reads the head triple,
/// coalescing peeks only the tail address, and the Figure 3 region
/// charge peeks only the head PC.
#[derive(Debug)]
pub(crate) struct SbRing {
    cap: usize,
    head: usize,
    len: usize,
    addr: Vec<u64>,
    pc: Vec<u64>,
    committed_at: Vec<u64>,
}

impl SbRing {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "SB needs at least one entry");
        Self {
            cap,
            head: 0,
            len: 0,
            addr: vec![0; cap],
            pc: vec![0; cap],
            committed_at: vec![0; cap],
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(addr, pc, committed_at)` of the drain candidate.
    #[inline]
    pub fn front(&self) -> Option<(u64, u64, u64)> {
        (self.len > 0).then(|| {
            (
                self.addr[self.head],
                self.pc[self.head],
                self.committed_at[self.head],
            )
        })
    }

    /// PC of the store blocking the SB head (Figure 3 region charge).
    #[inline]
    pub fn front_pc(&self) -> Option<u64> {
        (self.len > 0).then(|| self.pc[self.head])
    }

    /// Address of the youngest SB entry (coalescing candidate).
    #[inline]
    pub fn back_addr(&self) -> Option<u64> {
        (self.len > 0).then(|| self.addr[wrap(self.head + self.len - 1, self.cap)])
    }

    pub fn push_back(&mut self, addr: u64, pc: u64, committed_at: u64) {
        assert!(self.len < self.cap, "SB overflow: dispatch gate broken");
        let i = wrap(self.head + self.len, self.cap);
        self.addr[i] = addr;
        self.pc[i] = pc;
        self.committed_at[i] = committed_at;
        self.len += 1;
    }

    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = wrap(self.head + 1, self.cap);
        self.len -= 1;
    }
}

/// The issue queue's occupancy: the future issue cycles of dispatched
/// µops that have not issued yet. Only the count of live entries
/// (issue cycle `> now`) and the earliest of them matter; which entry
/// issues when is already fixed at dispatch.
///
/// Entries sit unordered in a flat vector. `reclaim_at` is exactly the
/// minimum entry (`u64::MAX` when empty): a push lowers it, and only a
/// reclaim pass removes entries, recomputing it in the same pass. So
/// while `now < reclaim_at` every entry is live and `len` is the exact
/// live count, and [`IssueQueue::is_full`] reclaims only when a full
/// queue may hold issued entries. A queue that stays full and drains
/// one entry at a time pays one pass per issued entry, not one per
/// occupancy check.
#[derive(Debug)]
pub(crate) struct IssueQueue {
    cap: usize,
    issue_at: Vec<u64>,
    reclaim_at: u64,
}

impl IssueQueue {
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            issue_at: Vec::with_capacity(cap),
            reclaim_at: u64::MAX,
        }
    }

    /// Enters a µop that issues at cycle `t`.
    #[inline]
    pub fn push(&mut self, t: u64) {
        self.issue_at.push(t);
        self.reclaim_at = self.reclaim_at.min(t);
    }

    /// Whether all `cap` entries hold µops not yet issued at `now`.
    /// Drops the issued ones first if the answer depends on them.
    #[inline]
    pub fn is_full(&mut self, now: u64) -> bool {
        if self.issue_at.len() >= self.cap && now >= self.reclaim_at {
            let mut min = u64::MAX;
            self.issue_at.retain(|&t| {
                let live = t > now;
                if live {
                    min = min.min(t);
                }
                live
            });
            self.reclaim_at = min;
        }
        self.issue_at.len() >= self.cap
    }

    /// The earliest cycle an entry issues, if any. After
    /// [`IssueQueue::is_full`] returned true at `now`, this is the
    /// first cycle the verdict can change, and it is `> now`.
    #[inline]
    pub fn next_issue(&self) -> Option<u64> {
        (!self.issue_at.is_empty()).then_some(self.reclaim_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn entry(complete_at: u64, kind: u8) -> RobEntry {
        RobEntry {
            complete_at,
            addr: complete_at * 8,
            pc: complete_at + 0x400000,
            size: 8,
            is_store: kind & STORE != 0,
            is_load: kind & LOAD != 0,
            is_branch: kind & BRANCH != 0,
        }
    }

    #[test]
    fn rob_ring_is_fifo_and_reassembles_entries() {
        let mut r = RobRing::new(4);
        assert!(r.is_empty());
        assert_eq!(r.head_complete_at(), None);
        for (t, k) in [(5, STORE), (6, LOAD), (7, BRANCH), (8, 0)] {
            r.push_back(entry(t, k));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.head_complete_at(), Some(5));
        for (t, k) in [(5, STORE), (6, LOAD), (7, BRANCH), (8, 0)] {
            assert_eq!(r.pop_front(), Some(entry(t, k)));
        }
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn rob_ring_wraps_across_capacity() {
        let mut r = RobRing::new(3);
        for round in 0..10u64 {
            r.push_back(entry(round, LOAD));
            assert_eq!(r.pop_front(), Some(entry(round, LOAD)));
        }
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn rob_ring_rejects_overflow() {
        let mut r = RobRing::new(2);
        for t in 0..3 {
            r.push_back(entry(t, 0));
        }
    }

    #[test]
    fn sb_ring_tracks_head_and_tail_lanes() {
        let mut s = SbRing::new(3);
        assert_eq!(s.front(), None);
        assert_eq!(s.back_addr(), None);
        s.push_back(64, 0x400, 10);
        s.push_back(128, 0x404, 11);
        assert_eq!(s.front(), Some((64, 0x400, 10)));
        assert_eq!(s.front_pc(), Some(0x400));
        assert_eq!(s.back_addr(), Some(128));
        s.pop_front();
        assert_eq!(s.front(), Some((128, 0x404, 11)));
        // Wrap around the 3-entry ring.
        s.push_back(192, 0x408, 12);
        s.push_back(256, 0x40c, 13);
        assert_eq!(s.len(), 3);
        assert_eq!(s.back_addr(), Some(256));
        s.pop_front();
        s.pop_front();
        assert_eq!(s.front(), Some((256, 0x40c, 13)));
    }

    /// The tail lane must follow the ring across its wrap point at the
    /// SB sizes the paper studies, including when the youngest entry
    /// sits in the last slot and the oldest in the first.
    #[test]
    fn sb_ring_back_addr_follows_the_wrap() {
        for cap in [14, 56] {
            let mut s = SbRing::new(cap);
            let mut model = std::collections::VecDeque::new();
            for k in 0..5 * cap as u64 {
                // Alternate phases: fill to capacity, then drain while
                // refilling on every third step.
                if model.len() < cap && (k / cap as u64) % 2 == 0 {
                    s.push_back(k * 64, 0x400 + k, k);
                    model.push_back(k * 64);
                } else if !model.is_empty() {
                    s.pop_front();
                    model.pop_front();
                    if k % 3 == 0 && model.len() < cap {
                        s.push_back(k * 64, 0x400 + k, k);
                        model.push_back(k * 64);
                    }
                }
                assert_eq!(s.len(), model.len());
                assert_eq!(s.back_addr(), model.back().copied(), "cap {cap} step {k}");
                assert_eq!(s.front().map(|f| f.0), model.front().copied());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Dispatch's view of the IQ — the full/not-full verdict and,
        /// when full, the wake time — matches a min-heap that reclaims
        /// every issued entry eagerly, at every step. Issue times are
        /// `> now + 1` (as `issue_op` enters them); `now` moves by zero
        /// or one cycle, or jumps ahead as skip-ahead does.
        #[test]
        fn issue_queue_matches_an_eager_heap(
            cap in 1usize..24,
            steps in collection::vec((0u64..8, 0u64..40), 1..600),
        ) {
            let mut iq = IssueQueue::new(cap);
            let mut heap = BinaryHeap::new();
            let mut now = 0u64;
            for (dt, delay) in steps {
                now += if dt == 7 { delay * 7 } else { dt.min(1) };
                while heap.peek().is_some_and(|&Reverse(t)| t <= now) {
                    heap.pop();
                }
                let full = heap.len() >= cap;
                prop_assert_eq!(iq.is_full(now), full);
                if full {
                    prop_assert_eq!(iq.next_issue(), heap.peek().map(|&Reverse(t)| t));
                } else if delay % 4 != 0 {
                    let t = now + 2 + delay;
                    iq.push(t);
                    heap.push(Reverse(t));
                }
            }
        }
    }
}
