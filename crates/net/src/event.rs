//! The discrete-event queue.
//!
//! A simulation is a loop over `(time, event)` pairs processed in
//! non-decreasing time order. Determinism requires a total order: events
//! scheduled for the same instant are delivered in scheduling (FIFO) order,
//! implemented with a monotone sequence number.
//!
//! The queue is a **hierarchical timer wheel**: six levels of 64 slots at
//! microsecond granularity, so level `l` spans `64^(l+1)` µs and the wheel
//! covers ~19 hours of virtual time before spilling into an overflow list.
//! Scheduling is O(1); popping amortizes to O(1) per event because an entry
//! cascades down at most `LEVELS` times. At thousand-client scale (hundreds
//! of thousands of pending link/timer events, heavily clustered in time)
//! this beats a binary heap's O(log n) comparison churn per operation.
//!
//! The binary heap it replaced is the drain-order oracle of
//! `tests/prop_net.rs` (`wheel_matches_heap_under_interleaving`, a
//! `BinaryHeap<Reverse<(time, seq, id)>>` model under random interleavings
//! of scheduling and popping), and `tests/determinism.rs` pins a dense
//! 128-client run to the constants a heap-driven run produced.

use crate::time::SimTime;
use std::collections::VecDeque;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const LEVELS: usize = 6;
/// Deltas at or beyond `64^LEVELS` µs from the wheel position go to the
/// overflow list (~19.1 hours — far past any simulated run, so overflow is
/// a correctness valve, not a hot path).
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

struct WheelLevel<E> {
    slots: Vec<Vec<Entry<E>>>,
    /// Exact minimum `at` within each slot (`u64::MAX` when empty).
    /// Maintained on insert; rebuilt for free when a slot cascades (the
    /// slot is drained and survivors re-filed through `file`). A slot of
    /// level `l ≥ 1` can straddle *two* `64^l`-aligned blocks of the
    /// active window — the tail of the block containing `cur` and the
    /// head of the next epoch's — so an arithmetic block-start bound
    /// cannot guarantee cascade progress; the exact minimum can.
    min: Vec<u64>,
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
}

impl<E> WheelLevel<E> {
    fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            min: vec![u64::MAX; SLOTS],
            occupied: 0,
        }
    }
}

/// The hierarchical wheel. Invariant: `cur` never exceeds the time of any
/// pending entry, so every scheduling delta `at - cur` is non-negative and
/// every pending level-`l` entry lies within `[cur, cur + 64^(l+1))`.
struct Wheel<E> {
    levels: Vec<WheelLevel<E>>,
    /// Wheel position: lower bound on every pending entry's time.
    cur: u64,
    /// Entries scheduled further than `HORIZON` ahead of `cur`.
    overflow: Vec<Entry<E>>,
    /// Exact minimum `at` within `overflow` (`u64::MAX` when empty).
    overflow_min: u64,
    /// The level-0 slot currently being drained, pre-sorted by seq. A slot
    /// is opened when its time is the global minimum; same-time schedules
    /// arriving mid-drain append here (their seq is necessarily larger than
    /// anything already draining, so sorted order is preserved).
    draining: VecDeque<Entry<E>>,
    /// Time of the open slot, if any.
    open: Option<u64>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Self {
            levels: (0..LEVELS).map(|_| WheelLevel::new()).collect(),
            cur: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            draining: VecDeque::new(),
            open: None,
        }
    }

    /// File an entry into the level/slot its delta from `cur` selects.
    fn file(&mut self, e: Entry<E>) {
        let at = e.at.as_micros();
        debug_assert!(at >= self.cur, "entry filed behind the wheel position");
        let delta = at - self.cur;
        if delta >= HORIZON {
            self.overflow_min = self.overflow_min.min(at);
            self.overflow.push(e);
            return;
        }
        let mut level = 0u32;
        while delta >= 1u64 << (SLOT_BITS * (level + 1)) {
            level += 1;
        }
        let slot = ((at >> (SLOT_BITS * level)) & SLOT_MASK) as usize;
        let lv = &mut self.levels[level as usize];
        lv.occupied |= 1 << slot;
        lv.min[slot] = lv.min[slot].min(at);
        lv.slots[slot].push(e);
    }

    /// Schedule, routing same-time-as-open entries straight to the drain
    /// buffer (they must pop after everything already draining — FIFO).
    fn schedule(&mut self, e: Entry<E>) {
        if self.open == Some(e.at.as_micros()) {
            self.draining.push_back(e);
        } else {
            self.file(e);
        }
    }

    /// Exact time of the earliest occupied level-0 slot. Level 0 holds
    /// deltas `< 64`, so each occupied slot `s` is the single time `t` in
    /// `[cur, cur+64)` with `t ≡ s (mod 64)`.
    fn l0_min(&self) -> Option<u64> {
        let mut best = None;
        let mut bits = self.levels[0].occupied;
        let base = self.cur & !SLOT_MASK;
        while bits != 0 {
            let s = bits.trailing_zeros() as u64;
            bits &= bits - 1;
            let mut t = base + s;
            if t < self.cur {
                t += SLOTS as u64;
            }
            best = Some(best.map_or(t, |b: u64| b.min(t)));
        }
        best
    }

    /// The minimum pending time over all higher levels and the overflow
    /// list (exact, from the per-slot minima), with the (level, slot) to
    /// cascade. `level == LEVELS` encodes the overflow list.
    fn min_higher_bound(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for l in 1..LEVELS {
            let mut bits = self.levels[l].occupied;
            while bits != 0 {
                let s = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let b = self.levels[l].min[s];
                if best.is_none_or(|(bb, _, _)| b < bb) {
                    best = Some((b, l, s));
                }
            }
        }
        if !self.overflow.is_empty() && best.is_none_or(|(bb, _, _)| self.overflow_min < bb) {
            best = Some((self.overflow_min, LEVELS, 0));
        }
        best
    }

    /// Pop the earliest entry (time, then seq). Cascades higher-level
    /// slots down whenever their bound could precede (or tie) the earliest
    /// level-0 time — ties must cascade so that an early-scheduled entry
    /// parked at a high level keeps FIFO priority over a same-time
    /// late-scheduled one already in level 0.
    fn pop(&mut self) -> Option<Entry<E>> {
        if let Some(e) = self.draining.pop_front() {
            return Some(e);
        }
        self.open = None;
        loop {
            let l0 = self.l0_min();
            let higher = self.min_higher_bound();
            if let Some(t0) = l0 {
                if higher.is_none_or(|(b, _, _)| b > t0) {
                    // Level 0 wins outright: open slot t0 and drain it.
                    self.cur = t0;
                    let s = (t0 & SLOT_MASK) as usize;
                    let lv = &mut self.levels[0];
                    lv.occupied &= !(1 << s);
                    let slot = &mut lv.slots[s];
                    debug_assert!(slot.iter().all(|e| e.at.as_micros() == t0));
                    slot.sort_unstable_by_key(|e| e.seq);
                    self.draining.extend(slot.drain(..));
                    self.open = Some(t0);
                    return self.draining.pop_front();
                }
            }
            let (b, l, s) = higher?;
            // Advance the wheel to the global minimum `b` (keeping the
            // `cur ≤ every pending time` invariant) and cascade that
            // slot. The entry at `b` re-files with delta 0 — strictly
            // lower level — so every cascade makes progress even though
            // far-epoch slot-mates may re-file into the same slot.
            self.cur = b;
            if l == LEVELS {
                let spill = std::mem::take(&mut self.overflow);
                self.overflow_min = u64::MAX;
                for e in spill {
                    self.file(e);
                }
            } else {
                let lv = &mut self.levels[l];
                lv.occupied &= !(1 << s);
                lv.min[s] = u64::MAX;
                let drained = std::mem::take(&mut lv.slots[s]);
                for e in drained {
                    self.file(e);
                }
            }
        }
    }

    /// Exact earliest pending time without mutating the wheel (the
    /// per-slot minima make this a bitmap walk, no content scans).
    fn peek_time(&self) -> Option<u64> {
        if let Some(e) = self.draining.front() {
            return Some(e.at.as_micros());
        }
        let mut best = self.l0_min();
        if let Some((b, _, _)) = self.min_higher_bound() {
            best = Some(best.map_or(b, |t| t.min(b)));
        }
        best
    }
}

/// A deterministic priority queue of timed events.
pub struct EventQueue<E> {
    wheel: Box<Wheel<E>>,
    next_seq: u64,
    now: SimTime,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            wheel: Box::new(Wheel::new()),
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue exhausted?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error (caught in debug builds); release builds clamp to `now`
    /// so the simulation still makes progress.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduled an event in the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.schedule(Entry { at, seq, event });
        self.len += 1;
    }

    /// Pop the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.wheel.pop()?;
        self.len -= 1;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time().map(SimTime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(30), "c");
        q.schedule(SimTime::from_ms(10), "a");
        q.schedule(SimTime::from_ms(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(7)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(7));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_scheduling_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Schedule relative to the popped time.
        q.schedule(t + SimDuration::from_ms(5), 2);
        q.schedule(t + SimDuration::from_ms(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.len(), 0);
    }

    /// The FIFO case the wheel must get right across levels: an event
    /// scheduled long in advance (parked at a high level, low seq) and a
    /// same-time event scheduled just before it fires (level 0, high seq)
    /// must still pop in seq order — the high-level slot cascades on a
    /// *tie* with the level-0 minimum, and the opened slot sorts by seq.
    #[test]
    fn cross_level_same_time_fifo() {
        let mut q = EventQueue::new();
        let far = SimTime(5_000_000); // parked at a high level from t=0
        q.schedule(far, "early");
        q.schedule(SimTime(4_999_990), "warm");
        assert_eq!(q.pop().unwrap().1, "warm"); // cur advances near `far`
        q.schedule(far, "late"); // lands directly in level 0
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.is_empty());
    }

    /// Events beyond the wheel horizon live in the overflow list and still
    /// drain in exact order, including against near events.
    #[test]
    fn overflow_events_order_correctly() {
        let mut q = EventQueue::new();
        let day = SimTime(86_400_000_000); // ≫ 64^6 µs horizon
        q.schedule(day, "far");
        q.schedule(day + SimDuration::from_micros(1), "farther");
        q.schedule(day, "far2");
        q.schedule(SimTime::from_ms(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert_eq!(q.pop().unwrap().1, "farther");
        assert!(q.is_empty());
        assert_eq!(q.now(), day + SimDuration::from_micros(1));
    }

    /// Mid-drain same-time scheduling keeps FIFO: while a slot is open,
    /// new events at the open time must pop after everything already
    /// draining.
    #[test]
    fn schedule_at_open_time_pops_last() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(3);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule(t, 2); // now == t: same-instant append mid-drain
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }
}
