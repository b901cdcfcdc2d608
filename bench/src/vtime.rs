//! The direct mode's virtual clock: a µs-resolution event queue that pops in
//! time order and, at equal times, in the order scheduled — so a run is a
//! pure function of its inputs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at_us: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at_us, self.seq) == (other.at_us, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    /// Reversed: `BinaryHeap` is a max-heap and the earliest entry pops.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at_us, other.seq).cmp(&(self.at_us, self.seq))
    }
}

/// Time-ordered, FIFO-at-ties event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub fn schedule(&mut self, at_us: u64, event: E) {
        self.heap.push(Entry {
            at_us,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|e| (e.at_us, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_and_fifo_at_equal_times() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a1");
        q.schedule(20, "b");
        q.schedule(10, "a2");
        q.schedule(10, "a3");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(10, "a1"), (10, "a2"), (10, "a3"), (20, "b"), (30, "c")]
        );
    }

    #[test]
    fn fifo_survives_interleaved_pops() {
        let mut q = EventQueue::new();
        q.schedule(5, 0);
        q.schedule(5, 1);
        assert_eq!(q.pop(), Some((5, 0)));
        // Scheduled later at the same time: still after the earlier one.
        q.schedule(5, 2);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), None);
    }
}
