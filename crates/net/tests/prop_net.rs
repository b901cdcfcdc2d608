//! Property-based tests for the discrete-event kernel and network model.

use proptest::prelude::*;
use seve_net::event::EventQueue;
use seve_net::link::Link;
use seve_net::stats::Summary;
use seve_net::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The drain-order oracle the timer wheel replaced: a binary min-heap keyed
/// by `(time, scheduling seq)` — earliest first, FIFO among ties — with the
/// event queue's clock rule (popping advances `now`).
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_seq: u64,
    now: SimTime,
}

impl HeapModel {
    fn schedule(&mut self, at: SimTime, id: u32) {
        self.heap.push(Reverse((at, self.next_seq, id)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let Reverse((at, _, id)) = self.heap.pop()?;
        self.now = at;
        Some((at, id))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

proptest! {
    #[test]
    fn event_queue_pops_sorted_with_fifo_ties(times in prop::collection::vec(0u64..1000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }

    /// The timer wheel and the binary-heap model must produce the exact
    /// same pop sequence under arbitrary interleavings of scheduling and
    /// popping, including same-instant ties, deltas spanning several wheel
    /// levels, and jumps past the overflow horizon.
    #[test]
    fn wheel_matches_heap_under_interleaving(
        ops in prop::collection::vec(
            prop_oneof![
                // Schedule `delta` past the current clock; deltas are
                // log-distributed so every wheel level (and the overflow
                // list) gets exercised.
                (0u32..37).prop_flat_map(|bits| (0u64..(1u64 << bits) + 1).prop_map(Some)),
                Just(None), // pop
            ],
            1..200,
        )
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapModel::default();
        let mut id = 0u32;
        for op in ops {
            match op {
                Some(delta) => {
                    let at = SimTime(wheel.now().as_micros() + delta);
                    wheel.schedule(at, id);
                    heap.schedule(at, id);
                    id += 1;
                }
                None => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    prop_assert_eq!(wheel.pop(), heap.pop());
                    prop_assert_eq!(wheel.now(), heap.now);
                }
            }
            prop_assert_eq!(wheel.len(), heap.heap.len());
        }
        // Drain whatever is left: the tails must agree too.
        loop {
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }

    #[test]
    fn link_deliveries_are_fifo_and_account_bytes(
        sends in prop::collection::vec((0u64..10_000, 1usize..5_000), 1..60),
        bps in prop::option::of(1_000u64..1_000_000),
        latency_ms in 0u64..500
    ) {
        let mut link = Link::new(SimDuration::from_ms(latency_ms), bps);
        let mut sorted = sends.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut last_delivery = SimTime::ZERO;
        let mut total = 0u64;
        for &(t, bytes) in &sorted {
            let d = link.send(SimTime(t), bytes);
            // FIFO: deliveries never reorder.
            prop_assert!(d >= last_delivery);
            // Causality: delivery is not before send + latency.
            prop_assert!(d >= SimTime(t) + SimDuration::from_ms(latency_ms));
            // With a bandwidth cap, serialization takes real time.
            if let Some(b) = bps {
                let min_transmit = bytes as u64 * 8 * 1_000_000 / b;
                prop_assert!(d.as_micros() >= t + min_transmit + latency_ms * 1000);
            }
            last_delivery = d;
            total += bytes as u64;
        }
        prop_assert_eq!(link.bytes_sent(), total);
        prop_assert_eq!(link.msgs_sent(), sorted.len() as u64);
    }

    #[test]
    fn summary_statistics_match_reference(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Summary::new();
        for &v in &samples {
            s.record(v);
        }
        let mean_ref = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((s.mean() - mean_ref).abs() <= 1e-6 * (1.0 + mean_ref.abs()));
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(s.min(), sorted[0]);
        prop_assert_eq!(s.max(), *sorted.last().unwrap());
        // Quantiles are actual samples, and the median splits the data.
        let med = s.median();
        prop_assert!(samples.contains(&med));
        let below = samples.iter().filter(|&&v| v <= med).count();
        prop_assert!(below * 2 >= samples.len());
    }

    #[test]
    fn summary_merge_equals_concatenation(
        a in prop::collection::vec(-100f64..100.0, 0..50),
        b in prop::collection::vec(-100f64..100.0, 0..50)
    ) {
        let mut sa = Summary::new();
        for &v in &a {
            sa.record(v);
        }
        let mut sb = Summary::new();
        for &v in &b {
            sb.record(v);
        }
        sa.merge(&sb);
        let mut sc = Summary::new();
        for &v in a.iter().chain(b.iter()) {
            sc.record(v);
        }
        prop_assert_eq!(sa.count(), sc.count());
        prop_assert_eq!(sa.mean(), sc.mean());
        prop_assert_eq!(sa.p95(), sc.p95());
    }
}
