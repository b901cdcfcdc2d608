//! Point-to-point links: latency, bandwidth, queueing, and accounting.
//!
//! Table I fixes the network model of the evaluation: average latency
//! 238 ms (one-way 119 ms), maximum bandwidth 100 Kbps per client link.
//! A [`Link`] reproduces that: each message occupies the wire for
//! `bytes × 8 / bandwidth` seconds behind any messages already queued
//! (FIFO), then spends the propagation latency in flight. Byte and message
//! counters feed the Figure 9 "total data transfer" series.

use crate::time::{SimDuration, SimTime};

/// A unidirectional link between two simulated machines.
///
/// ```
/// use seve_net::{Link, SimTime};
/// use seve_net::time::SimDuration;
///
/// // 100 Kbps with 119 ms one-way latency (Table I).
/// let mut link = Link::paper_default();
/// // 1250 bytes = 10_000 bits = 100 ms serialization + 119 ms flight.
/// let delivered = link.send(SimTime::ZERO, 1250);
/// assert_eq!(delivered, SimTime::from_ms(219));
/// ```
#[derive(Clone, Debug)]
pub struct Link {
    /// One-way propagation latency.
    latency: SimDuration,
    /// Bandwidth in bits per second; `None` means unlimited.
    bandwidth_bps: Option<u64>,
    /// Time at which the transmitter becomes free.
    busy_until: SimTime,
    /// Total payload bytes accepted.
    bytes_sent: u64,
    /// Total messages accepted.
    msgs_sent: u64,
}

impl Link {
    /// A link with the given one-way latency and optional bandwidth cap.
    pub fn new(latency: SimDuration, bandwidth_bps: Option<u64>) -> Self {
        if let Some(b) = bandwidth_bps {
            assert!(b > 0, "bandwidth must be positive");
        }
        Self {
            latency,
            bandwidth_bps,
            busy_until: SimTime::ZERO,
            bytes_sent: 0,
            msgs_sent: 0,
        }
    }

    /// The Table I client link: 119 ms one-way (238 ms RTT), 100 Kbps.
    pub fn paper_default() -> Self {
        Self::new(SimDuration::from_micros(119_000), Some(100_000))
    }

    /// One-way propagation latency of this link.
    #[inline]
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Accept a `bytes`-byte message at time `now`; returns its delivery
    /// time at the far end.
    ///
    /// Serialization delay queues FIFO behind earlier messages; propagation
    /// latency then applies. With no bandwidth cap the message departs
    /// immediately.
    pub fn send(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let bytes = bytes as u64;
        self.bytes_sent += bytes;
        self.msgs_sent += 1;
        let start = now.max(self.busy_until);
        let transmit = match self.bandwidth_bps {
            Some(bps) => {
                // bits / (bits/sec) = sec; in µs: bits * 1e6 / bps.
                SimDuration::from_micros(bytes * 8 * 1_000_000 / bps)
            }
            None => SimDuration::ZERO,
        };
        let departed = start + transmit;
        self.busy_until = departed;
        departed + self.latency
    }

    /// Total payload bytes accepted so far.
    #[inline]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages accepted so far.
    #[inline]
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    /// Reset counters (between experiment phases), keeping the queue state.
    pub fn reset_counters(&mut self) {
        self.bytes_sent = 0;
        self.msgs_sent = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_only_delivery() {
        let mut l = Link::new(SimDuration::from_ms(119), None);
        let t = l.send(SimTime::from_ms(0), 1_000_000);
        assert_eq!(t, SimTime::from_ms(119), "no serialization delay uncapped");
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        // 100 Kbps: 1250 bytes = 10 000 bits = 100 ms on the wire.
        let mut l = Link::new(SimDuration::from_ms(119), Some(100_000));
        let t = l.send(SimTime::ZERO, 1_250);
        assert_eq!(t, SimTime::from_ms(219));
    }

    #[test]
    fn messages_queue_fifo_behind_each_other() {
        let mut l = Link::new(SimDuration::ZERO, Some(100_000));
        let t1 = l.send(SimTime::ZERO, 1_250); // occupies [0, 100ms)
        let t2 = l.send(SimTime::ZERO, 1_250); // queues: [100, 200ms)
        assert_eq!(t1, SimTime::from_ms(100));
        assert_eq!(t2, SimTime::from_ms(200));
        // A later send after the queue drained starts fresh.
        let t3 = l.send(SimTime::from_ms(500), 1_250);
        assert_eq!(t3, SimTime::from_ms(600));
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut l = Link::paper_default();
        l.send(SimTime::ZERO, 100);
        l.send(SimTime::ZERO, 200);
        assert_eq!(l.bytes_sent(), 300);
        assert_eq!(l.msgs_sent(), 2);
        l.reset_counters();
        assert_eq!(l.bytes_sent(), 0);
        assert_eq!(l.msgs_sent(), 0);
    }

    #[test]
    fn paper_default_matches_table_one() {
        let l = Link::paper_default();
        assert_eq!(l.latency().as_ms_f64(), 119.0, "half of the 238ms RTT");
    }

    #[test]
    fn zero_byte_message_still_counts() {
        let mut l = Link::paper_default();
        let t = l.send(SimTime::ZERO, 0);
        assert_eq!(t, SimTime::ZERO + l.latency());
        assert_eq!(l.msgs_sent(), 1);
    }
}
