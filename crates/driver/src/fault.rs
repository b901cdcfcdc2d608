//! Seeded fault injection for any backend.
//!
//! The fault model is a stream's (DESIGN.md §16.0): inside a live
//! connection nothing is lost, duplicated or reordered, and what a dead
//! connection loses is its unacked tail. So the faults are of two kinds:
//!
//! * **Connection faults**, scheduled per client in a [`FaultPlan`]: a
//!   crash (the client stops mid-workload without a goodbye) and a
//!   [`LinkPartition`] (the link goes dark with frames in flight and heals
//!   later; a short one is a *connection cut*). The node drivers enforce
//!   them, and the session layer recovers a partition by resume.
//! * **Up-lane message faults** ([`FaultPlan::up`]): what a broken or
//!   hostile client does to its own submissions — drop, duplicate, reorder
//!   or delay them. The protocol absorbs them: arrival order is
//!   serialization order, and the server's ingress ledger dedups by action
//!   id. One seeded [`FaultPolicy`] has two realizations:
//!   * [`FaultyLink`] — wraps a simulator [`Link`]: verdicts perturb the
//!     arrival times the harness schedules (drop = no arrival, duplicate =
//!     second transmission, delay = arrival jitter, reorder = an arrival
//!     shift past subsequently sent traffic).
//!   * [`FaultyClientTransport`] — decorates a client's supervised
//!     [`ClientTransport`] (TCP, in-process), so it perturbs protocol
//!     messages, never the session's own acks and resumes: drop and
//!     duplicate act per message; reorder and delay are realized as a
//!     holdback-swap — the victim waits until the next message passes it,
//!     and is flushed at the goodbye so a held tail message is never
//!     silently lost.
//!
//! Verdicts are pure hashes of `(seed, lane, message index)` — no shared
//! RNG stream — so a policy with all rates at zero is *exactly* the
//! identity: same calls, same order, same results, bit for bit.

use crate::transport::{ClientEvent, ClientTransport};
use seve_net::link::Link;
use seve_net::time::{SimDuration, SimTime};
use seve_world::ids::ClientId;
use std::time::Duration;

/// Seeded, per-message fault rates for a client's submissions.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPolicy {
    /// Verdict seed; two lanes with the same seed and stream id fault the
    /// same message indices.
    pub seed: u64,
    /// Probability a message is lost after transmission.
    pub drop: f64,
    /// Probability a message is transmitted twice.
    pub duplicate: f64,
    /// Probability a message is reordered past later traffic.
    pub reorder: f64,
    /// Probability a message is delayed.
    pub delay: f64,
    /// Maximum extra latency a delayed message suffers (sim substrate).
    pub max_delay: SimDuration,
    /// Arrival shift applied to reordered messages on the sim substrate —
    /// anything sent on the lane within this window overtakes the victim.
    pub reorder_shift: SimDuration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            seed: 0xFA_017,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            max_delay: SimDuration::from_ms(200),
            reorder_shift: SimDuration::from_ms(150),
        }
    }
}

/// splitmix64: a well-mixed 64-bit permutation, good enough to turn
/// (seed, lane, index) into independent verdicts.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_REORDER: u64 = 3;
const SALT_DELAY: u64 = 4;
const SALT_JITTER: u64 = 5;

impl FaultPolicy {
    /// A policy that never faults (the identity decorator).
    pub fn none() -> Self {
        Self::default()
    }

    /// Does this policy ever fault anything?
    pub fn is_none(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0 && self.delay == 0.0
    }

    /// A uniform draw in `[0, 1)` for message `index` on lane `stream`.
    fn unit(&self, salt: u64, stream: u64, index: u64) -> f64 {
        let h = splitmix64(
            self.seed
                ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ stream.wrapping_mul(0x9FB2_1C65_1E98_DF25)
                ^ splitmix64(index),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Is message `index` on `stream` dropped?
    pub fn drops(&self, stream: u64, index: u64) -> bool {
        self.drop > 0.0 && self.unit(SALT_DROP, stream, index) < self.drop
    }

    /// Is message `index` on `stream` duplicated?
    pub fn duplicates(&self, stream: u64, index: u64) -> bool {
        self.duplicate > 0.0 && self.unit(SALT_DUP, stream, index) < self.duplicate
    }

    /// Is message `index` on `stream` reordered?
    pub fn reorders(&self, stream: u64, index: u64) -> bool {
        self.reorder > 0.0 && self.unit(SALT_REORDER, stream, index) < self.reorder
    }

    /// Is message `index` on `stream` delayed?
    pub fn delays(&self, stream: u64, index: u64) -> bool {
        self.delay > 0.0 && self.unit(SALT_DELAY, stream, index) < self.delay
    }

    /// Extra latency for a delayed message: `(0, max_delay]`, deterministic
    /// per (seed, stream, index).
    pub fn jitter(&self, stream: u64, index: u64) -> SimDuration {
        let span = self.max_delay.as_micros().max(1);
        let f = self.unit(SALT_JITTER, stream, index);
        SimDuration::from_micros(((span as f64 * f) as u64).max(1))
    }
}

/// A seeded link outage: `client`'s duplex link goes dark after its
/// `after_submissions`-th submission and heals `duration` later, at which
/// point the client reconnects (with backoff on real sockets) and resumes
/// its session from the last delivered sequence number. Frames in flight
/// when it goes dark are lost. On the TCP substrate the connection is
/// actually torn down and redialed; a short outage is a connection cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkPartition {
    /// The partitioned client.
    pub client: ClientId,
    /// Partition starts right after this many submissions.
    pub after_submissions: u32,
    /// How long the link stays dark.
    pub duration: Duration,
}

/// A full fault scenario for one session: up-lane message faults plus
/// client crashes and link partitions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Faults on the protocol messages clients send.
    pub up: FaultPolicy,
    /// Clients that crash: `(client, k)` disconnects the client abruptly
    /// after its `k`-th submission — no drain, no goodbye.
    pub crashes: Vec<(ClientId, u32)>,
    /// Link-partition windows (crash-then-reconnect schedules).
    pub partitions: Vec<LinkPartition>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Does this plan inject anything at all?
    pub fn is_none(&self) -> bool {
        self.up.is_none() && self.crashes.is_empty() && self.partitions.is_empty()
    }

    /// The crash point for `client`, if scheduled.
    pub fn crash_for(&self, client: ClientId) -> Option<u32> {
        self.crashes
            .iter()
            .find(|(c, _)| *c == client)
            .map(|&(_, k)| k)
    }

    /// The partition window for `client`, if scheduled.
    pub fn partition_for(&self, client: ClientId) -> Option<LinkPartition> {
        self.partitions.iter().find(|p| p.client == client).copied()
    }

    /// The up-lane stream id for client `i` (shared convention across
    /// backends so the same plan faults the same messages). It stays
    /// `2 i`, so a seeded plan faults the messages its pins were taken on.
    pub fn up_stream(i: usize) -> u64 {
        2 * i as u64
    }
}

/// A simulator [`Link`] with fault-perturbed arrivals.
///
/// `send` yields the delivery times the harness should schedule: usually
/// one, zero for a dropped message, two for a duplicated one. The no-fault
/// path is a single pass-through `Link::send` — identical scheduling, bit
/// for bit.
#[derive(Debug)]
pub struct FaultyLink {
    link: Link,
    policy: FaultPolicy,
    stream: u64,
    index: u64,
}

impl FaultyLink {
    /// Wrap `link` with `policy` on lane `stream`.
    pub fn new(link: Link, policy: FaultPolicy, stream: u64) -> Self {
        Self {
            link,
            policy,
            stream,
            index: 0,
        }
    }

    /// The wrapped link (byte/message counters).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Transmit `bytes` at `now`; `arrivals` receives the delivery times
    /// (cleared first). Dropped messages are still transmitted — they
    /// consume bandwidth and count on the link — but never arrive.
    pub fn send(&mut self, now: SimTime, bytes: usize, arrivals: &mut Vec<SimTime>) {
        arrivals.clear();
        let i = self.index;
        self.index += 1;
        if self.policy.is_none() {
            arrivals.push(self.link.send(now, bytes));
            return;
        }
        let mut at = self.link.send(now, bytes);
        if self.policy.delays(self.stream, i) {
            at += self.policy.jitter(self.stream, i);
        }
        if self.policy.reorders(self.stream, i) {
            // Anything sent on this lane within the shift window overtakes
            // the victim — an arrival-order inversion, the sim-substrate
            // realization of reordering.
            at += self.policy.reorder_shift;
        }
        if !self.policy.drops(self.stream, i) {
            arrivals.push(at);
        }
        if self.policy.duplicates(self.stream, i) {
            arrivals.push(self.link.send(now, bytes));
        }
    }
}

/// Threaded-transport faulting of one client's submissions: drop /
/// duplicate act per message, reorder / delay hold the victim back until
/// the next message passes it (an adjacent swap). `flush` releases a held
/// message at the goodbye so nothing is silently lost.
#[derive(Debug)]
struct Lane<M> {
    policy: FaultPolicy,
    stream: u64,
    index: u64,
    held: Option<M>,
}

impl<M: Clone> Lane<M> {
    fn new(policy: FaultPolicy, stream: u64) -> Self {
        Self {
            policy,
            stream,
            index: 0,
            held: None,
        }
    }

    /// Admit one message; `out` receives what actually passes, in order.
    fn admit(&mut self, msg: M, out: &mut Vec<M>) {
        let i = self.index;
        self.index += 1;
        if self.policy.is_none() {
            out.push(msg);
            return;
        }
        if self.policy.drops(self.stream, i) {
            return;
        }
        let hold = self.policy.reorders(self.stream, i) || self.policy.delays(self.stream, i);
        if hold && self.held.is_none() {
            self.held = Some(msg);
            return;
        }
        let dup = self.policy.duplicates(self.stream, i);
        if dup {
            out.push(msg.clone());
        }
        out.push(msg);
        // The swap: a later message has now passed the held victim.
        if let Some(h) = self.held.take() {
            out.push(h);
        }
    }

    fn flush(&mut self, out: &mut Vec<M>) {
        if let Some(h) = self.held.take() {
            out.push(h);
        }
    }
}

/// Fault decorator over a client's [`ClientTransport`]: perturbs what
/// `send` and `finish` carry, and passes the down lane, reconnects and
/// partitions straight through. With a zero policy it is the identity.
#[derive(Debug)]
pub struct FaultyClientTransport<T, U> {
    inner: T,
    up: Lane<U>,
    scratch: Vec<U>,
}

impl<T, U: Clone> FaultyClientTransport<T, U> {
    /// Decorate `inner` for client index `i` under `plan`.
    pub fn new(inner: T, plan: &FaultPlan, i: usize) -> Self {
        Self {
            inner,
            up: Lane::new(plan.up.clone(), FaultPlan::up_stream(i)),
            scratch: Vec::new(),
        }
    }

    /// Send what the lane let through; returns the bytes written.
    fn pass<D>(&mut self) -> Result<u64, T::Error>
    where
        T: ClientTransport<U, D>,
    {
        let mut bytes = 0u64;
        for m in self.scratch.drain(..) {
            bytes += self.inner.send(m)?;
        }
        Ok(bytes)
    }
}

impl<T, U, D> ClientTransport<U, D> for FaultyClientTransport<T, U>
where
    T: ClientTransport<U, D>,
    U: Clone,
{
    type Error = T::Error;

    fn recv(&mut self, timeout: Duration) -> Result<ClientEvent<D>, Self::Error> {
        self.inner.recv(timeout)
    }

    fn send(&mut self, msg: U) -> Result<u64, Self::Error> {
        self.up.admit(msg, &mut self.scratch);
        self.pass()
    }

    fn finish(&mut self) -> Result<u64, Self::Error> {
        self.up.flush(&mut self.scratch);
        Ok(self.pass()? + self.inner.finish()?)
    }

    fn reconnect(&mut self) -> Result<bool, Self::Error> {
        self.inner.reconnect()
    }

    fn partition(&mut self, d: Duration) -> Result<(), Self::Error> {
        self.inner.partition(d)
    }

    fn session_stats(&self) -> crate::session::SessionStats {
        self.inner.session_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_deterministic_and_rate_shaped() {
        let p = FaultPolicy {
            drop: 0.2,
            ..FaultPolicy::default()
        };
        let n = 10_000u64;
        let dropped = (0..n).filter(|&i| p.drops(3, i)).count();
        let again = (0..n).filter(|&i| p.drops(3, i)).count();
        assert_eq!(dropped, again, "verdicts are pure functions");
        let rate = dropped as f64 / n as f64;
        assert!((0.17..0.23).contains(&rate), "observed drop rate {rate}");
        // Distinct streams fault distinct indices.
        let other = (0..n).filter(|&i| p.drops(4, i)).count();
        assert!(other > 0);
        assert_ne!(
            (0..64).map(|i| p.drops(3, i)).collect::<Vec<_>>(),
            (0..64).map(|i| p.drops(4, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn no_fault_policy_is_identity_on_links() {
        let mk = || Link::new(SimDuration::from_ms(10), Some(100_000));
        let mut plain = mk();
        let mut faulty = FaultyLink::new(mk(), FaultPolicy::none(), 0);
        let mut arrivals = Vec::new();
        for k in 0..20u64 {
            let now = SimTime::from_ms(k * 3);
            let want = plain.send(now, 100);
            faulty.send(now, 100, &mut arrivals);
            assert_eq!(arrivals.as_slice(), &[want]);
        }
        assert_eq!(plain.bytes_sent(), faulty.link().bytes_sent());
        assert_eq!(plain.msgs_sent(), faulty.link().msgs_sent());
    }

    #[test]
    fn dropped_messages_never_arrive_but_count_on_the_wire() {
        let policy = FaultPolicy {
            drop: 1.0,
            ..FaultPolicy::default()
        };
        let mut l = FaultyLink::new(Link::new(SimDuration::from_ms(5), None), policy, 0);
        let mut arrivals = Vec::new();
        l.send(SimTime::ZERO, 64, &mut arrivals);
        assert!(arrivals.is_empty());
        assert_eq!(l.link().msgs_sent(), 1);
        assert_eq!(l.link().bytes_sent(), 64);
    }

    #[test]
    fn duplicates_arrive_twice() {
        let policy = FaultPolicy {
            duplicate: 1.0,
            ..FaultPolicy::default()
        };
        let mut l = FaultyLink::new(Link::new(SimDuration::from_ms(5), None), policy, 0);
        let mut arrivals = Vec::new();
        l.send(SimTime::ZERO, 64, &mut arrivals);
        assert_eq!(arrivals.len(), 2);
        assert_eq!(l.link().msgs_sent(), 2, "the copy is transmitted too");
    }

    #[test]
    fn lane_holdback_swaps_adjacent_messages_and_flushes() {
        let policy = FaultPolicy {
            reorder: 1.0,
            ..FaultPolicy::default()
        };
        // reorder=1.0: msg 0 is held; msg 1 wants holding too but a victim
        // is already held, so it passes and releases msg 0 behind it.
        let mut lane = Lane::new(policy, 0);
        let mut out = Vec::new();
        lane.admit(0u32, &mut out);
        assert!(out.is_empty(), "victim held");
        lane.admit(1u32, &mut out);
        assert_eq!(out, vec![1, 0], "adjacent swap");
        out.clear();
        lane.admit(2u32, &mut out);
        assert!(out.is_empty(), "next victim held");
        lane.flush(&mut out);
        assert_eq!(out, vec![2], "flush releases the tail victim");
    }

    #[test]
    fn crash_plan_lookup() {
        let plan = FaultPlan {
            crashes: vec![(ClientId(2), 5)],
            ..FaultPlan::default()
        };
        assert_eq!(plan.crash_for(ClientId(2)), Some(5));
        assert_eq!(plan.crash_for(ClientId(0)), None);
        assert!(!plan.is_none());
        assert!(FaultPlan::none().is_none());
        assert_ne!(FaultPlan::up_stream(3), FaultPlan::up_stream(4));
    }

    #[test]
    fn partition_plan_lookup() {
        let window = LinkPartition {
            client: ClientId(1),
            after_submissions: 4,
            duration: Duration::from_millis(150),
        };
        let plan = FaultPlan {
            partitions: vec![window],
            ..FaultPlan::default()
        };
        assert!(!plan.is_none(), "a partition-only plan still injects");
        assert_eq!(plan.partition_for(ClientId(1)), Some(window));
        assert_eq!(plan.partition_for(ClientId(0)), None);
    }
}
